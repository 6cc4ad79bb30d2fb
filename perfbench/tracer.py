"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of the bsbshaper modules from the
outside: it rebinds the module attributes, including the names other modules
imported (``figures.gaussian_pulse``, ``metrology.apply_transfer``, ...), so
calls made inside the package are traced too.  Nothing in the package itself
changes.  Spans are kept in memory as ``[name, start, end, parent]`` and
written out when the run ends.

A span's self time is its duration minus the part of it that its child spans
cover; the self times of all spans add up to the wall time of the root spans.
"""

from __future__ import annotations

import collections
import functools
import sys
import time
import types

import numpy as np

from bsbshaper import config, dispersion, figures, ftsi, metrology, pulsefield, shaper

PROGRAM_MODULES = (config, dispersion, pulsefield, shaper, ftsi, metrology, figures)
LAYERS = ("setup", "bench") + tuple(m.__name__.rsplit(".", 1)[1] for m in PROGRAM_MODULES)
FFT_FUNCTIONS = ("pulsefield.to_time", "pulsefield.to_frequency")

# Which end-to-end metric, on which workload, each per-layer metric should move.
LAYER_MAP = {
    "figures.self_s": "op_p90_ms on figures-64k (mostly CSV formatting)",
    "figures.bytes_written": "op_p90_ms on figures-64k",
    "figures.rows_written": "op_p90_ms on figures-64k",
    "pulsefield.csv_write_s": "op_p90_ms on ftsi-roundtrip-16k",
    "pulsefield.csv_read_s": "op_p90_ms on ftsi-roundtrip-16k",
    "ftsi.csv_write_s": "op_p90_ms on ftsi-roundtrip-16k",
    "ftsi.csv_read_s": "op_p90_ms on ftsi-roundtrip-16k",
    "dispersion.self_s": "op_p90_ms on design-sweep-4k",
    "dispersion.calls": "op_p90_ms on design-sweep-4k",
    "dispersion.index_evals": "op_p90_ms on design-sweep-4k",
    "dispersion.redundant_eval_frac": "op_p90_ms on design-sweep-4k",
    "shaper.self_s": "op_p90_ms on design-sweep-4k",
    "shaper.calls": "op_p90_ms on design-sweep-4k",
    "shaper.transfer_per_score": "op_p90_ms on design-sweep-4k",
    "metrology.self_s": "op_p90_ms on design-sweep-4k",
    "metrology.calls": "op_p90_ms on design-sweep-4k",
    "metrology.scores": "op_p90_ms on design-sweep-4k",
    "ftsi.self_s": "op_p90_ms on figures-64k and ftsi-roundtrip-16k",
    "ftsi.retrieve_s": "op_p90_ms on figures-64k and ftsi-roundtrip-16k",
    "ftsi.unwrap_s": "op_p90_ms on figures-64k and ftsi-roundtrip-16k",
    "ftsi.unwrap_segments": "op_p90_ms on figures-64k and ftsi-roundtrip-16k",
    "ftsi.masked_frac": "op_p90_ms on figures-64k and ftsi-roundtrip-16k",
    "pulsefield.self_s": "op_p90_ms on figures-64k and ftsi-roundtrip-16k",
    "pulsefield.fft_calls": "op_p90_ms on figures-64k and ftsi-roundtrip-16k",
    "pulsefield.fft_bytes_computed": "op_p90_ms on figures-64k and ftsi-roundtrip-16k",
    "config.self_s": "setup_s on every workload",
    "config.calls": "setup_s on every workload",
    "dispersion.load_materials_s": "setup_s on every workload",
    "setup.import_s": "setup_s on every workload",
    "setup.self_s": "setup_s on every workload",
    "bench.self_s": "none: harness time between program calls inside an op",
    "trace.wall_s": "none: traced wall time, equal to the sum of every *.self_s",
    "trace.overhead_frac": "none: traced over untraced op time, minus 1",
}


class Tracer:
    """Records spans and counters while installed over the program modules."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._grids_seen: set = set()
        self._hooks = {
            "dispersion.refractive_index": self._count_index_eval,
            "ftsi.retrieve_phase": self._count_masked,
            "ftsi.unwrap": self._count_segments,
        }
        for name in FFT_FUNCTIONS:
            self._hooks[name] = self._count_fft

    # -- spans -------------------------------------------------------------

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> float:
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")
        span = self.spans[idx]
        span[2] = time.perf_counter() if end is None else end
        return span[2] - span[1]

    def add(self, name: str, start: float, end: float):
        """A finished child of the currently open span."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1])

    # -- rebinding ---------------------------------------------------------

    def install(self):
        """Rebind every public program function, wherever a module holds it."""
        wrappers = {}
        for module in PROGRAM_MODULES:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        holders = [m for n, m in list(sys.modules.items())
                   if n == "bsbshaper" or n.startswith("bsbshaper.")]
        for module in holders:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patches.append((module, name, obj))

    def uninstall(self):
        for module, name, obj in reversed(self._patches):
            setattr(module, name, obj)
        self._patches.clear()

    def _wrap(self, qualname, fn):
        hook = self._hooks.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counters at layer boundaries --------------------------------------

    def _count_index_eval(self, args, _result):
        model, wl = args[0], np.asarray(args[1])
        self.counters["index_evals"] += 1
        if wl.size > 1:
            # a uniform grid is identified by its size and three samples
            key = (model.label, wl.size, float(wl.flat[0]), float(wl.flat[wl.size // 2]),
                   float(wl.flat[-1]))
            self.counters["index_array_evals"] += 1
            if key in self._grids_seen:
                self.counters["index_redundant_evals"] += 1
            self._grids_seen.add(key)

    def _count_masked(self, _args, result):
        self.counters["retrieved_samples"] += result.masked.size
        self.counters["retrieved_masked"] += int(np.count_nonzero(result.masked))

    def _count_segments(self, args, _result):
        valid = ~args[0].masked
        self.counters["unwrap_segments"] += int(valid[0]) + int(
            np.count_nonzero(valid[1:] & ~valid[:-1]))

    def _count_fft(self, _args, result):
        n = len(result.amplitude)
        self.counters["fft_calls"] += 1
        self.counters["fft_bytes"] += 2 * 16 * n  # complex128 in and out

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children = collections.defaultdict(list)
        for idx, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for idx, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers: self time per layer, durations, calls and counts."""
        self_t = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        calls = collections.Counter()
        total = collections.Counter()  # inclusive seconds per span name
        for (name, start, end, _), own in zip(self.spans, self_t):
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            calls[layer] += 1
            total[name] += end - start
        wall = sum(end - start for _, start, end, parent in self.spans if parent < 0)

        scores = sum(1 for s in self.spans if s[0] == "metrology.score_compensator")
        transfers_in_scores = sum(
            1 for s in self.spans
            if s[0] == "shaper.transfer_exact_segments"
            and self._has_ancestor(s, "metrology.score_compensator"))
        c = self.counters
        m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        m.update({
            "trace.wall_s": wall,
            "setup.import_s": total["setup.import"],
            "config.calls": calls["config"],
            "dispersion.calls": calls["dispersion"],
            "dispersion.load_materials_s": total["dispersion.load_materials"],
            "dispersion.index_evals": c["index_evals"],
            "dispersion.redundant_eval_frac": _ratio(c["index_redundant_evals"],
                                                     c["index_array_evals"]),
            "shaper.calls": calls["shaper"],
            "shaper.transfer_per_score": _ratio(transfers_in_scores, scores),
            "metrology.calls": calls["metrology"],
            "metrology.scores": scores + sum(
                1 for s in self.spans if s[0] == "metrology.stack_overlap"),
            "pulsefield.csv_write_s": total["pulsefield.write_field_csv"],
            "pulsefield.csv_read_s": total["pulsefield.read_field_csv"],
            "pulsefield.fft_calls": c["fft_calls"],
            "pulsefield.fft_bytes_computed": c["fft_bytes"],
            "ftsi.csv_write_s": total["ftsi.write_interferogram_csv"]
                                + total["ftsi.write_phase_csv"],
            "ftsi.csv_read_s": total["ftsi.read_interferogram_csv"]
                               + total["ftsi.read_phase_csv"],
            "ftsi.retrieve_s": total["ftsi.retrieve_phase"],
            "ftsi.unwrap_s": total["ftsi.unwrap"],
            "ftsi.unwrap_segments": c["unwrap_segments"],
            "ftsi.masked_frac": _ratio(c["retrieved_masked"], c["retrieved_samples"]),
            "figures.bytes_written": c["figure_bytes"],
            "figures.rows_written": c["figure_rows"],
        })
        return m

    def _has_ancestor(self, span, name) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """Spans as CSV rows: index, name, start_s, end_s, parent index."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start!r},{end!r},{parent}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
