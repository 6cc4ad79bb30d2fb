"""The three benchmark workloads and the checks on their outputs.

Each workload is built from a seed and then serves ops by index:
``prepare(i)`` makes the op's inputs (untimed), ``run(arg)`` is the timed
call into the program, and ``check(arg, out)`` verifies the outputs and
returns the facts the traced run counts; it raises ``CheckFailed`` when an
output is wrong.  The inputs of op ``i`` depend only on the seed and ``i``.

Program functions are always looked up on their modules at call time, so the
tracer's rebinding sees them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np

from bsbshaper import config, dispersion, figures, ftsi, metrology, pulsefield, shaper

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)

OMEGA0 = 2 * np.pi * dispersion.C_LIGHT / 800e-9
FWHM = 2 * np.pi * 100e12
TAU_017 = 0.17e-15
BAND_HALF_WIDTH = 2 * np.pi * 50e12
PHASE_TOL = 0.05  # rad, for the -pi/2 field phase and the pi envelope jump
NOISE_REL = 1e-3  # additive interferogram noise, relative to the peak


class CheckFailed(Exception):
    """An op produced output that does not match what it must be."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def band_median_phase(omegas, phase, masked) -> float:
    """Median retrieved phase over the unmasked +-50 THz band around 800 nm."""
    band = ~masked & (np.abs(omegas - OMEGA0) <= BAND_HALF_WIDTH)
    _require(np.count_nonzero(band) > 0, "no unmasked samples in the +-50 THz band")
    return float(np.median(phase[band]))


def _check_field_phase(value):
    _require(np.isfinite(value) and abs(value + np.pi / 2) <= PHASE_TOL,
             f"field-mode band-median phase {value!r} is not -pi/2 +- {PHASE_TOL}")


def _check_jump(value):
    _require(np.isfinite(value) and abs(abs(value) - np.pi) <= PHASE_TOL,
             f"envelope-mode jump {value!r} is not pi +- {PHASE_TOL} in magnitude")


def data_lines(fh):
    """The lines of an open output file that are not '#' comments."""
    return (line for line in fh if not line.startswith("#"))


def data_digest(path) -> tuple[str, int]:
    """sha256 and count of the data lines of an output file."""
    digest = hashlib.sha256()
    count = 0
    with open(path) as fh:
        for line in data_lines(fh):
            digest.update(line.encode())
            count += 1
    return digest.hexdigest(), count


class FiguresWorkload:
    """run_figure_pipeline for fig2-fig5 at n = 2^16 (default config otherwise).

    One op is one figure.  The seed only permutes the figure order.  Ops run
    in whole passes of four so every run times the same mix.
    """

    name = "figures-64k"
    group = 4
    SIZE = 2**16  # 2^18 gives two passes in a run: too few ops for a steady p90

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.n = 2**12 if tiny else self.SIZE
        self.workdir = workdir
        dispersion.get_material("quartz")
        # config.outdir stays one fixed string, so the header bytes repeat exactly;
        # each op writes into its own fresh directory below it
        self.config = config.load_config(None, {"n_samples": self.n, "outdir": workdir})
        perm = np.random.default_rng(seed).permutation(len(figures.FIGURES))
        self.order = [figures.FIGURES[k] for k in perm]
        self.digests = REFERENCE["figures"][str(self.n)]

    def prepare(self, i):
        return self.order[i % 4], tempfile.mkdtemp(prefix="fig-", dir=self.workdir)

    def run(self, arg):
        fig, outdir = arg
        return figures.run_figure_pipeline(self.config, fig, outdir)

    def cleanup(self, arg):
        shutil.rmtree(arg[1], ignore_errors=True)

    def check(self, arg, paths) -> dict:
        fig, outdir = arg
        expected = self.digests[fig]
        names = sorted(os.path.basename(p) for p in paths)
        _require(names == sorted(expected), f"{fig} wrote {names}, expected {sorted(expected)}")
        rows = size = 0
        for path in paths:
            name = os.path.basename(path)
            digest, lines = data_digest(path)
            _require(digest == expected[name],
                     f"{name}: data lines differ from the recorded digest")
            rows += lines - name.endswith(".csv")  # less the column-name line
            size += os.path.getsize(path)
        if fig == "fig3":
            with open(os.path.join(outdir, "fig3_retrieved_phase.csv")) as fh:
                table = np.loadtxt(data_lines(fh), delimiter=",", skiprows=1, usecols=(0, 1, 3))
            _check_field_phase(band_median_phase(table[:, 0], table[:, 1], table[:, 2] != 0))
        elif fig == "fig5":
            with open(os.path.join(outdir, "fig5_jump_report.txt")) as fh:
                report = dict(line.split(": ", 1) for line in data_lines(fh))
            _check_jump(float(report["jump_magnitude_rad"]))
        return {"figure_bytes": size, "figure_rows": rows}


class DesignSweepWorkload:
    """In-memory design scoring at n = 4096; one op is one score.

    Ops cycle through three kinds: a quartz plate of random thickness scored
    in field mode; thickness_for_order at a random order, scored in
    envelope-half mode; a quartz+KDP achromat at a random target_omega1,
    scored with stack_overlap on the 185-565 THz grid (KDP's Sellmeier fit
    stops at 1.7 um).  Ops 0-2 are the canonical designs: 0.17 fs, order 1/2
    and omega1 = 0.
    """

    name = "design-sweep-4k"
    group = 3
    REFERENCE_SEED = 0

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.quartz = dispersion.get_material("quartz")
        self.kdp = dispersion.get_material("kdp")
        self.pulse = pulsefield.gaussian_pulse(pulsefield.default_grid(4096), OMEGA0, FWHM)
        achromat_grid = pulsefield.SpectralGrid(4096, 2 * np.pi * 185e12,
                                                2 * np.pi * 380e12 / 4096)
        self.achromat_pulse = pulsefield.gaussian_pulse(achromat_grid, OMEGA0, FWHM)
        self.l_017 = metrology.thickness_for_delay(self.quartz, OMEGA0,
                                                   TAU_017).segments[0][1]
        self.recorded = REFERENCE["design_seed0"] if seed == self.REFERENCE_SEED else []

    def prepare(self, i):
        kind = i % 3
        if i < 3:
            return i, kind, (self.l_017, 0.5, 0.0)[kind]
        u = np.random.default_rng([self.seed, i]).random()
        if kind == 0:
            return i, kind, 0.5e-6 * (80.0 / 0.5) ** u  # log-uniform 0.5-80 um
        if kind == 1:
            return i, kind, 0.3 + 2.7 * u  # interference order 0.3-3
        return i, kind, (0.4 * u - 0.2) * OMEGA0  # target_omega1 in +-0.2 omega0

    def run(self, arg):
        _, kind, value = arg
        if kind == 0:
            report = metrology.score_compensator(shaper.Compensator(self.quartz, value),
                                                 self.pulse, "field")
            return report.overlap, report.efficiency
        if kind == 1:
            sol = metrology.thickness_for_order(self.quartz, OMEGA0, value)
            report = metrology.score_compensator(
                shaper.Compensator(self.quartz, sol.segments[0][1]), self.pulse,
                "envelope-half")
            return report.overlap, report.efficiency
        sol = metrology.achromat_design(self.quartz, self.kdp, OMEGA0, value, TAU_017)
        overlap = metrology.stack_overlap(sol, self.achromat_pulse, "field")
        return overlap, sol.segments[0][1], abs(sol.achieved_omega1 - value) / OMEGA0

    def cleanup(self, arg):
        pass

    def check(self, arg, out) -> dict:
        i, kind, _ = arg
        overlap, second = out[0], out[1]
        _require(all(np.isfinite(v) for v in out), f"op {i}: non-finite result {out}")
        _require(0.0 <= overlap <= 1.0, f"op {i}: overlap {overlap!r} outside [0, 1]")
        if kind < 2:
            _require(0.0 <= second <= 1.0, f"op {i}: efficiency {second!r} outside [0, 1]")
        else:
            _require(out[2] <= 1e-9, f"op {i}: achromat omega1 residual {out[2]!r} > 1e-9")
        if i == 0:
            _require(overlap >= 0.9999, f"0.17 fs design overlap {overlap!r} < 0.9999")
        if i < len(self.recorded):
            _require(np.allclose(out[:2], self.recorded[i], rtol=1e-12, atol=0.0),
                     f"op {i}: {out[:2]} differs from recorded {self.recorded[i]}")
        return {}


class FtsiRoundtripWorkload:
    """One op is one FTSI retrieval chain at n = 2^14, alternating field and envelope-half.

    The chain writes and reads back the signal, shaped and reference fields,
    synthesizes the interferograms with and without the compensator, adds
    seeded noise, writes and reads them, retrieves both phases, writes and
    reads those, subtracts the reference, wraps and unwraps, and ends with the
    phase jump (envelope-half) or the band-median phase (field).
    """

    name = "ftsi-roundtrip-16k"
    group = 2
    MODES = ("field", "envelope-half")
    SIZE = 2**14  # 2^16 gives a dozen chains in a run: too few ops for a steady p90

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir
        n = 2**12 if tiny else self.SIZE
        cfg = config.load_config(None, {"n_samples": n, "outdir": workdir})
        grid = cfg.grid()
        quartz = dispersion.get_material("quartz")
        self.reference = pulsefield.gaussian_pulse(grid, OMEGA0, FWHM)
        self.arms = {}
        for mode in self.MODES:
            if mode == "field":
                sol = metrology.thickness_for_delay(quartz, OMEGA0, TAU_017)
            else:
                sol = metrology.thickness_for_order(quartz, OMEGA0, 0.5)
            pair = shaper.transfer_exact(shaper.Compensator(quartz, sol.segments[0][1]), grid)
            x = pulsefield.apply_transfer(self.reference, pair.full("x"))
            y = pulsefield.apply_transfer(self.reference, -pair.full("y"))
            self.arms[mode] = (y, x) if mode == "envelope-half" else (x, y)
        self.tau = cfg.tau_ftsi_fs * 1e-15
        self.extra = 0.5 * cfg.extra_phase_gdd_fs2 * 1e-30 * (grid.omegas - OMEGA0) ** 2
        self.window = ftsi.FtsiWindow(order=cfg.window_order)
        self.n = n

    def prepare(self, i):
        noise = np.random.default_rng([self.seed, i]).standard_normal((2, self.n))
        return self.MODES[i % 2], noise, tempfile.mkdtemp(prefix="ftsi-", dir=self.workdir)

    def run(self, arg):
        mode, noise, outdir = arg
        signal, shaped = self.arms[mode]
        written, read = {}, {}

        def roundtrip(key, obj, write, read_back):
            path = os.path.join(outdir, f"{key}.csv")
            write(obj, path)
            written[key], read[key] = obj, read_back(path)
            return read[key]

        fields = [roundtrip(key, fld, pulsefield.write_field_csv, pulsefield.read_field_csv)
                  for key, fld in (("signal", signal), ("shaped", shaped),
                                   ("reference", self.reference))]
        grams = (ftsi.synthesize_interferogram(fields[0], fields[1], self.tau, self.extra),
                 ftsi.synthesize_interferogram(fields[2], fields[2], self.tau, self.extra))
        phases = []
        for key, gram, row in zip(("with", "without"), grams, noise):
            peak = gram.intensity.max()
            noisy = ftsi.Interferogram(gram.grid,
                                       np.maximum(gram.intensity + NOISE_REL * peak * row, 0.0),
                                       gram.delay_hint)
            back = roundtrip(f"gram_{key}", noisy, ftsi.write_interferogram_csv,
                             ftsi.read_interferogram_csv)
            phases.append(roundtrip(f"phase_{key}", ftsi.retrieve_phase(back, self.window),
                                    ftsi.write_phase_csv, ftsi.read_phase_csv))
        diff = ftsi.unwrap(ftsi.wrap_to_principal(ftsi.subtract_reference(*phases)))
        if mode == "envelope-half":
            value = ftsi.detect_phase_jump(diff, OMEGA0).magnitude
        else:
            value = band_median_phase(diff.grid.omegas, diff.phase, diff.masked)
        return written, read, diff, value

    def cleanup(self, arg):
        shutil.rmtree(arg[2], ignore_errors=True)

    def check(self, arg, out) -> dict:
        mode = arg[0]
        written, read, diff, value = out
        for key, obj in written.items():
            _require(_same(obj, read[key]),
                     f"{key}: the CSV read back differs from what was written")
        _require(np.all(np.isfinite(diff.phase)), "non-finite retrieved phase")
        if mode == "envelope-half":
            _check_jump(value)
        else:
            _check_field_phase(value)
        return {}


def _same(a, b) -> bool:
    """Exact equality of two field, interferogram or phase records."""
    if a.grid != b.grid:
        return False
    if isinstance(a, pulsefield.SpectralField):
        return a.omega0 == b.omega0 and np.array_equal(a.amplitude, b.amplitude)
    if isinstance(a, ftsi.Interferogram):
        return a.delay_hint == b.delay_hint and np.array_equal(a.intensity, b.intensity)
    return (np.array_equal(a.phase, b.phase) and np.array_equal(a.weight, b.weight)
            and np.array_equal(a.masked, b.masked))


WORKLOADS = {w.name: w for w in (FiguresWorkload, DesignSweepWorkload, FtsiRoundtripWorkload)}
