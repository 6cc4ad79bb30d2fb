"""Self-test of the benchmark, at tiny sizes.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_bench.py

It checks that every workload prints every metric with its unit, that the
traced self times add up and the counts repeat, and that corrupted outputs
and NaN phases are counted as failed ops.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402

from bsbshaper import figures, ftsi, metrology, pulsefield  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# metrics made of counts, which must repeat exactly between traced runs of one seed
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"]
                 if m["unit"] in ("count", "bytes", "count/score")
                 or m["name"] in ("dispersion.redundant_eval_frac", "ftsi.masked_frac")]


def bench(capsys, workload, trace=0, seed=3):
    """Run the benchmark in-process; returns (report lines, final JSON object)."""
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace), "--tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(capsys, workload, trace):
    lines, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    printed = {line.split()[0]: line.split()[2] for line in lines if not line.startswith("#")}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"], m["name"]
    if not trace:
        assert (printed["ops_per_s"], printed["op_p50_ms"], printed["failed_frac"]) == (
            "1/s", "ms", "frac")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_and_counts_repeat(capsys, workload):
    runs = [bench(capsys, workload, trace=1)[1]["metrics"] for _ in range(2)]
    for metrics in runs:
        self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_sum == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    for name in COUNT_METRICS:
        assert runs[0][name] == runs[1][name], name


def test_corrupted_figure_byte_is_a_failed_op(capsys, monkeypatch):
    write = figures._write_csv

    def corrupting(path, *args):
        write(path, *args)
        with open(path, "r+b") as fh:
            data = fh.read()
            pos = data.rindex(b"1")  # a digit in the last data row
            fh.seek(pos)
            fh.write(b"2")

    monkeypatch.setattr(figures, "_write_csv", corrupting)
    _, result = bench(capsys, "figures-64k")
    assert not result["correct"] and result["failed"] >= 1


def test_corrupted_field_csv_is_a_failed_op(capsys, monkeypatch):
    write = pulsefield.write_field_csv

    def corrupting(field, path):
        write(field, path)
        with open(path, "r+b") as fh:
            data = fh.read()
            pos = data.rindex(b"1")
            fh.seek(pos)
            fh.write(b"2")

    monkeypatch.setattr(pulsefield, "write_field_csv", corrupting)
    _, result = bench(capsys, "ftsi-roundtrip-16k")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_nan_phase_is_a_failed_op(capsys, monkeypatch):
    retrieve = ftsi.retrieve_phase

    def nan_in_band(gram, window=None):
        rp = retrieve(gram, window)
        phase = rp.phase.copy()
        phase[len(phase) // 2] = np.nan
        return ftsi.RetrievedPhase(rp.grid, phase, rp.weight, rp.masked)

    monkeypatch.setattr(ftsi, "retrieve_phase", nan_in_band)
    _, result = bench(capsys, "ftsi-roundtrip-16k")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_nan_overlap_is_a_failed_op(capsys, monkeypatch):
    monkeypatch.setattr(metrology, "mode_overlap", lambda *a, **k: float("nan"))
    _, result = bench(capsys, "design-sweep-4k")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
