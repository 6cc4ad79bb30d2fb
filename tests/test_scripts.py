"""The scripts run through the package: config validation, run inputs and the table layer."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from bsbshaper import dispersion
from bsbshaper.config import ConfigError, RunConfig
from bsbshaper.io import read_table
from bsbshaper.metrology import score_compensator
from bsbshaper.shaper import Compensator

SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "thickness_sweep.py"


def _run_sweep(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", [str(SWEEP), *argv])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SWEEP), run_name="__main__")
    return done.value.code


def test_thickness_sweep_reads_back_exactly(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    assert _run_sweep(monkeypatch, "--points", "3", "--output", str(out)) == 0
    meta, data = read_table(out, ("config.mode",))
    assert meta["config.mode"] == "'field'"
    lengths = np.geomspace(0.5, 80.0, 3) * 1e-6
    assert np.array_equal(data["thickness_um"], lengths * 1e6)
    pulse, quartz = RunConfig().pulse(), dispersion.get_material("quartz")
    for k, length in enumerate(lengths):
        report = score_compensator(Compensator(quartz, float(length)), pulse, "field")
        assert data["overlap"][k] == report.overlap
        assert data["efficiency"][k] == report.efficiency


@pytest.mark.parametrize("flag,value", [("--mode", "nope"), ("--material", "diamond")])
def test_thickness_sweep_rejects_bad_config(tmp_path, monkeypatch, flag, value):
    with pytest.raises(ConfigError):
        _run_sweep(monkeypatch, flag, value, "--points", "3",
                   "--output", str(tmp_path / "sweep.csv"))
