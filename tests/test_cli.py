import sys

import numpy as np
import pytest

from bsbshaper.cli import main
from bsbshaper.pulsefield import read_field_csv


def _parse_kv(text):
    out = {}
    for line in text.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def test_material_info(capsys):
    assert main(["material-info", "quartz"]) == 0
    info = _parse_kv(capsys.readouterr().out)
    assert float(info["delta_n"]) == pytest.approx(8.894e-3, rel=1e-3)
    assert float(info["omega1_over_omega0"]) == pytest.approx(0.0607, abs=1e-3)


def test_material_info_unknown_material(capsys):
    assert main(["material-info", "diamond"]) == 1
    assert "available" in capsys.readouterr().err


def test_design_delay(capsys):
    assert main(["design", "delay", "--tau-fs", "0.17"]) == 0
    out = capsys.readouterr().out
    info = _parse_kv(out)
    assert "quartz thickness_um=5.382" in out
    assert float(info["overlap"]) > 0.9999


def test_design_order(capsys):
    assert main(["design", "order", "--order", "0.5"]) == 0
    assert "thickness_um=44.97" in capsys.readouterr().out


def test_design_achromat(capsys):
    code = main(["design", "achromat", "--tau-fs", "0.17", "--target-omega1", "zero",
                 "--nu-start-thz", "185", "--nu-end-thz", "565"])
    assert code == 0
    info = _parse_kv(capsys.readouterr().out)
    assert abs(float(info["omega1_over_omega0"])) <= 1e-9


def test_transfer_requires_thickness(capsys):
    assert main(["transfer"]) == 1
    assert "thickness" in capsys.readouterr().err


def test_transfer_writes_csv(tmp_path):
    out = tmp_path / "transfer.csv"
    assert main(["transfer", "--thickness-um", "5.4", "--output", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "omega_rad_per_s,abs_R,arg_R,abs_Hx,abs_Hy,masked"
    assert len(lines) == 4097


def test_pulse_synth_derive_replica(tmp_path):
    src = tmp_path / "pulse.csv"
    assert main(["pulse", "synth", "--output", str(src)]) == 0
    assert read_field_csv(src).energy() == pytest.approx(1.0, rel=1e-9)

    der = tmp_path / "derived.csv"
    assert main(["pulse", "derive", "--input", str(src), "--output", str(der),
                 "--t-const-fs", "0.085"]) == 0
    rep = tmp_path / "replica.csv"
    assert main(["pulse", "replica", "--input", str(src), "--output", str(rep),
                 "--tau-fs", "0.17"]) == 0
    a, b = read_field_csv(der), read_field_csv(rep)
    rel = np.max(np.abs(a.amplitude - b.amplitude)) / np.max(np.abs(a.amplitude))
    assert rel < 0.2  # sin vs linear over the full grid


def test_ftsi_workflow(tmp_path, capsys):
    src = tmp_path / "pulse.csv"
    main(["pulse", "synth", "--output", str(src)])
    gram = tmp_path / "gram.csv"
    assert main(["ftsi", "synth", "--signal", str(src), "--shaped", str(src),
                 "--gdd-fs2", "100", "--output", str(gram)]) == 0
    phase = tmp_path / "phase.csv"
    assert main(["ftsi", "retrieve", "--input", str(gram), "--no-unwrap",
                 "--output", str(phase)]) == 0
    diff = tmp_path / "diff.csv"
    assert main(["ftsi", "subtract", "--with", str(phase), "--without", str(phase),
                 "--output", str(diff)]) == 0
    assert main(["ftsi", "jump", "--input", str(diff)]) == 0
    info = {}
    for line in capsys.readouterr().out.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            info[key] = value
    assert float(info["jump_magnitude_rad"]) == pytest.approx(0.0, abs=1e-9)


def test_overlap_command(tmp_path, capsys):
    src = tmp_path / "pulse.csv"
    main(["pulse", "synth", "--output", str(src)])
    shaped = tmp_path / "shaped.csv"
    main(["pulse", "derive", "--input", str(src), "--output", str(shaped)])
    assert main(["overlap", "--objective", "field", "--shaped", str(shaped),
                 "--source", str(src)]) == 0
    out = capsys.readouterr().out
    assert "overlap: 1.00000000" in out


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("materials: quartz\n")
    assert main(["design", "delay", "--config", str(cfg)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("carrier_nm: 1030\nfwhm_thz: 40\n")
    assert main(["material-info", "quartz"]) == 0  # sanity
    capsys.readouterr()
    assert main(["design", "delay", "--config", str(cfg), "--carrier-nm", "800",
                 "--tau-fs", "0.17"]) == 0
    assert "thickness_um=5.382" in capsys.readouterr().out


def test_figure_pipeline_and_determinism(tmp_path, capsys):
    assert main(["figure", "fig2", "--outdir", str(tmp_path)]) == 0
    paths = capsys.readouterr().out.split()
    contents = {p: open(p, "rb").read() for p in paths}
    assert main(["figure", "fig2", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    for p, blob in contents.items():
        assert open(p, "rb").read() == blob  # byte-identical reruns
    header = contents[paths[0]].decode().splitlines()[0]
    assert header.startswith("# config.")


def _data_rows(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return lines[0].split(","), [[float(v) for v in l.split(",")] for l in lines[1:]]


def test_transfer_cells_are_plain_numbers(tmp_path, capsys):
    out = tmp_path / "transfer.csv"
    assert main(["transfer", "--thickness-um", "10", "--output", str(out)]) == 0
    names, rows = _data_rows(out.read_text())
    assert len(rows) == 4096 and all(len(r) == len(names) for r in rows)

    assert main(["transfer", "--thickness-um", "10"]) == 0
    assert not sys.stdout.closed
    assert _data_rows(capsys.readouterr().out) == (names, rows)


def test_ftsi_jump_location_is_a_plain_number(tmp_path, capsys):
    src = tmp_path / "pulse.csv"
    main(["pulse", "synth", "--output", str(src)])
    gram = tmp_path / "gram.csv"
    main(["ftsi", "synth", "--signal", str(src), "--shaped", str(src), "--output", str(gram)])
    phase = tmp_path / "phase.csv"
    main(["ftsi", "retrieve", "--input", str(gram), "--output", str(phase)])
    capsys.readouterr()
    assert main(["ftsi", "jump", "--input", str(phase)]) == 0
    location = float(_parse_kv(capsys.readouterr().out)["jump_location_rad_per_s"])
    assert location == pytest.approx(2 * np.pi * 374.7e12, rel=0.1)


def test_seed_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("seed: 0\n")
    assert main(["design", "delay", "--config", str(cfg)]) == 1
    assert "unknown config keys: ['seed']" in capsys.readouterr().err


def test_outdir_is_checked_only_where_written(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert main(["design", "delay", "--outdir", missing]) == 0
    assert main(["figure", "fig2", "--outdir", missing]) == 1
    assert "not a writable directory" in capsys.readouterr().err


def test_pulse_derive_envelope_is_the_objective(tmp_path, capsys):
    src = tmp_path / "pulse.csv"
    main(["pulse", "synth", "--output", str(src)])
    der = tmp_path / "derived.csv"
    assert main(["pulse", "derive", "--mode", "envelope-half", "--input", str(src),
                 "--output", str(der), "--t-const-fs", "0.085"]) == 0
    source = read_field_csv(src)
    expected = -1j * (source.grid.omegas - source.omega0) * (0.085 * 1e-15) * source.amplitude
    assert np.array_equal(read_field_csv(der).amplitude, expected)

    assert main(["overlap", "--objective", "envelope", "--shaped", str(der),
                 "--source", str(src)]) == 0
    assert "overlap: 1.00000000" in capsys.readouterr().out


def test_pulse_derive_field_rejects_nonpositive_constant(tmp_path, capsys):
    src = tmp_path / "pulse.csv"
    main(["pulse", "synth", "--output", str(src)])
    assert main(["pulse", "derive", "--input", str(src), "--output", str(tmp_path / "d.csv"),
                 "--t-const-fs", "0"]) == 1
    assert "t1 must be positive" in capsys.readouterr().err
