import argparse
import dataclasses
import os
import sys
import warnings

import numpy as np
import pytest

from bsbshaper import dispersion, ftsi, shaper
from bsbshaper.cli import build_parser, main
from bsbshaper.config import RunConfig
from bsbshaper.io import read_table
from bsbshaper.metrology import score_compensator
from bsbshaper.pulsefield import default_grid, read_field_csv, write_field_csv
from bsbshaper.shaper import Compensator
from conftest import two_peak_field


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


@pytest.mark.parametrize("wavelength", ["0", "-1", "nan", "inf"])
def test_material_info_rejects_a_bad_wavelength(capsys, wavelength):
    assert main(["material-info", "quartz", "--wavelength", wavelength]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--wavelength must be finite and positive" in captured.err


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


def test_design_achromat_rejects_a_segment_past_the_thickness_bound(capsys):
    code = main(["design", "achromat", "--tau-fs", "1e300",
                 "--nu-start-thz", "185", "--nu-end-thz", "565"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: |thickness| = ")


@pytest.mark.parametrize("argv", [["delay", "--tau-fs", "1e9"], ["order", "--order", "1e6"]],
                         ids=["delay", "order"])
def test_design_plate_past_the_thickness_bound_prints_nothing(capsys, argv):
    code = main(["design", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: |thickness| = ")


def test_design_achromat_with_zero_delay_is_degenerate(capsys):
    code = main(["design", "achromat", "--tau-fs", "0",
                 "--nu-start-thz", "185", "--nu-end-thz", "565"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: achromat stack has zero net group-delay contrast\n"


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
    field = read_field_csv(src)
    assert np.sum(np.abs(field.amplitude) ** 2) * field.grid.omega_step == \
        pytest.approx(1.0, rel=1e-9)

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
                 "--extra-phase-gdd-fs2", "100", "--output", str(gram)]) == 0
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
    assert main(["overlap", "--mode", "field", "--shaped", str(shaped),
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
    assert main(["design", "delay", "--outdir", missing]) == 1
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

    assert main(["overlap", "--mode", "envelope-half", "--shaped", str(der),
                 "--source", str(src)]) == 0
    assert "overlap: 1.00000000" in capsys.readouterr().out


def test_pulse_derive_field_rejects_nonpositive_constant(tmp_path, capsys):
    src = tmp_path / "pulse.csv"
    main(["pulse", "synth", "--output", str(src)])
    assert main(["pulse", "derive", "--input", str(src), "--output", str(tmp_path / "d.csv"),
                 "--t-const-fs", "0"]) == 1
    assert "t1 must be positive" in capsys.readouterr().err


_FIELDS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
_GRID = {"n_samples", "nu_start_thz", "nu_end_thz"}
_DESIGN = _GRID | {"carrier_nm", "fwhm_thz", "material", "mode"}
_CONFIG_FLAGS = {  # action: the RunConfig fields its handler reads
    ("material-info",): set(),
    ("design", "delay"): _DESIGN,
    ("design", "order"): _DESIGN,
    ("design", "achromat"): _DESIGN | {"material_b"},
    ("design", "sweep"): {"material", "mode"},
    ("transfer",): _GRID | {"material", "thickness_um", "mode"},
    ("pulse", "synth"): _GRID | {"carrier_nm", "fwhm_thz"},
    ("pulse", "derive"): {"mode"},
    ("pulse", "replica"): set(),
    ("ftsi", "synth"): {"tau_ftsi_fs", "extra_phase_gdd_fs2"},
    ("ftsi", "retrieve"): {"window_order", "window_width_fs"},
    ("ftsi", "subtract"): set(),
    ("ftsi", "jump"): {"carrier_nm"},
    ("overlap",): {"mode"},
    ("figure",): set(_FIELDS) - {"mode", "material_b"},
}


def _action_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _action_parsers(child, path + (name,))


def test_each_action_takes_only_the_config_flags_it_reads():
    actions = dict(_action_parsers(build_parser()))
    assert set(actions) == set(_CONFIG_FLAGS)
    for path, parser in actions.items():
        flags = {a.dest: a for a in parser._actions if a.dest in _FIELDS}
        assert set(flags) == _CONFIG_FLAGS[path], path
        assert any("--config" in a.option_strings for a in parser._actions) == bool(flags), path
        for dest, action in flags.items():
            assert action.option_strings == ["--" + dest.replace("_", "-")]
            if dest == "mode":
                assert tuple(action.choices) == shaper.MODES
            else:
                default = _FIELDS[dest]
                assert action.type is (float if default is None else type(default)), dest


@pytest.fixture
def files(tmp_path):
    """A pulse, an interferogram of it and its retrieved phase, written by the CLI."""
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("pulse", "gram", "phase")}
    assert main(["pulse", "synth", "--output", paths["pulse"]]) == 0
    assert main(["ftsi", "synth", "--signal", paths["pulse"], "--shaped", paths["pulse"],
                 "--output", paths["gram"]]) == 0
    assert main(["ftsi", "retrieve", "--input", paths["gram"], "--output", paths["phase"]]) == 0
    return paths


def _listing(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir())


@pytest.mark.parametrize("argv,missing", [
    (["pulse", "derive", "--output", "{out}"], "--input"),
    (["ftsi", "synth", "--output", "{out}"], "--signal"),
    (["ftsi", "subtract", "--output", "{out}"], "--with"),
    (["ftsi", "retrieve", "--input", "{gram}"], "--output"),
])
def test_missing_file_flags_fail_before_running(tmp_path, files, capsys, argv, missing):
    before = _listing(tmp_path)
    capsys.readouterr()
    argv = [a.format(out=tmp_path / "x.csv", **files) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert missing in captured.err and captured.out == ""
    assert _listing(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ["design", "delay", "--outdir", "{tmp}"],
    ["figure", "fig2", "--mode", "envelope-half", "--outdir", "{tmp}"],
    ["pulse", "replica", "--input", "{pulse}", "--output", "{tmp}/r.csv", "--fwhm-thz", "50"],
    ["ftsi", "subtract", "--with", "{phase}", "--without", "{phase}", "--output", "{tmp}/d.csv",
     "--carrier-nm", "800"],
])
def test_flags_an_action_does_not_read_are_rejected(tmp_path, files, capsys, argv):
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path, **files) for a in argv]) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""
    assert _listing(tmp_path) == before


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    assert main(["design", "delay", "--mode", "nope"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert main(["design"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["ftsi", "synth", "--help"])
    assert exc.value.code == 0
    assert "--extra-phase-gdd-fs2" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["material-info", "quartz", "--wavelength", "nan"],
    ["design", "achromat", "--tau-fs", "nan", "--nu-start-thz", "185", "--nu-end-thz", "565"],
    ["design", "order", "--order", "nan"],
    ["design", "delay", "--tau-fs", "nan"],
    ["pulse", "replica", "--input", "{pulse}", "--output", "{tmp}/r.csv", "--tau-fs", "nan"],
    ["pulse", "derive", "--input", "{pulse}", "--output", "{tmp}/d.csv", "--t-const-fs", "nan"],
])
def test_nan_numbers_fail_at_the_boundary(tmp_path, files, capsys, argv):
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path, **files) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert _listing(tmp_path) == before


def test_extra_phase_gdd_is_the_one_gdd_knob(tmp_path, files):
    signal = read_field_csv(files["pulse"])
    tau = RunConfig().tau_ftsi_fs * 1e-15
    default = ftsi.read_interferogram_csv(files["gram"])
    expected = ftsi.synthesize_interferogram(signal, signal, tau, RunConfig().extra_phase(signal))
    assert RunConfig().extra_phase_gdd_fs2 == 200.0
    assert np.array_equal(default.intensity, expected.intensity)

    flat = tmp_path / "flat.csv"
    assert main(["ftsi", "synth", "--signal", files["pulse"], "--shaped", files["pulse"],
                 "--extra-phase-gdd-fs2", "0", "--output", str(flat)]) == 0
    plain = ftsi.synthesize_interferogram(signal, signal, tau)
    assert np.array_equal(ftsi.read_interferogram_csv(flat).intensity, plain.intensity)
    assert not np.array_equal(plain.intensity, expected.intensity)


@pytest.mark.parametrize("argv", [
    ["pulse", "derive", "--mode", "envelope-half", "--input", "{pulse}", "--output",
     "{tmp}/d.csv", "--t-const-fs", "nan"],
    ["figure", "fig4", "--thickness-um", "0", "--outdir", "{tmp}"],
])
def test_degenerate_envelope_constant_fails_before_writing(tmp_path, files, capsys, argv):
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path, **files) for a in argv]) == 1
    captured = capsys.readouterr()
    assert "t2 must be positive" in captured.err and captured.out == ""
    assert _listing(tmp_path) == before


@pytest.mark.parametrize("argv,message", [
    (["pulse", "replica", "--input", "{pulse}", "--output", "{tmp}/r.csv", "--tau-fs", "inf"],
     "tau must be >= 0"),
    (["pulse", "derive", "--input", "{pulse}", "--output", "{tmp}/d.csv", "--t-const-fs", "inf"],
     "t1 must be positive"),
    (["design", "order", "--order", "inf"], "order must be >= 0"),
], ids=["tau-fs", "t-const-fs", "order"])
def test_infinite_flag_fails_before_writing(tmp_path, files, capsys, argv, message):
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path, **files) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert _listing(tmp_path) == before


def test_non_finite_field_cell_fails_before_writing(tmp_path, files, capsys):
    lines = open(files["pulse"]).read().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 100
    lines[row] = ",".join(lines[row].split(",")[:1] + ["nan", "0.0\n"])
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main(["pulse", "derive", "--input", str(bad), "--output", str(tmp_path / "d.csv")]) == 1
    assert "finite" in capsys.readouterr().err
    assert _listing(tmp_path) == before


def test_config_key_the_action_does_not_read_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("window_order: 8\nmaterial: quartz\n")
    out = tmp_path / "t.csv"
    assert main(["transfer", "--config", str(cfg), "--thickness-um", "5",
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "window_order" in err and "material" not in err
    assert not out.exists()


def test_config_key_the_action_reads_is_accepted(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("thickness_um: 5.0\nmaterial: quartz\n")
    out = tmp_path / "t.csv"
    assert main(["transfer", "--config", str(cfg), "--output", str(out)]) == 0
    assert "# config.thickness_um=5.0\n" in out.read_text()


def test_figure_phase_table_feeds_ftsi_jump(tmp_path, capsys):
    assert main(["figure", "fig5", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["ftsi", "jump", "--input", str(tmp_path / "fig5_retrieved_phase.csv")]) == 0
    printed = _parse_kv(capsys.readouterr().out)
    report = _parse_kv((tmp_path / "fig5_jump_report.txt").read_text())
    assert printed["jump_magnitude_rad"] == report["jump_magnitude_rad"]


def test_figure_interferograms_feed_ftsi_retrieve_and_subtract(tmp_path, capsys):
    assert main(["figure", "fig3", "--outdir", str(tmp_path)]) == 0
    for side in ("with", "without"):
        assert main(["ftsi", "retrieve", "--no-unwrap", "--output", str(tmp_path / f"{side}.csv"),
                     "--input", str(tmp_path / f"fig3_interferogram_{side}_bsb.csv")]) == 0
    diff = tmp_path / "diff.csv"
    assert main(["ftsi", "subtract", "--with", str(tmp_path / "with.csv"),
                 "--without", str(tmp_path / "without.csv"), "--output", str(diff)]) == 0
    got = ftsi.read_phase_csv(diff)
    figure = ftsi.read_phase_csv(tmp_path / "fig3_retrieved_phase.csv")
    assert np.array_equal(got.phase, figure.phase) and np.array_equal(got.masked, figure.masked)


def test_zero_thickness_envelope_half_transfer_fails_before_writing(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["transfer", "--thickness-um", "0", "--mode", "envelope-half",
                 "--output", str(out)]) == 1
    assert "signal channel is zero" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["design", "delay"],
    ["design", "order", "--mode", "envelope-half"],
    ["design", "achromat", "--nu-start-thz", "185", "--nu-end-thz", "565"],
])
def test_design_scores_the_stack_once(capsys, monkeypatch, argv):
    calls = []
    retardance = shaper._half_retardance
    monkeypatch.setattr(shaper, "_half_retardance",
                        lambda *args: calls.append(args) or retardance(*args))
    assert main(argv) == 0
    assert len(calls) == 1
    assert ("efficiency" in capsys.readouterr().out) == (argv[1] != "achromat")


def test_design_sweep_reads_back_exactly(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["design", "sweep", "--points", "3", "--output", str(out)]) == 0
    assert capsys.readouterr().out == f"{out}\n"
    meta, data = read_table(out, ("config.mode",))
    assert meta["config.mode"] == "'field'"
    lengths = np.geomspace(0.5, 80.0, 3) * 1e-6
    assert np.array_equal(data["thickness_um"], lengths * 1e6)
    pulse, quartz = RunConfig().pulse(), dispersion.get_material("quartz")
    for k, length in enumerate(lengths):
        report = score_compensator(Compensator(quartz, float(length)), pulse, "field")
        assert data["overlap"][k] == report.overlap
        assert data["efficiency"][k] == report.efficiency


def test_design_sweep_runs_a_descending_range(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["design", "sweep", "--lmin-um", "80", "--lmax-um", "0.5", "--points", "3",
                 "--output", str(out)]) == 0
    _, data = read_table(out, ())
    assert np.array_equal(data["thickness_um"], np.geomspace(80.0, 0.5, 3) * 1e-6 * 1e6)


@pytest.mark.parametrize("argv,message", [
    (["--mode", "nope"], "invalid choice"), (["--material", "diamond"], "available"),
    (["--points", "0"], "sweep needs"), (["--points", "-2"], "sweep needs"),
    (["--lmin-um", "-1"], "sweep needs"), (["--lmin-um", "0"], "sweep needs"),
    (["--lmin-um", "inf"], "sweep needs"), (["--lmax-um", "nan"], "sweep needs"),
    (["--lmax-um", "inf"], "sweep needs"),
], ids=["mode", "material", "points-0", "points-neg", "lmin-neg", "lmin-0", "lmin-inf",
        "lmax-nan", "lmax-inf"])
def test_design_sweep_rejects_bad_input_before_writing(tmp_path, capsys, argv, message):
    out = tmp_path / "sweep.csv"
    assert main(["design", "sweep", *argv, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv,yaml", [
    (["design", "sweep", "--points", "3", "--output", "{tmp}/sweep.csv"], "n_samples: 1024\n"),
    (["figure", "fig2", "--outdir", "{tmp}"], "mode: field\nmaterial_b: yvo4\n"),
], ids=["sweep", "figure"])
def test_unread_config_keys_fail_before_writing(tmp_path, capsys, argv, yaml):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml)
    before = _listing(tmp_path)
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--config", str(cfg)]) == 1
    assert "config keys this action does not read" in capsys.readouterr().err
    assert _listing(tmp_path) == before


def test_figure_runs_several_figures_in_order(tmp_path, capsys):
    for figure in ("fig4", "fig2"):
        assert main(["figure", figure, "--outdir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    blobs = {path: open(path, "rb").read() for path in printed.split()}
    for path in blobs:
        os.remove(path)
    assert main(["figure", "fig4", "fig2", "fig9", "--outdir", str(tmp_path)]) == 1
    assert "invalid choice" in capsys.readouterr().err and _listing(tmp_path) == []
    assert main(["figure", "fig4", "fig2", "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == printed
    assert {path: open(path, "rb").read() for path in printed.split()} == blobs


@pytest.mark.parametrize("argv,source,grid", [
    (["ftsi", "jump", "--input", "{bad}"], "phase", "{n} nan {step}"),
    (["pulse", "derive", "--input", "{bad}", "--output", "{tmp}/d.csv"], "pulse",
     "{n} {start} inf"),
    (["ftsi", "retrieve", "--input", "{bad}", "--output", "{tmp}/r.csv"], "gram",
     "{n} -inf {step}"),
], ids=["nan-start", "inf-step", "minus-inf-start"])
def test_non_finite_grid_line_fails_at_the_boundary(tmp_path, files, capsys, argv, source, grid):
    text = open(files[source]).read()
    line = next(l for l in text.splitlines() if l.startswith("# grid="))
    n, start, step = line.removeprefix("# grid=").split()
    bad = tmp_path / "bad.csv"
    bad.write_text(text.replace(line, "# grid=" + grid.format(n=n, start=start, step=step)))
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main([a.format(bad=bad, tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert "grid must be finite" in captured.err and captured.out == ""
    assert _listing(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ["design", "delay", "--carrier-nm", "inf"],
    ["pulse", "synth", "--fwhm-thz", "inf", "--output", "{tmp}/pulse.csv"],
    ["figure", "fig3", "--tau-ftsi-fs", "inf", "--outdir", "{tmp}"],
], ids=["carrier_nm", "fwhm_thz", "tau_ftsi_fs"])
def test_infinite_input_is_rejected_before_any_work(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning on the way to the error fails the test
        assert main([a.format(tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert "must be positive and finite" in captured.err and captured.out == ""
    assert _listing(tmp_path) == []


def test_figure_with_a_chirp_that_undersamples_the_fringes_exits_1_before_writing(tmp_path,
                                                                                  capsys):
    assert main(["figure", "fig3", "--extra-phase-gdd-fs2", "1e12", "--outdir",
                 str(tmp_path)]) == 1
    assert "samples per fringe" in capsys.readouterr().err
    assert _listing(tmp_path) == []


def test_overlap_rejects_a_source_with_several_peaks(tmp_path, capsys):
    src = tmp_path / "two_peaks.csv"
    write_field_csv(two_peak_field(default_grid()), src)
    assert main(["overlap", "--mode", "field", "--shaped", str(src),
                 "--source", str(src)]) == 1
    assert "several peaks" in capsys.readouterr().err


def test_ftsi_retrieve_of_a_dark_interferogram_exits_2_before_writing(tmp_path, files, capsys):
    """No fringes, so no sideband energy: nothing to retrieve, not an all-masked phase."""
    gram = ftsi.read_interferogram_csv(files["gram"])
    dark = tmp_path / "dark.csv"
    ftsi.write_interferogram_csv(ftsi.Interferogram(gram.grid, 0 * gram.intensity, 1e-12), dark)
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main(["ftsi", "retrieve", "--input", str(dark), "--output", str(tmp_path / "p.csv")]) == 2
    assert "no sideband energy" in capsys.readouterr().err
    assert _listing(tmp_path) == before


@pytest.mark.parametrize("delay", ["nan", "inf", "0.0"])
def test_ftsi_retrieve_rejects_a_bad_delay_hint_as_input(tmp_path, files, capsys, delay):
    text = open(files["gram"]).read()
    line = next(l for l in text.splitlines() if l.startswith("# delay_hint="))
    bad = tmp_path / "bad.csv"
    bad.write_text(text.replace(line, "# delay_hint=" + delay))
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main(["ftsi", "retrieve", "--input", str(bad), "--output", str(tmp_path / "p.csv")]) == 1
    captured = capsys.readouterr()
    assert "delay_hint must be finite and positive" in captured.err and captured.out == ""
    assert _listing(tmp_path) == before


@pytest.mark.parametrize("yaml", ["n_samples: 4096.0", "nu_end_thz: abc", "material: [1]"])
def test_yaml_value_of_the_wrong_type_exits_1(tmp_path, capsys, yaml):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml + "\n")
    assert main(["figure", "fig2", "--config", str(cfg), "--outdir", str(tmp_path)]) == 1
    assert "must be" in capsys.readouterr().err and _listing(tmp_path) == ["run.yaml"]


def _corrupt_fig5_phase(tmp_path, how):
    """fig5's phase table with a NaN phase cell in an unmasked row, a `masked=<cell>` in the
    first row, or with 100 rows cut off."""
    assert main(["figure", "fig5", "--outdir", str(tmp_path)]) == 0
    good = tmp_path / "fig5_retrieved_phase.csv"
    lines = good.read_text().splitlines(keepends=True)
    if how == "nan":
        row = next(i for i, line in enumerate(lines)
                   if not line.startswith("#") and line.rstrip().endswith(",0"))
        cells = lines[row].split(",")
        lines[row] = ",".join([cells[0], "nan", *cells[2:]])
    elif how.startswith("masked="):
        row = next(i for i, line in enumerate(lines) if line[0].isdigit())
        lines[row] = ",".join([*lines[row].split(",")[:3], how.removeprefix("masked=")]) + "\n"
    else:
        lines = lines[:-100]
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    return good, bad


@pytest.mark.parametrize("how,message", [
    ("nan", "phase must be finite"), ("truncated", "lengths do not match grid"),
    *((f"masked={cell}", "bad.csv: masked cells must be 0 or 1") for cell in ("nan", "0.5", "2")),
])
@pytest.mark.parametrize("argv", [
    ["ftsi", "subtract", "--with", "{bad}", "--without", "{good}", "--output", "{tmp}/d.csv"],
    ["ftsi", "jump", "--input", "{bad}"],
], ids=["subtract", "jump"])
def test_bad_phase_table_fails_before_writing(tmp_path, capsys, argv, how, message):
    good, bad = _corrupt_fig5_phase(tmp_path, how)
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main([a.format(bad=bad, good=good, tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert _listing(tmp_path) == before


def test_overlap_rejects_a_field_table_that_names_a_column_twice(tmp_path, files, capsys):
    lines = open(files["pulse"]).read().splitlines(keepends=True)
    dup = tmp_path / "dup.csv"  # a copy of each row's re cell under a second `re` column
    dup.write_text("".join(line if line.startswith("#") else
                           line.replace(",", ",{},".format(line.split(",")[1]), 1)
                           for line in lines))
    assert "omega_rad_per_s,re,re,im\n" in dup.read_text()
    assert main(["overlap", "--shaped", str(dup), "--source", files["pulse"]]) == 1
    captured = capsys.readouterr()
    assert f"error: {dup}: column re appears twice" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv,header,missing", [
    (["pulse", "derive", "--input", "{bad}", "--output", "{tmp}/d.csv"], "omega_rad_per_s,re,imag",
     "im"),
    (["ftsi", "jump", "--input", "{bad}"], "omega_rad_per_s,re,im", "phase_rad, weight, masked"),
], ids=["derive-with-im-renamed", "jump-on-a-field-table"])
def test_missing_column_is_named(tmp_path, files, capsys, argv, header, missing):
    bad = tmp_path / "bad.csv"
    bad.write_text(open(files["pulse"]).read().replace("omega_rad_per_s,re,im\n", header + "\n"))
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main([a.format(bad=bad, tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert f"{bad}: missing column(s) {missing}" in captured.err and captured.out == ""
    assert _listing(tmp_path) == before
