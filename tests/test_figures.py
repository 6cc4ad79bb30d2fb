from dataclasses import astuple

import numpy as np
import pytest

from bsbshaper import dispersion, figures, shaper
from bsbshaper.config import (ConfigError, RunConfig, config_header, load_config,
                              validate_config)
from conftest import peak_above_start


def _read_csv(path):
    rows = []
    columns = None
    for line in open(path):
        line = line.strip()
        if line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows)
    return {name: data[:, i] for i, name in enumerate(columns)}


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ValueError):
        figures.run_figure_pipeline(RunConfig(outdir=str(tmp_path)), "fig1")


def test_ratio_pipeline_outputs(tmp_path):
    paths = figures.run_figure_pipeline(RunConfig(outdir=str(tmp_path)), "fig2")
    assert len(paths) == 2
    ratio = _read_csv(paths[1])
    # exact and first-order ratios agree where the source has energy
    spectra = _read_csv(paths[0])
    band = spectra["unshaped_intensity"] > 1e-3 * spectra["unshaped_intensity"].max()
    dev = np.abs(ratio["ratio_exact"][band] - ratio["ratio_first_order"][band])
    assert dev.max() / ratio["ratio_exact"][band].max() < 0.05
    assert not ratio["masked"][band].any()


def test_half_order_ratio_vanishes_at_carrier(tmp_path):
    paths = figures.run_figure_pipeline(RunConfig(outdir=str(tmp_path)), "fig4")
    ratio = _read_csv(paths[1])
    cfg = RunConfig()
    k0 = np.argmin(np.abs(ratio["omega_rad_per_s"] - cfg.omega0))
    # cot crosses zero at the half-order carrier, mimicking -i(omega-omega0)T
    assert ratio["ratio_exact"][k0] < 0.05 * ratio["ratio_exact"].max()


def test_phase_pipeline_outputs(tmp_path):
    paths = figures.run_figure_pipeline(RunConfig(outdir=str(tmp_path)), "fig3")
    names = [p.rsplit("/", 1)[-1] for p in paths]
    assert names == ["fig3_interferogram_with_bsb.csv",
                     "fig3_interferogram_without_bsb.csv",
                     "fig3_retrieved_phase.csv"]
    gram = _read_csv(paths[0])
    assert gram["intensity"].min() >= 0


def test_jump_report_written(tmp_path):
    paths = figures.run_figure_pipeline(RunConfig(outdir=str(tmp_path)), "fig5")
    report = open(paths[-1]).read()
    assert "jump_magnitude_rad" in report


def test_validate_config_aggregates_problems(tmp_path):
    bad = RunConfig(n_samples=1000, mode="nope", carrier_nm=-1, outdir=str(tmp_path))
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    msg = str(err.value)
    assert "power of two" in msg and "mode" in msg and "carrier_nm" in msg


def test_load_config_yaml(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"carrier_nm: 1030\noutdir: {tmp_path}\n")
    loaded = load_config(cfg, {"fwhm_thz": 60.0, "material": None})
    assert loaded.carrier_nm == 1030
    assert loaded.fwhm_thz == 60.0
    assert loaded.material == "quartz"  # None override leaves the default


@pytest.mark.parametrize("key", ["thickness_um", "carrier_nm", "fwhm_thz", "tau_ftsi_fs",
                                 "window_width_fs", "extra_phase_gdd_fs2"])
def test_validate_config_rejects_nan(tmp_path, key):
    with pytest.raises(ConfigError, match=key.split("_")[0]):
        validate_config(RunConfig(outdir=str(tmp_path), **{key: float("nan")}))


@pytest.mark.parametrize("figure,asked,ran", [("fig4", "field", "envelope-half"),
                                              ("fig2", "envelope-half", "field")])
def test_figure_headers_record_the_mode_that_ran(tmp_path, figure, asked, ran):
    config = RunConfig(outdir=str(tmp_path), mode=asked)
    for path in figures.run_figure_pipeline(config, figure):
        header = [line for line in open(path) if line.startswith("# config.mode=")]
        assert header == [f"# config.mode={ran!r}\n"]


def test_explicit_outdir_must_be_writable(tmp_path):
    with pytest.raises(ConfigError, match="outdir"):
        figures.run_figure_pipeline(RunConfig(outdir=str(tmp_path)), "fig2",
                                    outdir=str(tmp_path / "missing"))


@pytest.mark.parametrize("nu_end", [float("inf"), 1e300])
def test_validate_config_rejects_a_grid_that_overflows(nu_end):
    with pytest.raises(ConfigError, match=r"grid \(n_samples, nu_start_thz, nu_end_thz\)"):
        validate_config(RunConfig(nu_end_thz=nu_end))


def test_zero_samples_is_a_config_error_not_a_division():
    with pytest.raises(ValueError, match="n_samples must be a power of two, got 0"):
        RunConfig(n_samples=0).grid()
    with pytest.raises(ConfigError, match="n_samples must be a power of two, got 0"):
        validate_config(RunConfig(n_samples=0))


def test_zero_window_width_is_rejected_not_defaulted():
    with pytest.raises(ValueError, match="window width"):
        RunConfig(window_width_fs=0.0).window()
    with pytest.raises(ConfigError, match=r"window \(window_order, window_width_fs\)"):
        validate_config(RunConfig(window_width_fs=0.0))


@pytest.mark.parametrize("line,message", [
    ("n_samples: 4096.0", "n_samples must be int, got 4096.0"),
    ("nu_end_thz: abc", "nu_end_thz must be float, got 'abc'"),
    ("material: [1]", r"material must be str, got \[1\]"),
    ("carrier_nm: true", "carrier_nm must be float, got True"),
    ("fwhm_thz: null", "fwhm_thz must be float, got None"),
])
def test_yaml_value_of_the_wrong_type_is_a_config_error(tmp_path, line, message):
    path = tmp_path / "run.yaml"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_yaml_int_for_a_float_field_is_kept_as_given(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("carrier_nm: 1030\nwindow_width_fs: null\nthickness_um: 5\n")
    loaded = load_config(path)
    assert type(loaded.carrier_nm) is int and type(loaded.thickness_um) is int
    assert "# config.carrier_nm=1030\n" in config_header(loaded)


@pytest.mark.parametrize("key", ["carrier_nm", "fwhm_thz", "tau_ftsi_fs"])
def test_validate_config_rejects_infinity(key):
    with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
        validate_config(RunConfig(**{key: float("inf")}))


def test_sellmeier_evaluations_per_figure(tmp_path, monkeypatch):
    """With the grid's wavevector table warm, each carrier query evaluates each axis once.

    A figure evaluates both axes at the carrier once with the carrier cache cold, and
    not at all when it runs again.
    """
    config = RunConfig(outdir=str(tmp_path))
    shaper._wavevectors(dispersion.get_material(config.material), *astuple(config.grid()))
    calls = []
    index = dispersion.refractive_index
    monkeypatch.setattr(dispersion, "refractive_index",
                        lambda model, wl: calls.append(model) or index(model, wl))
    for figure in figures.FIGURES:
        dispersion._carrier_contrast.cache_clear()
        for expected in (2, 0):
            calls.clear()
            figures.run_figure_pipeline(config, figure)
            assert len(calls) == expected, figure


# Working set of a warm figure run, in complex arrays of n_samples (16 n bytes).  From 2^14 on
# numpy reuses complex temporaries in place, as at 2^16 and 2^20.  Measured 8.1 (fig2/fig4) and
# 8.6 (fig3/fig5); holding the pulse, the transfer pair and every response or arm to the end of
# the run reads 11.4 and 18.2.
WORKING_SET_SAMPLES = 2**14
WORKING_SET_BOUND = 10


@pytest.mark.parametrize("figure", figures.FIGURES)
def test_figure_working_set_is_bounded(tmp_path, figure):
    config = RunConfig(n_samples=WORKING_SET_SAMPLES, outdir=str(tmp_path))
    figures.run_figure_pipeline(config, figure)  # fills the caches, which the bound leaves out
    peak = peak_above_start(lambda: figures.run_figure_pipeline(config, figure))
    assert peak / (16 * WORKING_SET_SAMPLES) <= WORKING_SET_BOUND
