import numpy as np
import pytest

from bsbshaper import figures
from bsbshaper.config import ConfigError, RunConfig, load_config, validate_config


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
