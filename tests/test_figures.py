import dataclasses
from dataclasses import astuple

import numpy as np
import pytest

from bsbshaper import _cache, dispersion, figures, ftsi, shaper
from bsbshaper.config import (ConfigError, RunConfig, config_header, load_config,
                              validate_config)
from bsbshaper.errors import SidebandOverlapError, UndersampledFringeError
from conftest import CACHES, clear_caches, fresh_path, peak_above_start


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


@pytest.mark.parametrize("text", ["- carrier_nm\n- 1030\n", "carrier_nm 1030\n"],
                         ids=["list", "string"])
def test_load_config_rejects_a_file_that_is_not_a_mapping(tmp_path, text):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match="expected a mapping of config keys"):
        load_config(cfg)


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
            outdir = fresh_path(tmp_path, "out")
            outdir.mkdir()
            calls.clear()
            figures.run_figure_pipeline(config, figure, str(outdir))
            assert len(calls) == expected, figure


# Working set of a warm figure run, in complex arrays of n_samples (16 n bytes).  From 2^14 on
# numpy reuses complex temporaries in place, as at 2^16 and 2^20.  Measured 8.28 (fig2/fig4)
# and 8.08 (fig3/fig5, whose reference gram is cached); holding the pulse, the transfer pair
# and every response or arm to the end of the run reads 11.4 and 18.2.  A fig3/fig5 run that
# builds the reference, every other cache warm, measures 9.95: the writer's block (5.4) over
# the entry it keeps (2.44), the device's gram and the phase difference; keeping the
# reference's pulse through its retrieval reads 10.83.
WORKING_SET_SAMPLES = 2**14
WORKING_SET_BOUND = 10


@pytest.mark.parametrize("figure", figures.FIGURES)
def test_figure_working_set_is_bounded(tmp_path, figure):
    config = RunConfig(n_samples=WORKING_SET_SAMPLES, outdir=str(tmp_path))
    figures.run_figure_pipeline(config, figure)  # fills the caches, which the bound leaves out
    peak = peak_above_start(lambda: figures.run_figure_pipeline(config, figure))
    assert peak / (16 * WORKING_SET_SAMPLES) <= WORKING_SET_BOUND


@pytest.mark.parametrize("figure", ["fig3", "fig5"])
def test_figure_working_set_that_builds_the_reference_is_bounded(tmp_path, figure):
    config = RunConfig(n_samples=WORKING_SET_SAMPLES, outdir=str(tmp_path))
    figures.run_figure_pipeline(config, figure)

    def cold_reference():
        figures._reference.cache_clear()
        figures.run_figure_pipeline(config, figure)

    assert peak_above_start(cold_reference) / (16 * WORKING_SET_SAMPLES) <= WORKING_SET_BOUND


def test_eviction_never_changes_the_bytes(tmp_path, monkeypatch):
    """fig2-fig5 at 2^14 samples, where numpy reuses temporaries in place, write the same bytes
    cold, warm, and with a budget of 0, under which every call but a reuse of the entry just
    added misses."""
    config = RunConfig(n_samples=2**14, outdir=str(tmp_path))
    written = {}
    for run in ("cold", "warm", "no budget"):
        if run != "warm":
            clear_caches()
        if run == "no budget":
            monkeypatch.setattr(_cache, "CACHE_BYTES", 0)
        outdir = tmp_path / run  # the header names config.outdir, the same for every run
        outdir.mkdir()
        for figure in figures.FIGURES:
            figures.run_figure_pipeline(config, figure, str(outdir))
        written[run] = {path.name: path.read_bytes() for path in outdir.iterdir()}
    assert sum(cache.cache_info().currsize for cache in CACHES) == 1
    assert len(written["cold"]) == 11
    assert written["no budget"] == written["cold"] == written["warm"]


def test_a_second_figure_pass_at_2_16_samples_misses_no_cache(tmp_path):
    """The default budget keeps the whole working set of fig2-fig5 at 2^16 samples."""
    config = RunConfig(n_samples=2**16, outdir=str(tmp_path))
    for figure in figures.FIGURES:
        figures.run_figure_pipeline(config, figure)
    misses = [cache.cache_info().misses for cache in CACHES]
    outdir = tmp_path / "second"
    outdir.mkdir()
    for figure in figures.FIGURES:
        figures.run_figure_pipeline(config, figure, str(outdir))
    assert [cache.cache_info().misses for cache in CACHES] == misses


def _counted(monkeypatch, *names):
    """Count the calls to each named `ftsi` function from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _fn=getattr(ftsi, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ftsi, name, counting)
    return calls


def test_phase_figures_of_a_process_share_one_reference(tmp_path, monkeypatch):
    figures._reference.cache_clear()
    calls = _counted(monkeypatch, "retrieve_phase", "synthesize_interferogram")
    config = RunConfig(outdir=str(tmp_path))
    for figure in ("fig3", "fig5"):
        figures.run_figure_pipeline(config, figure)
    assert calls == {"retrieve_phase": 3, "synthesize_interferogram": 3}
    calls.update(dict.fromkeys(calls, 0))
    figures.run_figure_pipeline(config, "fig3")
    assert calls == {"retrieve_phase": 1, "synthesize_interferogram": 1}


# 2048 samples over 180-580 THz, inside KDP's Sellmeier range: the fewest at which the default
# fringes, whose local delay reaches 1.23 ps at the band's edges, have 4 samples each
_REFERENCE_CHANGES = [  # (one field changed, whether the reference is shared)
    *(({"mode": "envelope-half"}, True), ({"material": "kdp"}, True),
      ({"thickness_um": 30.0}, True), ({"outdir": "sub"}, True)),
    *((change, False) for change in (
        {"tau_ftsi_fs": 900.0}, {"extra_phase_gdd_fs2": 100.0}, {"window_width_fs": 300.0},
        {"window_order": 8}, {"fwhm_thz": 90.0}, {"carrier_nm": 810.0},
        {"n_samples": 4096}, {"nu_start_thz": 190.0})),
]


@pytest.mark.parametrize("change,shared", _REFERENCE_CHANGES,
                         ids=[next(iter(change)) for change, _ in _REFERENCE_CHANGES])
def test_reference_is_shared_unless_a_field_it_reads_changes(tmp_path, change, shared):
    (tmp_path / "sub").mkdir()
    base = RunConfig(n_samples=2048, nu_start_thz=180.0, nu_end_thz=580.0, outdir=str(tmp_path))
    if "outdir" in change:
        change = {"outdir": str(tmp_path / "sub")}
    figures._reference.cache_clear()
    figures.run_figure_pipeline(base, "fig3")
    figure = "fig5" if "mode" in change else "fig3"  # a figure fixes its mode
    figures.run_figure_pipeline(dataclasses.replace(base, **change), figure)
    assert figures._reference.cache_info().misses == (1 if shared else 2)


def test_cached_reference_arrays_are_read_only(tmp_path):
    figures._reference.cache_clear()
    figures.run_figure_pipeline(RunConfig(outdir=str(tmp_path)), "fig3")
    ref = figures._reference(RunConfig())  # the key resets outdir to its default
    assert figures._reference.cache_info().hits == 1
    for array in (ref.intensity.cells, ref.phase.phase, ref.phase.weight, ref.phase.masked):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_a_reference_that_raises_is_not_kept():
    figures._reference.cache_clear()
    key = RunConfig(window_width_fs=900.0)  # reaches into the baseband at the 1 ps delay
    for _ in range(2):
        with pytest.raises(SidebandOverlapError):
            figures._reference(key)
    assert figures._reference.cache_info().currsize == 0


def test_the_device_retrieval_raises_before_the_reference_is_built(tmp_path):
    config = RunConfig(window_width_fs=900.0, outdir=str(tmp_path))  # both grams leak, unequally
    figures._reference.cache_clear()
    with pytest.raises(SidebandOverlapError) as device:
        ftsi.retrieve_phase(figures._device_gram(config)[0], config.window())
    with pytest.raises(SidebandOverlapError) as raised:
        figures.run_figure_pipeline(config, "fig3")
    assert str(raised.value) == str(device.value)
    assert figures._reference.cache_info().misses == 0


@pytest.mark.parametrize("figure", ["fig3", "fig5"])
@pytest.mark.parametrize("gdd", [2e3, 3e3, 5e3, 1e4, 2e4, 3e4, -3e4, 1e5, 1e12])
def test_chirp_that_undersamples_the_fringes_raises_before_writing(tmp_path, figure, gdd):
    """At n = 4096 and tau = 1 ps the fringes take 4 samples each up to a local delay of
    2.28 ps; a GDD of 2e3 fs^2 takes it to 3.29 ps at the band's edges, where the retrieval
    went wrong without a word."""
    with pytest.raises(UndersampledFringeError, match="samples per fringe"):
        figures.run_figure_pipeline(RunConfig(extra_phase_gdd_fs2=gdd, outdir=str(tmp_path)),
                                    figure)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("figure", ["fig3", "fig5"])
@pytest.mark.parametrize("gdd", [200.0, 1e3])  # local delays up to 1.229 and 2.145 ps
def test_chirp_within_the_fringe_limit_runs(tmp_path, figure, gdd):
    figures.run_figure_pipeline(RunConfig(extra_phase_gdd_fs2=gdd, outdir=str(tmp_path)), figure)
