import warnings
import weakref
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsbshaper import ftsi, metrology, pulsefield, shaper
from bsbshaper.errors import GridMismatchError, SupportLeakError
from bsbshaper.pulsefield import (SpectralField, SpectralGrid, apply_transfer,
                                  default_grid, derivative_field_oracle,
                                  edge_leak_fraction, gaussian_pulse,
                                  read_field_csv, replica_difference,
                                  to_frequency, to_time, write_field_csv)
from conftest import OMEGA0_800


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        SpectralGrid(1000, 1e15, 1e12)


@pytest.mark.parametrize("start,step", [(np.nan, 1.0), (1e15, np.inf), (np.inf, 1e12),
                                        (1e15, np.nan), (1e15, -np.inf), (0.0, 1e12)])
def test_grid_must_be_finite_and_positive(start, step):
    with pytest.raises(ValueError, match="grid must be finite"):
        SpectralGrid(4096, start, step)


def test_default_grid_span(grid):
    assert grid.n_samples == 4096
    assert grid.omega_start == pytest.approx(2 * np.pi * 150e12)
    assert grid.omega_end == pytest.approx(2 * np.pi * 600e12, rel=1e-3)


def test_gaussian_pulse_unit_energy_flat_phase(pulse100):
    assert np.sum(np.abs(pulse100.amplitude) ** 2) * pulse100.grid.omega_step == \
        pytest.approx(1.0, rel=1e-12)
    assert np.all(pulse100.amplitude.imag == 0)
    assert np.all(pulse100.amplitude.real >= 0)


def test_gaussian_fwhm(grid):
    fwhm = 2 * np.pi * 80e12
    p = gaussian_pulse(grid, OMEGA0_800, fwhm)
    power = np.abs(p.amplitude) ** 2
    above = grid.omegas[power >= 0.5 * power.max()]
    assert above[-1] - above[0] == pytest.approx(fwhm, rel=0.01)


def test_support_leak_detected(grid):
    with pytest.raises(SupportLeakError):
        gaussian_pulse(grid, OMEGA0_800, 2 * np.pi * 900e12)
    assert edge_leak_fraction(np.zeros(8)) == 0.0


def test_carrier_must_be_on_grid(grid):
    with pytest.raises(ValueError):
        SpectralField(grid, np.zeros(grid.n_samples), 2 * np.pi * 700e12)


def test_time_frequency_roundtrip(pulse100, grid):
    back = to_frequency(to_time(pulse100), grid, pulse100.omega0)
    assert np.max(np.abs(back.amplitude - pulse100.amplitude)) < 1e-10


def test_parseval(pulse100):
    trace = to_time(pulse100)
    # energy convention: integral |E(t)|^2 dt = integral |E(w)|^2 dw / 2pi
    spectral = np.sum(np.abs(pulse100.amplitude) ** 2) * pulse100.grid.omega_step
    assert np.sum(np.abs(trace.amplitude) ** 2) * trace.t_step == \
        pytest.approx(spectral / (2 * np.pi), rel=1e-9)


def _to_time_uncached(field):
    """to_time's amplitude with every chirp computed afresh, as the expressions were written."""
    n = field.grid.n_samples
    dt = field.grid.time_step
    t_start = -(n // 2) * dt
    k = np.arange(n)
    pre = field.amplitude * np.exp(-1j * k * field.grid.omega_step * t_start)
    spec = np.fft.fft(pre)
    t = t_start + dt * k
    return field.grid.omega_step / (2 * np.pi) * np.exp(-1j * field.grid.omega_start * t) * spec


def _to_frequency_uncached(trace, grid):
    """to_frequency's amplitude with every chirp computed afresh."""
    j = np.arange(grid.n_samples)
    pre = trace.amplitude * np.exp(1j * grid.omega_start * j * trace.t_step)
    spec = np.fft.ifft(pre) * grid.n_samples * trace.t_step
    return spec * np.exp(1j * grid.omegas * trace.t_start)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [2**12, 2**14, 2**15])  # 2^14 complex samples is where numpy
def test_cached_chirps_give_the_uncached_bits(n):    # starts to reuse temporaries in place
    """An interferogram's pseudo-time transform and back, as the FTSI retrieval runs them: its
    products round differently by operand order, which a random field's do not show."""
    grid = default_grid(n)
    pulse = gaussian_pulse(grid, OMEGA0_800, 2 * np.pi * 100e12)
    gram = ftsi.synthesize_interferogram(pulse, pulse, 1e-12)
    field = SpectralField(grid, gram.intensity.astype(complex), OMEGA0_800)
    pulsefield._chirps.cache_clear()
    for _ in ("cold", "warm"):
        trace = to_time(field)
        assert _same_bits(trace.amplitude, _to_time_uncached(field))
        back = to_frequency(trace, grid, OMEGA0_800)
        assert _same_bits(back.amplitude, _to_frequency_uncached(trace, grid))
    assert pulsefield._chirps.cache_info()[:2] == (3, 1)  # (hits, misses): one build per grid


def test_cached_chirps_are_read_only_and_keep_no_grid():
    grid = SpectralGrid(1024, 2e15, 1e12)
    trace = to_time(SpectralField(grid, np.ones(grid.n_samples), grid.omegas[512]))
    hits = pulsefield._chirps.cache_info().hits
    chirps = pulsefield._chirps(*astuple(grid), trace.t_step, trace.t_start)
    assert pulsefield._chirps.cache_info().hits == hits + 1  # the chirps to_time built
    for chirp in chirps:
        with pytest.raises(ValueError, match="read-only"):
            chirp[0] = 0
    gone = weakref.ref(grid)
    del grid
    assert gone() is None  # the cache holds the grid's fields, not the grid nor its omegas


def test_spectral_delay_factor_shifts_time_peak(pulse100, grid):
    tau = 500e-15
    delayed = apply_transfer(pulse100, np.exp(1j * grid.omegas * tau))
    t0 = to_time(pulse100)
    t1 = to_time(delayed)
    peak0 = t0.times[np.argmax(np.abs(t0.amplitude))]
    peak1 = t1.times[np.argmax(np.abs(t1.amplitude))]
    assert peak1 - peak0 == pytest.approx(tau, abs=2 * grid.time_step)


def test_apply_transfer_grid_mismatch(pulse100):
    other = default_grid(2048)
    bad = SpectralField(other, np.ones(2048), OMEGA0_800)
    with pytest.raises(GridMismatchError):
        apply_transfer(pulse100, bad.amplitude[:100])


def test_replica_difference_small_tau_limit(pulse100):
    tau = 0.01e-15
    diff = replica_difference(pulse100, tau)
    oracle = derivative_field_oracle(pulse100, tau / 2)
    rel = np.max(np.abs(diff.amplitude - oracle.amplitude)) / np.max(np.abs(oracle.amplitude))
    assert rel < 1e-4


def test_replica_difference_converges_at_second_order(pulse100):
    taus = np.array([0.05, 0.1, 0.2, 0.4]) * 1e-15
    errs = []
    for tau in taus:
        diff = replica_difference(pulse100, tau)
        oracle = derivative_field_oracle(pulse100, tau / 2)
        errs.append(np.linalg.norm(diff.amplitude - oracle.amplitude)
                    / np.linalg.norm(oracle.amplitude))
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_field_csv_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(3)
    amp = rng.normal(size=grid.n_samples) + 1j * rng.normal(size=grid.n_samples)
    fld = SpectralField(grid, amp, OMEGA0_800)
    path = tmp_path / "field.csv"
    write_field_csv(fld, path)
    back = read_field_csv(path)
    assert back.grid == grid
    assert back.omega0 == fld.omega0
    np.testing.assert_array_equal(back.amplitude, fld.amplitude)


def test_field_csv_missing_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("omega_rad_per_s,re,im\n1.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="metadata"):
        read_field_csv(path)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=20e12, max_value=100e12))
def test_gaussian_energy_normalization_any_width(fwhm_hz):
    g = default_grid()
    p = gaussian_pulse(g, OMEGA0_800, 2 * np.pi * fwhm_hz)
    assert np.sum(np.abs(p.amplitude) ** 2) * g.omega_step == pytest.approx(1.0, rel=1e-10)


def test_replica_difference_rejects_nan_delay(pulse100):
    with pytest.raises(ValueError, match="tau"):
        replica_difference(pulse100, float("nan"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_field_rejects_non_finite_samples(pulse100, bad):
    amp = pulse100.amplitude.copy()
    amp[100] = bad
    with pytest.raises(ValueError, match="finite"):
        SpectralField(pulse100.grid, amp, pulse100.omega0)


@pytest.mark.parametrize("fwhm", [np.nan, 0.0, -1.0])
def test_gaussian_pulse_rejects_a_width_that_is_not_positive(grid, fwhm):
    with pytest.raises(ValueError, match="fwhm_intensity must be positive"):
        gaussian_pulse(grid, OMEGA0_800, fwhm)


def test_gaussian_pulse_rejects_a_width_that_puts_no_energy_on_the_grid():
    grid = default_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^fwhm_intensity 6\.28e\+03 rad/s puts no energy "
                           r"on a grid of step 6\.9e\+11 rad/s$"):
            gaussian_pulse(grid, OMEGA0_800, 2 * np.pi * 1e3)


def _flat_phase(grid):
    n = grid.n_samples
    return ftsi.RetrievedPhase(grid, np.zeros(n), np.ones(n), np.zeros(n, dtype=bool))


PAIRINGS = {
    "apply_transfer": lambda a, b: apply_transfer(
        a, shaper.objective(b.grid, "field", 1e-15, b.omega0)),
    "mode_overlap": metrology.mode_overlap,
    "objective_overlap": lambda a, b: metrology.objective_overlap(a, b, "field"),
    "synthesize_interferogram": lambda a, b: ftsi.synthesize_interferogram(a, b, 100e-15),
    "subtract_reference": lambda a, b: ftsi.subtract_reference(_flat_phase(a.grid),
                                                               _flat_phase(b.grid)),
}


@pytest.mark.parametrize("combine", PAIRINGS.values(), ids=PAIRINGS)
def test_records_on_different_grids_do_not_combine(pulse100, combine):
    combine(pulse100, pulse100)  # the same grid combines
    other = gaussian_pulse(default_grid(2048), OMEGA0_800, 2 * np.pi * 100e12)
    with pytest.raises(GridMismatchError, match="grids differ"):
        combine(pulse100, other)


RECORDS = {
    "SpectralField": lambda grid, values: SpectralField(grid, values, OMEGA0_800),
    "Interferogram": lambda grid, values: ftsi.Interferogram(grid, values, 100e-15),
    "RetrievedPhase": lambda grid, values: ftsi.RetrievedPhase(
        grid, values, np.ones(grid.n_samples), np.zeros(grid.n_samples, dtype=bool)),
    "TransferFunction": shaper.TransferFunction,
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
def test_each_record_holds_one_finite_value_per_sample(grid, make):
    make(grid, np.ones(grid.n_samples))
    with pytest.raises(GridMismatchError, match="lengths do not match grid"):
        make(grid, np.ones(grid.n_samples - 1))
    values = np.ones(grid.n_samples)
    values[7] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        make(grid, values)
