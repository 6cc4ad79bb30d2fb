import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsbshaper import ftsi
from bsbshaper.errors import (EmptyMaskError, GridMismatchError,
                              SidebandOverlapError, UndersampledFringeError)
from bsbshaper.ftsi import (FtsiWindow, Interferogram, RetrievedPhase,
                            detect_phase_jump, read_interferogram_csv,
                            read_phase_csv, retrieve_phase, subtract_reference,
                            synthesize_interferogram, unwrap, wrap_to_principal,
                            write_interferogram_csv, write_phase_csv)
from bsbshaper.pulsefield import SpectralField, SpectralGrid, apply_transfer

TAU = 1e-12

# window that keeps the full sideband while rejecting the baseband at the
# 1e-10 rad cancellation level; the tau/3 default trades a little accuracy
# for robustness against unknown delays
SHARP_WINDOW = FtsiWindow(center_time=TAU, width=600e-15, order=12)


def _ramp_removed(rp, tau):
    return rp.phase - rp.grid.omegas * tau


def test_pure_delay_retrieval_is_linear(pulse100, grid):
    gram = synthesize_interferogram(pulse100, pulse100, TAU)
    rp = unwrap(retrieve_phase(gram))
    keep = ~rp.masked
    slope, _ = np.polyfit(grid.omegas[keep], rp.phase[keep], 1, w=rp.weight[keep])
    assert slope == pytest.approx(TAU, rel=1e-6)


def test_smooth_injected_phase_recovered(pulse100, grid):
    w0 = pulse100.omega0
    theta = (0.4 * np.sin((grid.omegas - w0) * 5e-15)
             + 0.5 * 80e-30 * (grid.omegas - w0) ** 2)
    shaped = apply_transfer(pulse100, np.exp(1j * theta))
    gram = synthesize_interferogram(pulse100, shaped, TAU)
    rp = retrieve_phase(gram, SHARP_WINDOW)
    keep = rp.weight > 0.05 * rp.weight.max()
    resid = _ramp_removed(rp, TAU)[keep]
    resid = np.angle(np.exp(1j * (resid - theta[keep])))
    assert np.sqrt(np.mean(resid**2)) < 1e-3  # < 1 mrad RMS


def test_reference_subtraction_cancels_common_dispersion(pulse100, grid):
    w = grid.omegas - pulse100.omega0
    common = 0.5 * 20e-30 * w**2 + 0.05 * np.sin(w * 8e-15)
    theta = 0.2 * np.sin(w * 6e-15) + 0.1 * np.cos(w * 3e-15)
    shaped = apply_transfer(pulse100, np.exp(1j * theta))

    with_common = subtract_reference(
        retrieve_phase(synthesize_interferogram(pulse100, shaped, TAU, common), SHARP_WINDOW),
        retrieve_phase(synthesize_interferogram(pulse100, pulse100, TAU, common), SHARP_WINDOW))
    without = subtract_reference(
        retrieve_phase(synthesize_interferogram(pulse100, shaped, TAU), SHARP_WINDOW),
        retrieve_phase(synthesize_interferogram(pulse100, pulse100, TAU), SHARP_WINDOW))
    keep = ~(with_common.masked | without.masked)
    diff = np.angle(np.exp(1j * (with_common.phase[keep] - without.phase[keep])))
    assert np.max(np.abs(diff)) < 1e-10


def test_undersampled_fringes_rejected(pulse100):
    with pytest.raises(UndersampledFringeError):
        synthesize_interferogram(pulse100, pulse100, 5e-12)


def test_overwide_window_leaking_baseband_rejected(pulse100):
    gram = synthesize_interferogram(pulse100, pulse100, TAU)
    wide = FtsiWindow(center_time=TAU, width=5 * TAU, order=2)
    with pytest.raises(SidebandOverlapError):
        retrieve_phase(gram, wide)


def test_arm_grids_must_match(pulse100):
    from bsbshaper.pulsefield import default_grid, gaussian_pulse
    other = gaussian_pulse(default_grid(2048), pulse100.omega0, 2 * np.pi * 100e12)
    with pytest.raises(GridMismatchError):
        synthesize_interferogram(pulse100, other, TAU)


def test_negative_intensity_rejected(grid):
    with pytest.raises(ValueError):
        Interferogram(grid, -np.ones(grid.n_samples), TAU)


def test_window_order_must_be_even():
    with pytest.raises(ValueError):
        FtsiWindow(order=3)


def test_wrap_to_principal_range(grid):
    phase = np.linspace(-20, 20, grid.n_samples)
    rp = RetrievedPhase(grid, phase, np.ones(grid.n_samples),
                        np.zeros(grid.n_samples, dtype=bool))
    wrapped = wrap_to_principal(rp)
    assert np.all(wrapped.phase <= np.pi) and np.all(wrapped.phase > -np.pi)
    np.testing.assert_allclose(np.exp(1j * wrapped.phase), np.exp(1j * phase), atol=1e-12)


def test_unwrap_restarts_across_masked_gaps(grid):
    n = grid.n_samples
    phase = np.zeros(n)
    phase[n // 2:] = np.pi - 0.05  # genuine near-pi step under a masked gap
    masked = np.zeros(n, dtype=bool)
    masked[n // 2 - 3:n // 2 + 3] = True
    rp = RetrievedPhase(grid, phase, np.ones(n), masked)
    out = unwrap(rp)
    assert out.phase[-1] - out.phase[0] == pytest.approx(np.pi - 0.05)


def _unwrap_reference(rp):
    """Plain per-sample scan: unwrap each unmasked run, anchored at its weight maximum."""
    phase = rp.phase.copy()
    n, i = len(phase), 0
    while i < n:
        if rp.masked[i]:
            i += 1
            continue
        j = i
        while j < n and not rp.masked[j]:
            j += 1
        seg = rp.phase[i:j]
        unwrapped = np.unwrap(seg)
        anchor = np.argmax(rp.weight[i:j])
        unwrapped += 2 * np.pi * np.round((seg[anchor] - unwrapped[anchor]) / (2 * np.pi))
        phase[i:j] = unwrapped
        i = j
    return phase


N_UNWRAP = 16
_samples = st.tuples(st.booleans(), st.floats(-20, 20), st.floats(0, 1))  # masked, phase, weight


@settings(max_examples=300, deadline=None)
@given(st.lists(_samples, min_size=N_UNWRAP, max_size=N_UNWRAP))
@example([(True, 1.0, 0.5)] * N_UNWRAP)  # fully masked
@example([(False, 3.0, 0.5)] * N_UNWRAP)  # one segment over the whole grid
@example([(k % 2 == 0, 3.0 * k, 0.1 * (k % 7)) for k in range(N_UNWRAP)])  # starts masked
@example([(k % 2 == 1, -3.0 * k, 0.5) for k in range(N_UNWRAP)])  # ends masked
def test_unwrap_matches_per_segment_reference(samples):
    masked, phase, weight = (np.array(col) for col in zip(*samples))
    rp = RetrievedPhase(SpectralGrid(N_UNWRAP, 1e15, 1e12), phase, weight, masked)
    assert np.array_equal(unwrap(rp).phase, _unwrap_reference(rp))


def test_subtract_reference_requires_overlap(grid):
    n = grid.n_samples
    all_masked = RetrievedPhase(grid, np.zeros(n), np.zeros(n), np.ones(n, dtype=bool))
    with pytest.raises(EmptyMaskError):
        subtract_reference(all_masked, all_masked)


def test_detect_phase_jump_on_synthetic_step(grid):
    n = grid.n_samples
    omega0 = float(grid.omegas[n // 2])
    phase = np.where(grid.omegas > omega0, 1.0, -2.0)
    rp = RetrievedPhase(grid, phase, np.ones(n), np.zeros(n, dtype=bool))
    jump = detect_phase_jump(rp, omega0)
    assert jump.magnitude == pytest.approx(3.0)
    assert jump.sign == 1
    assert abs(jump.location - omega0) < 2 * grid.omega_step


def test_detect_phase_jump_needs_samples_both_sides(grid):
    n = grid.n_samples
    masked = np.ones(n, dtype=bool)
    masked[: n // 2] = False  # nothing valid above the carrier
    rp = RetrievedPhase(grid, np.zeros(n), np.ones(n), masked)
    with pytest.raises(EmptyMaskError):
        detect_phase_jump(rp, float(grid.omegas[n // 2]))


def test_interferogram_csv_roundtrip(tmp_path, pulse100):
    gram = synthesize_interferogram(pulse100, pulse100, TAU)
    path = tmp_path / "gram.csv"
    write_interferogram_csv(gram, path)
    back = read_interferogram_csv(path)
    assert back.delay_hint == gram.delay_hint
    np.testing.assert_array_equal(back.intensity, gram.intensity)


def test_phase_csv_roundtrip(tmp_path, pulse100):
    rp = retrieve_phase(synthesize_interferogram(pulse100, pulse100, TAU))
    path = tmp_path / "phase.csv"
    write_phase_csv(rp, path)
    back = read_phase_csv(path)
    np.testing.assert_array_equal(back.phase, rp.phase)
    np.testing.assert_array_equal(back.masked, rp.masked)
