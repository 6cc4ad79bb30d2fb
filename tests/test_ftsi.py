import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsbshaper import ftsi
from bsbshaper.errors import EmptyMaskError, SidebandOverlapError, UndersampledFringeError
from bsbshaper.ftsi import (FtsiWindow, Interferogram, RetrievedPhase,
                            detect_phase_jump, read_interferogram_csv,
                            read_phase_csv, retrieve_phase, subtract_reference,
                            synthesize_interferogram, unwrap, wrap_to_principal,
                            write_interferogram_csv, write_phase_csv)
from bsbshaper.pulsefield import (SpectralField, SpectralGrid, apply_transfer, default_grid,
                                  gaussian_pulse, to_time)
from conftest import OMEGA0_800, peak_above_start

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


@pytest.mark.parametrize("margin,raises", [(0.99, False), (1.01, True)])
def test_fringes_are_sampled_at_the_largest_local_delay_over_the_band(pulse100, grid, margin,
                                                                     raises):
    """A chirp adds GDD (omega - omega0) to the delay; the fringes need 4 samples each where
    that local delay is largest over the band, not at tau alone."""
    edge = np.abs(grid.omegas[pulse100.band] - OMEGA0_800).max()
    limit = np.pi / (2 * grid.omega_step)  # 4 samples per fringe
    gdd = margin * (limit - TAU) / edge
    chirp = 0.5 * gdd * (grid.omegas - OMEGA0_800) ** 2
    assert 2 * np.pi / (TAU * grid.omega_step) > 4  # tau alone passes
    if raises:
        with pytest.raises(UndersampledFringeError, match="local delay"):
            synthesize_interferogram(pulse100, pulse100, TAU, chirp)
    else:
        synthesize_interferogram(pulse100, pulse100, TAU, chirp)


def test_overwide_window_leaking_baseband_rejected(pulse100):
    gram = synthesize_interferogram(pulse100, pulse100, TAU)
    wide = FtsiWindow(center_time=TAU, width=5 * TAU, order=2)
    with pytest.raises(SidebandOverlapError):
        retrieve_phase(gram, wide)


def test_window_of_baseband_energy_only_rejected(pulse100):
    """A 50 fs window at t = 0 is exactly 0 past the baseband, where the sideband is."""
    gram = synthesize_interferogram(pulse100, pulse100, TAU)
    with pytest.raises(SidebandOverlapError, match="100.0% of what it holds"):
        retrieve_phase(gram, FtsiWindow(center_time=0.0, width=50e-15))


def test_negative_intensity_rejected(grid):
    with pytest.raises(ValueError):
        Interferogram(grid, -np.ones(grid.n_samples), TAU)


def test_negative_retrieved_weight_rejected(grid):
    n = grid.n_samples
    weight = np.ones(n)
    weight[7] = -1e-300
    with pytest.raises(ValueError, match="retrieved weight must be non-negative"):
        RetrievedPhase(grid, np.zeros(n), weight, np.zeros(n, bool))


def test_delay_hint_past_the_pseudo_time_span_has_no_sideband_to_search(pulse100, grid):
    """The pseudo-time span is 2 pi / omega_step, so a delay hint of the whole span leaves no
    sample past tau / 2; the default window searches there for the sideband."""
    span = 2 * np.pi / grid.omega_step
    gram = Interferogram(grid, np.abs(pulse100.amplitude) ** 2, span)
    with pytest.raises(SidebandOverlapError, match="no pseudo-time samples beyond the baseband"):
        retrieve_phase(gram)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_interferogram_rejects_non_finite_samples(grid, bad):
    intensity = np.ones(grid.n_samples)
    intensity[100] = bad
    with pytest.raises(ValueError, match="finite"):
        Interferogram(grid, intensity, TAU)


def test_table_writers_put_caller_lines_first(tmp_path, pulse100):
    gram = synthesize_interferogram(pulse100, pulse100, TAU)
    rp = retrieve_phase(gram)
    head = ["# provenance: test\n"]
    for write, read, obj in [(write_interferogram_csv, read_interferogram_csv, gram),
                             (write_phase_csv, read_phase_csv, rp)]:
        plain, headed = tmp_path / "plain.csv", tmp_path / "headed.csv"
        write(obj, plain)
        write(obj, headed, head)
        assert headed.read_text() == head[0] + plain.read_text()
        assert read(headed).grid == obj.grid


@pytest.mark.parametrize("delay", [np.nan, 0.0, -1e-12, np.inf])
def test_interferogram_delay_must_be_finite_and_positive(grid, pulse100, delay):
    with pytest.raises(ValueError, match="delay_hint"):
        Interferogram(grid, np.ones(grid.n_samples), delay)
    # an infinite delay already fails the fringe-sampling check
    with pytest.raises((ValueError, UndersampledFringeError), match="delay"):
        synthesize_interferogram(pulse100, pulse100, delay)


@pytest.mark.parametrize("width", [np.nan, 0.0, -1e-13, np.inf])
def test_window_width_must_be_finite_and_positive(width):
    with pytest.raises(ValueError, match="window width"):
        FtsiWindow(width=width)


@pytest.mark.parametrize("center", [np.nan, np.inf, -np.inf])
def test_window_center_must_be_finite(center):
    with pytest.raises(ValueError, match="window center must be finite"):
        FtsiWindow(center_time=center)


def test_window_without_sideband_energy_raises(pulse100):
    """A window 50 ps out, past the grid's 9.1 ps time span, is 0 on every sample."""
    gram = synthesize_interferogram(pulse100, pulse100, TAU)
    with pytest.raises(EmptyMaskError, match="no sideband energy"):
        retrieve_phase(gram, FtsiWindow(center_time=50e-12))


def test_retrieve_phase_working_set_is_bounded():
    """At its peak the retrieval holds at most 7 complex arrays of n_samples beyond its input.

    Measured 6.0 at 2^14, where numpy reuses complex temporaries as at 2^16 and 2^20; holding the
    unfiltered trace, its times, the window and the power through the transform back reads 8.6.
    """
    n = 2**14
    pulse = gaussian_pulse(default_grid(n), OMEGA0_800, 2 * np.pi * 100e12)
    gram = synthesize_interferogram(pulse, pulse, TAU)
    retrieve_phase(gram)  # a cold first call, which the bound leaves out
    assert peak_above_start(lambda: retrieve_phase(gram)) / (16 * n) <= 7


@pytest.mark.parametrize("n", [4096, 2**16])
@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_window_is_evaluated_where_it_is_nonzero_with_the_bits_of_every_sample(n, order):
    """The window, evaluated only inside its reach, equals an evaluation at every sample bit for
    bit: on the sideband, with a reach past the trace's first or last sample, centred off the
    trace, and wider than the trace."""
    t = to_time(gaussian_pulse(default_grid(n), OMEGA0_800, 2 * np.pi * 100e12)).times
    span = t[-1] - t[0]
    for t_c, width in [(TAU, TAU / 3), (t[0] + TAU / 10, TAU / 3), (t[-1] - TAU / 10, TAU / 3),
                       (t[0] - TAU / 10, TAU / 3), (t[-1] + TAU / 2, TAU / 3), (50e-12, TAU / 3),
                       (0.0, span), (TAU, 3 * span)]:
        full = np.exp(-(((t - t_c) / width) ** order))
        assert ftsi._window(t, t_c, width, order).tobytes() == full.tobytes(), (t_c, width)
