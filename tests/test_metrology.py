import dataclasses
import itertools

import numpy as np
import pytest

from bsbshaper import dispersion, metrology, pulsefield, shaper
from bsbshaper.cli import main
from bsbshaper.errors import BsbShaperError, DegenerateMaterialError
from bsbshaper.metrology import (achromat_design, band_from_field,
                                 mode_overlap, objective_overlap, score_compensator,
                                 stack_overlap, thickness_for_delay, thickness_for_order)
from bsbshaper.pulsefield import SpectralField, SpectralGrid, apply_transfer, gaussian_pulse
from bsbshaper.shaper import Compensator
from conftest import OMEGA0_800, two_peak_field

# grid clear of the KDP validity edge (its Sellmeier fit stops at 1.7 um)
KDP_GRID = SpectralGrid(4096, 2 * np.pi * 185e12, 2 * np.pi * 380e12 / 4096)


def _random_field(grid, rng):
    amp = rng.normal(size=grid.n_samples) + 1j * rng.normal(size=grid.n_samples)
    return SpectralField(grid, amp, float(grid.omegas[grid.n_samples // 2]))


def test_overlap_of_identical_fields_is_one(pulse100):
    assert mode_overlap(pulse100, pulse100) == pytest.approx(1.0, abs=1e-13)


def test_overlap_scale_phase_invariance_and_bound(grid):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a = _random_field(grid, rng)
        b = _random_field(grid, rng)
        ov = mode_overlap(a, b)
        assert 0.0 <= ov <= 1.0 + 1e-12
        scaled = SpectralField(grid, 3.7 * np.exp(1.3j) * a.amplitude, a.omega0)
        assert mode_overlap(scaled, b) == pytest.approx(ov, abs=1e-12)


def test_overlap_band_restriction(pulse100, grid):
    flat = SpectralField(grid, np.ones(grid.n_samples, complex), pulse100.omega0)
    full = mode_overlap(pulse100, flat)
    narrow = mode_overlap(pulse100, flat, band=(pulse100.omega0 - 1e13,
                                                pulse100.omega0 + 1e13))
    assert narrow > full  # both nearly flat over a narrow band


def test_band_from_field(pulse100):
    lo, hi = band_from_field(pulse100)
    assert lo < pulse100.omega0 < hi
    power = np.abs(pulse100.amplitude) ** 2
    sel = (pulse100.grid.omegas >= lo) & (pulse100.grid.omegas <= hi)
    assert power[sel].min() >= pulsefield.BAND_INTENSITY_FLOOR * power.max() * (1 - 1e-12)


def test_band_from_field_rejects_several_peaks(grid):
    with pytest.raises(BsbShaperError, match="several peaks"):
        band_from_field(two_peak_field(grid))


def test_thickness_for_delay_value(quartz):
    sol = thickness_for_delay(quartz, OMEGA0_800, 0.17e-15)
    assert sol.segments[0][1] * 1e6 == pytest.approx(5.382, abs=0.01)
    assert sol.achieved_delay == pytest.approx(0.17e-15, rel=1e-12)


def test_thickness_for_order_value(quartz):
    sol = thickness_for_order(quartz, OMEGA0_800, 0.5)
    assert sol.segments[0][1] * 1e6 == pytest.approx(44.97, abs=0.05)
    assert sol.achieved_order == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("solve, target", [(thickness_for_delay, 1e-9), (thickness_for_delay, -1e-9),
                                           (thickness_for_order, 1e6)],
                         ids=["delay", "negative-delay", "order"])
def test_plate_solvers_reject_a_plate_past_the_thickness_bound(quartz, solve, target):
    with pytest.raises(ValueError, match=r"^\|thickness\| = .* m exceeds the 1e-02 m physical"):
        solve(quartz, OMEGA0_800, target)


def test_plate_design_obeys_the_thickness_bound(quartz):
    c = dispersion.contrast(quartz, OMEGA0_800)
    assert metrology.plate_design(c, -shaper.MAX_THICKNESS).segments == \
        Compensator(quartz, -shaper.MAX_THICKNESS).segments
    for length in (np.nextafter(shaper.MAX_THICKNESS, 1.0), float("nan")):
        with pytest.raises(ValueError, match="physical bound"):
            metrology.plate_design(c, length)


def test_order_design_rejects_an_isotropic_material(quartz):
    iso = dispersion.Material("iso", quartz.ordinary, quartz.ordinary)
    with pytest.raises(DegenerateMaterialError, match="no birefringence at the carrier"):
        thickness_for_order(iso, OMEGA0_800, 0.5)


@pytest.mark.parametrize("mode", shaper.MODES)
def test_plate_and_stack_scores_are_score_segments(quartz, kdp, pulse100, mode):
    plate = thickness_for_order(quartz, OMEGA0_800, 0.5)
    assert score_compensator(Compensator(*plate.segments[0]), pulse100, mode) == \
        metrology.score_segments(plate.segments, pulse100, mode)
    pulse = gaussian_pulse(KDP_GRID, OMEGA0_800, 2 * np.pi * 100e12)
    stack = achromat_design(quartz, kdp, OMEGA0_800, 0.0, 0.17e-15)
    assert stack_overlap(stack, pulse, mode) == \
        metrology.score_segments(stack.segments, pulse, mode).overlap


def test_order_design_rejects_negative(quartz):
    with pytest.raises(ValueError):
        thickness_for_order(quartz, OMEGA0_800, -1.0)


def test_efficiency_matches_sin2_at_carrier(quartz, pulse100):
    # narrowband limit: channel fraction approaches sin^2(dk L/2) at the carrier
    narrow = gaussian_pulse(pulse100.grid, OMEGA0_800, 2 * np.pi * 5e12)
    comp = Compensator(quartz, 5.4e-6)
    from bsbshaper import dispersion
    expected = np.sin(dispersion.contrast(quartz, OMEGA0_800).delta_k * comp.thickness / 2) ** 2
    assert score_compensator(comp, narrow, "field").efficiency == pytest.approx(expected,
                                                                               rel=1e-3)


def test_score_compensator_field_mode(quartz, pulse100):
    report = score_compensator(Compensator(quartz, 5.4e-6), pulse100, "field")
    assert report.overlap > 0.9999
    assert 0.0 < report.efficiency < 0.05


def test_shaped_mode_drops_common_phase(quartz, pulse100):
    segments = Compensator(quartz, 5.4e-6).segments
    out = apply_transfer(pulse100, shaper.shaped_channel(segments, pulse100.grid, "field"))
    pair = shaper.transfer_exact(Compensator(quartz, 5.4e-6), pulse100.grid)
    np.testing.assert_allclose(out.amplitude, pulse100.amplitude * pair.h_y, atol=1e-15)


def test_efficiency_grows_below_quarter_wave(quartz, pulse100):
    lengths = np.array([1.0, 5.0, 20.0, 40.0]) * 1e-6
    effs = [score_compensator(Compensator(quartz, L), pulse100, "field").efficiency
            for L in lengths]
    assert np.all(np.diff(effs) > 0)


def test_achromat_zeroes_omega1(quartz, kdp):
    sol = achromat_design(quartz, kdp, OMEGA0_800, 0.0, 0.17e-15)
    assert abs(sol.achieved_omega1) / OMEGA0_800 <= 1e-9
    assert sol.achieved_delay == pytest.approx(0.17e-15, rel=1e-9)
    assert sol.residuals["condition_number"] < metrology.ACHROMAT_MAX_CONDITION


def test_achromat_beats_single_material(quartz, kdp):
    pulse = gaussian_pulse(KDP_GRID, OMEGA0_800, 2 * np.pi * 100e12)
    stack = achromat_design(quartz, kdp, OMEGA0_800, 0.0, 0.17e-15)
    single = thickness_for_delay(quartz, OMEGA0_800, 0.17e-15)
    assert stack_overlap(stack, pulse, "field") >= stack_overlap(single, pulse, "field")


def test_achromat_rejects_degenerate_pair(quartz):
    iso = dispersion.Material("iso", quartz.ordinary, quartz.ordinary)
    for mat in (quartz, iso):
        for _ in range(3):  # the error is not cached
            with pytest.raises(DegenerateMaterialError):
                achromat_design(mat, mat, OMEGA0_800, 0.0, 0.17e-15)


@pytest.mark.parametrize("name_a, name_b",
                         list(itertools.permutations(sorted(dispersion.load_materials()), 2)))
def test_achromat_closed_form_matches_linear_algebra(name_a, name_b):
    mat_a, mat_b = dispersion.get_material(name_a), dispersion.get_material(name_b)
    contrasts = [dispersion.contrast(m, OMEGA0_800) for m in (mat_a, mat_b)]
    system = np.array([[float(c.delta_k_prime) for c in contrasts],
                       [float(c.delta_k) / OMEGA0_800 for c in contrasts]])
    cond = np.linalg.cond(system)
    for target in np.linspace(-0.2, 0.2, 401) * OMEGA0_800:
        sol = achromat_design(mat_a, mat_b, OMEGA0_800, target, 0.17e-15)
        want = np.linalg.solve(system, [0.17e-15, (OMEGA0_800 - target) * 0.17e-15 / OMEGA0_800])
        np.testing.assert_allclose([length for _, length in sol.segments], want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))
        assert sol.residuals["condition_number"] == pytest.approx(cond, rel=1e-12)


@pytest.mark.parametrize("omega0", [np.float64(OMEGA0_800), np.asarray(OMEGA0_800)],
                         ids=["float64", "0-d"])
def test_achromat_takes_any_scalar_carrier(quartz, kdp, omega0):
    assert (achromat_design(quartz, kdp, omega0, 0.0, 0.17e-15)
            == achromat_design(quartz, kdp, OMEGA0_800, 0.0, 0.17e-15))


@pytest.mark.parametrize("target_omega1, tau", [(0.0, 1e-9), (0.0, -1e-9), (0.0, 1e285),
                                                (float("nan"), 0.17e-15)])
def test_achromat_segments_obey_the_thickness_bound(quartz, kdp, target_omega1, tau):
    with pytest.raises(ValueError, match=r"^\|thickness\| = .* m exceeds the 1e-02 m"):
        achromat_design(quartz, kdp, OMEGA0_800, target_omega1, tau)


def test_delay_design_rejects_isotropic(quartz):
    from bsbshaper.dispersion import Material
    iso = Material("iso", quartz.ordinary, quartz.ordinary)
    with pytest.raises(DegenerateMaterialError):
        thickness_for_delay(iso, OMEGA0_800, 0.17e-15)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_design_solvers_reject_non_finite_targets(quartz, kdp, value):
    with pytest.raises(ValueError, match="tau must be finite"):
        thickness_for_delay(quartz, OMEGA0_800, value)
    with pytest.raises(ValueError, match="target_tau must be finite"):
        achromat_design(quartz, kdp, OMEGA0_800, 0.0, value)


def test_order_design_rejects_nan(quartz):
    with pytest.raises(ValueError, match="order"):
        thickness_for_order(quartz, OMEGA0_800, float("nan"))


@pytest.mark.parametrize("mode,um", [("field", 5.4), ("envelope-integer", 90.0),
                                     ("envelope-half", 45.0)])
def test_objective_overlap_is_the_device_scaled_overlap(quartz, pulse100, mode, um):
    comp = Compensator(quartz, um * 1e-6)
    shaped = apply_transfer(pulse100, shaper.shaped_channel(comp.segments, pulse100.grid, mode))
    t_const = abs(dispersion.contrast(quartz, OMEGA0_800).delta_k_prime * comp.thickness / 2)
    device = apply_transfer(pulse100, shaper.objective(pulse100.grid, mode, t_const,
                                                       pulse100.omega0))
    band = band_from_field(pulse100)
    overlap, got_band = objective_overlap(shaped, pulse100, mode)
    assert got_band == band
    assert overlap == pytest.approx(mode_overlap(shaped, device, band), rel=1e-12)
    assert score_compensator(comp, pulse100, mode).overlap == pytest.approx(overlap, rel=1e-12)


def test_sellmeier_evaluations_per_call(quartz, kdp, pulse100, monkeypatch):
    calls = []
    index = dispersion.refractive_index
    monkeypatch.setattr(dispersion, "refractive_index",
                        lambda model, wl: calls.append(model) or index(model, wl))

    def count(fn, *args):
        """(cold, warm): evaluations with the carrier cache cleared, then again."""
        dispersion._carrier_contrast.cache_clear()
        counts = []
        for _ in range(2):
            calls.clear()
            fn(*args)
            counts.append(len(calls))
        return tuple(counts)

    assert count(thickness_for_order, quartz, OMEGA0_800, 0.5) == (2, 0)
    assert count(thickness_for_delay, quartz, OMEGA0_800, 0.17e-15) == (2, 0)
    assert count(achromat_design, quartz, kdp, OMEGA0_800, 0.0, 0.17e-15) == (4, 0)
    assert count(shaper.first_order_response, Compensator(quartz, 5.4e-6), pulse100.grid,
                 "field", OMEGA0_800) == (2, 0)
    assert count(main, ["material-info", "quartz"]) == (2, 0)
    assert count(lambda: dispersion.contrast(quartz, OMEGA0_800).omega1) == (2, 0)
    shaper._wavevectors.cache_clear()
    assert count(score_compensator, Compensator(quartz, 5.4e-6), pulse100, "field") == (2, 0)


def _complex_route(segments, pulse, mode):
    """The score as complex fields: the shaped and objective modes, their overlap and energy ratio."""
    shaped = apply_transfer(pulse, shaper.shaped_channel(segments, pulse.grid, mode))
    objective = apply_transfer(pulse, shaper.objective(pulse.grid, mode, 1e-15, pulse.omega0))
    step = pulse.grid.omega_step
    shaped_energy = np.sum(np.abs(shaped.amplitude) ** 2) * step
    source_energy = np.sum(np.abs(pulse.amplitude) ** 2) * step
    return mode_overlap(shaped, objective, band_from_field(pulse)), shaped_energy / source_energy


@pytest.mark.parametrize("mode", shaper.MODES)
@pytest.mark.parametrize("um", [5.4, -44.97, 0.5, 80.0])
def test_score_matches_the_complex_route(quartz, pulse100, mode, um):
    comp = Compensator(quartz, um * 1e-6)
    overlap, efficiency = _complex_route(comp.segments, pulse100, mode)
    report = score_compensator(comp, pulse100, mode)
    # envelope-half overlaps of thin plates reach 1e-9, where rounding is absolute
    assert report.overlap == pytest.approx(overlap, rel=1e-12, abs=1e-18)
    assert report.efficiency == pytest.approx(efficiency, rel=1e-12)


@pytest.mark.parametrize("mode", shaper.MODES)
def test_stack_overlap_matches_the_complex_route(quartz, kdp, mode):
    pulse = gaussian_pulse(KDP_GRID, OMEGA0_800, 2 * np.pi * 100e12)
    stack = achromat_design(quartz, kdp, OMEGA0_800, 0.0, 0.17e-15)
    overlap, _ = _complex_route(stack.segments, pulse, mode)
    assert stack_overlap(stack, pulse, mode) == pytest.approx(overlap, rel=1e-12, abs=1e-18)


def test_zero_thickness_field_plate_has_no_shaped_mode(quartz, pulse100):
    with pytest.raises(ValueError, match="zero-energy field on the overlap band"):
        score_compensator(Compensator(quartz, 0.0), pulse100, "field")


def test_scores_against_alternating_pulses_match_fresh_pulses(quartz, grid):
    def pulses():
        return [gaussian_pulse(grid, OMEGA0_800, 2 * np.pi * 100e12),
                gaussian_pulse(grid, OMEGA0_800 * 1.1, 2 * np.pi * 60e12)]

    shared = pulses()
    for um, mode in [(5.4, "field"), (44.97, "envelope-half"), (90.0, "envelope-integer")] * 2:
        for i in (0, 1):
            comp = Compensator(quartz, um * 1e-6)
            assert score_compensator(comp, shared[i], mode) == \
                score_compensator(comp, pulses()[i], mode)


def test_score_source_terms_are_cached_read_only(pulse100):
    fld = SpectralField(pulse100.grid, pulse100.amplitude, pulse100.omega0)
    assert fld.magnitude is fld.magnitude and fld.band is fld.band
    np.testing.assert_array_equal(fld.magnitude, np.abs(pulse100.amplitude))
    assert fld.power_sum == pytest.approx(np.sum(np.abs(pulse100.amplitude) ** 2), rel=1e-14)
    with pytest.raises(ValueError, match="read-only"):
        fld.magnitude[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        fld.grid.omegas[fld.band][0] = 0.0


def test_cached_source_terms_leave_field_equality_and_repr_unchanged(pulse100):
    fld = SpectralField(pulse100.grid, pulse100.amplitude, pulse100.omega0)
    before = repr(fld)
    band_from_field(fld), fld.power_sum
    assert repr(fld) == before
    assert fld == SpectralField(pulse100.grid, pulse100.amplitude, pulse100.omega0)
    assert fld != SpectralField(pulse100.grid, pulse100.amplitude, 1.01 * pulse100.omega0)
    assert [f.name for f in dataclasses.fields(fld)] == ["grid", "amplitude", "omega0"]


@pytest.mark.parametrize("mode", shaper.MODES)
def test_objective_weight_is_the_objective(grid, mode):
    values = shaper.objective(grid, mode, 1e-15, OMEGA0_800).values
    np.testing.assert_array_equal(
        -1j * shaper.objective_weight(grid.omegas, mode, OMEGA0_800) * 1e-15, values)


@pytest.mark.parametrize("mode", shaper.MODES)
@pytest.mark.parametrize("um", [5.4, -44.97])
def test_plate_design_gives_the_first_order_response(quartz, grid, mode, um):
    design = metrology.plate_design(dispersion.contrast(quartz, OMEGA0_800), um * 1e-6)
    first = shaper.first_order_response(Compensator(quartz, um * 1e-6), grid, mode, OMEGA0_800)
    w_zero = design.achieved_omega1 if mode == "field" else OMEGA0_800
    np.testing.assert_array_equal(
        -1j * (grid.omegas - w_zero) * (design.achieved_delay / 2), first.values)
