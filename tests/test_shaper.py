import weakref
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsbshaper import dispersion, shaper
from bsbshaper.errors import BsbShaperError, WavelengthRangeError
from bsbshaper.pulsefield import default_grid
from bsbshaper.shaper import (Compensator, effective_response,
                              first_order_response, objective, objective_r2,
                              transfer_exact, transfer_exact_segments)
from conftest import OMEGA0_800


def _comp(quartz, um):
    return Compensator(quartz, um * 1e-6)


def test_thickness_bound(quartz):
    with pytest.raises(ValueError):
        Compensator(quartz, 0.02)


def test_nan_thickness_rejected(quartz):
    with pytest.raises(ValueError, match="exceeds"):
        Compensator(quartz, float("nan"))


def test_transfer_is_unitary(quartz, grid):
    pair = transfer_exact(_comp(quartz, 45.0), grid)
    total = np.abs(pair.h_x) ** 2 + np.abs(pair.h_y) ** 2
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_channel_values_match_birefringent_phase(quartz, grid):
    comp = _comp(quartz, 5.4)
    pair = transfer_exact(comp, grid)
    psi_half = dispersion.contrast(quartz, grid.omegas).delta_k * comp.thickness / 2
    np.testing.assert_allclose(pair.h_x, np.cos(psi_half), atol=1e-14)
    np.testing.assert_allclose(pair.h_y, 1j * np.sin(psi_half), atol=1e-14)


def test_negative_thickness_flips_shaped_channel(quartz, grid):
    plus = transfer_exact(_comp(quartz, 5.4), grid)
    minus = transfer_exact(_comp(quartz, -5.4), grid)
    np.testing.assert_allclose(minus.h_y, -plus.h_y, atol=1e-14)
    np.testing.assert_allclose(minus.h_x, plus.h_x, atol=1e-14)
    # common propagation phase depends on |L| only
    np.testing.assert_allclose(minus.common_phase, plus.common_phase, atol=1e-9)


def test_full_channel_includes_common_phase(quartz, grid):
    pair = transfer_exact(_comp(quartz, 5.4), grid)
    np.testing.assert_allclose(pair.full("x"),
                               pair.h_x * np.exp(1j * pair.common_phase), atol=1e-12)


def test_effective_response_field_is_minus_i_tan(quartz, grid):
    comp = _comp(quartz, 5.4)
    resp = effective_response(transfer_exact(comp, grid), "field")
    psi_half = dispersion.contrast(quartz, grid.omegas).delta_k * comp.thickness / 2
    np.testing.assert_allclose(resp.values, -1j * np.tan(psi_half), atol=1e-12)
    assert not resp.masked.any()


def test_effective_response_half_order_is_i_cot(quartz, grid):
    comp = _comp(quartz, 44.97)
    resp = effective_response(transfer_exact(comp, grid), "envelope-half")
    psi_half = dispersion.contrast(quartz, grid.omegas).delta_k * comp.thickness / 2
    keep = ~resp.masked
    np.testing.assert_allclose(resp.values[keep], 1j / np.tan(psi_half[keep]), atol=1e-10)


def test_effective_response_masks_vanishing_denominator(grid):
    # synthetic pair with an exact zero in the unshaped channel
    psi_half = np.linspace(0.0, np.pi, grid.n_samples)
    psi_half[grid.n_samples // 2] = np.pi / 2  # exact zero of cos on the grid
    pair = shaper.TransferPair(grid, np.cos(psi_half).astype(complex),
                               1j * np.sin(psi_half), np.zeros(grid.n_samples))
    resp = effective_response(pair, "field")
    assert resp.masked.any()
    assert np.all(resp.values[resp.masked] == 0)


def test_effective_response_rejects_unknown_mode(quartz, grid):
    pair = transfer_exact(_comp(quartz, 5.4), grid)
    with pytest.raises(ValueError, match="mode"):
        effective_response(pair, "both")


def test_segment_stack_adds_phases(quartz, kdp):
    from bsbshaper.pulsefield import SpectralGrid
    # grid clear of the KDP Sellmeier validity edge at 1.7 um
    grid = SpectralGrid(4096, 2 * np.pi * 185e12, 2 * np.pi * 380e12 / 4096)
    segs = ((quartz, 5e-6), (kdp, -2e-6))
    pair = transfer_exact_segments(segs, grid)
    psi_half = (dispersion.contrast(quartz, grid.omegas).delta_k * 5e-6
                - dispersion.contrast(kdp, grid.omegas).delta_k * 2e-6) / 2
    np.testing.assert_allclose(pair.h_y, 1j * np.sin(psi_half), atol=1e-12)


def test_objectives_validate_arguments(grid):
    with pytest.raises(ValueError):
        objective(grid, "field", -1.0, OMEGA0_800)
    with pytest.raises(ValueError):
        objective_r2(grid, 1e-15, 2 * np.pi * 700e12)


def test_first_order_field_crosses_zero_at_omega1(quartz, grid):
    # omega1 sits below the grid start; extrapolate the linear response to it
    comp = _comp(quartz, 5.4)
    resp = first_order_response(comp, grid, "field", OMEGA0_800)
    w1 = dispersion.contrast(quartz, OMEGA0_800).omega1
    v = resp.values.imag
    w = grid.omegas
    w_zero = w[0] - v[0] * (w[1] - w[0]) / (v[1] - v[0])
    assert w_zero == pytest.approx(w1, rel=1e-9)


def test_first_order_envelope_crosses_zero_at_carrier(quartz, grid):
    resp = first_order_response(_comp(quartz, 44.97), grid, "envelope-half", OMEGA0_800)
    k = np.argmin(np.abs(grid.omegas - OMEGA0_800))
    assert np.abs(resp.values[k]) < np.abs(resp.values).max() * 2e-3


def test_first_order_converges_to_exact_at_second_order(quartz, grid):
    # relative deviation over the central 100 THz shrinks as L^2
    band = np.abs(grid.omegas - OMEGA0_800) <= 2 * np.pi * 50e12
    lengths = np.array([2.0, 4.0, 8.0, 16.0]) * 1e-6
    devs = []
    for length in lengths:
        comp = Compensator(quartz, length)
        exact = effective_response(transfer_exact(comp, grid), "field")
        first = first_order_response(comp, grid, "field", OMEGA0_800)
        scale = np.abs(first.values[band]).max()
        devs.append(np.abs(exact.values[band] - first.values[band]).max() / scale)
    slope = np.polyfit(np.log(lengths), np.log(devs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-100.0, max_value=100.0))
def test_unitarity_any_thickness(um):
    quartz = dispersion.get_material("quartz")
    pair = transfer_exact(Compensator(quartz, um * 1e-6), default_grid())
    assert np.max(np.abs(np.abs(pair.h_x) ** 2 + np.abs(pair.h_y) ** 2 - 1)) < 1e-12


def test_field_objective_rejects_nan_constant(grid):
    with pytest.raises(ValueError, match="t1 must be positive"):
        objective(grid, "field", float("nan"), OMEGA0_800)


def test_envelope_objective_is_the_integer_mode_objective(grid):
    np.testing.assert_array_equal(objective_r2(grid, 1e-15, OMEGA0_800).values,
                                  objective(grid, "envelope-integer", 1e-15, OMEGA0_800).values)


@pytest.mark.parametrize("t2", [float("nan"), 0.0, -1e-15])
def test_envelope_objective_rejects_nonpositive_constant(grid, t2):
    with pytest.raises(ValueError, match="t2 must be positive"):
        objective_r2(grid, t2, OMEGA0_800)


KDP_GRID_SPEC = (4096, 2 * np.pi * 185e12, 2 * np.pi * 380e12 / 4096)  # clear of KDP's 1.7 um


def _direct_pair(segments, grid):
    """Reference transfer: both Sellmeier axes evaluated afresh for every segment."""
    w = grid.omegas
    wl = 2 * np.pi * dispersion.C_LIGHT / w * 1e6
    psi_half = np.zeros(grid.n_samples)
    phi = np.zeros(grid.n_samples)
    for material, thickness in segments:
        n_e = dispersion.refractive_index(material.extraordinary, wl)
        n_o = dispersion.refractive_index(material.ordinary, wl)
        psi_half += (n_e - n_o) * w / dispersion.C_LIGHT * thickness / 2
        phi += (n_e + n_o) * w / dispersion.C_LIGHT * abs(thickness) / 2
    return np.cos(psi_half).astype(complex), 1j * np.sin(psi_half), phi


def _stacks(quartz, kdp):
    from bsbshaper.pulsefield import SpectralGrid, default_grid
    return [(((quartz, 5.4e-6),), default_grid()),
            (((quartz, -44.97e-6),), default_grid()),
            (((quartz, 5e-6), (kdp, -2e-6)), SpectralGrid(*KDP_GRID_SPEC))]


def test_transfer_is_bit_equal_to_direct_sellmeier_evaluation(quartz, kdp):
    for segments, grid in _stacks(quartz, kdp):
        for _ in range(2):  # a cold and a cached table
            pair = transfer_exact_segments(segments, grid)
            h_x, h_y, phi = _direct_pair(segments, grid)
            np.testing.assert_array_equal(pair.h_x, h_x)
            np.testing.assert_array_equal(pair.h_y, h_y)
            np.testing.assert_array_equal(pair.common_phase, phi)


@pytest.mark.parametrize("mode", shaper.MODES)
def test_shaped_channel_is_bit_equal_to_the_pair_channel(quartz, kdp, mode):
    for segments, grid in _stacks(quartz, kdp):
        expected = shaper.channels(transfer_exact_segments(segments, grid), mode)[1]
        np.testing.assert_array_equal(shaper.shaped_channel(segments, grid, mode), expected)


def test_shaped_channel_rejects_unknown_mode(quartz, grid):
    with pytest.raises(ValueError, match="mode"):
        shaper.shaped_channel(((quartz, 5e-6),), grid, "both")


@pytest.mark.parametrize("make", [
    lambda grid, mode: shaper.objective(grid, mode, 1e-15, OMEGA0_800),
    lambda grid, mode: shaper.first_order_response(Compensator(
        dispersion.get_material("quartz"), 5e-6), grid, mode, OMEGA0_800),
], ids=["objective", "first_order_response"])
def test_objective_and_first_order_reject_unknown_mode(grid, make):
    with pytest.raises(ValueError, match="mode must be one of"):
        make(grid, "bogus")


def test_wavevector_tables_and_omegas_are_read_only(quartz, grid):
    assert grid.omegas is grid.omegas
    with pytest.raises(ValueError, match="read-only"):
        grid.omegas[0] = 1.0
    tables = shaper._wavevectors(quartz, *astuple(grid))
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    assert shaper._wavevectors(quartz, *astuple(grid)) is tables


def test_wavevector_cache_keeps_no_grid(quartz):
    grid = default_grid(1024)
    grid.omegas  # filled, as a transfer's grid always is
    transfer_exact(Compensator(quartz, 5.4e-6), grid)
    tables = shaper._wavevectors(quartz, *astuple(grid))
    gone = weakref.ref(grid)
    del grid
    assert gone() is None  # the cache holds the grid's fields, not the grid nor its omegas
    again = shaper._wavevectors(quartz, *astuple(default_grid(1024)))
    assert all(a is b for a, b in zip(again, tables))  # an equal grid shares the tables
    for table in again:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


def test_out_of_range_grid_raises_on_every_call(kdp, grid):
    # the default grid starts at 2 um, past KDP's 1.7 um validity edge
    for _ in range(2):
        with pytest.raises(WavelengthRangeError):
            transfer_exact(Compensator(kdp, 5e-6), grid)
        with pytest.raises(WavelengthRangeError):
            shaper.shaped_channel(((kdp, 5e-6),), grid, "field")


def test_effective_response_rejects_an_all_zero_signal_channel(quartz, grid):
    pair = transfer_exact(_comp(quartz, 0.0), grid)
    with pytest.raises(BsbShaperError, match="signal channel is zero"):
        effective_response(pair, "envelope-half")
    assert not effective_response(pair, "field").masked.any()  # there the ratio is 0
