"""Acceptance gate: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL ledger.
Tolerances are pinned here and nowhere else; frozen reference values come
from independent evaluation of the published Sellmeier coefficients.
"""

import numpy as np
import pytest

from bsbshaper import dispersion, ftsi, metrology, shaper
from bsbshaper.config import RunConfig
from bsbshaper.metrology import (achromat_design, mode_overlap,
                                 stack_overlap, thickness_for_delay,
                                 thickness_for_order)
from bsbshaper.pulsefield import (SpectralGrid, apply_transfer,
                                  derivative_field_oracle, gaussian_pulse,
                                  replica_difference)
from bsbshaper.shaper import Compensator
from conftest import OMEGA0_800

BAND_100THZ = (OMEGA0_800 - 2 * np.pi * 50e12, OMEGA0_800 + 2 * np.pi * 50e12)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_quartz_birefringence(quartz):
    dn = float(dispersion.contrast(quartz, OMEGA0_800).delta_n)
    dng = float(dispersion.contrast(quartz, OMEGA0_800).delta_n_group)
    ok = abs(dn - 8.9e-3) <= 0.02 * 8.9e-3 and abs(dng - 9.5e-3) <= 0.02 * 9.5e-3
    _report("criterion 1 quartz dispersion contrast", ok,
            f"delta_n={dn:.4e} (target 8.9e-3 +-2%), delta_n_g={dng:.4e} (target 9.5e-3 +-2%)")


def test_criterion_2_omega1(quartz):
    w1 = dispersion.contrast(quartz, OMEGA0_800).omega1
    ratio = w1 / OMEGA0_800
    nu1_thz = w1 / (2e12 * np.pi)
    ok = abs(ratio - 0.063) <= 0.1 * 0.063 and abs(nu1_thz - 24.0) <= 0.1 * 24.0
    _report("criterion 2 linearization zero frequency", ok,
            f"omega1/omega0={ratio:.4f} (target 0.063 +-10%), nu1={nu1_thz:.2f} THz (target ~24)")


def test_criterion_3_design_thicknesses(quartz):
    l_delay = thickness_for_delay(quartz, OMEGA0_800, 0.17e-15).segments[0][1] * 1e6
    l_half = thickness_for_order(quartz, OMEGA0_800, 0.5).segments[0][1] * 1e6
    ok = abs(l_delay - 5.4) <= 0.05 * 5.4 and abs(l_half - 45.0) <= 0.05 * 45.0
    _report("criterion 3 design solvers", ok,
            f"L(tau=0.17fs)={l_delay:.3f} um (target 5.4 +-5%), "
            f"L(order 1/2)={l_half:.2f} um (target 45 +-5%)")


def test_criterion_4_conversion_ratio(quartz):
    ratio = float(np.sin(dispersion.contrast(quartz, OMEGA0_800).delta_k * 5.4e-6 / 2) ** 2)
    ok = abs(ratio - 0.036) <= 0.004
    _report("criterion 4 shaped/unshaped power ratio", ok,
            f"sin^2(dk L/2)={ratio:.4f} at 5.4 um (target 0.036 +-0.004)")


def test_criterion_5_mode_overlaps(quartz, pulse100, grid):
    field_ov = metrology.score_compensator(
        Compensator(quartz, 5.4e-6), pulse100, "field").overlap
    l_half = thickness_for_order(quartz, OMEGA0_800, 0.5).segments[0][1]
    # half-order case scored on the 100 THz measurement band (see docs)
    half_comp = Compensator(quartz, l_half)
    objective = shaper.objective_r2(grid, 1e-16, OMEGA0_800)
    half_ov = mode_overlap(apply_transfer(pulse100, shaper.shaped_channel(
                               half_comp.segments, pulse100.grid, "envelope-half")),
                           apply_transfer(pulse100, objective), BAND_100THZ)
    ok = field_ov >= 0.9999 and half_ov >= 0.9999
    _report("criterion 5 mode overlap vs derivative objectives", ok,
            f"field={field_ov:.6f}, envelope-half={half_ov:.6f} (both >= 0.9999)")


def _phase_pipeline(mode, thickness):
    cfg = RunConfig()
    grid = cfg.grid()
    pulse = gaussian_pulse(grid, OMEGA0_800, 2 * np.pi * cfg.fwhm_thz * 1e12)
    comp = Compensator(dispersion.get_material("quartz"), thickness)
    pair = shaper.transfer_exact(comp, grid)
    if mode == "envelope-half":
        arms = (apply_transfer(pulse, -pair.full("y")), apply_transfer(pulse, pair.full("x")))
    else:
        arms = (apply_transfer(pulse, pair.full("x")), apply_transfer(pulse, -pair.full("y")))
    tau = cfg.tau_ftsi_fs * 1e-15
    extra = 0.5 * cfg.extra_phase_gdd_fs2 * 1e-30 * (grid.omegas - OMEGA0_800) ** 2
    gram_with = ftsi.synthesize_interferogram(*arms, tau, extra)
    gram_ref = ftsi.synthesize_interferogram(pulse, pulse, tau, extra)
    diff = ftsi.unwrap(ftsi.wrap_to_principal(ftsi.subtract_reference(
        ftsi.retrieve_phase(gram_with), ftsi.retrieve_phase(gram_ref))))
    return grid, gram_with, gram_ref, diff


def _fringe_phase(gram, omega0, tau):
    # single-bin DFT of the fringe term around the carrier
    w = gram.grid.omegas
    sel = np.abs(w - omega0) <= 2 * np.pi * 10e12
    return np.angle(np.sum(gram.intensity[sel] * np.exp(-1j * w[sel] * tau)))


def test_criterion_6_field_mode_ftsi(quartz):
    l_delay = thickness_for_delay(quartz, OMEGA0_800, 0.17e-15).segments[0][1]
    grid, gram_with, gram_ref, diff = _phase_pipeline("field", l_delay)
    band = (~diff.masked) & (np.abs(grid.omegas - OMEGA0_800) <= 2 * np.pi * 50e12)
    rms = float(np.sqrt(np.mean((diff.phase[band] + np.pi / 2) ** 2)))
    tau = RunConfig().tau_ftsi_fs * 1e-15
    quad = np.angle(np.exp(1j * (_fringe_phase(gram_with, OMEGA0_800, tau)
                                 - _fringe_phase(gram_ref, OMEGA0_800, tau))))
    ok = rms <= 0.020 and abs(abs(quad) - np.pi / 2) <= 0.1
    _report("criterion 6 field-mode interferometric phase", ok,
            f"RMS deviation from -pi/2 = {rms * 1e3:.4f} mrad (<= 20), "
            f"raw fringe quadrature offset = {quad:+.3f} rad (pi/2 +- 0.1)")


def test_criterion_7_envelope_mode_jump(quartz):
    l_half = thickness_for_order(quartz, OMEGA0_800, 0.5).segments[0][1]
    grid, _, _, diff = _phase_pipeline("envelope-half", l_half)
    jump = ftsi.detect_phase_jump(diff, OMEGA0_800)
    mag_err = abs(abs(jump.magnitude) - np.pi)
    loc_err_thz = abs(jump.location - OMEGA0_800) / (2e12 * np.pi)
    ok = mag_err <= 0.05 and loc_err_thz <= 2.0
    _report("criterion 7 envelope-mode pi jump", ok,
            f"|jump|={abs(jump.magnitude):.4f} rad (pi +-0.05), "
            f"location offset={loc_err_thz:.3f} THz (<= 2)")


def test_criterion_8a_replica_convergence(pulse100):
    taus = np.array([0.05, 0.1, 0.2, 0.4]) * 1e-15
    errs = []
    for tau in taus:
        diff = replica_difference(pulse100, tau)
        oracle = derivative_field_oracle(pulse100, tau / 2)
        errs.append(np.linalg.norm(diff.amplitude - oracle.amplitude)
                    / np.linalg.norm(oracle.amplitude))
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    ok = abs(slope - 2.0) <= 0.1
    _report("criterion 8a replica-difference convergence", ok,
            f"log-log slope in tau = {slope:.3f} (2.0 +-0.1)")


def test_criterion_8b_first_order_convergence(quartz, grid):
    band = np.abs(grid.omegas - OMEGA0_800) <= 2 * np.pi * 50e12
    # stay below quarter-wave across the whole band so tan stays bounded
    lengths = np.array([2.0, 4.0, 8.0, 16.0]) * 1e-6
    devs = []
    for length in lengths:
        comp = Compensator(quartz, length)
        exact = shaper.effective_response(shaper.transfer_exact(comp, grid), "field")
        first = shaper.first_order_response(comp, grid, "field", OMEGA0_800)
        devs.append(np.abs(exact.values[band] - first.values[band]).max()
                    / np.abs(first.values[band]).max())
    slope = float(np.polyfit(np.log(lengths), np.log(devs), 1)[0])
    ok = abs(slope - 2.0) <= 0.1
    _report("criterion 8b first-order response convergence", ok,
            f"log-log slope in L = {slope:.3f} (2.0 +-0.1)")


def test_criterion_8c_ftsi_fidelity(pulse100, grid):
    tau = 1e-12
    window = ftsi.FtsiWindow(center_time=tau, width=600e-15, order=12)
    w = grid.omegas - OMEGA0_800
    theta = 0.2 * np.sin(w * 6e-15) + 0.1 * np.cos(w * 3e-15)
    shaped = apply_transfer(pulse100, np.exp(1j * theta))

    rp = ftsi.retrieve_phase(ftsi.synthesize_interferogram(pulse100, shaped, tau), window)
    keep = rp.weight > 0.05 * rp.weight.max()
    resid = np.angle(np.exp(1j * (rp.phase - grid.omegas * tau - theta)))[keep]
    rms = float(np.sqrt(np.mean(resid**2)))

    common = 0.5 * 20e-30 * w**2 + 0.05 * np.sin(w * 8e-15)
    with_c = ftsi.subtract_reference(
        ftsi.retrieve_phase(ftsi.synthesize_interferogram(pulse100, shaped, tau, common), window),
        ftsi.retrieve_phase(ftsi.synthesize_interferogram(pulse100, pulse100, tau, common), window))
    without = ftsi.subtract_reference(
        ftsi.retrieve_phase(ftsi.synthesize_interferogram(pulse100, shaped, tau), window),
        ftsi.retrieve_phase(ftsi.synthesize_interferogram(pulse100, pulse100, tau), window))
    sel = ~(with_c.masked | without.masked)
    cancel = float(np.max(np.abs(np.angle(
        np.exp(1j * (with_c.phase[sel] - without.phase[sel]))))))
    ok = rms < 1e-3 and cancel < 1e-10
    _report("criterion 8c FTSI round trip and reference subtraction", ok,
            f"injected-phase RMS error = {rms * 1e3:.2e} mrad (< 1), "
            f"common-dispersion residual = {cancel:.2e} rad (< 1e-10)")


def test_criterion_8d_overlap_invariance(grid):
    from bsbshaper.pulsefield import SpectralField
    rng = np.random.default_rng(0)
    carrier = float(grid.omegas[grid.n_samples // 2])
    worst_inv, worst_bound = 0.0, 0.0
    for _ in range(1000):
        a = SpectralField(grid, rng.normal(size=grid.n_samples)
                          + 1j * rng.normal(size=grid.n_samples), carrier)
        b = SpectralField(grid, rng.normal(size=grid.n_samples)
                          + 1j * rng.normal(size=grid.n_samples), carrier)
        ov = mode_overlap(a, b)
        scaled = SpectralField(grid, 2.5 * np.exp(0.7j) * a.amplitude, carrier)
        worst_inv = max(worst_inv, abs(mode_overlap(scaled, b) - ov))
        worst_bound = max(worst_bound, ov - 1.0)
    ok = worst_inv < 1e-12 and worst_bound <= 1e-12
    _report("criterion 8d overlap invariance and bound", ok,
            f"1000 pairs: scale/phase deviation {worst_inv:.2e}, "
            f"Cauchy-Schwarz excess {worst_bound:.2e}")


def test_criterion_8e_group_index():
    wls = np.linspace(0.6, 1.0, 41)
    h = 1e-5
    worst = 0.0
    for material in dispersion.load_materials().values():
        for model in (material.ordinary, material.extraordinary):
            ng = dispersion.group_index(model, wls)
            dn = (dispersion.refractive_index(model, wls + h)
                  - dispersion.refractive_index(model, wls - h)) / (2 * h)
            ng_fd = dispersion.refractive_index(model, wls) - wls * dn
            worst = max(worst, float(np.max(np.abs(ng - ng_fd) / np.abs(ng_fd))))
    ok = worst < 1e-6
    _report("criterion 8e analytic vs finite-difference group index", ok,
            f"worst relative deviation {worst:.2e} (< 1e-6) over 600-1000 nm, all materials")


def test_criterion_9_achromat(quartz, kdp):
    # KDP's Sellmeier fit stops at 1.7 um, so score on a 185-565 THz grid
    grid = SpectralGrid(4096, 2 * np.pi * 185e12, 2 * np.pi * 380e12 / 4096)
    pulse = gaussian_pulse(grid, OMEGA0_800, 2 * np.pi * 100e12)
    stack = achromat_design(quartz, kdp, OMEGA0_800, 0.0, 0.17e-15)
    single = thickness_for_delay(quartz, OMEGA0_800, 0.17e-15)
    resid = abs(stack.achieved_omega1) / OMEGA0_800
    ov_stack = stack_overlap(stack, pulse, "field")
    ov_single = stack_overlap(single, pulse, "field")
    ok = resid <= 1e-9 and ov_stack >= ov_single
    _report("criterion 9 two-material achromat", ok,
            f"|omega1|/omega0 = {resid:.2e} (<= 1e-9), overlap {ov_stack:.7f} >= "
            f"single-material {ov_single:.7f}")
