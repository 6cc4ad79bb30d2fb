"""Numerical reproduction of the measurement pipelines as plot-ready CSV files.

Four pipelines: field-mode amplitude ratio (fig2), field-mode interferometric
phase (fig3), envelope-mode amplitude ratio (fig4), envelope-mode phase jump
(fig5).  Every output file starts with a comment block recording the full
normalized configuration, and identical configs produce identical bytes.
"""

from __future__ import annotations

import os

import numpy as np

from . import dispersion, ftsi, metrology, shaper
from .config import RunConfig, config_header, validate_config
from .io import meta_line, write_table
from .pulsefield import apply_transfer, gaussian_pulse
from .shaper import Compensator

FIGURES = ("fig2", "fig3", "fig4", "fig5")


def _canonical_compensator(config: RunConfig, mode: str) -> Compensator:
    """Thickness from config, or the mode's canonical design (0.17 fs / order 1/2)."""
    material = dispersion.get_material(config.material)
    if config.thickness_um is not None:
        return Compensator(material, config.thickness_um * 1e-6)
    if mode == "field":
        sol = metrology.thickness_for_delay(material, config.omega0, 0.17e-15)
    else:
        sol = metrology.thickness_for_order(material, config.omega0, 0.5)
    return Compensator(material, sol.segments[0][1])


_write_csv = write_table  # the one name every figure table is written through


def _ratio_pipeline(config: RunConfig, mode: str, tag: str, outdir):
    grid = config.grid()
    pulse = gaussian_pulse(grid, config.omega0, 2 * np.pi * config.fwhm_thz * 1e12)
    comp = _canonical_compensator(config, mode)
    pair = shaper.transfer_exact(comp, grid)
    resp = shaper.effective_response(pair, mode)
    first = shaper.first_order_response(comp, grid, mode, config.omega0)
    t_const = abs(dispersion.delta_k_prime(comp.material, config.omega0) * comp.thickness / 2)
    objective = shaper.objective(grid, mode, t_const, config.omega0)
    unshaped, shaped = shaper.channels(pair, mode)
    power = np.abs(pulse.amplitude) ** 2
    head = [config_header(config), f"# compensator: {comp.material.name} "
            f"{comp.thickness * 1e6!r} um, mode {mode}\n"]

    spectra = os.path.join(outdir, f"{tag}_spectra.csv")
    _write_csv(spectra, head, ["omega_rad_per_s", "unshaped_intensity", "shaped_intensity"],
               [grid.omegas, np.abs(unshaped) ** 2 * power, np.abs(shaped) ** 2 * power])

    ratio = os.path.join(outdir, f"{tag}_ratio.csv")
    _write_csv(ratio, head,
               ["omega_rad_per_s", "ratio_exact", "ratio_objective", "ratio_first_order",
                "masked"],
               [grid.omegas, np.abs(resp.values), np.abs(objective.values),
                np.abs(first.values), resp.masked])
    return [spectra, ratio]


def _phase_pipeline(config: RunConfig, mode: str, tag: str, outdir):
    grid = config.grid()
    omega0 = config.omega0
    pulse = gaussian_pulse(grid, omega0, 2 * np.pi * config.fwhm_thz * 1e12)
    comp = _canonical_compensator(config, mode)
    pair = shaper.transfer_exact(comp, grid)
    signal, shaped = shaper.channels(pair, mode)
    common = np.exp(1j * pair.common_phase)
    arm_signal = apply_transfer(pulse, signal * common)
    arm_shaped = apply_transfer(pulse, -shaped * common)

    tau = config.tau_ftsi_fs * 1e-15
    gdd = config.extra_phase_gdd_fs2 * 1e-30
    extra = 0.5 * gdd * (grid.omegas - omega0) ** 2
    gram_with = ftsi.synthesize_interferogram(arm_signal, arm_shaped, tau, extra)
    gram_ref = ftsi.synthesize_interferogram(pulse, pulse, tau, extra)

    window = ftsi.FtsiWindow(
        width=config.window_width_fs * 1e-15 if config.window_width_fs else None,
        order=config.window_order)
    # subtract the wrapped retrievals first: unwrapping the raw ramped phase
    # would smooth a genuine pi jump riding on the fringe ramp away
    retrieved = ftsi.retrieve_phase(gram_with, window)
    reference = ftsi.retrieve_phase(gram_ref, window)
    diff = ftsi.unwrap(ftsi.wrap_to_principal(ftsi.subtract_reference(retrieved, reference)))

    head = [config_header(config), f"# compensator: {comp.material.name} "
            f"{comp.thickness * 1e6!r} um, mode {mode}\n"]
    paths = []
    for name, gram in [("interferogram_with_bsb", gram_with),
                       ("interferogram_without_bsb", gram_ref)]:
        p = os.path.join(outdir, f"{tag}_{name}.csv")
        _write_csv(p, head + [meta_line("delay_hint", gram.delay_hint)],
                   ["omega_rad_per_s", "intensity"], [grid.omegas, gram.intensity])
        paths.append(p)

    p = os.path.join(outdir, f"{tag}_retrieved_phase.csv")
    _write_csv(p, head, ["omega_rad_per_s", "phase_rad", "weight", "masked"],
               [grid.omegas, diff.phase, diff.weight, diff.masked])
    paths.append(p)

    if mode == "envelope-half":
        jump = ftsi.detect_phase_jump(diff, omega0)
        p = os.path.join(outdir, f"{tag}_jump_report.txt")
        with open(p, "w") as fh:
            fh.write(config_header(config))
            fh.write(f"jump_location_rad_per_s: {jump.location!r}\n")
            fh.write(f"jump_location_offset_thz: {(jump.location - omega0) / (2e12 * np.pi)!r}\n")
            fh.write(f"jump_magnitude_rad: {jump.magnitude!r}\n")
            fh.write(f"jump_sign: {jump.sign}\n")
        paths.append(p)
    return paths


def run_figure_pipeline(config: RunConfig, figure: str, outdir=None) -> list[str]:
    """Emit the CSV set for one figure; returns the written paths."""
    if figure not in FIGURES:
        raise ValueError(f"figure must be one of {FIGURES}, got {figure!r}")
    config = validate_config(config)
    outdir = outdir or config.outdir
    if figure == "fig2":
        return _ratio_pipeline(config, "field", "fig2", outdir)
    if figure == "fig3":
        return _phase_pipeline(config, "field", "fig3", outdir)
    if figure == "fig4":
        return _ratio_pipeline(config, "envelope-half", "fig4", outdir)
    return _phase_pipeline(config, "envelope-half", "fig5", outdir)
