"""Numerical reproduction of the measurement pipelines as plot-ready CSV files.

Four pipelines: field-mode amplitude ratio (fig2), field-mode interferometric
phase (fig3), envelope-mode amplitude ratio (fig4), envelope-mode phase jump
(fig5).  Every output file starts with a comment block recording the full
normalized configuration, and identical configs produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import dispersion, ftsi, metrology, shaper
from .config import RunConfig, config_header, validate_config
from .errors import ConfigError
from .pulsefield import apply_transfer, write_grid_table
from .shaper import Compensator


def _canonical_design(config: RunConfig) -> metrology.DesignSolution:
    """The plate from config, or the mode's canonical design (0.17 fs / order 1/2)."""
    material = dispersion.get_material(config.material)
    if config.thickness_um is not None:
        return metrology.plate_design(dispersion.contrast(material, config.omega0),
                                      config.thickness_um * 1e-6)
    if config.mode == "field":
        return metrology.thickness_for_delay(material, config.omega0, 0.17e-15)
    return metrology.thickness_for_order(material, config.omega0, 0.5)


# The fig2/fig4 tables are written through this name (fig3/fig5 ones by the ftsi writers). It
# stays, though it is write_grid_table, because perfbench/test_bench.py monkeypatches it.
_write_csv = write_grid_table


def _setup(config: RunConfig):
    """(pulse, design, transfer pair, header lines) of a figure run."""
    design = _canonical_design(config)
    comp = Compensator(*design.segments[0])
    pulse = config.pulse()
    head = [config_header(config), f"# compensator: {comp.material.name} "
            f"{comp.thickness * 1e6!r} um, mode {config.mode}\n"]
    return pulse, design, shaper.transfer_exact(comp, pulse.grid), head


def _ratio_pipeline(config: RunConfig, tag: str, outdir):
    pulse, design, pair, head = _setup(config)
    grid, mode, omega0 = pulse.grid, config.mode, config.omega0
    slope = design.achieved_delay / 2  # delta_k'(omega0) L/2, from the design's carrier query
    # before the response, so that zero thickness fails on its constant, not on the ratio
    objective = shaper.objective(grid, mode, abs(slope), omega0)
    resp = shaper.effective_response(pair, mode)
    first = shaper.linear_response(grid, mode, omega0, slope, design.achieved_omega1)
    unshaped, shaped = shaper.channels(pair, mode)
    power = np.abs(pulse.amplitude) ** 2

    spectra = os.path.join(outdir, f"{tag}_spectra.csv")
    _write_csv(spectra, grid, head, ["unshaped_intensity", "shaped_intensity"],
               [np.abs(unshaped) ** 2 * power, np.abs(shaped) ** 2 * power])

    ratio = os.path.join(outdir, f"{tag}_ratio.csv")
    _write_csv(ratio, grid, head, ["ratio_exact", "ratio_objective", "ratio_first_order", "masked"],
               [np.abs(resp.values), np.abs(objective.values), np.abs(first.values), resp.masked])
    return [spectra, ratio]


def _phase_pipeline(config: RunConfig, tag: str, outdir):
    pulse, _, pair, head = _setup(config)
    omega0 = config.omega0
    signal, shaped = shaper.channels(pair, config.mode)
    common = np.exp(1j * pair.common_phase)
    arm_signal = apply_transfer(pulse, signal * common)
    arm_shaped = apply_transfer(pulse, -shaped * common)

    tau = config.tau_ftsi_fs * 1e-15
    extra = config.extra_phase(pulse)
    gram_with = ftsi.synthesize_interferogram(arm_signal, arm_shaped, tau, extra)
    gram_ref = ftsi.synthesize_interferogram(pulse, pulse, tau, extra)

    window = config.window()
    diff = ftsi.relative_phase(ftsi.retrieve_phase(gram_with, window),
                               ftsi.retrieve_phase(gram_ref, window))

    paths = [os.path.join(outdir, f"{tag}_{name}.csv") for name in
             ("interferogram_with_bsb", "interferogram_without_bsb", "retrieved_phase")]
    ftsi.write_interferogram_csv(gram_with, paths[0], head)
    ftsi.write_interferogram_csv(gram_ref, paths[1], head)
    ftsi.write_phase_csv(diff, paths[2], head)

    if config.mode == "envelope-half":
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


_PIPELINES = {  # figure: (pipeline, the compensator mode it runs in)
    "fig2": (_ratio_pipeline, "field"),
    "fig3": (_phase_pipeline, "field"),
    "fig4": (_ratio_pipeline, "envelope-half"),
    "fig5": (_phase_pipeline, "envelope-half"),
}
FIGURES = tuple(_PIPELINES)


def run_figure_pipeline(config: RunConfig, figure: str, outdir=None) -> list[str]:
    """Emit one figure's CSV set, in the mode the figure fixes; returns the written paths."""
    if figure not in FIGURES:
        raise ValueError(f"figure must be one of {FIGURES}, got {figure!r}")
    config = validate_config(config)
    outdir = outdir or config.outdir
    if not os.path.isdir(outdir) or not os.access(outdir, os.W_OK):
        raise ConfigError(f"outdir {outdir!r} is not a writable directory")
    pipeline, mode = _PIPELINES[figure]
    return pipeline(dataclasses.replace(config, mode=mode), figure, outdir)
