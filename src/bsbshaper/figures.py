"""Numerical reproduction of the measurement pipelines as plot-ready CSV files.

Four pipelines: field-mode amplitude ratio (fig2), field-mode interferometric
phase (fig3), envelope-mode amplitude ratio (fig4), envelope-mode phase jump
(fig5).  Every output file starts with a comment block recording the full
normalized configuration, and identical configs produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import os
from typing import NamedTuple

import numpy as np

from . import dispersion, ftsi, metrology, shaper
from ._cache import cached
from .config import RunConfig, config_header, validate_config
from .errors import ConfigError
from .io import Cells, format_cells
from .pulsefield import SpectralGrid, apply_transfer, write_grid_table
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
    """(pulse, design, its compensator, transfer pair, header lines) of a figure run."""
    design = _canonical_design(config)
    comp = Compensator(*design.segments[0])
    pulse = config.pulse()
    head = [config_header(config), f"# compensator: {comp.material.name} "
            f"{comp.thickness * 1e6!r} um, mode {config.mode}\n"]
    return pulse, design, comp, shaper.transfer_exact(comp, pulse.grid), head


def _ratio_tables(config: RunConfig):
    """(grid, header lines, {table: (names, columns)}) of fig2/fig4; no column is complex.

    The pulse, the transfer pair and every complex response die on return.
    """
    pulse, design, comp, pair, head = _setup(config)
    grid, mode, omega0 = pulse.grid, config.mode, config.omega0
    # delta_k'(omega0) L/2 first, so that zero thickness fails on it, not on the ratio
    t_const = abs(design.achieved_delay / 2)
    objective = np.abs(shaper.objective(grid, mode, t_const, omega0).values)
    resp = shaper.effective_response(pair, mode)
    first = np.abs(shaper.first_order_response(comp, grid, mode, omega0).values)
    unshaped, shaped = shaper.channels(pair, mode)
    power = np.abs(pulse.amplitude) ** 2
    return grid, head, {
        "spectra": (["unshaped_intensity", "shaped_intensity"],
                    [np.abs(unshaped) ** 2 * power, np.abs(shaped) ** 2 * power]),
        "ratio": (["ratio_exact", "ratio_objective", "ratio_first_order", "masked"],
                  [np.abs(resp.values), objective, first, resp.masked]),
    }


def _ratio_pipeline(config: RunConfig, tag: str, outdir):
    grid, head, tables = _ratio_tables(config)
    paths = []
    for table in ("spectra", "ratio"):
        paths.append(os.path.join(outdir, f"{tag}_{table}.csv"))
        _write_csv(paths[-1], grid, head, *tables.pop(table))  # its columns die once written
    return paths


def _arms(config: RunConfig):
    """(pulse, signal arm, shaped arm, header lines) of fig3/fig5, common phase included.

    The transfer pair and the common phase factor die on return.
    """
    pulse, _, _, pair, head = _setup(config)
    signal, shaped = shaper.channels(pair, config.mode)
    common = np.exp(1j * pair.common_phase)
    return (pulse, apply_transfer(pulse, signal * common), apply_transfer(pulse, -shaped * common),
            head)


def _device_gram(config: RunConfig):
    """(gram with the device, header lines) of fig3/fig5; the pulse and both arms die on
    return, before the retrieval starts."""
    pulse, arm_signal, arm_shaped, head = _arms(config)
    return ftsi.synthesize_interferogram(arm_signal, arm_shaped, config.tau_ftsi_fs * 1e-15,
                                         config.extra_phase(pulse)), head


class _Reference(NamedTuple):
    """The reference gram of fig3/fig5 as its table and the subtraction need it."""

    intensity: Cells  # the table's column, formatted once per process
    delay_hint: float
    phase: ftsi.RetrievedPhase  # on a grid whose `omegas` is never computed

    @property
    def grid(self) -> SpectralGrid:
        return self.phase.grid


# The fields the reference gram never reads, at their defaults: its key resets them, so any
# other field, one added later included, is part of the key and can cause a miss, never a
# wrong hit.
_NOT_REFERENCE = {f.name: f.default for f in dataclasses.fields(RunConfig)
                  if f.name in ("mode", "material", "material_b", "thickness_um", "outdir")}


@cached
def _reference(key: RunConfig) -> _Reference:
    """The pulse's interferogram with itself: neither the mode nor the plate enters it, so
    every phase figure of the process with the same `key` shares it."""
    pulse = key.pulse()
    gram = ftsi.synthesize_interferogram(pulse, pulse, key.tau_ftsi_fs * 1e-15,
                                         key.extra_phase(pulse))
    del pulse  # it dies before the retrieval
    rp = ftsi.retrieve_phase(gram, key.window())
    return _Reference(format_cells(gram.intensity), gram.delay_hint,
                      ftsi.RetrievedPhase(key.grid(), rp.phase, rp.weight, rp.masked))


def _phase_pipeline(config: RunConfig, tag: str, outdir):
    gram_with, head = _device_gram(config)
    omega0 = config.omega0
    phase_with = ftsi.retrieve_phase(gram_with, config.window())  # its errors come first
    ref = _reference(dataclasses.replace(config, **_NOT_REFERENCE))
    diff = ftsi.relative_phase(phase_with, ref.phase)
    del phase_with  # it dies before the tables are written

    paths = [os.path.join(outdir, f"{tag}_{name}.csv") for name in
             ("interferogram_with_bsb", "interferogram_without_bsb", "retrieved_phase")]
    ftsi.write_interferogram_csv(gram_with, paths[0], head)
    ftsi.write_interferogram_csv(ref, paths[1], head)
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
