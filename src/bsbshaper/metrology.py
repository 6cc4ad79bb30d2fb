"""Fidelity scoring and compensator design solvers.

Overlap is the normalized squared inner product of two complex spectral
fields, the quantity that bounds the sensitivity of homodyne parameter
estimation with a shaped local oscillator.  Design solvers invert the
dispersion relations: thickness for a target group-delay difference, for an
interference order, and the two-material stack that moves the linearized
response zero to a chosen frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dispersion, shaper
from .dispersion import Material
from .errors import DegenerateMaterialError
from .pulsefield import SpectralField, apply_transfer
from .shaper import Compensator

BAND_INTENSITY_FLOOR = 1e-4  # of peak spectral intensity
OBJECTIVE_T_CONST = 1e-15  # s; any positive value: overlap is invariant to the objective's scale
ACHROMAT_MAX_CONDITION = 1e8


@dataclass(frozen=True)
class OverlapReport:
    overlap: float
    efficiency: float
    band: tuple[float, float]  # rad/s


@dataclass(frozen=True)
class DesignSolution:
    segments: tuple[tuple[Material, float], ...]  # (material, signed thickness m)
    achieved_delay: float  # s
    achieved_order: float
    achieved_omega1: float  # rad/s
    residuals: dict = field(default_factory=dict)


def band_from_field(fld: SpectralField):
    """(omega_lo, omega_hi) where the spectral intensity exceeds BAND_INTENSITY_FLOOR * peak."""
    power = np.abs(fld.amplitude) ** 2
    keep = power >= BAND_INTENSITY_FLOOR * power.max()
    w = fld.grid.omegas[keep]
    return float(w[0]), float(w[-1])


def mode_overlap(a: SpectralField, b: SpectralField, band=None) -> float:
    """|<a|b>|^2 / (<a|a><b|b>) restricted to the band; in [0, 1]."""
    if a.grid != b.grid:
        raise ValueError("overlap requires a common grid")
    if band is None:
        sel = slice(None)
    else:
        w = a.grid.omegas
        sel = (w >= band[0]) & (w <= band[1])
    ax, bx = a.amplitude[sel], b.amplitude[sel]
    na = np.sum(np.abs(ax) ** 2)
    nb = np.sum(np.abs(bx) ** 2)
    if na == 0 or nb == 0:
        raise ValueError("zero-energy field on the overlap band")
    return float(np.abs(np.sum(np.conj(ax) * bx)) ** 2 / (na * nb))


def _shaped(segments, fld: SpectralField, mode: str) -> SpectralField:
    """The pulse exiting a stack's shaped polarization channel (common phase dropped).

    The common propagation phase is shared with the unshaped signal channel
    and cancels in any relative-shape comparison, so it is omitted here.
    """
    return apply_transfer(fld, shaper.shaped_channel(segments, fld.grid, mode))


def shaped_mode(comp: Compensator, fld: SpectralField, mode: str) -> SpectralField:
    """The pulse exiting the compensator's shaped polarization channel (common phase dropped)."""
    return _shaped(comp.segments, fld, mode)


def objective_overlap(shaped: SpectralField, source: SpectralField, mode: str):
    """(overlap, band_from_field(source)) of `shaped` with the mode's objective of `source`."""
    objective = shaper.objective(source.grid, mode, OBJECTIVE_T_CONST, source.omega0)
    band = band_from_field(source)
    return mode_overlap(shaped, apply_transfer(source, objective), band), band


def _score(segments, fld: SpectralField, mode: str) -> OverlapReport:
    """Objective overlap of a stack's shaped mode, and its efficiency."""
    shaped = _shaped(segments, fld, mode)
    overlap, band = objective_overlap(shaped, fld, mode)
    return OverlapReport(overlap, shaped.energy() / fld.energy(), band)


def score_compensator(comp: Compensator, fld: SpectralField, mode: str) -> OverlapReport:
    """Objective overlap of the exact shaped mode, plus channel efficiency."""
    return _score(comp.segments, fld, mode)


def _contrasts(material: Material, omega0: float) -> tuple[float, float]:
    """(delta_k, delta_k') at the carrier."""
    return (float(dispersion.delta_k(material, omega0)),
            float(dispersion.delta_k_prime(material, omega0)))


def _solution_for_length(material: Material, omega0: float, length: float,
                         dk: float, dkp: float) -> DesignSolution:
    return DesignSolution(
        segments=((material, length),),
        achieved_delay=dkp * length,
        achieved_order=dk * length / (2 * np.pi),
        achieved_omega1=dispersion.omega1(material, omega0),
        residuals={},
    )


def thickness_for_delay(material: Material, omega0: float, tau: float) -> DesignSolution:
    """Thickness giving group-delay difference tau: L = tau / delta_k'(omega0)."""
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    dk, dkp = _contrasts(material, omega0)
    if dkp == 0.0:
        raise DegenerateMaterialError(f"{material.name!r} has no group-index contrast")
    return _solution_for_length(material, omega0, tau / dkp, dk, dkp)


def thickness_for_order(material: Material, omega0: float, order: float) -> DesignSolution:
    """Thickness with delta_k(omega0) L / 2 = order * pi (half-integer orders allowed)."""
    if not order >= 0:
        raise ValueError("order must be >= 0")
    dk, dkp = _contrasts(material, omega0)
    if dk == 0.0:
        raise DegenerateMaterialError(f"{material.name!r} has no birefringence at the carrier")
    return _solution_for_length(material, omega0, 2 * order * np.pi / dk, dk, dkp)


def achromat_design(mat_a: Material, mat_b: Material, omega0: float,
                    target_omega1: float, target_tau: float) -> DesignSolution:
    """Two-material stack with prescribed delay and linearization zero.

    Solves sum_i delta_k'_i L_i = tau and sum_i delta_k_i L_i = (omega0 -
    target_omega1) tau for the signed thicknesses; negative thickness means
    crossed axes.
    """
    if not np.isfinite(target_tau):
        raise ValueError("target_tau must be finite")
    dkp = np.array([float(dispersion.delta_k_prime(m, omega0)) for m in (mat_a, mat_b)])
    # second row scaled by 1/omega0 so both rows share units before conditioning
    dk = np.array([float(dispersion.delta_k(m, omega0)) for m in (mat_a, mat_b)])
    system = np.vstack([dkp, dk / omega0])
    cond = np.linalg.cond(system)
    if not np.isfinite(cond) or cond > ACHROMAT_MAX_CONDITION:
        raise DegenerateMaterialError(
            f"material pair ({mat_a.name!r}, {mat_b.name!r}) is degenerate for the "
            f"achromat system (condition number {cond:.3g})"
        )
    rhs = np.array([target_tau, (omega0 - target_omega1) * target_tau / omega0])
    lengths = np.linalg.solve(system, rhs)

    total_dkp = float(dkp @ lengths)
    total_dk = float(dk @ lengths)
    if total_dkp == 0.0:
        raise DegenerateMaterialError("achromat stack has zero net group-delay contrast")
    w1 = omega0 - total_dk / total_dkp
    return DesignSolution(
        segments=((mat_a, float(lengths[0])), (mat_b, float(lengths[1]))),
        achieved_delay=total_dkp,
        achieved_order=total_dk / (2 * np.pi),
        achieved_omega1=w1,
        residuals={
            "omega1_over_omega0": w1 / omega0,
            "omega1_residual": abs(w1 - target_omega1) / omega0,
            "delay_residual": abs(total_dkp - target_tau) / abs(target_tau) if target_tau else 0.0,
            "condition_number": float(cond),
        },
    )


def stack_overlap(solution: DesignSolution, fld: SpectralField, mode: str = "field") -> float:
    """Overlap of a (possibly multi-segment) stack's exact shaped mode with its objective."""
    return _score(solution.segments, fld, mode).overlap
