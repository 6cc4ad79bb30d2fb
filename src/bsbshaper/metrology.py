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
from .pulsefield import SpectralField, common_grid
from .shaper import Compensator

ACHROMAT_MAX_CONDITION = 1e8


@dataclass(frozen=True)
class OverlapReport:
    overlap: float
    efficiency: float


@dataclass(frozen=True)
class DesignSolution:
    segments: tuple[tuple[Material, float], ...]  # (material, signed thickness m)
    achieved_delay: float  # s
    achieved_order: float
    achieved_omega1: float  # rad/s
    residuals: dict = field(default_factory=dict)


def band_from_field(fld: SpectralField):
    """(omega_lo, omega_hi) of the field's band (SpectralField.band); several peaks raise."""
    w = fld.grid.omegas[fld.band]
    return float(w[0]), float(w[-1])


def mode_overlap(a, b, band=None) -> float:
    """|<a|b>|^2 / (<a|a><b|b>) restricted to the band; in [0, 1].

    `a` and `b` are SpectralFields on a common grid, or amplitude arrays already on the band.
    """
    if isinstance(a, SpectralField):
        w = common_grid(a, b).omegas
        sel = slice(None) if band is None else (w >= band[0]) & (w <= band[1])
        a, b = a.amplitude[sel], b.amplitude[sel]
    na, nb = np.vdot(a, a).real, np.vdot(b, b).real
    if na == 0 or nb == 0:
        raise ValueError("zero-energy field on the overlap band")
    return float(abs(np.vdot(a, b)) ** 2 / (na * nb))


def _objective(source: SpectralField, mode: str, amplitude: np.ndarray) -> np.ndarray:
    """w' * amplitude on the source's band, the objective -i w' T A without the -i T it drops."""
    band = source.band
    return shaper.objective_weight(source.grid.omegas[band], mode, source.omega0) * amplitude[band]


def objective_overlap(shaped: SpectralField, source: SpectralField, mode: str):
    """(overlap, band_from_field(source)) of `shaped` with the mode's objective of `source`."""
    common_grid(shaped, source)
    objective = _objective(source, mode, source.amplitude)
    return mode_overlap(shaped.amplitude[source.band], objective), band_from_field(source)


def _score(segments, fld: SpectralField, mode: str) -> OverlapReport:
    """Objective overlap of a stack's shaped mode s A, and its efficiency.

    s is real and drops the common phase, which the signal channel shares; w' is real too, so
    the phase of A drops out as well and the modes are scored as s |A| and w' |A|.
    """
    shaped = shaper.shaped_factor(segments, fld.grid, mode) * fld.magnitude
    overlap = mode_overlap(shaped[fld.band], _objective(fld, mode, fld.magnitude))
    return OverlapReport(overlap, float(shaped @ shaped) / fld.power_sum)


def score_compensator(comp: Compensator, fld: SpectralField, mode: str) -> OverlapReport:
    """Objective overlap of the exact shaped mode, plus channel efficiency."""
    return _score(comp.segments, fld, mode)


def plate_design(c: dispersion.Contrast, length: float) -> DesignSolution:
    """Delay, order and omega1 at the carrier c.omega of a plate of signed thickness `length`."""
    return DesignSolution(
        segments=((c.material, length),),
        achieved_delay=float(c.delta_k_prime) * length,
        achieved_order=float(c.delta_k) * length / (2 * np.pi),
        achieved_omega1=c.omega1,
    )


def thickness_for_delay(material: Material, omega0: float, tau: float) -> DesignSolution:
    """Thickness giving group-delay difference tau: L = tau / delta_k'(omega0)."""
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    c = dispersion.contrast(material, omega0)
    dkp = float(c.delta_k_prime)
    if dkp == 0.0:
        raise DegenerateMaterialError(f"{material.name!r} has no group-index contrast")
    return plate_design(c, tau / dkp)


def thickness_for_order(material: Material, omega0: float, order: float) -> DesignSolution:
    """Thickness with delta_k(omega0) L / 2 = order * pi (half-integer orders allowed)."""
    if not 0 <= order < np.inf:  # NaN fails too
        raise ValueError("order must be >= 0")
    c = dispersion.contrast(material, omega0)
    dk = float(c.delta_k)
    if dk == 0.0:
        raise DegenerateMaterialError(f"{material.name!r} has no birefringence at the carrier")
    return plate_design(c, 2 * order * np.pi / dk)


def achromat_design(mat_a: Material, mat_b: Material, omega0: float,
                    target_omega1: float, target_tau: float) -> DesignSolution:
    """Two-material stack with prescribed delay and linearization zero.

    Solves sum_i delta_k'_i L_i = tau and sum_i delta_k_i L_i = (omega0 -
    target_omega1) tau for the signed thicknesses by Cramer's rule, the second row
    scaled by 1/omega0 so that both share units; negative thickness means crossed
    axes.  Each segment obeys the Compensator thickness bound.  The singular values
    of [[a, b], [c, d]] obey s1^2 + s2^2 = F, the sum of the squared entries, and
    s1 s2 = |det|, so the condition number s1/s2 = s1^2/|det| is
    (F + sqrt(F^2 - 4 det^2)) / (2 |det|), infinite where det = 0.
    """
    if not np.isfinite(target_tau):
        raise ValueError("target_tau must be finite")
    omega0 = float(omega0)
    con_a, con_b = (dispersion.contrast(m, omega0) for m in (mat_a, mat_b))
    a, b = float(con_a.delta_k_prime), float(con_b.delta_k_prime)  # the delay row
    dk_a, dk_b = float(con_a.delta_k), float(con_b.delta_k)
    c, d = dk_a / omega0, dk_b / omega0  # the order row
    det = a * d - b * c
    f = a * a + b * b + c * c + d * d
    cond = (f + max(f * f - 4 * det * det, 0.0) ** 0.5) / (2 * abs(det)) if det else np.inf
    if not cond <= ACHROMAT_MAX_CONDITION:  # NaN and infinity fail too
        raise DegenerateMaterialError(
            f"material pair ({mat_a.name!r}, {mat_b.name!r}) is degenerate for the "
            f"achromat system (condition number {cond:.3g})"
        )
    rhs = (omega0 - target_omega1) * target_tau / omega0  # the order row's; the delay row's is tau
    length_a = (target_tau * d - b * rhs) / det
    length_b = (a * rhs - c * target_tau) / det
    segments = (Compensator(mat_a, length_a).segments[0],
                Compensator(mat_b, length_b).segments[0])

    total_dkp = a * length_a + b * length_b
    total_dk = dk_a * length_a + dk_b * length_b
    if total_dkp == 0.0:
        raise DegenerateMaterialError("achromat stack has zero net group-delay contrast")
    w1 = omega0 - total_dk / total_dkp
    return DesignSolution(
        segments=segments,
        achieved_delay=total_dkp,
        achieved_order=total_dk / (2 * np.pi),
        achieved_omega1=w1,
        residuals={
            "omega1_over_omega0": w1 / omega0,
            "omega1_residual": abs(w1 - target_omega1) / omega0,
            "delay_residual": abs(total_dkp - target_tau) / abs(target_tau),
            "condition_number": cond,
        },
    )


def stack_overlap(solution: DesignSolution, fld: SpectralField, mode: str = "field") -> float:
    """Overlap of a (possibly multi-segment) stack's exact shaped mode with its objective."""
    return _score(solution.segments, fld, mode).overlap
