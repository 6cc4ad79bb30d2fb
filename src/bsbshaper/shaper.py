"""Birefringent compensator transfer functions.

A compensator of signed thickness L at 45 degrees splits an x-polarized input
into cos/sin responses on the x/y axes (lossless, unitary).  The measurable
quantity is the ratio of the shaped to the unshaped polarization, with the
common propagation phase cancelled analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dispersion
from .dispersion import C_LIGHT, Material
from .errors import GridMismatchError
from .pulsefield import SpectralGrid

MAX_THICKNESS = 10e-3  # m

MODES = ("field", "envelope-integer", "envelope-half")

DENOMINATOR_FLOOR = 1e-6  # of the band maximum, below which the ratio is masked


@dataclass(frozen=True)
class Compensator:
    """BSB device: one material, signed effective thickness (negative = crossed axes)."""

    material: Material
    thickness: float  # m, signed

    def __post_init__(self):
        if not abs(self.thickness) <= MAX_THICKNESS:  # also rejects NaN
            raise ValueError(
                f"|thickness| = {abs(self.thickness):.3g} m exceeds the "
                f"{MAX_THICKNESS:.0e} m physical bound"
            )


@dataclass(frozen=True)
class TransferPair:
    """Two-polarization response h_x = cos(psi/2), h_y = i sin(psi/2).

    The common phase phi(omega) = (k_e + k_o) L / 2 is carried separately and
    is NOT included in h_x/h_y; ratios of the two channels are therefore exact
    with no large-phase division.
    """

    grid: SpectralGrid
    h_x: np.ndarray
    h_y: np.ndarray
    common_phase: np.ndarray

    def full(self, axis: str) -> np.ndarray:
        """Channel response including the common phase factor."""
        h = {"x": self.h_x, "y": self.h_y}[axis]
        return h * np.exp(1j * self.common_phase)


@dataclass(frozen=True)
class TransferFunction:
    grid: SpectralGrid
    values: np.ndarray  # complex per sample
    masked: np.ndarray | None = None  # True where the value is unreliable

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_samples,):
            raise GridMismatchError("transfer-function length does not match grid")
        object.__setattr__(self, "values", v)


def transfer_exact_segments(segments, grid: SpectralGrid) -> TransferPair:
    """Exact cos/sin response of a stack of birefringent segments, one index array per axis."""
    w = grid.omegas
    wl = 2 * np.pi * C_LIGHT / w * 1e6
    psi_half = np.zeros(grid.n_samples)
    phi = np.zeros(grid.n_samples)
    for material, thickness in segments:
        n_e = dispersion.refractive_index(material.extraordinary, wl)
        n_o = dispersion.refractive_index(material.ordinary, wl)
        psi_half += (n_e - n_o) * w / C_LIGHT * thickness / 2
        phi += (n_e + n_o) * w / C_LIGHT * abs(thickness) / 2
    return TransferPair(grid, np.cos(psi_half).astype(complex),
                        1j * np.sin(psi_half), phi)


def transfer_exact(comp: Compensator, grid: SpectralGrid) -> TransferPair:
    """Exact response of a single compensator (signed thickness negates delta_k)."""
    return transfer_exact_segments([(comp.material, comp.thickness)], grid)


def channels(pair: TransferPair, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(signal, shaped) channel responses of a mode, unsigned and without common phase.

    field / envelope-integer: signal on x, shaped on y.  envelope-half: the
    axes are exchanged.  The analyser on the -y axis contributes a minus sign
    wherever the two channels are compared.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "envelope-half":
        return pair.h_y, pair.h_x
    return pair.h_x, pair.h_y


def effective_response(pair: TransferPair, mode: str) -> TransferFunction:
    """Ratio of shaped to unshaped channel, common phase removed exactly.

    R = -shaped/signal: -h_y/h_x = -i tan(psi/2) for field / envelope-integer
    and -h_x/h_y = i cot(psi/2) for envelope-half.  Samples where the signal
    channel drops below DENOMINATOR_FLOOR of its band maximum are masked, not
    dropped.
    """
    signal, shaped = channels(pair, mode)
    den_mag = np.abs(signal)
    masked = den_mag < DENOMINATOR_FLOOR * den_mag.max()
    safe = np.where(masked, 1.0, signal)
    values = np.where(masked, 0.0, -shaped / safe)
    return TransferFunction(pair.grid, values, masked)


def objective_r1(grid: SpectralGrid, t1: float) -> TransferFunction:
    """Field time-derivative objective -i omega T1."""
    if not t1 > 0:
        raise ValueError("t1 must be positive")
    return TransferFunction(grid, -1j * grid.omegas * t1)


def objective_r2(grid: SpectralGrid, t2: float, omega0: float) -> TransferFunction:
    """Envelope time-derivative objective -i (omega - omega0) T2."""
    if not t2 > 0:
        raise ValueError("t2 must be positive")
    if not grid.contains(omega0):
        raise ValueError("omega0 outside grid")
    return TransferFunction(grid, -1j * (grid.omegas - omega0) * t2)


def objective(grid: SpectralGrid, mode: str, t_const: float, omega0: float) -> TransferFunction:
    """The mode's derivative objective: objective_r1 for field, objective_r2 otherwise."""
    if mode == "field":
        return objective_r1(grid, t_const)
    return objective_r2(grid, t_const, omega0)


def first_order_response(comp: Compensator, grid: SpectralGrid, mode: str,
                         omega0: float) -> TransferFunction:
    """Linearized response around omega0.

    field: -i (omega - omega1) delta_k'(omega0) L/2, with omega1 the zero
    crossing of the linearized birefringence; envelope modes: the same slope
    anchored at omega0 instead.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    slope = dispersion.delta_k_prime(comp.material, omega0) * comp.thickness / 2
    if mode == "field":
        w_zero = dispersion.omega1(comp.material, omega0)
    else:
        w_zero = omega0
    return TransferFunction(grid, -1j * (grid.omegas - w_zero) * slope)
