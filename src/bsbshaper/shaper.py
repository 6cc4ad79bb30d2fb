"""Birefringent compensator transfer functions.

A compensator of signed thickness L at 45 degrees splits an x-polarized input
into cos/sin responses on the x/y axes (lossless, unitary).  The measurable
quantity is the ratio of the shaped to the unshaped polarization, with the
common propagation phase cancelled analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dispersion
from .dispersion import C_LIGHT, Material
from .errors import BsbShaperError, GridMismatchError
from .pulsefield import SpectralGrid

MAX_THICKNESS = 10e-3  # m

MODES = ("field", "envelope-integer", "envelope-half")

DENOMINATOR_FLOOR = 1e-6  # of the band maximum, below which the ratio is masked
WAVEVECTOR_TABLES = 8  # (material, grid) wavevector tables kept, least recently used dropped


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

    @property
    def segments(self) -> tuple[tuple[Material, float], ...]:
        """The device as a one-segment stack."""
        return ((self.material, self.thickness),)


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
        """Channel response of the "x" or "y" axis, including the common phase factor."""
        return getattr(self, "h_" + axis) * np.exp(1j * self.common_phase)


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


@lru_cache(maxsize=WAVEVECTOR_TABLES)
def _wavevectors(material: Material, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (k_e - k_o, k_e + k_o) [rad/m] on the grid, one Sellmeier evaluation per axis.

    Cached per (material, grid); a grid outside the validity window raises on
    every call, because an exception is not cached.
    """
    c = dispersion.contrast(material, grid.omegas)
    tables = (c.delta_k, (c.n_e + c.n_o) * grid.omegas / C_LIGHT)
    for table in tables:
        table.setflags(write=False)
    return tables


def _half_retardance(segments, grid: SpectralGrid) -> np.ndarray:
    """psi/2 = sum of (k_e - k_o) L / 2 over the segments."""
    psi_half = np.zeros(grid.n_samples)
    for material, thickness in segments:
        psi_half += _wavevectors(material, grid)[0] * thickness / 2
    return psi_half


def _axis_response(psi_half: np.ndarray, axis: str) -> tuple[np.ndarray, complex]:
    """(s, u) of the axis response u s: h_x = cos(psi/2) on "x", h_y = i sin(psi/2) on "y"."""
    return (np.cos(psi_half), 1 + 0j) if axis == "x" else (np.sin(psi_half), 1j)


def _mode_axes(mode: str) -> tuple[str, str]:
    """(signal, shaped) axes of a mode.

    field / envelope-integer: signal on x, shaped on y.  envelope-half: the
    axes are exchanged.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return ("y", "x") if mode == "envelope-half" else ("x", "y")


def transfer_exact_segments(segments, grid: SpectralGrid) -> TransferPair:
    """Exact cos/sin response and common phase of a stack of birefringent segments."""
    psi_half = _half_retardance(segments, grid)
    phi = np.zeros(grid.n_samples)
    for material, thickness in segments:
        phi += _wavevectors(material, grid)[1] * abs(thickness) / 2
    (c, u_x), (s, u_y) = (_axis_response(psi_half, axis) for axis in "xy")
    return TransferPair(grid, u_x * c, u_y * s, phi)


def transfer_exact(comp: Compensator, grid: SpectralGrid) -> TransferPair:
    """Exact response of a single compensator (signed thickness negates delta_k)."""
    return transfer_exact_segments(comp.segments, grid)


def shaped_channel(segments, grid: SpectralGrid, mode: str) -> np.ndarray:
    """The mode's shaped-channel response of a stack, equal to channels(...)[1] of its pair.

    Computes only that channel: no common phase and no signal channel.
    """
    s, u = _axis_response(_half_retardance(segments, grid), _mode_axes(mode)[1])
    return u * s


def shaped_factor(segments, grid: SpectralGrid, mode: str) -> np.ndarray:
    """Real s of the mode's shaped channel, which is s on the "x" axis and i s on "y"."""
    return _axis_response(_half_retardance(segments, grid), _mode_axes(mode)[1])[0]


def channels(pair: TransferPair, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(signal, shaped) channel responses of a mode, unsigned and without common phase.

    The analyser on the -y axis contributes a minus sign wherever the two
    channels are compared.
    """
    return tuple(getattr(pair, "h_" + axis) for axis in _mode_axes(mode))


def effective_response(pair: TransferPair, mode: str) -> TransferFunction:
    """Ratio of shaped to unshaped channel, common phase removed exactly.

    R = -shaped/signal: -h_y/h_x = -i tan(psi/2) for field / envelope-integer
    and -h_x/h_y = i cot(psi/2) for envelope-half.  Samples where the signal
    channel drops below DENOMINATOR_FLOOR of its band maximum are masked, not
    dropped; a signal channel that is zero everywhere (envelope-half at zero
    thickness) raises BsbShaperError.
    """
    signal, shaped = channels(pair, mode)
    den_mag = np.abs(signal)
    if not den_mag.max() > 0:
        raise BsbShaperError(f"the {mode} signal channel is zero on the whole grid, "
                             "so the shaped/unshaped ratio is undefined")
    masked = den_mag < DENOMINATOR_FLOOR * den_mag.max()
    safe = np.where(masked, 1.0, signal)
    values = np.where(masked, 0.0, -shaped / safe)
    return TransferFunction(pair.grid, values, masked)


def objective_r2(grid: SpectralGrid, t2: float, omega0: float) -> TransferFunction:
    """Envelope time-derivative objective -i (omega - omega0) T2."""
    return objective(grid, "envelope-integer", t2, omega0)


def objective_weight(omegas: np.ndarray, mode: str, omega0: float) -> np.ndarray:
    """w' of the mode's objective -i w' T: omega for field, omega - omega0 otherwise."""
    _mode_axes(mode)  # rejects an unknown mode
    return omegas if mode == "field" else omegas - omega0


def objective(grid: SpectralGrid, mode: str, t_const: float, omega0: float) -> TransferFunction:
    """The mode's derivative objective -i w' T (objective_weight), T = T1 for field, T2 otherwise."""
    weight = objective_weight(grid.omegas, mode, omega0)
    if not t_const > 0:
        raise ValueError(f"{'t1' if mode == 'field' else 't2'} must be positive")
    if mode != "field" and not grid.contains(omega0):
        raise ValueError("omega0 outside grid")
    return TransferFunction(grid, -1j * weight * t_const)


def first_order_response(comp: Compensator, grid: SpectralGrid, mode: str,
                         omega0: float) -> TransferFunction:
    """Linearized response of a compensator around omega0 (linear_response)."""
    c = dispersion.contrast(comp.material, omega0)
    return linear_response(grid, mode, omega0, c.delta_k_prime * comp.thickness / 2, c.omega1)


def linear_response(grid: SpectralGrid, mode: str, omega0: float, slope: float,
                    omega1: float) -> TransferFunction:
    """Linearized response of slope delta_k'(omega0) L/2 around omega0.

    field: -i (omega - omega1) slope, with omega1 the zero crossing of the
    linearized birefringence; envelope modes: the same slope anchored at omega0
    instead.
    """
    _mode_axes(mode)  # rejects an unknown mode
    w_zero = omega1 if mode == "field" else omega0
    return TransferFunction(grid, -1j * (grid.omegas - w_zero) * slope)
