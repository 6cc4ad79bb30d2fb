"""Polarization spectral interferometry and Fourier-transform phase retrieval.

An interferogram between two spectrally overlapping pulses with a large
relative delay carries their differential spectral phase in its fringes; the
retrieval isolates the delayed sideband of the interferogram's pseudo-time
transform with a super-Gaussian window and takes the argument of the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMaskError, SidebandOverlapError, UndersampledFringeError
from .io import meta_line
from .pulsefield import (SpectralField, SpectralGrid, TimeTrace, common_grid, read_grid_table,
                         to_frequency, to_time, write_grid_table)

WEIGHT_MASK_FRACTION = 1e-3
DEFAULT_WINDOW_ORDER = 6
BASEBAND_LEAK_LIMIT = 0.01
JUMP_WINDOW = 2 * np.pi * 10e12  # rad/s on either side of the carrier
JUMP_MIN_SAMPLES = 8  # unmasked samples needed on each side


@dataclass(frozen=True)
class Interferogram:
    """Real spectral intensity with fringes at the nominal delay."""

    grid: SpectralGrid
    intensity: np.ndarray  # real, >= 0
    delay_hint: float  # s

    def __post_init__(self):
        if not 0 < self.delay_hint < np.inf:  # NaN fails too
            raise ValueError(f"delay_hint must be finite and positive, got {self.delay_hint} s")
        s = self.grid.samples(self.intensity, float, "interferogram intensity")
        if np.any(s < -1e-15 * max(s.max(), 1.0)):
            raise ValueError("interferogram intensity must be non-negative")
        object.__setattr__(self, "intensity", np.maximum(s, 0.0))


@dataclass(frozen=True)
class RetrievedPhase:
    grid: SpectralGrid
    phase: np.ndarray  # rad, finite
    weight: np.ndarray  # |filtered cross term|, >= 0
    masked: np.ndarray  # True where the weight is too small to trust the phase

    def __post_init__(self):
        arrays = (self.grid.samples(self.phase, float, "retrieved phase"),
                  self.grid.samples(self.weight, float, "retrieved weight"),
                  self.grid.samples(self.masked, bool, "masked"))
        if not np.all(arrays[1] >= 0):
            raise ValueError("retrieved weight must be non-negative")
        for name, array in zip(("phase", "weight", "masked"), arrays):
            object.__setattr__(self, name, array)


@dataclass(frozen=True)
class FtsiWindow:
    """Super-Gaussian pseudo-time window exp(-((t-t_c)/w)^order)."""

    center_time: float | None = None  # None: locate the sideband peak
    width: float | None = None  # None: delay_hint / 3
    order: int = DEFAULT_WINDOW_ORDER

    def __post_init__(self):
        if self.order < 2 or self.order % 2:
            raise ValueError("window order must be an even integer >= 2")
        if self.width is not None and not 0 < self.width < np.inf:  # NaN fails too
            raise ValueError(f"window width must be finite and positive, got {self.width} s")


@dataclass(frozen=True)
class JumpReport:
    location: float  # rad/s
    magnitude: float  # rad, signed (level above minus level below)
    sign: int


def synthesize_interferogram(e_a: SpectralField, e_b: SpectralField, tau_ftsi: float,
                             extra_phase=None) -> Interferogram:
    """S(omega) = (1/2)|E_a + E_b exp(i(omega tau + extra_phase))|^2.

    extra_phase models delay-crystal dispersion beyond the pure delay; the
    reference-subtraction protocol cancels it.
    """
    grid = common_grid(e_a, e_b)
    samples_per_fringe = 2 * np.pi / (tau_ftsi * grid.omega_step) if tau_ftsi > 0 else np.inf
    if samples_per_fringe < 4:
        raise UndersampledFringeError(
            f"delay {tau_ftsi:.3g} s gives {samples_per_fringe:.2f} samples per fringe "
            "(need >= 4)"
        )
    psi = np.zeros(grid.n_samples) if extra_phase is None else np.asarray(extra_phase)
    total = e_a.amplitude + e_b.amplitude * np.exp(1j * (grid.omegas * tau_ftsi + psi))
    return Interferogram(grid, 0.5 * np.abs(total) ** 2, tau_ftsi)


def retrieve_phase(gram: Interferogram, window: FtsiWindow | None = None) -> RetrievedPhase:
    """Extract the differential spectral phase from the +tau sideband.

    Returns phase = omega*tau + (arg E_b - arg E_a) + extra_phase, wrapped per
    sample; samples whose filtered amplitude falls below WEIGHT_MASK_FRACTION
    of its maximum are masked.
    """
    if window is None:
        window = FtsiWindow()
    tau = gram.delay_hint
    carrier = gram.grid.omegas[gram.grid.n_samples // 2]
    trace = to_time(SpectralField(gram.grid, gram.intensity.astype(complex), carrier))
    t = trace.times
    mag = np.abs(trace.amplitude)

    if window.center_time is not None:
        t_c = window.center_time
    else:
        search = t > max(tau / 2, 2 * trace.t_step)
        if not np.any(search):
            raise SidebandOverlapError("no pseudo-time samples beyond the baseband to search")
        t_c = t[search][np.argmax(mag[search])]
    width = window.width if window.width is not None else tau / 3

    win = np.exp(-(((t - t_c) / width) ** window.order))
    filtered = trace.amplitude * win

    power = np.abs(filtered) ** 2
    baseband = np.abs(t) <= tau / 4
    e_base = power[baseband].sum()
    e_side = power[~baseband].sum()
    if e_side > 0 and e_base > BASEBAND_LEAK_LIMIT * e_side:
        raise SidebandOverlapError(
            f"window leaks {e_base / e_side:.1%} of the sideband energy from the baseband; "
            "narrow the window or increase the delay"
        )

    cross = to_frequency(TimeTrace(trace.n_samples, trace.t_start, trace.t_step, filtered),
                         gram.grid, carrier)
    weight = np.abs(cross.amplitude)
    masked = weight < WEIGHT_MASK_FRACTION * weight.max() if weight.max() > 0 \
        else np.ones(gram.grid.n_samples, dtype=bool)
    phase = np.where(masked, 0.0, np.angle(cross.amplitude))
    return RetrievedPhase(gram.grid, phase, weight, masked)


def unwrap(rp: RetrievedPhase) -> RetrievedPhase:
    """2pi-unwrap each contiguous unmasked segment, anchored at its weight maximum.

    Masked gaps start fresh anchors, so a genuine pi jump sitting inside a
    masked gap survives unwrapping.
    """
    phase = rp.phase.copy()
    edges = np.diff(np.concatenate(([0], ~rp.masked, [0])).astype(np.int8))
    bounds = np.flatnonzero(edges)  # alternating segment starts and ends
    for i, j in zip(bounds[::2], bounds[1::2]):
        unwrapped = np.unwrap(rp.phase[i:j])
        anchor = np.argmax(rp.weight[i:j])
        unwrapped += 2 * np.pi * np.round((rp.phase[i + anchor] - unwrapped[anchor]) / (2 * np.pi))
        phase[i:j] = unwrapped
    return RetrievedPhase(rp.grid, phase, rp.weight, rp.masked)


def wrap_to_principal(rp: RetrievedPhase) -> RetrievedPhase:
    """Map every phase sample back to (-pi, pi]; useful after subtraction."""
    wrapped = np.angle(np.exp(1j * rp.phase))
    return RetrievedPhase(rp.grid, wrapped, rp.weight, rp.masked)


def subtract_reference(with_device: RetrievedPhase, without_device: RetrievedPhase) -> RetrievedPhase:
    """Differential phase; cancels the FTSI delay ramp and any common dispersion."""
    grid = common_grid(with_device, without_device)
    masked = with_device.masked | without_device.masked
    if masked.all():
        raise EmptyMaskError("no overlap between the unmasked regions of the two phases")
    phase = with_device.phase - without_device.phase
    weight = np.minimum(with_device.weight, without_device.weight)
    return RetrievedPhase(grid, np.where(masked, 0.0, phase), weight, masked)


def relative_phase(with_device: RetrievedPhase, without_device: RetrievedPhase) -> RetrievedPhase:
    """The device's phase: reference subtracted, wrapped to (-pi, pi], then unwrapped.

    Subtracting first matters: unwrapping the raw retrievals, which ride on the
    steep omega*tau fringe ramp, would smooth a genuine pi jump of the device away.
    """
    return unwrap(wrap_to_principal(subtract_reference(with_device, without_device)))


def detect_phase_jump(rp: RetrievedPhase, omega0: float) -> JumpReport:
    """Estimate a phase step across omega0 from robust levels within JUMP_WINDOW on either side."""
    w = rp.grid.omegas
    valid = ~rp.masked
    below = valid & (w >= omega0 - JUMP_WINDOW) & (w < omega0)
    above = valid & (w > omega0) & (w <= omega0 + JUMP_WINDOW)
    if below.sum() < JUMP_MIN_SAMPLES or above.sum() < JUMP_MIN_SAMPLES:
        raise EmptyMaskError(
            f"need >= {JUMP_MIN_SAMPLES} unmasked samples on each side of the carrier "
            f"(have {int(below.sum())}/{int(above.sum())})"
        )
    level_below = float(np.median(rp.phase[below]))
    level_above = float(np.median(rp.phase[above]))
    magnitude = level_above - level_below

    # place the jump at the largest step between consecutive valid samples near omega0
    near = valid & (np.abs(w - omega0) <= JUMP_WINDOW)
    idx = np.flatnonzero(near)  # >= 2 * JUMP_MIN_SAMPLES, for `near` holds `below` and `above`
    k = int(np.argmax(np.abs(np.diff(rp.phase[idx]))))
    location = 0.5 * (w[idx[k]] + w[idx[k + 1]])
    return JumpReport(location, magnitude, int(np.sign(magnitude)) if magnitude else 0)


def write_interferogram_csv(gram: Interferogram, path, header_lines=()):
    """The interferogram table, after the caller's comment lines."""
    write_grid_table(path, gram.grid, [*header_lines, meta_line("delay_hint", gram.delay_hint)],
                     ["intensity"], [gram.intensity])


def read_interferogram_csv(path) -> Interferogram:
    grid, values, data = read_grid_table(path, ("delay_hint",), ("intensity",))
    return Interferogram(grid, data["intensity"], values["delay_hint"])


def write_phase_csv(rp: RetrievedPhase, path, header_lines=()):
    """The retrieved-phase table, after the caller's comment lines."""
    write_grid_table(path, rp.grid, header_lines, ["phase_rad", "weight", "masked"],
                     [rp.phase, rp.weight, rp.masked])


def read_phase_csv(path) -> RetrievedPhase:
    grid, _, data = read_grid_table(path, (), ("phase_rad", "weight", "masked"))
    if not np.isin(data["masked"], (0, 1)).all():  # NaN fails too
        raise ValueError(f"{path}: masked cells must be 0 or 1")
    return RetrievedPhase(grid, data["phase_rad"], data["weight"], data["masked"])
