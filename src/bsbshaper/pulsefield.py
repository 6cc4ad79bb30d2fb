"""Spectral pulse representation, test-pulse synthesis, and transforms.

Fields live on a uniform angular-frequency grid.  The global sign convention
is E(t) = (1/2pi) integral E(omega) exp(-i omega t) domega, so a spectral
factor exp(+i omega tau) delays a pulse by tau and the time-derivative filter
is -i omega T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BsbShaperError, GridMismatchError, SupportLeakError
from .io import meta_line, read_table, write_table

EDGE_LEAK_FRACTION = 1e-6
BAND_INTENSITY_FLOOR = 1e-4  # of peak spectral intensity, the edge of a field's band

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform angular-frequency sampling; n_samples must be a power of two."""

    n_samples: int
    omega_start: float  # rad/s
    omega_step: float  # rad/s

    def __post_init__(self):
        if self.n_samples < 2 or self.n_samples & (self.n_samples - 1):
            raise ValueError(f"n_samples must be a power of two, got {self.n_samples}")
        if not (0 < self.omega_start < np.inf and 0 < self.omega_step < np.inf):  # NaN fails
            raise ValueError("grid must be finite, strictly positive and increasing")

    @cached_property
    def omegas(self) -> np.ndarray:
        """The sample frequencies, computed once per grid instance and read-only."""
        w = self.omega_start + self.omega_step * np.arange(self.n_samples)
        w.setflags(write=False)
        return w

    @property
    def omega_end(self) -> float:
        return self.omega_start + self.omega_step * (self.n_samples - 1)

    def contains(self, omega: float) -> bool:
        return self.omega_start <= omega <= self.omega_end

    @property
    def time_step(self) -> float:
        return 2 * np.pi / (self.n_samples * self.omega_step)

    def metadata_line(self) -> str:
        """The `# grid=n_samples omega_start omega_step` line of a table file."""
        return meta_line("grid", self.n_samples, self.omega_start, self.omega_step)

    @classmethod
    def from_metadata(cls, metadata: dict) -> SpectralGrid:
        n, start, step = metadata["grid"].split()
        return cls(int(n), float(start), float(step))


def default_grid(n_samples: int = 4096) -> SpectralGrid:
    """n_samples (4096 unless given) over 150-600 THz."""
    step = 2 * np.pi * (600e12 - 150e12) / n_samples
    return SpectralGrid(n_samples, 2 * np.pi * 150e12, step)


@dataclass(frozen=True)
class SpectralField:
    """Complex spectral amplitude on a grid, with carrier reference omega0."""

    grid: SpectralGrid
    amplitude: np.ndarray  # complex, len n_samples
    omega0: float  # rad/s

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=complex)
        if amp.shape != (self.grid.n_samples,):
            raise ValueError("amplitude length does not match grid")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitude must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitude", amp)
        if not self.grid.contains(self.omega0):
            raise ValueError(f"carrier {self.omega0:.4g} rad/s outside grid")

    def energy(self) -> float:
        """integral |E(omega)|^2 domega on the grid."""
        return self.power_sum * self.grid.omega_step

    @cached_property
    def magnitude(self) -> np.ndarray:
        """|E(omega)|, computed once per field instance and read-only."""
        magnitude = np.abs(self.amplitude)
        magnitude.setflags(write=False)
        return magnitude

    @cached_property
    def power_sum(self) -> float:
        """sum of |E(omega)|^2 over the grid, computed once per field instance."""
        return float(self.magnitude @ self.magnitude)

    @cached_property
    def band(self) -> slice:
        """Index slice where |E(omega)|^2 reaches BAND_INTENSITY_FLOOR * peak, computed once.

        A spectrum with several peaks, whose samples above the floor are not contiguous, raises.
        """
        power = self.magnitude ** 2
        idx = np.flatnonzero(power >= BAND_INTENSITY_FLOOR * power.max())
        if idx[-1] - idx[0] + 1 != idx.size:
            raise BsbShaperError("the spectrum has several peaks: its samples above the band "
                                 "floor are not contiguous")
        return slice(int(idx[0]), int(idx[-1]) + 1)


@dataclass(frozen=True)
class TimeTrace:
    n_samples: int
    t_start: float  # s
    t_step: float  # s
    amplitude: np.ndarray  # complex

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.t_step * np.arange(self.n_samples)

    def energy(self) -> float:
        return float(np.sum(np.abs(self.amplitude) ** 2) * self.t_step)


def edge_leak_fraction(amplitude: np.ndarray) -> float:
    """Fraction of field energy sitting in the outermost grid samples."""
    power = np.abs(np.asarray(amplitude)) ** 2
    total = power.sum()
    if total == 0:
        return 0.0
    return float((power[0] + power[-1]) / total)


def _check_support(amplitude, label):
    leak = edge_leak_fraction(amplitude)
    if leak > EDGE_LEAK_FRACTION:
        raise SupportLeakError(
            f"{label}: edge-energy fraction {leak:.3g} exceeds {EDGE_LEAK_FRACTION:.0e}; "
            "enlarge the grid span"
        )


def _check_grids(a_grid: SpectralGrid, b_grid: SpectralGrid):
    if a_grid != b_grid:
        raise GridMismatchError(f"grids differ: {a_grid} vs {b_grid}")


def gaussian_pulse(grid: SpectralGrid, omega0: float, fwhm_intensity: float) -> SpectralField:
    """Flat-phase Gaussian with the given spectral intensity FWHM [rad/s], unit energy."""
    if not fwhm_intensity > 0:  # NaN fails too
        raise ValueError("fwhm_intensity must be positive")
    w = grid.omegas
    amp = np.exp(-2 * _LN2 * ((w - omega0) / fwhm_intensity) ** 2).astype(complex)
    _check_support(amp, "gaussian_pulse")
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * grid.omega_step)
    return SpectralField(grid, amp, omega0)


def apply_transfer(field: SpectralField, transfer) -> SpectralField:
    """Pointwise product with a transfer function sampled on the same grid.

    `transfer` is any object with .grid and .values (complex per sample),
    or a bare array.
    """
    values = getattr(transfer, "values", None)
    if values is None:
        values = np.asarray(transfer, dtype=complex)
        if values.shape != (field.grid.n_samples,):
            raise GridMismatchError("transfer array length does not match field grid")
    else:
        _check_grids(field.grid, transfer.grid)
    return SpectralField(field.grid, field.amplitude * values, field.omega0)


def derivative_field_oracle(field: SpectralField, t_const: float) -> SpectralField:
    """Exact field-derivative objective: multiply by -i omega T1."""
    w = field.grid.omegas
    return SpectralField(field.grid, -1j * w * t_const * field.amplitude, field.omega0)


def replica_difference(field: SpectralField, tau: float) -> SpectralField:
    """Balanced interferometric difference of two replicas delayed by +-tau/2.

    (1/2)E(t+tau/2) - (1/2)E(t-tau/2); spectral factor -i sin(omega tau/2)
    under the global convention, which tends to -i omega tau/2 for small tau.
    """
    if not tau >= 0:
        raise ValueError("tau must be >= 0")
    w = field.grid.omegas
    return SpectralField(field.grid, -1j * np.sin(w * tau / 2) * field.amplitude, field.omega0)


def to_time(field: SpectralField) -> TimeTrace:
    """Transform to a centered time window of length 2pi/omega_step."""
    n = field.grid.n_samples
    dt = field.grid.time_step
    t_start = -(n // 2) * dt
    k = np.arange(n)
    pre = field.amplitude * np.exp(-1j * k * field.grid.omega_step * t_start)
    spec = np.fft.fft(pre)
    t = t_start + dt * k
    amp = field.grid.omega_step / (2 * np.pi) * np.exp(-1j * field.grid.omega_start * t) * spec
    return TimeTrace(n, t_start, dt, amp)


def to_frequency(trace: TimeTrace, grid: SpectralGrid, omega0: float) -> SpectralField:
    """Inverse of to_time for a trace produced on (or consistent with) `grid`."""
    if trace.n_samples != grid.n_samples:
        raise GridMismatchError("trace length does not match grid")
    j = np.arange(trace.n_samples)
    pre = trace.amplitude * np.exp(1j * grid.omega_start * j * trace.t_step)
    spec = np.fft.ifft(pre) * trace.n_samples * trace.t_step
    amp = spec * np.exp(1j * grid.omegas * trace.t_start)
    return SpectralField(grid, amp, omega0)


def write_field_csv(field: SpectralField, path):
    """CSV with columns `omega_rad_per_s,re,im` and omega0/grid metadata lines."""
    write_table(path, [meta_line("omega0", field.omega0), field.grid.metadata_line()],
                ["omega_rad_per_s", "re", "im"],
                [field.grid.omegas, field.amplitude.real, field.amplitude.imag])


def read_field_csv(path) -> SpectralField:
    meta, data = read_table(path, ("omega0", "grid"), ("re", "im"))
    return SpectralField(SpectralGrid.from_metadata(meta), data["re"] + 1j * data["im"],
                         float(meta["omega0"]))
