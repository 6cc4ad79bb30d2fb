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
    def from_table(cls, path, metadata: dict, omegas: np.ndarray) -> SpectralGrid:
        """The grid of a table's `# grid=` line, which each of its `omegas` rows must match."""
        n, start, step = metadata["grid"].split()
        grid = cls(int(n), float(start), float(step))
        # a short column passes here, to fail the record's own length check
        if not np.array_equal(omegas, grid.omegas[:len(omegas)]):
            raise GridMismatchError(f"{path}: omega_rad_per_s contradicts the # grid= line")
        return grid

    def samples(self, values, dtype, what: str) -> np.ndarray:
        """`values` as a `dtype` array holding one finite value per grid sample (every record)."""
        a = np.asarray(values, dtype=dtype)
        if a.shape != (self.n_samples,):
            raise GridMismatchError(f"{what}: lengths do not match grid (shape {a.shape}, "
                                    f"{self.n_samples} samples)")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{what} must be finite")
        return a


def common_grid(a, b) -> SpectralGrid:
    """The grid that records `a` and `b` share; records on different grids raise."""
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    return a.grid


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
        amp = self.grid.samples(self.amplitude, complex, "amplitude")
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


def gaussian_pulse(grid: SpectralGrid, omega0: float, fwhm_intensity: float) -> SpectralField:
    """Flat-phase Gaussian with the given spectral intensity FWHM [rad/s], unit energy."""
    if not fwhm_intensity > 0:  # NaN fails too
        raise ValueError("fwhm_intensity must be positive")
    w = grid.omegas
    amp = np.exp(-2 * _LN2 * ((w - omega0) / fwhm_intensity) ** 2).astype(complex)
    leak = edge_leak_fraction(amp)
    if leak > EDGE_LEAK_FRACTION:
        raise SupportLeakError(f"gaussian_pulse: edge-energy fraction {leak:.3g} exceeds "
                               f"{EDGE_LEAK_FRACTION:.0e}; enlarge the grid span")
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * grid.omega_step)
    return SpectralField(grid, amp, omega0)


def apply_transfer(field: SpectralField, transfer) -> SpectralField:
    """Pointwise product with a transfer function sampled on the same grid.

    `transfer` is any object with .grid and .values (complex per sample),
    or a bare array.
    """
    values = getattr(transfer, "values", None)
    if values is None:
        values = field.grid.samples(transfer, complex, "transfer array")
    else:
        common_grid(field, transfer)
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
    if not 0 <= tau < np.inf:  # NaN fails too
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
    j = np.arange(grid.n_samples)
    pre = grid.samples(trace.amplitude, complex, "time trace") \
        * np.exp(1j * grid.omega_start * j * trace.t_step)
    spec = np.fft.ifft(pre) * grid.n_samples * trace.t_step
    amp = spec * np.exp(1j * grid.omegas * trace.t_start)
    return SpectralField(grid, amp, omega0)


def write_field_csv(field: SpectralField, path):
    """CSV with columns `omega_rad_per_s,re,im` and omega0/grid metadata lines."""
    write_table(path, [meta_line("omega0", field.omega0), field.grid.metadata_line()],
                ["omega_rad_per_s", "re", "im"],
                [field.grid, field.amplitude.real, field.amplitude.imag])


def read_field_csv(path) -> SpectralField:
    meta, data = read_table(path, ("omega0", "grid"), ("omega_rad_per_s", "re", "im"))
    return SpectralField(SpectralGrid.from_table(path, meta, data["omega_rad_per_s"]),
                         data["re"] + 1j * data["im"], float(meta["omega0"]))
