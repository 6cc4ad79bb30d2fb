"""Spectral pulse representation, test-pulse synthesis, and transforms.

Fields live on a uniform angular-frequency grid.  The global sign convention
is E(t) = (1/2pi) integral E(omega) exp(-i omega t) domega, so a spectral
factor exp(+i omega tau) delays a pulse by tau and the time-derivative filter
is -i omega T.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._cache import cached
from .errors import BsbShaperError, GridMismatchError, SupportLeakError
from .io import Cells, format_cells, meta_line, meta_values, read_table, write_table

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

    def samples(self, values, dtype, what: str) -> np.ndarray:
        """`values` as a `dtype` array holding one finite value per grid sample (every record)."""
        a = np.asarray(values, dtype=dtype)
        if a.shape != (self.n_samples,):
            raise GridMismatchError(f"{what}: lengths do not match grid (shape {a.shape}, "
                                    f"{self.n_samples} samples)")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{what} must be finite")
        return a


@cached
def _frequency_cells(*fields) -> Cells:
    """The frequency cells of `SpectralGrid(*fields)`; int fields give int64 `omegas`."""
    return format_cells(SpectralGrid(*fields).omegas)


def write_grid_table(path, grid: SpectralGrid, header_lines, names, columns):
    """`header_lines`, the `# grid=` line, then `omega_rad_per_s` and the named columns."""
    write_table(path, [*header_lines, meta_line("grid", *astuple(grid))],
                ["omega_rad_per_s", *names], [_frequency_cells(*astuple(grid)), *columns])


def read_grid_table(path, keys=(), names=()) -> tuple[SpectralGrid, dict, dict]:
    """(grid, the metadata `keys` as floats, every column but `omega_rad_per_s`) of a table
    `write_grid_table` wrote; each frequency cell must hold the grid's value, as a float.

    Metadata values parse by the cell rule, the sample count as ASCII digits only.
    """
    meta, data = read_table(path, ("grid", *keys), ("omega_rad_per_s", *names))
    values = {}
    for key, types in [("grid", (int, float, float)), *((key, (float,)) for key in keys)]:
        try:
            values[key] = meta_values(meta[key], types)
        except ValueError:
            raise ValueError(f"{path}: # {key}= needs {' '.join(t.__name__ for t in types)}, "
                             f"got {meta[key]!r}") from None
    grid = SpectralGrid(*values.pop("grid"))
    omegas = grid.samples(data.pop("omega_rad_per_s"), float, f"{path}: omega_rad_per_s")
    if not np.array_equal(omegas, grid.omegas):
        raise GridMismatchError(f"{path}: omega_rad_per_s contradicts the # grid= line")
    return grid, {key: value for key, (value,) in values.items()}, data


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
    """A complex trace sampled at t_start + t_step k, one sample per amplitude value."""

    t_start: float  # s
    t_step: float  # s
    amplitude: np.ndarray  # complex

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.t_step * np.arange(len(self.amplitude))


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
    energy = np.sum(np.abs(amp) ** 2) * grid.omega_step
    if not energy > 0:
        raise ValueError(f"fwhm_intensity {fwhm_intensity:.3g} rad/s puts no energy on a grid "
                         f"of step {grid.omega_step:.3g} rad/s")
    leak = edge_leak_fraction(amp)
    if leak > EDGE_LEAK_FRACTION:
        raise SupportLeakError(f"gaussian_pulse: edge-energy fraction {leak:.3g} exceeds "
                               f"{EDGE_LEAK_FRACTION:.0e}; enlarge the grid span")
    amp /= np.sqrt(energy)
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


class _Chirps(NamedTuple):
    time_pre: np.ndarray  # to_time: exp(-i k omega_step t_start), before the FFT
    time_post: np.ndarray  # to_time: omega_step / 2pi exp(-i omega_start t), after it
    frequency_pre: np.ndarray  # to_frequency: exp(i omega_start j t_step), before the IFFT
    frequency_post: np.ndarray  # to_frequency: exp(i omega t_start), after it


@cached
def _chirps(n_samples, omega_start, omega_step, t_step, t_start) -> _Chirps:
    """The grid-only factors of `to_time` and `to_frequency` for the grid of these fields and a
    trace sampled at `t_start + t_step * k`."""
    grid = SpectralGrid(n_samples, omega_start, omega_step)
    k = np.arange(n_samples)
    t = t_start + t_step * k
    return _Chirps(np.exp(-1j * k * omega_step * t_start),
                   omega_step / (2 * np.pi) * np.exp(-1j * omega_start * t),
                   np.exp(1j * omega_start * k * t_step),
                   np.exp(1j * grid.omegas * t_start))


# numpy's NPY_MIN_ELIDE_BYTES: from this size `a * np.exp(z)` reuses the temporary exp(z)
# in place, as exp(z) *= a
_ELIDE_BYTES = 1 << 18


def _times_chirp(a: np.ndarray, chirp: np.ndarray) -> np.ndarray:
    """`a * chirp` as `a * np.exp(z)` rounds it: complex products round differently by operand
    order under FMA, and numpy multiplies exp(z) first from _ELIDE_BYTES on, `a` first below."""
    return chirp * a if a.nbytes >= _ELIDE_BYTES else a * chirp


def to_time(field: SpectralField) -> TimeTrace:
    """Transform to a centered time window of length 2pi/omega_step."""
    grid = field.grid
    dt = grid.time_step
    t_start = -(grid.n_samples // 2) * dt
    chirps = _chirps(*astuple(grid), dt, t_start)
    spec = np.fft.fft(_times_chirp(field.amplitude, chirps.time_pre))
    # chirp first at every size, as in (omega_step / 2pi exp(z)) * spec, whose left operand
    # is the temporary
    return TimeTrace(t_start, dt, chirps.time_post * spec)


def to_frequency(trace: TimeTrace, grid: SpectralGrid, omega0: float) -> SpectralField:
    """Inverse of to_time for a trace produced on (or consistent with) `grid`."""
    amplitude = grid.samples(trace.amplitude, complex, "time trace")
    chirps = _chirps(*astuple(grid), trace.t_step, trace.t_start)
    pre = _times_chirp(amplitude, chirps.frequency_pre)
    spec = np.fft.ifft(pre) * grid.n_samples * trace.t_step
    return SpectralField(grid, _times_chirp(spec, chirps.frequency_post), omega0)


def write_field_csv(field: SpectralField, path):
    """The field table: columns `re` and `im` on the grid, after an `# omega0=` line."""
    write_grid_table(path, field.grid, [meta_line("omega0", field.omega0)], ["re", "im"],
                     [field.amplitude.real, field.amplitude.imag])


def read_field_csv(path) -> SpectralField:
    grid, values, data = read_grid_table(path, ("omega0",), ("re", "im"))
    return SpectralField(grid, data["re"] + 1j * data["im"], values["omega0"])
