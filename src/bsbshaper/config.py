"""Run configuration: defaults, YAML loading, flag overrides, validation."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np
import yaml

from . import dispersion, shaper
from .errors import ConfigError
from .ftsi import DEFAULT_WINDOW_ORDER, FtsiWindow
from .pulsefield import SpectralField, SpectralGrid, gaussian_pulse


@dataclass(frozen=True)
class RunConfig:
    n_samples: int = 4096
    nu_start_thz: float = 150.0
    nu_end_thz: float = 600.0
    material: str = "quartz"
    material_b: str = "kdp"  # second material for achromat designs
    thickness_um: float | None = None  # None: derive from the mode's canonical design
    mode: str = "field"
    carrier_nm: float = 800.0
    fwhm_thz: float = 100.0  # spectral intensity FWHM of the test pulse
    tau_ftsi_fs: float = 1000.0
    window_order: int = DEFAULT_WINDOW_ORDER
    window_width_fs: float | None = None  # None: tau_ftsi / 3
    extra_phase_gdd_fs2: float = 200.0  # stand-in for delay-crystal dispersion
    outdir: str = "."

    @property
    def omega0(self) -> float:
        return 2 * np.pi * dispersion.C_LIGHT / (self.carrier_nm * 1e-9)

    def grid(self) -> SpectralGrid:
        span = 2 * np.pi * (self.nu_end_thz - self.nu_start_thz) * 1e12
        step = span / self.n_samples if self.n_samples else 0.0  # 0: SpectralGrid names the count
        return SpectralGrid(self.n_samples, 2 * np.pi * self.nu_start_thz * 1e12, step)

    def pulse(self) -> SpectralField:
        """The run's test pulse: a flat-phase Gaussian at the carrier on the run's grid."""
        return gaussian_pulse(self.grid(), self.omega0, 2 * np.pi * self.fwhm_thz * 1e12)

    def window(self) -> FtsiWindow:
        """The run's FTSI pseudo-time window."""
        width = self.window_width_fs
        return FtsiWindow(width=width * 1e-15 if width is not None else None,
                          order=self.window_order)

    def extra_phase(self, field: SpectralField) -> np.ndarray:
        """The run's delay-crystal dispersion phase, 0.5 GDD (omega - omega0)^2, on the field."""
        return 0.5 * self.extra_phase_gdd_fs2 * 1e-30 * (field.grid.omegas - field.omega0) ** 2


# The type each field takes from YAML and flags: float where the default is None.
FIELD_TYPES = {f.name: float if f.default is None else type(f.default) for f in fields(RunConfig)}


def load_config(path=None, overrides: dict | None = None, reads=None) -> RunConfig:
    """YAML config file plus overrides, which win; a key outside `reads` (None: all) is an error."""
    data = {}
    if path is not None:
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: expected a mapping of config keys")
        data.update(loaded)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; known: {sorted(known)}")
    unread = set(data) - set(known if reads is None else reads)
    if unread:
        raise ConfigError(f"config keys this action does not read: {sorted(unread)}")
    return validate_config(RunConfig(**data))


def _fits(value, kind: type, optional: bool) -> bool:
    """Whether a value has a field's type unconverted: an int fits a float field, a bool none."""
    if value is None:
        return optional
    accepted = (int, float) if kind is float else kind
    return not isinstance(value, bool) and isinstance(value, accepted)


def validate_config(config: RunConfig) -> RunConfig:
    """Check each type, then build the run's grid, window, materials and plate, which own
    their rules; raises ConfigError listing every problem under the fields it came from."""
    problems = []
    for f in fields(config):
        value, kind = getattr(config, f.name), FIELD_TYPES[f.name]
        if not _fits(value, kind, f.default is None):
            problems.append(f"{f.name} must be {kind.__name__}"
                            f"{' or null' if f.default is None else ''}, got {value!r}")
    if problems:  # the checks below assume the types
        raise ConfigError("; ".join(problems))

    def build(names, make):
        try:
            return make()
        except (ValueError, KeyError) as exc:
            problems.append(f"{names}: {exc}")

    build("grid (n_samples, nu_start_thz, nu_end_thz)", config.grid)
    build("window (window_order, window_width_fs)", config.window)
    material = build("material", lambda: dispersion.get_material(config.material))
    build("material_b", lambda: dispersion.get_material(config.material_b))
    if material is not None and config.thickness_um is not None:
        build("thickness_um", lambda: shaper.Compensator(material, config.thickness_um * 1e-6))
    if config.mode not in shaper.MODES:
        problems.append(f"mode must be one of {shaper.MODES}, got {config.mode!r}")
    # each comparison is written so that NaN fails it
    for name in ("carrier_nm", "fwhm_thz", "tau_ftsi_fs"):
        if not 0 < getattr(config, name) < np.inf:
            problems.append(f"{name} must be positive and finite")
    if not abs(config.extra_phase_gdd_fs2) < float("inf"):
        problems.append("extra_phase_gdd_fs2 must be finite")
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def config_header(config: RunConfig) -> str:
    """Comment block recording the normalized config, for output provenance."""
    lines = [f"# config.{k}={v!r}" for k, v in sorted(asdict(config).items())]
    return "\n".join(lines) + "\n"
