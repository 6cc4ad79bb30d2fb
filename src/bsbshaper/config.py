"""Run configuration: defaults, YAML loading, flag overrides, validation."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import yaml

from . import dispersion, shaper
from .errors import ConfigError
from .ftsi import FtsiWindow
from .pulsefield import SpectralField, SpectralGrid, gaussian_pulse

MODES = shaper.MODES


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
    window_order: int = 6
    window_width_fs: float | None = None  # None: tau_ftsi / 3
    extra_phase_gdd_fs2: float = 200.0  # stand-in for delay-crystal dispersion
    outdir: str = "."

    @property
    def omega0(self) -> float:
        return 2 * np.pi * dispersion.C_LIGHT / (self.carrier_nm * 1e-9)

    def grid(self) -> SpectralGrid:
        step = 2 * np.pi * (self.nu_end_thz - self.nu_start_thz) * 1e12 / self.n_samples
        return SpectralGrid(self.n_samples, 2 * np.pi * self.nu_start_thz * 1e12, step)

    def pulse(self) -> SpectralField:
        """The run's test pulse: a flat-phase Gaussian at the carrier on the run's grid."""
        return gaussian_pulse(self.grid(), self.omega0, 2 * np.pi * self.fwhm_thz * 1e12)

    def window(self) -> FtsiWindow:
        """The run's FTSI pseudo-time window."""
        return FtsiWindow(width=self.window_width_fs * 1e-15 if self.window_width_fs else None,
                          order=self.window_order)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Config file (YAML key-value) plus overrides; overrides win."""
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
    return validate_config(RunConfig(**data))


def validate_config(config: RunConfig) -> RunConfig:
    """Normalize and check; raises ConfigError listing every problem found."""
    problems = []
    n = config.n_samples
    if n < 2 or n & (n - 1):
        problems.append(f"n_samples must be a power of two, got {n}")
    if not 0 < config.nu_start_thz < config.nu_end_thz:
        problems.append("need 0 < nu_start_thz < nu_end_thz")
    try:
        dispersion.get_material(config.material)
    except KeyError as exc:
        problems.append(str(exc))
    try:
        dispersion.get_material(config.material_b)
    except KeyError as exc:
        problems.append(str(exc))
    if config.mode not in MODES:
        problems.append(f"mode must be one of {MODES}, got {config.mode!r}")
    # each comparison is written so that NaN fails it
    if config.thickness_um is not None and \
            not abs(config.thickness_um) * 1e-6 <= shaper.MAX_THICKNESS:
        problems.append(
            f"|thickness| {config.thickness_um} um exceeds the "
            f"{shaper.MAX_THICKNESS * 1e6:.0f} um bound"
        )
    if not config.carrier_nm > 0:
        problems.append("carrier_nm must be positive")
    if not config.fwhm_thz > 0:
        problems.append("fwhm_thz must be positive")
    if not config.tau_ftsi_fs > 0:
        problems.append("tau_ftsi_fs must be positive")
    if config.window_order < 2 or config.window_order % 2:
        problems.append("window_order must be an even integer >= 2")
    if config.window_width_fs is not None and not config.window_width_fs > 0:
        problems.append("window_width_fs must be positive")
    if not abs(config.extra_phase_gdd_fs2) < float("inf"):
        problems.append("extra_phase_gdd_fs2 must be finite")
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def config_header(config: RunConfig) -> str:
    """Comment block recording the normalized config, for output provenance."""
    lines = [f"# config.{k}={v!r}" for k, v in sorted(config.as_dict().items())]
    return "\n".join(lines) + "\n"
