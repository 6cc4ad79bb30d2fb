"""Sellmeier dispersion models for uniaxial birefringent crystals.

Provides phase index, group index and `contrast`, the one query of a crystal
at a frequency: the wavevector difference between the extraordinary and
ordinary axes, its frequency derivative, and the characteristic frequency
where the linearized birefringent response crosses zero.  Wavelengths in the
coefficient data are in micrometers; every public operation takes SI
arguments (rad/s) unless noted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from numbers import Real

import numpy as np
import yaml

from ._cache import cached
from .errors import DegenerateMaterialError, WavelengthRangeError

C_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class SellmeierModel:
    """n^2(lambda) = A + sum_i B_i lambda^2 / (lambda^2 - C_i), lambda in um."""

    constant_a: float
    terms: tuple[tuple[float, float], ...]  # (B_i, C_i[um^2]) pairs
    valid_range_um: tuple[float, float]
    label: str = ""

    def __post_init__(self):
        lo, hi = self.valid_range_um
        if not (0 < lo < hi):
            raise ValueError(f"bad validity window for {self.label!r}: {self.valid_range_um}")
        for _, c in self.terms:
            if lo**2 <= c <= hi**2:
                raise ValueError(
                    f"Sellmeier pole at {np.sqrt(c):.4g} um inside validity window of {self.label!r}"
                )

    def check_range(self, wl_um):
        lo, hi = self.valid_range_um
        wl = np.asarray(wl_um)
        if not (np.all(wl >= lo) and np.all(wl <= hi)):  # written so that NaN fails it
            bad = wl[~((wl >= lo) & (wl <= hi))]
            raise WavelengthRangeError(
                f"wavelength {np.min(bad):.4g}-{np.max(bad):.4g} um outside "
                f"[{lo}, {hi}] um validity of model {self.label!r}"
            )


@dataclass(frozen=True)
class Material:
    """Named uniaxial crystal with ordinary and extraordinary axis models."""

    name: str
    ordinary: SellmeierModel
    extraordinary: SellmeierModel
    citation: str = ""


def refractive_index(model: SellmeierModel, wl_um) -> np.ndarray | float:
    """Phase index n(lambda) from the Sellmeier form; lambda in um."""
    model.check_range(wl_um)
    s = np.asarray(wl_um, dtype=float) ** 2
    n2 = model.constant_a + sum(b * s / (s - c) for b, c in model.terms)
    return np.sqrt(n2)


def _group_from_phase(model: SellmeierModel, n, wl_um):
    """n_g = n - lambda dn/dlambda of one axis from its phase index n, without re-evaluating it."""
    s = np.asarray(wl_um, dtype=float) ** 2
    # d(n^2)/dl = -2 l sum B C/(s-C)^2, so n_g = n + (s/n) sum B C/(s-C)^2
    correction = sum(b * c / (s - c) ** 2 for b, c in model.terms)
    return n + s * correction / n


def group_index(model: SellmeierModel, wl_um) -> np.ndarray | float:
    """Group index n_g = n - lambda dn/dlambda, analytic derivative."""
    return _group_from_phase(model, refractive_index(model, wl_um), wl_um)


@dataclass(frozen=True, eq=False)
class Contrast:
    """A uniaxial crystal at angular frequency omega [rad/s]; build it with `contrast`.

    Holds one phase-index evaluation per axis.  The group indices derive from
    those same values, on first use.
    """

    material: Material
    omega: float | np.ndarray  # rad/s, as given
    wl_um: float | np.ndarray
    n_o: float | np.ndarray
    n_e: float | np.ndarray

    @cached_property
    def n_g_o(self):
        return _group_from_phase(self.material.ordinary, self.n_o, self.wl_um)

    @cached_property
    def n_g_e(self):
        return _group_from_phase(self.material.extraordinary, self.n_e, self.wl_um)

    @property
    def delta_n(self):
        """n_e - n_o."""
        return self.n_e - self.n_o

    @property
    def delta_n_group(self):
        """n_g,e - n_g,o."""
        return self.n_g_e - self.n_g_o

    @property
    def delta_k(self):
        """Wavevector difference k_e - k_o [rad/m]."""
        return self.delta_n * self.omega / C_LIGHT

    @property
    def delta_k_prime(self):
        """Frequency derivative of delta_k [s/m]: group-delay difference per length."""
        return self.delta_n_group / C_LIGHT

    @property
    def omega1(self) -> float:
        """Zero crossing of the linearized birefringent response [rad/s], for a scalar omega.

        omega1 = omega - delta_k/delta_k' at omega; equals zero for a
        dispersionless material (pure time shift).
        """
        dng = float(self.delta_n_group)
        if dng == 0.0:
            raise DegenerateMaterialError(
                f"material {self.material.name!r} has zero group-index contrast at the carrier"
            )
        return self.omega * (dng - float(self.delta_n)) / dng


def contrast(material: Material, omega) -> Contrast:
    """The material's two axes at omega [rad/s]: one Sellmeier evaluation per axis.

    A scalar omega is answered from a cache (`_carrier_contrast`); an array, 0-d
    included, is evaluated afresh.
    """
    if isinstance(omega, Real):
        return _carrier_contrast(material, omega)
    return _evaluate(material, omega)


def _evaluate(material: Material, omega) -> Contrast:
    wl = 2 * np.pi * C_LIGHT / np.asarray(omega, dtype=float) * 1e6
    return Contrast(material, omega, wl, refractive_index(material.ordinary, wl),
                    refractive_index(material.extraordinary, wl))


@cached
def _carrier_contrast(material: Material, omega: float) -> Contrast:
    """The Contrast at a scalar omega.  Its group indices are evaluated before it is shared, so
    no caller mutates it."""
    c = _evaluate(material, omega)
    c.n_g_o, c.n_g_e  # fills both cached properties now
    return c


def _axis_model(name, axis, data, valid_range_um) -> SellmeierModel:
    return SellmeierModel(
        constant_a=float(data["A"]),
        terms=tuple((float(b), float(c)) for b, c in data["terms"]),
        valid_range_um=valid_range_um,
        label=f"{name}:{axis}",
    )


def load_materials() -> dict[str, Material]:
    """Load the bundled material database."""
    raw = yaml.safe_load(resources.files("bsbshaper.data").joinpath("materials.yaml").read_text())
    raw.pop("version", None)
    materials = {}
    for name, entry in raw.items():
        rng = tuple(float(v) for v in entry["valid_range_um"])
        materials[name] = Material(
            name=name,
            ordinary=_axis_model(name, "o", entry["ordinary"], rng),
            extraordinary=_axis_model(name, "e", entry["extraordinary"], rng),
            citation=entry.get("citation", ""),
        )
    return materials


_materials: dict[str, Material] = {}


def get_material(name: str) -> Material:
    """Bundled material by name (loaded once); raises KeyError with the known names."""
    if not _materials:
        _materials.update(load_materials())
    try:
        return _materials[name]
    except KeyError:
        raise KeyError(f"unknown material {name!r}; available: {sorted(_materials)}") from None
