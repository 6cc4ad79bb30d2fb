import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsbshaper import _cache, dispersion
from bsbshaper.dispersion import (Material, SellmeierModel, contrast,
                                  get_material, group_index, load_materials,
                                  refractive_index)
from bsbshaper.errors import DegenerateMaterialError, WavelengthRangeError
from bsbshaper.pulsefield import default_grid
from conftest import clear_caches, held_after


def test_quartz_indices_at_800nm(quartz):
    # frozen against independent evaluation of the published coefficients
    assert refractive_index(quartz.ordinary, 0.8) == pytest.approx(1.5384, abs=2e-4)
    assert refractive_index(quartz.extraordinary, 0.8) == pytest.approx(1.5473, abs=2e-4)


def test_quartz_birefringence_at_800nm(quartz, omega0):
    assert float(contrast(quartz, omega0).delta_n) == pytest.approx(8.894e-3, rel=1e-3)
    assert float(contrast(quartz, omega0).delta_n_group) == pytest.approx(9.469e-3, rel=1e-3)


def test_delta_k_consistent_with_delta_n(quartz, omega0):
    dk = float(contrast(quartz, omega0).delta_k)
    assert dk == pytest.approx(float(contrast(quartz, omega0).delta_n) * omega0
                               / dispersion.C_LIGHT, rel=1e-14)


def test_delta_k_prime_is_group_contrast_over_c(quartz, omega0):
    assert float(contrast(quartz, omega0).delta_k_prime) == pytest.approx(
        float(contrast(quartz, omega0).delta_n_group) / dispersion.C_LIGHT, rel=1e-14)


def test_omega1_quartz(quartz, omega0):
    w1 = contrast(quartz, omega0).omega1
    assert w1 / omega0 == pytest.approx(0.0607, abs=5e-4)
    # ordinary frequency, not angular
    assert w1 / (2 * np.pi) == pytest.approx(22.7e12, rel=0.01)


def test_group_index_matches_finite_difference_all_materials():
    wls = np.linspace(0.6, 1.0, 41)
    h = 1e-5  # um
    for name, material in load_materials().items():
        for model in (material.ordinary, material.extraordinary):
            ng = group_index(model, wls)
            dn = (refractive_index(model, wls + h) - refractive_index(model, wls - h)) / (2 * h)
            ng_fd = refractive_index(model, wls) - wls * dn
            assert np.max(np.abs(ng - ng_fd) / np.abs(ng_fd)) < 1e-6, name


def test_wavelength_range_enforced(quartz):
    with pytest.raises(WavelengthRangeError):
        refractive_index(quartz.ordinary, 0.1)
    with pytest.raises(WavelengthRangeError):
        group_index(quartz.ordinary, np.array([0.8, 3.0]))


def test_pole_inside_validity_window_rejected():
    with pytest.raises(ValueError):
        SellmeierModel(1.0, ((0.5, 1.0),), (0.5, 2.0), label="bad")


def test_degenerate_material_has_no_omega1(quartz, omega0):
    iso = Material("iso", quartz.ordinary, quartz.ordinary)
    with pytest.raises(DegenerateMaterialError):
        contrast(iso, omega0).omega1


def test_get_material_unknown_name_lists_choices():
    with pytest.raises(KeyError, match="quartz"):
        get_material("sapphire")


def test_bundled_database_has_expected_entries():
    materials = load_materials()
    assert {"quartz", "kdp", "yvo4"} <= set(materials)
    for m in materials.values():
        assert m.citation


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.25, max_value=1.7))
def test_kdp_indices_physical_over_validity_window(wl):
    kdp = get_material("kdp")
    n_o = float(refractive_index(kdp.ordinary, wl))
    n_e = float(refractive_index(kdp.extraordinary, wl))
    assert 1.0 < n_e < n_o < 2.0  # negative uniaxial
    assert float(group_index(kdp.ordinary, wl)) > 1.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.25, max_value=2.0))
def test_quartz_positive_uniaxial(wl):
    quartz = get_material("quartz")
    assert float(contrast(quartz, 2 * np.pi * dispersion.C_LIGHT / (wl * 1e-6)).delta_n) > 0


@pytest.mark.parametrize("wl", [float("nan"), np.array([0.8, np.nan])])
def test_nan_wavelength_rejected(quartz, wl):
    with pytest.raises(WavelengthRangeError):
        refractive_index(quartz.ordinary, wl)


@pytest.mark.parametrize("omega", [2 * np.pi * dispersion.C_LIGHT / 800e-9,
                                   default_grid().omegas], ids=["carrier", "grid"])
def test_contrast_is_bit_equal_to_the_inline_formulas(quartz, omega):
    w = np.asarray(omega, dtype=float)
    wl = 2 * np.pi * dispersion.C_LIGHT / w * 1e6
    n_o = refractive_index(quartz.ordinary, wl)
    n_e = refractive_index(quartz.extraordinary, wl)
    ng_o = group_index(quartz.ordinary, wl)
    ng_e = group_index(quartz.extraordinary, wl)
    c = contrast(quartz, omega)
    for got, want in [(c.n_o, n_o), (c.n_e, n_e), (c.n_g_o, ng_o), (c.n_g_e, ng_e),
                      (c.delta_n, n_e - n_o), (c.delta_n_group, ng_e - ng_o),
                      (c.delta_k, (n_e - n_o) * w / dispersion.C_LIGHT),
                      (c.delta_k_prime, (ng_e - ng_o) / dispersion.C_LIGHT)]:
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)
    if w.ndim == 0:
        dng = float(ng_e - ng_o)
        assert type(c.omega1) is float
        assert c.omega1 == omega * (dng - float(n_e - n_o)) / dng


CARRIER = 2 * np.pi * dispersion.C_LIGHT / 800e-9
CONTRAST_FIELDS = ("omega", "wl_um", "n_o", "n_e", "n_g_o", "n_g_e", "delta_n", "delta_n_group",
                   "delta_k", "delta_k_prime", "omega1")


@pytest.mark.parametrize("omega", [CARRIER, np.float64(CARRIER), np.asarray(CARRIER)],
                         ids=["float", "float64", "0-d"])
def test_cached_contrast_is_bit_and_type_equal_to_a_fresh_one(quartz, omega):
    fresh = dispersion._evaluate(quartz, omega)
    dispersion._carrier_contrast.cache_clear()
    first, second = contrast(quartz, omega), contrast(quartz, omega)  # a miss, then a hit
    assert (first is second) == (not isinstance(omega, np.ndarray))  # arrays are not cached
    for c in (first, second):
        for name in CONTRAST_FIELDS:
            got, want = getattr(c, name), getattr(fresh, name)
            assert type(got) is type(want), name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def test_carrier_cache_keeps_float_and_float64_apart(quartz):
    dispersion._carrier_contrast.cache_clear()
    assert type(contrast(quartz, CARRIER).omega1) is float
    assert type(contrast(quartz, np.float64(CARRIER)).omega1) is np.float64


def test_cached_contrast_is_complete_before_it_is_shared(quartz):
    dispersion._carrier_contrast.cache_clear()
    assert {"n_g_o", "n_g_e"} <= vars(contrast(quartz, CARRIER)).keys()


def test_carrier_contrasts_are_bounded_by_the_budget(quartz, monkeypatch):
    """Each entry is charged a fixed sum besides its arrays, of which a carrier Contrast has
    none, so 10^4 carriers (about 6 MB of Contrasts) stay within a budget of 1 MiB."""
    carriers = (CARRIER * (1 + np.linspace(0, 0.1, 10**4))).tolist()
    clear_caches()
    monkeypatch.setattr(_cache, "CACHE_BYTES", 1 << 20)

    def run():
        for omega in carriers:
            contrast(quartz, omega)

    assert held_after(run) <= _cache.CACHE_BYTES
    info = dispersion._carrier_contrast.cache_info()
    assert (info.misses, info.currsize) == (10**4, _cache.CACHE_BYTES // _cache._ENTRY_BYTES)


@pytest.mark.parametrize("omega", [float("nan"), np.float64("nan"),
                                   2 * np.pi * dispersion.C_LIGHT / 5e-6],
                         ids=["nan", "float64-nan", "5um"])
def test_carrier_outside_the_validity_window_raises_on_every_call(quartz, omega):
    for _ in range(3):  # the error is not cached
        with pytest.raises(WavelengthRangeError):
            contrast(quartz, omega)
