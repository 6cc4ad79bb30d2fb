import gc
import tracemalloc

import numpy as np
import pytest

from bsbshaper import dispersion, figures, pulsefield, shaper
from bsbshaper.pulsefield import SpectralField, default_grid, gaussian_pulse

OMEGA0_800 = 2 * np.pi * dispersion.C_LIGHT / 800e-9


def two_peak_field(grid):
    """Gaussians at 250 and 500 THz, 30 THz wide: two bands with a dark gap between them."""
    amp = sum(gaussian_pulse(grid, 2 * np.pi * nu, 2 * np.pi * 30e12).amplitude
              for nu in (250e12, 500e12))
    return SpectralField(grid, amp, 2 * np.pi * 250e12)


def peak_above_start(run) -> int:
    """Bytes that run() holds at its peak above what was live when it started (tracemalloc)."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def held_after(run) -> int:
    """Bytes that run() leaves live, after a garbage collection, above what was live when it
    started (tracemalloc)."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        run()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - start
    finally:
        if not tracing:
            tracemalloc.stop()


CACHES = (dispersion._carrier_contrast, shaper._wavevectors, pulsefield._frequency_cells,
          pulsefield._chirps, figures._reference)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(scope="session")
def quartz():
    return dispersion.get_material("quartz")


@pytest.fixture(scope="session")
def kdp():
    return dispersion.get_material("kdp")


@pytest.fixture(scope="session")
def omega0():
    return OMEGA0_800


@pytest.fixture(scope="session")
def grid():
    return default_grid()


@pytest.fixture(scope="session")
def pulse100(grid):
    # 100 THz intensity-FWHM Gaussian at 800 nm, the standard test pulse
    return gaussian_pulse(grid, OMEGA0_800, 2 * np.pi * 100e12)
