"""Wide-band regression for the channel-recurrence fast path.

At hundreds of channels the recurrence multiplies hundreds of unit phasors
together, so its rounding error compounds multiplicatively; the fast kernels
renormalise the phasor magnitude every
:data:`repro.core.gridder.PHASOR_RENORM_INTERVAL` channel steps to keep the
drift at single-precision levels.  These tests pin fast-vs-direct agreement
of the bucketed kernels (at G=1) at 512 channels — eight renormalisation
intervals deep.
"""

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.core.gridder import PHASOR_RENORM_INTERVAL, relative_uvw_wavelengths, subgrid_lmn
from repro.kernels.spheroidal import spheroidal_taper
from tests.single_item import degrid_item, degrid_item_fast, grid_item, grid_item_fast

N = 10
IMAGE_SIZE = 0.06
T, C = 3, 512


def _setup():
    rng = np.random.default_rng(7)
    lmn = subgrid_lmn(N, IMAGE_SIZE)
    taper = spheroidal_taper(N)
    uvw_m = rng.standard_normal((T, 3)) * 50.0
    freqs = 120e6 + 150e3 * np.arange(C)
    vis = (
        rng.standard_normal((T, C, 2, 2)) + 1j * rng.standard_normal((T, C, 2, 2))
    ).astype(np.complex64)
    offset = np.array([2.1, -0.8, 0.3])
    return lmn, taper, uvw_m, freqs, vis, offset


def test_wideband_spans_several_renorm_intervals():
    assert C >= 8 * PHASOR_RENORM_INTERVAL


def test_wideband_gridder_fast_matches_direct():
    lmn, taper, uvw_m, freqs, vis, offset = _setup()
    rel = relative_uvw_wavelengths(uvw_m, freqs, offset[0], offset[1], offset[2])
    direct = grid_item(vis.reshape(-1, 2, 2), rel, lmn, taper)
    fast = grid_item_fast(
        vis, uvw_m, freqs / SPEED_OF_LIGHT, offset, lmn, taper
    )
    scale = np.abs(direct).max()
    assert np.abs(fast - direct).max() < 1e-5 * scale


def test_wideband_degridder_fast_matches_direct():
    lmn, taper, uvw_m, freqs, vis, offset = _setup()
    rng = np.random.default_rng(8)
    sub = (
        rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    ).astype(np.complex64)
    rel = relative_uvw_wavelengths(uvw_m, freqs, offset[0], offset[1], offset[2])
    direct = degrid_item(sub, rel, lmn, taper).reshape(T, C, 2, 2)
    fast = degrid_item_fast(
        sub, uvw_m, freqs / SPEED_OF_LIGHT, offset, lmn, taper
    )
    scale = np.abs(direct).max()
    assert np.abs(fast - direct).max() < 1e-5 * scale


def test_renorm_interval_boundary_exact():
    """Channel counts at and just past the renormalisation interval agree
    with the direct kernel — the modulo boundary must not skip or double a
    channel's contribution."""
    lmn, taper, uvw_m, freqs, vis, offset = _setup()
    for c in (PHASOR_RENORM_INTERVAL, PHASOR_RENORM_INTERVAL + 1):
        rel = relative_uvw_wavelengths(
            uvw_m, freqs[:c], offset[0], offset[1], offset[2]
        )
        direct = grid_item(vis[:, :c].reshape(-1, 2, 2), rel, lmn, taper)
        fast = grid_item_fast(
            vis[:, :c], uvw_m, freqs[:c] / SPEED_OF_LIGHT, offset, lmn, taper
        )
        scale = np.abs(direct).max()
        assert np.abs(fast - direct).max() < 1e-5 * scale
