"""Tests for the channel-recurrence fast path.

The fast kernels replace one sincos per (pixel, visibility) with one sincos
pair per (pixel, timestep) plus per-channel complex multiplies — valid for
evenly spaced channels.  These tests pin exact agreement with the direct
kernels, at G=1, and the direct-sum fallback on uneven channel ladders.
"""

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.core.gridder import relative_uvw_wavelengths, subgrid_lmn, uniform_channel_step
from repro.kernels.spheroidal import spheroidal_taper
from tests.single_item import degrid_item, degrid_item_fast, grid_item, grid_item_fast

N = 12
IMAGE_SIZE = 0.08
T, C = 7, 8


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    lmn = subgrid_lmn(N, IMAGE_SIZE)
    taper = spheroidal_taper(N)
    uvw_m = rng.standard_normal((T, 3)) * 40.0
    freqs = 150e6 + 200e3 * np.arange(C)
    scales = freqs / SPEED_OF_LIGHT
    vis = (rng.standard_normal((T, C, 2, 2))
           + 1j * rng.standard_normal((T, C, 2, 2))).astype(np.complex64)
    offset = np.array([3.7, -1.2, 0.4])
    return lmn, taper, uvw_m, freqs, scales, vis, offset


def _relative(uvw_m, freqs, offset):
    return relative_uvw_wavelengths(uvw_m, freqs, offset[0], offset[1], offset[2])


def test_fast_gridder_matches_direct(setup):
    lmn, taper, uvw_m, freqs, scales, vis, offset = setup
    rel = _relative(uvw_m, freqs, offset)
    direct = grid_item(vis.reshape(-1, 2, 2), rel, lmn, taper)
    fast = grid_item_fast(vis, uvw_m, scales, offset, lmn, taper)
    np.testing.assert_allclose(fast, direct, rtol=2e-4, atol=2e-4)


def test_fast_gridder_with_aterms(setup):
    lmn, taper, uvw_m, freqs, scales, vis, offset = setup
    rng = np.random.default_rng(1)
    a_p = rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    a_q = rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    rel = _relative(uvw_m, freqs, offset)
    direct = grid_item(vis.reshape(-1, 2, 2), rel, lmn, taper, aterm_p=a_p, aterm_q=a_q)
    fast = grid_item_fast(vis, uvw_m, scales, offset, lmn, taper, aterm_p=a_p, aterm_q=a_q)
    np.testing.assert_allclose(fast, direct, rtol=1e-3, atol=1e-3)


def test_fast_degridder_matches_direct(setup):
    lmn, taper, uvw_m, freqs, scales, vis, offset = setup
    rng = np.random.default_rng(2)
    sub = (rng.standard_normal((N, N, 2, 2))
           + 1j * rng.standard_normal((N, N, 2, 2))).astype(np.complex64)
    rel = _relative(uvw_m, freqs, offset)
    direct = degrid_item(sub, rel, lmn, taper).reshape(T, C, 2, 2)
    fast = degrid_item_fast(sub, uvw_m, scales, offset, lmn, taper)
    np.testing.assert_allclose(fast, direct, rtol=2e-4, atol=2e-4)


def test_single_channel_works(setup):
    lmn, taper, uvw_m, freqs, scales, vis, offset = setup
    fast = grid_item_fast(
        vis[:, :1], uvw_m, scales[:1], offset, lmn, taper
    )
    rel = _relative(uvw_m, freqs[:1], offset)
    direct = grid_item(vis[:, :1].reshape(-1, 2, 2), rel, lmn, taper)
    np.testing.assert_allclose(fast, direct, rtol=2e-4, atol=2e-4)


def test_uneven_channels_rejected(setup):
    """The recurrence refuses an uneven ladder: no uniform step exists, so
    the drivers take the direct sum."""
    lmn, taper, uvw_m, freqs, scales, vis, offset = setup
    assert uniform_channel_step(freqs) == pytest.approx(scales[1] - scales[0])
    bad = freqs.copy()
    bad[3] *= 1.01
    assert uniform_channel_step(bad) is None
    assert uniform_channel_step(freqs[:1]) == 0.0


def test_pipeline_fast_matches_slow(small_obs, small_baselines, single_source_vis,
                                    small_gridspec, monkeypatch):
    """End to end: the direct sum (forced by reporting no uniform channel
    step) and the recurrence produce the same grid and predictions."""
    from repro.core.pipeline import IDG, IDGConfig
    from repro.imaging.image import model_image_to_grid
    from repro.parallel import bucketing

    idg = IDG(small_gridspec, IDGConfig(subgrid_size=24, kernel_support=8, time_max=16))
    plan = idg.make_plan(small_obs.uvw_m, small_obs.frequencies_hz, small_baselines)
    g = small_gridspec.grid_size
    model = np.ones((4, g, g), dtype=np.complex128) * 0.001
    mgrid = model_image_to_grid(model, small_gridspec)
    grid_fast = idg.grid(plan, small_obs.uvw_m, single_source_vis)
    pred_fast = idg.degrid(plan, small_obs.uvw_m, mgrid)
    monkeypatch.setattr(bucketing, "uniform_channel_step", lambda freqs: None)
    ran = []
    for name in ("gridder_bucket", "degridder_bucket"):
        def spy(*args, _name=name, _kernel=getattr(bucketing, name), **kwargs):
            ran.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(bucketing, name, spy)
    grid_slow = idg.grid(plan, small_obs.uvw_m, single_source_vis)
    pred_slow = idg.degrid(plan, small_obs.uvw_m, mgrid)

    assert set(ran) == {"gridder_bucket", "degridder_bucket"}
    scale = np.abs(grid_slow).max()
    assert np.abs(grid_fast - grid_slow).max() < 1e-5 * scale
    np.testing.assert_allclose(pred_fast, pred_slow, atol=1e-4)


def test_recurrence_drift_bounded():
    """The recurrence multiplies C-1 unit phasors; verify the accumulated
    float drift stays tiny even for many channels."""
    rng = np.random.default_rng(4)
    lmn = subgrid_lmn(8, 0.05)
    taper = spheroidal_taper(8)
    t, c = 3, 64
    uvw_m = rng.standard_normal((t, 3)) * 30.0
    freqs = 150e6 + 200e3 * np.arange(c)
    vis = (rng.standard_normal((t, c, 2, 2)) + 0j).astype(np.complex64)
    offset = np.zeros(3)
    rel = relative_uvw_wavelengths(uvw_m, freqs, 0.0, 0.0, 0.0)
    direct = grid_item(vis.reshape(-1, 2, 2), rel, lmn, taper)
    fast = grid_item_fast(vis, uvw_m, freqs / SPEED_OF_LIGHT, offset, lmn, taper)
    scale = np.abs(direct).max()
    assert np.abs(fast - direct).max() < 1e-4 * scale
