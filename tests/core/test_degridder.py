"""Unit tests for the vectorised degridder kernel vs the literal Algorithm 2.

The direct-sum bucket kernels run at G=1 (one work item per call) except
where a test stacks several items on purpose.
"""

import numpy as np
import pytest

from repro.core.degridder import degridder_bucket
from repro.core.gridder import subgrid_lmn
from repro.core.reference import reference_degridder
from repro.core.scratch import ScratchArena
from repro.kernels.spheroidal import spheroidal_taper
from tests.single_item import degrid_item, grid_item, to_pol_major


N = 8
IMAGE_SIZE = 0.08


@pytest.fixture(scope="module")
def lmn():
    return subgrid_lmn(N, IMAGE_SIZE)


@pytest.fixture(scope="module")
def taper():
    return spheroidal_taper(N)


def _random_subgrid(seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    ).astype(np.complex64)


def _random_uvw(m, seed=1, uv_scale=20.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, 3)) * np.array([uv_scale, uv_scale, uv_scale / 4])


def test_degridder_matches_reference_no_aterms(lmn, taper):
    sub = _random_subgrid(0)
    uvw = _random_uvw(10, seed=1)
    fast = degrid_item(sub, uvw, lmn, taper)
    slow = reference_degridder(sub, uvw, IMAGE_SIZE, taper)
    np.testing.assert_allclose(fast, slow.astype(np.complex64), rtol=2e-4, atol=2e-4)


def test_degridder_matches_reference_with_aterms(lmn, taper):
    rng = np.random.default_rng(2)
    sub = _random_subgrid(3)
    uvw = _random_uvw(5, seed=4)
    a_p = rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    a_q = rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    fast = degrid_item(sub, uvw, lmn, taper, aterm_p=a_p, aterm_q=a_q)
    slow = reference_degridder(sub, uvw, IMAGE_SIZE, taper, aterm_p=a_p, aterm_q=a_q)
    np.testing.assert_allclose(fast, slow.astype(np.complex64), rtol=1e-3, atol=1e-3)


def test_degridder_batching_invariance(lmn, taper):
    """Stacking items into one bucket call changes no item's predictions."""
    subs = np.stack([_random_subgrid(5 + g) for g in range(3)])
    uvws = np.stack([_random_uvw(9, seed=6 + g) for g in range(3)])
    stacked = degridder_bucket(to_pol_major(subs), uvws, lmn, taper, arena=ScratchArena())
    for g in range(3):
        np.testing.assert_allclose(
            stacked[g].reshape(-1, 2, 2),
            degrid_item(subs[g], uvws[g], lmn, taper),
            rtol=1e-5, atol=1e-5,
        )


def test_degridder_linearity_in_subgrid(lmn, taper):
    s1, s2 = _random_subgrid(7), _random_subgrid(8)
    uvw = _random_uvw(6, seed=9)
    v1 = degrid_item(s1, uvw, lmn, taper).astype(np.complex128)
    v2 = degrid_item(s2, uvw, lmn, taper).astype(np.complex128)
    v12 = degrid_item(s1 + s2, uvw, lmn, taper).astype(np.complex128)
    np.testing.assert_allclose(v12, v1 + v2, rtol=1e-3, atol=1e-4)


def test_zero_uvw_sums_pixels(lmn, taper):
    sub = _random_subgrid(10)
    uvw = np.zeros((4, 3))
    out = degrid_item(sub, uvw, lmn, taper)
    expected = (sub * taper[:, :, np.newaxis, np.newaxis]).sum(axis=(0, 1))
    for k in range(4):
        np.testing.assert_allclose(out[k], expected.astype(np.complex64), rtol=1e-4)


def test_gridder_degridder_adjoint_identity(lmn, taper):
    """<gridder(V), S> == <V, degridder(S)> — kernel-level adjointness."""
    rng = np.random.default_rng(11)
    m = 9
    vis = rng.standard_normal((m, 2, 2)) + 1j * rng.standard_normal((m, 2, 2))
    sub = rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    a_p = rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    a_q = rng.standard_normal((N, N, 2, 2)) + 1j * rng.standard_normal((N, N, 2, 2))
    uvw = _random_uvw(m, seed=12)
    gridded = grid_item(
        vis.astype(np.complex64), uvw, lmn, taper, aterm_p=a_p, aterm_q=a_q
    )
    degridded = degrid_item(
        sub.astype(np.complex64), uvw, lmn, taper, aterm_p=a_p, aterm_q=a_q
    )
    lhs = np.vdot(gridded.astype(np.complex128), sub)
    rhs = np.vdot(vis, degridded.astype(np.complex128))
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_degridder_shape_validation(lmn, taper):
    sub = _random_subgrid(13)
    with pytest.raises(ValueError):
        degrid_item(sub[:4], _random_uvw(3), lmn, taper)
    with pytest.raises(ValueError):
        degrid_item(sub, _random_uvw(3), lmn[:10], taper)
