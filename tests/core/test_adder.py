"""Unit tests for the adder and splitter."""

import numpy as np
import pytest

from repro.core.adder import add_subgrids, split_subgrids


def _subgrids_like(plan, count, seed=0):
    n = plan.subgrid_size
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((count, 4, n, n)) + 1j * rng.standard_normal((count, 4, n, n))
    ).astype(np.complex64)


def test_add_places_subgrid_at_corner(small_plan):
    grid = small_plan.gridspec.allocate_grid()
    subs = np.zeros((1, 4, small_plan.subgrid_size, small_plan.subgrid_size), np.complex64)
    subs[0, 0, 3, 5] = 7.0  # pol XX, y=3, x=5
    add_subgrids(grid, small_plan, subs, start=0)
    row = small_plan.items[0]
    assert grid[0, row["corner_v"] + 3, row["corner_u"] + 5] == pytest.approx(7.0)
    assert np.count_nonzero(grid) == 1


def test_add_accumulates_overlaps(small_plan):
    grid = small_plan.gridspec.allocate_grid()
    subs = _subgrids_like(small_plan, 1, seed=1)
    add_subgrids(grid, small_plan, subs, start=0)
    total_once = grid.sum()
    add_subgrids(grid, small_plan, subs, start=0)
    assert grid.sum() == pytest.approx(2 * total_once, rel=1e-5)


def test_flux_conservation(small_plan):
    """Total grid sum equals the sum of all added subgrids (addition only
    relocates flux)."""
    grid = small_plan.gridspec.allocate_grid()
    count = min(10, small_plan.n_subgrids)
    subs = _subgrids_like(small_plan, count, seed=2)
    add_subgrids(grid, small_plan, subs, start=0)
    # compare per polarisation: grid and subgrids are both pol-major
    grid_sum = grid.sum(axis=(1, 2))
    subs_sum = subs.sum(axis=(0, 2, 3))
    np.testing.assert_allclose(grid_sum, subs_sum, rtol=1e-4)


def test_split_inverts_add_for_disjoint_subgrid(small_plan):
    grid = small_plan.gridspec.allocate_grid()
    subs = _subgrids_like(small_plan, 1, seed=3)
    add_subgrids(grid, small_plan, subs, start=0)
    back = split_subgrids(grid, small_plan, 0, 1)
    np.testing.assert_allclose(back, subs, atol=1e-6)


def test_split_is_read_only(small_plan):
    grid = small_plan.gridspec.allocate_grid()
    grid += (1.0 + 1.0j)
    before = grid.copy()
    split_subgrids(grid, small_plan, 0, min(5, small_plan.n_subgrids))
    np.testing.assert_array_equal(grid, before)


def test_adder_splitter_adjoint(small_plan):
    """<add(S), G> == <S, split(G)> over a batch of work items."""
    count = min(8, small_plan.n_subgrids)
    subs = _subgrids_like(small_plan, count, seed=4).astype(np.complex128)
    rng = np.random.default_rng(5)
    g = small_plan.gridspec.grid_size
    grid_y = rng.standard_normal((4, g, g)) + 1j * rng.standard_normal((4, g, g))
    grid_x = np.zeros((4, g, g), dtype=np.complex128)
    add_subgrids(grid_x, small_plan, subs, start=0)
    lhs = np.vdot(grid_x, grid_y)
    rhs = np.vdot(subs, split_subgrids(grid_y, small_plan, 0, count))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_shape_validation(small_plan):
    bad_grid = np.zeros((4, 8, 8), dtype=np.complex64)
    subs = _subgrids_like(small_plan, 1)
    with pytest.raises(ValueError):
        add_subgrids(bad_grid, small_plan, subs)
    with pytest.raises(ValueError):
        split_subgrids(bad_grid, small_plan, 0, 1)
