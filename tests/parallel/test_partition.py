"""Unit tests for the row-partitioned adder."""

import numpy as np
import pytest

from repro.core.adder import add_subgrids
from repro.parallel.partition import RowPartition, add_subgrids_row_parallel


def test_row_partition_disjoint_and_complete():
    for workers in (1, 2, 3, 7):
        part = RowPartition.create(256, workers)
        assert part.covers_all_rows()
        assert len(part.bands) <= workers


def _random_subgrids(plan, count, seed=0):
    n = plan.subgrid_size
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((count, 4, n, n)) + 1j * rng.standard_normal((count, 4, n, n))
    ).astype(np.complex64)


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_row_parallel_matches_serial_adder(small_plan, n_workers):
    count = min(16, small_plan.n_subgrids)
    subs = _random_subgrids(small_plan, count, seed=n_workers)
    serial = small_plan.gridspec.allocate_grid()
    add_subgrids(serial, small_plan, subs, start=0)
    parallel = small_plan.gridspec.allocate_grid()
    add_subgrids_row_parallel(parallel, small_plan, subs, start=0, n_workers=n_workers)
    np.testing.assert_allclose(parallel, serial, atol=1e-6)


def test_row_parallel_shape_validation(small_plan):
    subs = _random_subgrids(small_plan, 1)
    with pytest.raises(ValueError):
        add_subgrids_row_parallel(np.zeros((4, 8, 8), np.complex64), small_plan, subs)
