"""Ablation: visibility batching and SIMD channel alignment (Section V-B).

Two of the paper's CPU optimisation knobs:

* the T_B x C_B batch size ("the computation is performed in batches") —
  measured here as NumPy gridder throughput vs the bucketed driver's
  ``batch_bytes``, the scratch budget that sets how many same-shape work
  items one kernel call stacks: too small and every item is its own call,
  too large and the phasor working set falls out of cache;
* the channel count vs SIMD width ("the vectorization works best when the
  number of channels is a multiple of the SIMD vector width ... wider
  vectors will not necessarily result in higher performance") — the lane
  efficiency model swept over C for 4/8/16-wide vectors.
"""

import time

from _util import print_series

from repro.parallel.bucketing import DEFAULT_BATCH_BYTES, grid_work_group_batched
from repro.perfmodel.vectorization import (
    best_simd_width,
    simd_channel_efficiency,
)

KIB = 1024
BATCH_BYTES = [16 * KIB, 256 * KIB, DEFAULT_BATCH_BYTES, 4 * KIB * KIB, 64 * KIB * KIB]


def test_ablation_batch_bytes(benchmark, bench_plan, bench_obs, bench_vis, bench_idg):
    stop = min(64, bench_plan.n_subgrids)
    n_vis = sum(bench_plan.work_item(i).n_visibilities for i in range(stop))

    def sweep():
        rates = {}
        for budget in BATCH_BYTES:
            t0 = time.perf_counter()
            grid_work_group_batched(
                bench_plan, 0, stop, bench_obs.uvw_m, bench_vis, bench_idg.taper,
                lmn=bench_idg.lmn, batch_bytes=budget,
            )
            rates[budget] = n_vis / (time.perf_counter() - t0) / 1e6
        return rates

    rates = benchmark(sweep)
    print_series(
        "Ablation: NumPy gridder throughput vs batch_bytes (measured, this host)",
        ["batch_bytes", "MVis/s"],
        [(b, rates[b]) for b in BATCH_BYTES],
    )
    # batching matters: the best batch beats the worst measurably
    values = list(rates.values())
    assert max(values) > 1.1 * min(values)
    # results do not depend on the budget (tests/parallel/test_bucketing.py);
    # here we only pin that it is purely a performance setting


def test_ablation_simd_channel_alignment(benchmark):
    channels = list(range(4, 25))

    table = benchmark(
        lambda: {
            c: {w: simd_channel_efficiency(c, w) for w in (4, 8, 16)}
            for c in channels
        }
    )
    rows = [
        (c, table[c][4], table[c][8], table[c][16], best_simd_width(c))
        for c in channels
    ]
    print_series(
        "Ablation: SIMD lane efficiency vs channel count (Section V-B)",
        ["channels", "width 4", "width 8", "width 16", "best width"],
        rows,
    )
    # the paper's benchmark has 16 channels: every width is fully efficient,
    # widest wins
    assert table[16] == {4: 1.0, 8: 1.0, 16: 1.0}
    assert best_simd_width(16) == 16
    # but e.g. 12 channels favour narrower vectors
    assert best_simd_width(12) == 4
    assert table[12][16] < table[12][4]
    # efficiency dips right after each multiple of the width
    assert table[17][16] < 0.6
