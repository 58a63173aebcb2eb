"""Batched vs per-item execution on the full differential corpus.

The bucketed drivers stack every work item of one block shape into a single
kernel call, chunked to a scratch budget; a one-byte budget makes every
chunk a single item, so each kernel call runs at G=1.  Both must agree on
every corpus case — including the A-term case (stacked Jones sandwiches),
the wideband C = 512 case (channel-phasor recurrence with renormalisation)
and the uneven-channels case (direct sum) — at the harness tolerance.
"""

import numpy as np

from repro.parallel import bucketing

RTOL = 1e-5


def _run(case, corpus, batch_bytes):
    """Grid and degrid one corpus case through the NumPy work-group drivers."""
    r = corpus.results(case, "vectorized")
    w = corpus.workload(case)
    idg, plan, fields = r["idg"], r["plan"], r["fields"]
    obs, vis = w["obs"], w["vis"]
    stop = plan.n_subgrids

    subgrids = bucketing.grid_work_group_batched(
        plan, 0, stop, obs.uvw_m, vis, idg.taper,
        lmn=idg.lmn, aterm_fields=fields, batch_bytes=batch_bytes,
    )

    rng = np.random.default_rng(42)
    probe = (
        rng.standard_normal(subgrids.shape)
        + 1j * rng.standard_normal(subgrids.shape)
    ).astype(np.complex64)
    predicted = np.zeros_like(vis)
    bucketing.degrid_work_group_batched(
        plan, 0, stop, probe, obs.uvw_m, predicted, idg.taper,
        lmn=idg.lmn, aterm_fields=fields, batch_bytes=batch_bytes,
    )
    return subgrids, predicted


def _assert_close(batched, per_item, label):
    scale = float(np.abs(per_item).max())
    assert scale > 0, f"{label}: degenerate all-zero per-item output"
    np.testing.assert_allclose(
        batched, per_item, rtol=RTOL, atol=RTOL * scale, err_msg=label
    )


def test_batched_grid_and_degrid_match_per_item(case, corpus):
    batched_grid, batched_vis = _run(case, corpus, bucketing.DEFAULT_BATCH_BYTES)
    per_item_grid, per_item_vis = _run(case, corpus, batch_bytes=1)
    _assert_close(batched_grid, per_item_grid, f"{case.name}: grid")
    _assert_close(batched_vis, per_item_vis, f"{case.name}: degrid")


def test_batched_pipeline_matches_per_item_pipeline(case, corpus, monkeypatch):
    """End to end through ``IDG.grid``/``IDG.degrid``, per item by capping
    every bucket chunk at one item."""
    from repro.core.pipeline import IDG, IDGConfig

    w = corpus.workload(case)
    obs = w["obs"]
    idg = IDG(
        w["gridspec"],
        IDGConfig(
            subgrid_size=case.subgrid_size,
            kernel_support=case.kernel_support,
            time_max=case.time_max,
            work_group_size=8,
            backend="vectorized",
        ),
    )
    plan = idg.make_plan(
        obs.uvw_m, obs.frequencies_hz, obs.array.baselines(),
        aterm_schedule=w["schedule"], w_offset=case.w_offset,
    )
    results = []
    for per_item in (False, True):
        if per_item:
            monkeypatch.setattr(bucketing, "max_bucket_items", lambda *args: 1)
        grid = idg.grid(plan, obs.uvw_m, w["vis"], aterms=w["aterms"])
        degridded = idg.degrid(plan, obs.uvw_m, w["model"], aterms=w["aterms"])
        results.append((grid, degridded))
    _assert_close(results[0][0], results[1][0], f"{case.name}: grid")
    _assert_close(results[0][1], results[1][1], f"{case.name}: degrid")
