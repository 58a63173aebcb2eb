"""The cross-backend differential harness.

Every registered backend runs the shared corpus (see ``conftest.py``) and is
held to two contracts:

* **pairwise equivalence** — master grids and degridded visibilities agree
  between every pair of backends to ``rtol = 1e-5`` (absolute floor scaled
  to the array's peak magnitude, since both outputs span many orders of
  magnitude);
* **adjointness** — each backend's gridder and degridder form an adjoint
  pair, ``<grid(V), S> == <V, degrid(S)>``, including taper and A-terms.

A NaN visibility must also poison exactly the same grid cells through the
compiled ``native`` kernel as through ``vectorized``.
"""

import itertools

import numpy as np
import pytest

from repro.backends import available_backends
from repro.core.pipeline import IDG, IDGConfig

BACKENDS = available_backends()
PAIRS = list(itertools.combinations(BACKENDS, 2))
RTOL = 1e-5


def _assert_equivalent(a, b, label):
    scale = float(np.abs(a).max())
    assert scale > 0, f"{label}: degenerate all-zero output"
    np.testing.assert_allclose(
        b, a, rtol=RTOL, atol=RTOL * scale, err_msg=label
    )


def test_every_backend_registered_and_covered():
    """The corpus really runs every registered backend."""
    assert {"reference", "vectorized", "native"} <= set(BACKENDS)
    covered = {name for pair in PAIRS for name in pair}
    assert covered == set(BACKENDS)


@pytest.mark.parametrize("pair", PAIRS, ids="-vs-".join)
def test_grids_agree_pairwise(case, corpus, pair):
    a, b = (corpus.results(case, name) for name in pair)
    _assert_equivalent(
        a["grid"], b["grid"], f"{case.name}: grid {pair[0]} vs {pair[1]}"
    )


@pytest.mark.parametrize("pair", PAIRS, ids="-vs-".join)
def test_degridded_visibilities_agree_pairwise(case, corpus, pair):
    a, b = (corpus.results(case, name) for name in pair)
    _assert_equivalent(
        a["degridded"],
        b["degridded"],
        f"{case.name}: degrid {pair[0]} vs {pair[1]}",
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_gridder_degridder_adjoint(case, corpus, backend_name):
    """``<grid(V), S> == <V, degrid(S)>`` per backend, on real work groups.

    ``grid_work_group`` reads only the visibility slices its work items
    cover and ``degrid_work_group`` writes only those same slices, so the
    full-array inner products reduce to the covered entries on both sides.
    """
    r = corpus.results(case, backend_name)
    w = corpus.workload(case)
    idg, plan, fields = r["idg"], r["plan"], r["fields"]
    backend = idg.backend
    obs, vis = w["obs"], w["vis"]
    stop = min(8, plan.n_subgrids)

    subgrids = backend.grid_work_group(
        plan, 0, stop, obs.uvw_m, vis, idg.taper,
        lmn=idg.lmn, aterm_fields=fields,
    )
    rng = np.random.default_rng(99)
    shape = subgrids.shape
    probe = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ).astype(np.complex64)
    predicted = np.zeros_like(vis)
    backend.degrid_work_group(
        plan, 0, stop, probe, obs.uvw_m, predicted, idg.taper,
        lmn=idg.lmn, aterm_fields=fields,
    )
    lhs = np.vdot(subgrids.astype(np.complex128), probe)
    rhs = np.vdot(vis, predicted.astype(np.complex128))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) / scale < 2e-3, (
        f"{case.name}/{backend_name}: <grid(V), S>={lhs} != <V, degrid(S)>={rhs}"
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_flagged_entries_stay_zero(case, corpus, backend_name):
    """Degridded output is zero exactly where the plan flagged samples."""
    r = corpus.results(case, backend_name)
    flagged = r["plan"].flagged
    if not flagged.any():
        pytest.skip("plan flags nothing for this case")
    assert not r["degridded"][flagged].any()


def test_recurrence_applies_except_on_uneven_channels(case, corpus):
    """The uneven-channels case really bypasses the channel recurrence."""
    from repro.parallel.bucketing import uniform_channel_step

    obs = corpus.workload(case)["obs"]
    assert (uniform_channel_step(obs.frequencies_hz) is None) == case.uneven_channels


@pytest.mark.parametrize("polarisation", [(0, 0), (1, 0)])
def test_nan_visibility_poisons_the_same_cells(case, corpus, polarisation):
    """One NaN visibility gives non-finite grid cells from ``native`` exactly
    where ``vectorized`` gives them (no flush-to-zero, no fast-math)."""
    w = corpus.workload(case)
    obs = w["obs"]
    grids = {}
    for name in ("native", "vectorized"):
        idg = IDG(
            w["gridspec"],
            IDGConfig(
                subgrid_size=case.subgrid_size,
                kernel_support=case.kernel_support,
                time_max=case.time_max,
                work_group_size=8,
                backend=name,
            ),
        )
        plan = idg.make_plan(
            obs.uvw_m, obs.frequencies_hz, obs.array.baselines(),
            aterm_schedule=w["schedule"], w_offset=case.w_offset,
        )
        item = plan.work_item(plan.n_subgrids // 2)
        vis = w["vis"].copy()
        vis[(item.baseline, item.time_start, item.channel_start, *polarisation)] = np.nan
        grids[name] = idg.grid(plan, obs.uvw_m, vis, aterms=w["aterms"])
    bad = ~np.isfinite(grids["vectorized"])
    assert bad.any() and not bad.all()
    np.testing.assert_array_equal(~np.isfinite(grids["native"]), bad)
    _assert_equivalent(grids["vectorized"][~bad], grids["native"][~bad], "finite cells")
