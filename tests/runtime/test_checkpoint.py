"""Checkpoint/resume: one contract for every executor that checkpoints.

The streaming and the process-sharded executor both retire work groups in
plan order through :class:`repro.runtime.checkpoint.Checkpointer`, so each
contract test runs on both: periodic atomic snapshots while gridding, a
final snapshot on completion and on abort, bit-exact resume, a cumulative
``n_retired``, the ``checkpoints`` telemetry counter and signature guarding.
"""

import numpy as np
import pytest

from repro.constants import COMPLEX_DTYPE
from repro.parallel.process import ProcessConfig, ProcessShardedIDG
from repro.runtime import (
    FaultPlan,
    InjectedCrash,
    RuntimeConfig,
    StreamingIDG,
    WorkGroupError,
    load_checkpoint,
    plan_signature,
    save_checkpoint,
)

WORK_GROUP_SIZE = 5


@pytest.fixture(params=["streaming", "processes"])
def make_engine(request):
    """Factory of a checkpointing engine on the parametrized executor."""

    def make(idg, faults=None, **config):
        if request.param == "streaming":
            return StreamingIDG(idg, RuntimeConfig(n_buffers=2, **config), faults)
        return ProcessShardedIDG(
            idg, ProcessConfig(n_procs=2, start_method="fork", **config), faults
        )

    return make


@pytest.fixture(scope="module")
def idg(small_idg):
    return small_idg.with_config(work_group_size=WORK_GROUP_SIZE)


@pytest.fixture(scope="module")
def clean_grid(idg, small_plan, small_obs, single_source_vis):
    return idg.grid(small_plan, small_obs.uvw_m, single_source_vis)


@pytest.fixture(scope="module")
def groups(small_plan):
    return list(small_plan.work_groups(WORK_GROUP_SIZE))


@pytest.fixture(scope="module")
def n_groups(groups):
    return len(groups)


@pytest.fixture
def half_run(idg, small_plan, small_obs, single_source_vis, groups, tmp_path):
    """A hand-built snapshot of the first half of the run: the prefix sum of
    groups ``0..k-1``.  Returns ``(path, k)``."""
    backend = idg.backend
    k = len(groups) // 2
    partial = idg.gridspec.allocate_grid(dtype=COMPLEX_DTYPE)
    for start, stop in groups[:k]:
        subgrids = backend.grid_work_group(
            small_plan, start, stop, small_obs.uvw_m, single_source_vis,
            idg.taper, lmn=idg.lmn, aterm_fields=None,
        )
        backend.add_subgrids(
            partial, small_plan, backend.subgrids_to_fourier(subgrids),
            start=start,
        )
    path = tmp_path / "half.npz"
    save_checkpoint(path, partial, range(k),
                    plan_signature(small_plan, WORK_GROUP_SIZE))
    return path, k


def test_completed_run_checkpoint_is_total(make_engine, idg, small_plan,
                                           small_obs, single_source_vis,
                                           clean_grid, n_groups, tmp_path):
    ckpt = tmp_path / "run.ckpt.npz"
    engine = make_engine(idg, checkpoint_path=str(ckpt), checkpoint_interval=2)
    grid = engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert np.array_equal(grid, clean_grid)
    snap = load_checkpoint(ckpt, signature=plan_signature(small_plan,
                                                          WORK_GROUP_SIZE))
    assert snap.completed_set == frozenset(range(n_groups))
    assert snap.n_retired == n_groups
    np.testing.assert_array_equal(snap.grid, clean_grid)
    # one snapshot every second retirement, plus the final one
    assert engine.last_telemetry.counters["checkpoints"] == n_groups // 2 + 1


def test_resume_from_partial_checkpoint_is_bit_exact(
    make_engine, idg, small_plan, small_obs, single_source_vis, clean_grid,
    n_groups, half_run,
):
    """Resume from the prefix sum of groups 0..k-1: the final grid is
    bit-identical to the uninterrupted run, and only the remaining groups
    reach the adder."""
    path, k = half_run
    engine = make_engine(idg, resume_from=str(path))
    resumed = engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert np.array_equal(resumed, clean_grid)
    assert len(engine.last_telemetry.spans("adder")) == n_groups - k


def test_resumed_run_records_cumulative_n_retired(
    make_engine, idg, small_plan, small_obs, single_source_vis, clean_grid,
    n_groups, half_run, tmp_path,
):
    """A resumed run's snapshots count the resumed groups too, while the
    snapshot interval counts only the groups retired in this run."""
    path, k = half_run
    ckpt = tmp_path / "resumed.npz"
    engine = make_engine(idg, resume_from=str(path), checkpoint_path=str(ckpt),
                         checkpoint_interval=2)
    engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    snap = load_checkpoint(ckpt)
    assert snap.n_retired == n_groups
    assert snap.completed_set == frozenset(range(n_groups))
    np.testing.assert_array_equal(snap.grid, clean_grid)
    assert engine.last_telemetry.counters["checkpoints"] == (n_groups - k) // 2 + 1


def test_abort_snapshot_is_a_prefix_and_resumes_bit_exact(
    make_engine, idg, small_plan, small_obs, single_source_vis, clean_grid,
    groups, n_groups, tmp_path, monkeypatch,
):
    """A fail-fast abort at a late group's adder call, with no periodic
    snapshot due, still leaves the final snapshot: exactly the plan-order
    prefix before the failed group, which resumes bit-exactly."""
    failing_group = n_groups - 2
    real_add = idg.backend.add_subgrids

    def add_subgrids(grid, plan, subgrids, start=0, **kwargs):
        if start == groups[failing_group][0]:
            raise RuntimeError("injected adder failure")
        return real_add(grid, plan, subgrids, start=start, **kwargs)

    monkeypatch.setattr(idg.backend, "add_subgrids", add_subgrids)
    ckpt = tmp_path / "abort.npz"
    engine = make_engine(idg, checkpoint_path=str(ckpt),
                         checkpoint_interval=1000)
    with pytest.raises(WorkGroupError, match="injected adder failure"):
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    monkeypatch.undo()

    snap = load_checkpoint(ckpt)
    assert snap.completed_set == frozenset(range(failing_group))
    assert snap.n_retired == failing_group

    resumed = make_engine(idg, resume_from=str(ckpt)).grid(
        small_plan, small_obs.uvw_m, single_source_vis
    )
    assert np.array_equal(resumed, clean_grid)


def test_resume_rejects_mismatched_plan(make_engine, idg, small_plan,
                                        small_obs, single_source_vis, tmp_path):
    ckpt = tmp_path / "wrong.npz"
    make_engine(idg, checkpoint_path=str(ckpt), checkpoint_interval=1000).grid(
        small_plan, small_obs.uvw_m, single_source_vis
    )
    # a different work-group partition must refuse the checkpoint
    other = make_engine(
        idg.with_config(work_group_size=WORK_GROUP_SIZE + 1),
        resume_from=str(ckpt),
    )
    with pytest.raises(ValueError, match="refusing to resume"):
        other.grid(small_plan, small_obs.uvw_m, single_source_vis)


def test_quarantined_groups_are_not_marked_completed(
    make_engine, idg, small_plan, small_obs, single_source_vis, clean_grid,
    n_groups, tmp_path,
):
    """Dead-lettered groups must be retried on resume, so they may not enter
    the checkpoint's completed set."""
    ckpt = tmp_path / "dead.npz"
    faults = FaultPlan.single("gridder", 1, times=-1)
    engine = make_engine(
        idg.with_config(max_retries=1, retry_backoff_s=0.0), faults,
        checkpoint_path=str(ckpt), checkpoint_interval=1,
    )
    engine.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert engine.last_fault_report.n_dead_letters == 1
    snap = load_checkpoint(ckpt)
    assert snap.completed_set == frozenset(range(n_groups)) - {1}
    assert snap.n_retired == n_groups
    # Resuming with the fault cleared completes the quarantined group.  The
    # group is re-added after its plan-order successors, so the result is
    # FP-reassociated relative to the clean run — numerically equal, not
    # bit-exact (bit-exactness holds when the completed set is a plan-order
    # prefix, i.e. the crash/kill case; see DESIGN.md §11).
    resumed = make_engine(idg, resume_from=str(ckpt)).grid(
        small_plan, small_obs.uvw_m, single_source_vis
    )
    np.testing.assert_allclose(resumed, clean_grid, rtol=1e-4, atol=1e-6)


def test_kill_and_resume_round_trip(idg, small_plan, small_obs,
                                    single_source_vis, clean_grid, n_groups,
                                    tmp_path):
    """Crash the streaming pipeline mid-run (InjectedCrash escapes the retry
    layer), then resume from the surviving snapshot: bit-identical final
    grid, and the completed groups are genuinely skipped.  (A crash in a
    process worker is a real SIGKILL; ``test_fault_matrix.py`` covers it.)"""
    assert n_groups >= 6, "fixture too small for a mid-run crash"
    ckpt = tmp_path / "crash.npz"
    crash = FaultPlan.single("gridder", n_groups - 2, kind="crash")
    engine = StreamingIDG(
        idg,
        RuntimeConfig(n_buffers=2, checkpoint_path=str(ckpt),
                      checkpoint_interval=1),
        faults=crash,
    )
    with pytest.raises(InjectedCrash):
        engine.grid(small_plan, small_obs.uvw_m, single_source_vis)

    snap = load_checkpoint(ckpt)
    assert 0 < len(snap.completed_set) < n_groups

    resume = StreamingIDG(idg, RuntimeConfig(n_buffers=2, resume_from=str(ckpt)))
    resumed = resume.grid(small_plan, small_obs.uvw_m, single_source_vis)
    assert np.array_equal(resumed, clean_grid)
    # only the remaining groups were gridded on resume
    spans = resume.last_telemetry.spans("gridder")
    assert len(spans) == n_groups - len(snap.completed_set)


def test_checkpoint_versioning_and_signature_api(tmp_path, small_plan):
    sig = plan_signature(small_plan, 5)
    assert sig == plan_signature(small_plan, 5)
    assert sig != plan_signature(small_plan, 6)
    grid = np.zeros((4, 8, 8), dtype=np.complex64)
    path = save_checkpoint(tmp_path / "c", grid, [0, 2], sig)
    assert path.suffix == ".npz"
    snap = load_checkpoint(path, signature=sig)
    assert snap.completed_set == frozenset({0, 2})
    with pytest.raises(ValueError, match="refusing"):
        load_checkpoint(path, signature="deadbeef")
    # future versions are rejected, not misread
    save_checkpoint(path, grid, [0], sig)
    data = dict(np.load(path))
    data["checkpoint_version"] = np.int64(999)
    np.savez_compressed(path, **data)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path, small_plan, monkeypatch):
    """A crash mid-snapshot leaves the previous complete snapshot intact."""
    import repro.atomicio as atomicio

    sig = plan_signature(small_plan, 5)
    grid = np.full((4, 8, 8), 1 + 1j, dtype=np.complex64)
    path = save_checkpoint(tmp_path / "c.npz", grid, [0, 1], sig)

    def dying_savez(fh, **arrays):
        fh.write(b"partial")
        raise OSError("power loss")

    monkeypatch.setattr(atomicio.np, "savez_compressed", dying_savez)
    with pytest.raises(OSError):
        save_checkpoint(path, grid, [0, 1, 2], sig)
    monkeypatch.undo()

    snap = load_checkpoint(path, signature=sig)
    assert snap.completed_set == frozenset({0, 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.npz"]
