"""Process-sharded IDG executor (DESIGN.md §14).

``ProcessShardedIDG`` breaks the GIL ceiling of the thread executor: the
plan's work groups are partitioned over *worker processes* (greedy LPT on
visibility weights, :func:`repro.parallel.partition.partition_work_groups`),
each worker grids its shard into slabs backed by
``multiprocessing.shared_memory`` (:mod:`repro.parallel.shm`), and the parent
reduces the results into the master grid.

Plan-order merge
----------------
Workers only produce per-group Fourier subgrid slabs; the **parent** applies
them to the master grid with the serial adder in ascending work-group order.
Floating-point addition order is therefore identical to the serial
executor's fold, so the result is **bit-identical** to
:meth:`repro.core.IDG.grid` — the property the cross-executor conformance
suite pins.  Because groups retire in plan order, the parent merge loop
reports each retirement to a :class:`~repro.runtime.checkpoint.Checkpointer`:
checkpoints are prefix-closed and resume is bit-exact.  Re-runs are safe:
workers only write their slab, and the parent adds each group once.

Worker/parent protocol
----------------------
Everything crosses the process boundary through the shared arena — there is
no result queue to lose messages when a worker is SIGKILLed.  Per work group
the arena holds a status byte (pending/done/dead/failed), attempt and retry
counters, fixed-width error and stage text rows, and a compute duration; the
worker publishes the group's payload *before* flipping the status byte, and
the parent polls status bytes in ascending group order.

A worker process that dies (kill, OOM, segfault) is detected via its exit
code.  The death charges one attempt to the shard's first still-pending
group and flows into the ordinary fault-tolerance machinery via
:meth:`repro.runtime.recovery.WorkGroupRunner.fail_external` — within budget
the parent respawns a replacement worker for the shard's remaining groups
(re-seeding injected-crash counters so deterministic kill tests converge),
on exhaustion the group is quarantined as a ``stage="worker"`` dead letter
and the respawn continues without it.  In fail-fast mode (no retries, no
fault plan) a death raises :class:`~repro.runtime.recovery.WorkGroupError`.

Workers and parent run the shared work-group program
(:mod:`repro.runtime.program`): each worker builds one over the arena
slabs and runs its shard's stage calls; the parent's program owns the
prologue, the adder, the fault report and the epilogue.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.constants import COMPLEX_DTYPE
from repro.core.pipeline import IDG, IDGConfig
from repro.core.plan import Plan
from repro.data.store import ChunkedVisibilitySource, open_store
from repro.parallel.partition import (
    ShardAssignment,
    partition_work_groups,
    plan_group_weights,
)
from repro.parallel.shm import ArenaSpec, SharedArena
from repro.runtime.checkpoint import Checkpointer, save_checkpoint
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedCrash
from repro.runtime.program import WorkGroupProgram
from repro.runtime.recovery import (
    DeadLetter,
    FaultReport,
    Quarantined,
    WorkGroupError,
    group_visibility_count,
)
from repro.runtime.telemetry import Telemetry, monotonic

__all__ = ["ProcessConfig", "ProcessShardedIDG", "WorkerDeath", "WorkerError"]

# Per-group status bytes in the shared arena.  The worker flips a group's
# byte away from _PENDING only after every other write for that group has
# landed.
_PENDING, _DONE, _DEAD, _FAILED = 0, 1, 2, 3

#: Fixed-width UTF-8 row sizes for error and stage text in the arena.
_ERROR_BYTES = 240
_STAGE_BYTES = 16

#: Parent sleep between status polls while a group is pending.
_POLL_INTERVAL_S = 0.002

_START_METHODS = ("spawn", "fork", "forkserver")


class WorkerDeath(RuntimeError):
    """A worker process exited without completing its in-flight work group."""


class WorkerError(RuntimeError):
    """An exception raised inside a worker process, carried back as its repr."""


@dataclass(frozen=True)
class ProcessConfig:
    """Tunables of the process-sharded executor.

    Attributes
    ----------
    n_procs:
        Worker processes (shards).
    start_method:
        ``multiprocessing`` start method.  ``"spawn"`` is the portable
        default; ``"fork"`` starts workers orders of magnitude faster on
        Linux (no interpreter + NumPy re-import) and is what the scaling
        benchmark uses.
    checkpoint_path / checkpoint_interval / resume_from:
        Gridding checkpoints, as for ``RuntimeConfig``
        (:class:`~repro.runtime.checkpoint.Checkpointer`): a snapshot every
        ``checkpoint_interval`` groups retired in the run, a final one on
        completion *and* on abort, and bit-exact resume that skips the
        checkpoint's completed groups.
    emulate_compute_s:
        Sleep this many seconds per work group inside the worker — a stand-in
        for device compute when benchmarking scaling on hosts with fewer
        cores than shards (mirrors ``RuntimeConfig.emulate_pcie_gbs``).
    """

    n_procs: int = 2
    start_method: str = "spawn"
    checkpoint_path: str | None = None
    checkpoint_interval: int = 4
    resume_from: str | None = None
    emulate_compute_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_procs <= 0:
            raise ValueError("n_procs must be positive")
        if self.start_method not in _START_METHODS:
            raise ValueError(
                f"start_method must be one of {_START_METHODS}, "
                f"got {self.start_method!r}"
            )
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.emulate_compute_s < 0:
            raise ValueError("emulate_compute_s must be non-negative")


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker process needs, picklable for any start method.

    Bulk data (uvw, visibilities, grid) is *not* here — workers map it from
    the shared arena named by ``arena``.
    """

    shard: int
    kind: str  # "grid" | "degrid"
    plan: Plan
    idg_config: IDGConfig
    arena: ArenaSpec
    groups: tuple[int, ...]  # ascending work-group indices owned by the shard
    fault_specs: tuple[FaultSpec, ...] | None
    seeded_attempts: tuple[tuple[str, int, int], ...]
    emulate_compute_s: float
    aterm_fields: dict[tuple[int, int], np.ndarray] | None
    #: Chunked-store directory to read visibilities from (out-of-core
    #: gridding).  When set there is no "vis" slab in the arena: each worker
    #: re-opens the store and maps the visibility file read-only itself —
    #: no payload pickling, no shared-memory copy, page cache shared by all.
    store_path: str | None = None


def _write_text(row: np.ndarray, text: str) -> None:
    """Store ``text`` (UTF-8, truncated) into a fixed-width uint8 row."""
    data = text.encode("utf-8", "replace")[: row.size]
    row[:] = 0
    if data:
        row[: len(data)] = np.frombuffer(data, dtype=np.uint8)


def _read_text(row: np.ndarray) -> str:
    return bytes(row.tobytes()).rstrip(b"\x00").decode("utf-8", "replace")


# --------------------------------------------------------------- worker side


def _worker_main(task: _ShardTask) -> None:
    """Worker-process entry point: run one shard, publish through the arena.

    :class:`InjectedCrash` escaping a stage is converted into a *real*
    ``SIGKILL`` of this process — the deterministic stand-in the kill-matrix
    tests use for OOM-killer/segfault deaths.
    """
    arena = SharedArena.attach(task.arena)
    try:
        faults = None
        if task.fault_specs is not None:
            faults = FaultPlan(task.fault_specs)
            if task.seeded_attempts:
                faults.seed_attempts(
                    {(stage, group): count
                     for stage, group, count in task.seeded_attempts}
                )
        _run_shard(task, _shard_program(task, arena, faults), arena)
    except InjectedCrash:
        os.kill(os.getpid(), signal.SIGKILL)
    finally:
        arena.close()


def _shard_program(
    task: _ShardTask, arena: SharedArena, faults: FaultPlan | None
) -> WorkGroupProgram:
    """The work-group program over this shard's view of the arena."""
    idg = IDG(task.plan.gridspec, task.idg_config)
    common = dict(aterm_fields=task.aterm_fields, faults=faults)
    if task.kind == "degrid":
        return WorkGroupProgram(
            idg, task.plan, arena["uvw"], grid=arena["grid"],
            out=arena["visout"], **common,
        )
    if task.store_path is not None:
        # Out-of-core shard: attach the chunked store read-only in this
        # process; the kernels stream masked blocks straight off the map.
        vis = open_store(task.store_path).source()
    else:
        vis = arena["vis"]
    return WorkGroupProgram(idg, task.plan, arena["uvw"], visibilities=vis, **common)


def _run_group(task: _ShardTask, program: WorkGroupProgram, arena: SharedArena,
               group: int) -> bool:
    """One work group's worker-side stages; False when quarantined."""
    if task.kind == "degrid":
        return program.degrid_group(group)
    fourier = program.grid_group(group)
    if isinstance(fourier, Quarantined):
        return False
    start, stop = program.groups[group]
    arena["fourier"][start:stop] = fourier
    return True


def _run_shard(task: _ShardTask, program: WorkGroupProgram, arena: SharedArena) -> None:
    status = arena["status"]
    report = program.runner.report
    for group in task.groups:
        t0 = time.perf_counter()
        if task.emulate_compute_s > 0:
            time.sleep(task.emulate_compute_s)
        retries_before = report.n_retries
        try:
            done = _run_group(task, program, arena, group)
        except WorkGroupError as exc:
            # Fail-fast: hand the failure to the parent and stop the shard.
            _write_text(arena["errors"][group], repr(exc.__cause__))
            _write_text(arena["stages"][group], exc.stage)
            status[group] = _FAILED
            return
        arena["retries"][group] = report.n_retries - retries_before
        arena["durations"][group] = time.perf_counter() - t0
        if done:
            status[group] = _DONE
        else:
            letter = report.dead_letters[-1]
            _write_text(arena["errors"][group], letter.error)
            _write_text(arena["stages"][group], letter.stage)
            arena["attempts"][group] = letter.attempts
            status[group] = _DEAD
        program.drop_caches()  # retired group's file pages -> OS


# --------------------------------------------------------------- parent side


class _ShardSupervisor:
    """Parent-side shard lifecycle: spawn, status polling, death handling.

    Shared by the grid and degrid paths; holds the worker-process table, the
    per-group death counts, and the set of groups the *parent* quarantined
    because their worker died past the retry budget (``parent_dead`` — their
    dead letters are already in the runner's report when set).
    """

    def __init__(
        self,
        *,
        task: _ShardTask,
        program: WorkGroupProgram,
        config: ProcessConfig,
        assignment: ShardAssignment,
        arena: SharedArena,
        skip: frozenset[int] = frozenset(),
    ) -> None:
        self.task = task  # template: every shard's task differs in 3 fields
        self.program = program
        self.config = config
        self.assignment = assignment
        self.skip = skip
        self.status = arena["status"]
        self.procs: dict[int, mp.process.BaseProcess] = {}
        self.death_counts: dict[int, int] = {}
        self.parent_dead: set[int] = set()
        self._ctx = mp.get_context(config.start_method)

    def start(self) -> None:
        for shard in range(self.assignment.n_shards):
            pending = tuple(
                g for g in self.assignment.groups_for(shard)
                if g not in self.skip
            )
            if pending:
                self._spawn(shard, pending)

    def await_group(self, group: int) -> int:
        """Block until ``group`` leaves pending; returns its status byte.

        Detects the owning worker's death while waiting and routes it
        through the retry/quarantine/respawn machinery.
        """
        shard = self.assignment.shard_of[group]
        while (
            int(self.status[group]) == _PENDING
            and group not in self.parent_dead
        ):
            proc = self.procs.get(shard)
            if proc is None:
                raise WorkGroupError(
                    f"no worker process owns pending work group {group} "
                    f"(shard {shard})"
                )
            if proc.exitcode is not None:
                # Re-check status after observing the exit: the worker may
                # have published this group and exited cleanly in between.
                if int(self.status[group]) == _PENDING:
                    self._on_death(shard)
                continue
            time.sleep(_POLL_INTERVAL_S)
        return int(self.status[group])

    def shutdown(self) -> None:
        """Terminate and reap every remaining worker (abort or success)."""
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        self.procs.clear()

    # ------------------------------------------------------------- internal

    def _spawn(self, shard: int, shard_groups: tuple[int, ...]) -> None:
        # A respawned worker rebuilds its FaultPlan from specs; seed the
        # crash counters with the deaths already charged so transient kill
        # schedules (times=1) clear instead of striking forever.
        seeded = tuple(
            (spec.stage, spec.group, self.death_counts[spec.group])
            for spec in (self.task.fault_specs or ())
            if spec.kind == "crash" and self.death_counts.get(spec.group, 0) > 0
        )
        task = replace(
            self.task, shard=shard, groups=shard_groups, seeded_attempts=seeded
        )
        proc = self._ctx.Process(target=_worker_main, args=(task,), daemon=True)
        proc.start()
        self.procs[shard] = proc

    def _on_death(self, shard: int) -> None:
        proc = self.procs.pop(shard)
        code = proc.exitcode
        pending = [
            g for g in self.assignment.groups_for(shard)
            if g not in self.skip
            and g not in self.parent_dead
            and int(self.status[g]) == _PENDING
        ]
        if not pending:
            return  # died after finishing its shard; nothing was lost
        active = pending[0]  # workers run their groups in ascending order
        self.death_counts[active] = self.death_counts.get(active, 0) + 1
        start, stop = self.program.groups[active]
        death = WorkerDeath(
            f"worker process for shard {shard} died with exit code {code} "
            f"while work group {active} was in flight"
        )
        # Fail-fast runners raise WorkGroupError here.
        quarantined = self.program.runner.fail_external(
            "worker", active, start=start, stop=stop,
            n_visibilities=group_visibility_count(self.program.plan, start, stop),
            attempts=self.death_counts[active], error=death,
        )
        if quarantined is not None:
            self.parent_dead.add(active)
            pending = pending[1:]
        if pending:
            self._spawn(shard, tuple(pending))
            self.program.runner.telemetry.add_counter("worker_respawns", 1)


class ProcessShardedIDG:
    """Process-parallel gridding/degridding over shared-memory shards.

    Parameters
    ----------
    idg:
        The configured pipeline to parallelise (work-group size, retry
        policy and backend come from its ``IDGConfig``; workers rebuild the
        same pipeline from it).
    config:
        :class:`ProcessConfig`; defaults to two workers and the ``spawn``
        start method.
    faults:
        Optional deterministic fault-injection plan.  Worker-side stages
        (``gridder``/``subgrid_fft``/``degridder``) fire inside the worker
        processes; ``adder`` faults fire in the parent; ``crash`` faults
        kill the worker process for real (SIGKILL).
    n_procs:
        Shorthand overriding ``config.n_procs``.

    After each run ``last_fault_report`` (``None`` when the runner failed
    fast), ``last_telemetry`` (per-shard spans and counters) and
    ``last_assignment`` (the LPT shard map) describe what happened.
    """

    def __init__(
        self,
        idg: IDG,
        config: ProcessConfig | None = None,
        faults: FaultPlan | None = None,
        n_procs: int | None = None,
    ) -> None:
        if config is None:
            config = ProcessConfig()
        if n_procs is not None:
            config = replace(config, n_procs=n_procs)
        self.idg = idg
        self.config = config
        self.faults = faults
        self.last_fault_report: FaultReport | None = None
        self.last_telemetry: Telemetry | None = None
        self.last_assignment: ShardAssignment | None = None

    # ------------------------------------------------------------- internal

    def _supervisor(
        self, program: WorkGroupProgram, arena: SharedArena, kind: str,
        skip: frozenset[int] = frozenset(), store_path: str | None = None,
    ) -> _ShardSupervisor:
        """Allocate the per-group accounting rows and partition the groups
        over shards."""
        n_groups = len(program.groups)
        arena.allocate("status", (n_groups,), np.uint8)
        arena.allocate("attempts", (n_groups,), np.int32)
        arena.allocate("retries", (n_groups,), np.int32)
        arena.allocate("errors", (n_groups, _ERROR_BYTES), np.uint8)
        arena.allocate("stages", (n_groups, _STAGE_BYTES), np.uint8)
        arena.allocate("durations", (n_groups,), np.float64)
        assignment = partition_work_groups(
            plan_group_weights(program.plan, self.idg.config.work_group_size),
            self.config.n_procs,
        )
        self.last_assignment = assignment
        task = _ShardTask(
            shard=-1,
            kind=kind,
            plan=program.plan,
            idg_config=self.idg.config,
            arena=arena.spec(),
            groups=(),
            fault_specs=self.faults.specs if self.faults is not None else None,
            seeded_attempts=(),
            emulate_compute_s=self.config.emulate_compute_s,
            aterm_fields=program.aterm_fields,
            store_path=store_path,
        )
        return _ShardSupervisor(
            task=task, program=program, config=self.config,
            assignment=assignment, arena=arena, skip=skip,
        )

    @staticmethod
    def _retired(
        program: WorkGroupProgram,
        supervisor: _ShardSupervisor,
        arena: SharedArena,
    ) -> Iterator[tuple[int, bool]]:
        """Await every work group the shards run, in plan order, and yield
        ``(group, done)``: ``done`` is False for a quarantined group.

        Folds the worker-side retry counts and dead letters into the
        parent's report and re-raises a fail-fast worker error.
        """
        runner = program.runner
        telemetry = runner.telemetry
        assignment = supervisor.assignment
        for group, (start, stop) in enumerate(program.groups):
            if group in supervisor.skip:
                continue  # resumed from checkpoint
            code = supervisor.await_group(group)
            if group in supervisor.parent_dead:
                yield group, False
                continue
            shard = assignment.shard_of[group]
            if code == _FAILED:
                error = _read_text(arena["errors"][group])
                raise WorkGroupError.at(
                    _read_text(arena["stages"][group]), group, start, stop,
                    error, shard=shard,
                ) from WorkerError(error)
            retries = int(arena["retries"][group])
            for _ in range(retries):
                runner.report.record_retry()
            if retries:
                telemetry.add_counter("retries", retries)
            if code == _DEAD:
                # Reconstruct the worker-side quarantine from the arena rows.
                runner.report.record_dead_letter(DeadLetter(
                    stage=_read_text(arena["stages"][group]),
                    group=group, start=start, stop=stop,
                    attempts=int(arena["attempts"][group]),
                    error=_read_text(arena["errors"][group]),
                    n_visibilities=group_visibility_count(program.plan, start, stop),
                ))
                telemetry.add_counter("dead_letters", 1)
                yield group, False
                continue
            duration = float(arena["durations"][group])
            if duration > 0:
                # Placed just-before-merge on the parent clock; the length is
                # the worker's measured compute (including emulated sleep).
                now = monotonic()
                telemetry.record_span(
                    "shard_compute", group, now - duration, now,
                    worker=f"shard{shard}",
                )
            telemetry.add_counter(f"shard{shard}.groups", 1)
            yield group, True

    # ------------------------------------------------------------- gridding

    def grid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None = None,
        grid: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Process-parallel equivalent of :meth:`repro.core.IDG.grid` (same
        keywords).

        The result is bit-identical to the serial executor (module
        docstring); quarantined work groups are excluded
        and reported on ``last_fault_report`` exactly like the other
        executors.  A store-backed
        :class:`~repro.data.store.ChunkedVisibilitySource` is passed to the
        workers *by path*: no "vis" slab is allocated, each worker maps the
        store's visibility file read-only itself (sharing the page cache),
        so out-of-core datasets never cross the process boundary.
        """
        telemetry = Telemetry()
        self.last_telemetry = telemetry
        program = WorkGroupProgram.gridding(
            self.idg, plan, uvw_m, visibilities, aterms=aterms, grid=grid,
            flags=flags, aterm_fields=aterm_fields, faults=self.faults,
            telemetry=telemetry,
        )
        self.last_fault_report = program.fault_report
        vis = program.visibilities
        store_path = None
        if isinstance(vis, ChunkedVisibilitySource):
            store_path = vis.store_path
            if store_path is None:
                # A source without a backing store (or carrying extra flags
                # the store does not record) cannot be re-opened inside the
                # workers; fall back to the shared-memory slab.
                vis = vis.materialize()
        # Snapshots go through this module's `save_checkpoint`, looked up
        # per run, so a caller may wrap it.
        checkpoint = Checkpointer(program, self.config, save=save_checkpoint)

        with SharedArena() as arena, checkpoint:
            np.copyto(arena.allocate("uvw", uvw_m.shape, uvw_m.dtype), uvw_m)
            if store_path is None:
                np.copyto(arena.allocate("vis", vis.shape, vis.dtype), vis)
            n = plan.subgrid_size
            fourier = arena.allocate(
                "fourier", (plan.n_subgrids, 4, n, n), COMPLEX_DTYPE
            )
            supervisor = self._supervisor(
                program, arena, "grid", skip=checkpoint.resumed,
                store_path=store_path,
            )
            try:
                supervisor.start()
                for group, done in self._retired(program, supervisor, arena):
                    if done:
                        start, stop = program.groups[group]
                        t0 = monotonic()
                        done = program.adder(group, fourier[start:stop])
                        telemetry.record_span(
                            "adder", group, t0, monotonic(), worker="parent"
                        )
                    checkpoint.retire(group, done)
            finally:
                # Workers are reaped before the final snapshot (written on
                # success *and* on abort as `checkpoint` exits).
                supervisor.shutdown()
        return program.finish(skipped=checkpoint.resumed)

    # ----------------------------------------------------------- degridding

    def degrid(
        self,
        plan: Plan,
        uvw_m: np.ndarray,
        grid: np.ndarray,
        aterms: ATermGenerator | None = None,
        aterm_fields: dict[tuple[int, int], np.ndarray] | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Process-parallel equivalent of :meth:`repro.core.IDG.degrid` (same
        keywords).

        Work groups cover disjoint visibility blocks, so shards write the
        shared output slab without synchronisation; a quarantined group
        leaves its block zero (the shared convention).  ``out``
        (zero-initialised, e.g. a writable dataset-store map) is validated
        before any worker starts and receives the prediction — note the
        shared-memory ``visout`` slab itself remains O(dataset); streaming
        degrid output without the slab is the StreamingIDG path's job.
        """
        telemetry = Telemetry()
        self.last_telemetry = telemetry
        program = WorkGroupProgram.degridding(
            self.idg, plan, uvw_m, grid, aterms=aterms,
            aterm_fields=aterm_fields, out=out, faults=self.faults,
            telemetry=telemetry,
        )
        self.last_fault_report = program.fault_report
        with SharedArena() as arena:
            np.copyto(arena.allocate("uvw", uvw_m.shape, uvw_m.dtype), uvw_m)
            np.copyto(arena.allocate("grid", grid.shape, grid.dtype), grid)
            visout = arena.allocate("visout", program.out.shape, COMPLEX_DTYPE)
            supervisor = self._supervisor(program, arena, "degrid")
            try:
                supervisor.start()
                for _ in self._retired(program, supervisor, arena):
                    pass
                np.copyto(program.out, visout)
            finally:
                supervisor.shutdown()
        return program.finish()
