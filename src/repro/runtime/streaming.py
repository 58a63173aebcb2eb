"""Streaming IDG: the pipeline of Fig 4 run as an executable stage graph.

``StreamingIDG`` is a drop-in equivalent of :class:`repro.core.IDG`'s
``grid``/``degrid`` that executes the paper's schedule for real instead of
simulating it (:mod:`repro.perfmodel.streams`):

* gridding:    plan splitter -> gridder worker(s) -> subgrid FFT -> adder,
* degridding:  plan splitter -> subgrid splitter -> subgrid iFFT ->
  degridder worker(s),

with every hop a bounded channel and a global credit gate holding at most
``n_buffers`` work groups in flight — ``n_buffers=1`` degenerates to the
serial schedule, ``n_buffers=3`` is the paper's triple buffering (Fig 7).
The stage bodies are the *same kernels* the serial pipeline uses
(the backend's ``grid_work_group`` / ``degrid_work_group``, the batched
subgrid FFTs and the serial adder), so results are bit-identical to ``IDG``:
the adder stage applies batches in plan order (a reorder buffer absorbs
out-of-order completion when ``gridder_workers > 1``), and degridding work
items write disjoint visibility blocks.

Each stage body is one stage call of the shared work-group program
(:mod:`repro.runtime.program`), so the kernels, their keywords, the retry
and quarantine semantics (DESIGN.md §11) and the fault report are the
serial executor's; this module only wires the calls into a stage graph.  A
work group dead-lettered at one stage becomes a
:class:`~repro.runtime.recovery.Quarantined` sentinel that flows through the
remaining stages, so sequencing and credit accounting stay exact.  Gridding
can additionally checkpoint the master grid plus the retired-group set to
disk (atomic write-then-rename) and later resume bit-exactly, skipping
completed groups: the adder stage reports each retirement to a
:class:`~repro.runtime.checkpoint.Checkpointer`.

Every run produces a :class:`~repro.runtime.telemetry.Telemetry` (span
timings, queue occupancy, retry/dead-letter/checkpoint counters,
visibilities/sec) exportable as a Chrome trace — see
``benchmarks/bench_runtime_overlap.py`` and
``benchmarks/bench_fault_recovery.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.constants import COMPLEX_DTYPE
from repro.core.plan import Plan
from repro.runtime.checkpoint import Checkpointer
from repro.runtime.faults import FaultPlan
from repro.runtime.graph import StageGraph
from repro.runtime.memory import record_memory_gauges
from repro.runtime.program import WorkGroupProgram
from repro.runtime.queues import CreditGate
from repro.runtime.recovery import FaultReport, Quarantined
from repro.runtime.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.core.pipeline import IDG


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunable parameters of the streaming runtime.

    Attributes
    ----------
    n_buffers:
        Work groups allowed in flight end to end, and the capacity of every
        inter-stage channel (1 = serial schedule, 3 = the paper's triple
        buffering).
    gridder_workers:
        Threads in the gridder stage (its BLAS products release the GIL).
    fft_workers:
        Threads in the subgrid FFT/iFFT stage.  The adder stage is one
        thread running the serial adder.
    degridder_workers:
        Threads in the degridder stage (work items write disjoint blocks,
        so no synchronisation is needed).
    emulate_pcie_gbs:
        When set, insert ``htod``/``dtoh`` transfer stages that occupy the
        link for ``bytes / bandwidth`` seconds of real wall time without
        holding the CPU (``time.sleep``) — the host-side stand-in for the
        PCIe copies the paper's three-stream schedule hides (Fig 7), on a
        machine with no accelerator.  ``None`` (default) adds no transfer
        stages.
    checkpoint_path:
        When set, ``grid`` snapshots the master grid plus the retired
        work-group set to this ``.npz`` path (atomically) every
        ``checkpoint_interval`` groups retired in the run, and once more
        when the run completes or aborts.  Ignored by ``degrid`` (its output
        has no accumulated state worth snapshotting — a restarted degrid
        simply re-runs).
    checkpoint_interval:
        Retired work groups between snapshots.
    resume_from:
        Path of a checkpoint written by a previous ``grid`` run over the
        *same* plan and work-group size (validated by signature); completed
        groups are skipped and the result is bit-identical to an
        uninterrupted run.  The checkpoint grid replaces the contents of
        any caller-supplied ``grid=``.
    """

    n_buffers: int = 3
    gridder_workers: int = 1
    fft_workers: int = 1
    degridder_workers: int = 1
    emulate_pcie_gbs: float | None = None
    checkpoint_path: str | None = None
    checkpoint_interval: int = 4
    resume_from: str | None = None

    def __post_init__(self) -> None:
        for name in (
            "n_buffers", "gridder_workers", "fft_workers",
            "degridder_workers", "checkpoint_interval",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.emulate_pcie_gbs is not None and self.emulate_pcie_gbs <= 0:
            raise ValueError("emulate_pcie_gbs must be positive")


def chunk_transfer_bytes(plan: Plan, start: int, stop: int) -> tuple[float, float]:
    """(bytes in, bytes out) of one gridding work group over the emulated
    device link: the work items' visibilities and uvw in, their uv-domain
    subgrids out (degridding is the mirror image)."""
    rows = plan.items[start:stop]
    n_timesteps = int((rows["time_end"] - rows["time_start"]).sum())
    itemsize = np.dtype(COMPLEX_DTYPE).itemsize
    bytes_in = float(n_timesteps) * (plan.n_channels * 4 * itemsize + 3 * 8)
    bytes_out = float(stop - start) * plan.subgrid_size**2 * 4 * itemsize
    return bytes_in, bytes_out


class StreamingIDG:
    """Pipelined gridding/degridding over a bounded stage graph.

    Parameters
    ----------
    idg:
        The configured serial pipeline supplying kernels, taper, plan
        geometry and the retry policy (``IDGConfig.max_retries`` /
        ``retry_backoff_s``).
    config:
        Runtime parameters (buffer count, per-stage worker counts,
        checkpointing).
    faults:
        Optional deterministic fault-injection plan (tests, benchmarks).

    The telemetry of the most recent run is kept on ``last_telemetry``; the
    fault report of the most recent *tolerant* run on ``last_fault_report``
    (``None`` when the runner failed fast).
    """

    def __init__(
        self,
        idg: IDG,
        config: RuntimeConfig | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.idg = idg
        self.config = config or RuntimeConfig()
        self.faults = faults
        self.last_telemetry: Telemetry | None = None
        self.last_fault_report: FaultReport | None = None

    # ------------------------------------------------------------- internal

    def _gated(
        self, groups: Iterable[int], gate: CreditGate
    ) -> Iterator[tuple[int, None]]:
        """Plan-chunk splitter: one credit per emitted work group.  Items
        are ``(group, value)`` pairs from here on, ``group`` being the
        plan-order index (stable across resume filtering)."""
        for group in groups:
            gate.acquire()
            yield group, None

    def _link(self, nbytes: Callable[[int, Any], float]) -> Callable:
        """An emulated transfer stage: occupy the device link for
        ``nbytes(group, value)`` without holding the CPU (the DMA analogue;
        a quarantined group moves nothing), then pass the item on."""
        gbs = self.config.emulate_pcie_gbs

        def stage(seq: int, item: tuple[int, Any]) -> tuple[int, Any]:
            if not isinstance(item[1], Quarantined):
                time.sleep(nbytes(*item) / (gbs * 1e9))
            return item

        return stage

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
        """Pipelined equivalent of :meth:`repro.core.IDG.grid`.

        Same keywords and bit-identical result; the run's telemetry is kept
        on ``last_telemetry``.  With fault tolerance active, quarantined
        work groups are excluded and reported on ``last_fault_report``
        instead of raising; with ``config.checkpoint_path`` set, progress
        snapshots are written for a later bit-exact ``config.resume_from``
        run.
        """
        cfg = self.config
        tm = Telemetry()
        program = WorkGroupProgram.gridding(
            self.idg, plan, uvw_m, visibilities, aterms=aterms, grid=grid,
            flags=flags, aterm_fields=aterm_fields, faults=self.faults,
            telemetry=tm,
        )
        self.last_fault_report = program.fault_report
        checkpoint = Checkpointer(program, cfg)
        pending = [
            g for g in range(len(program.groups)) if g not in checkpoint.resumed
        ]

        gate = CreditGate(cfg.n_buffers, telemetry=tm, name="in_flight")
        reorder: dict[int, Any] = {}
        next_seq = 0

        def do_add(seq: int, item: tuple[int, Any]) -> None:
            # Apply batches in plan order so the floating-point accumulation
            # order — and hence the result — is bit-identical to the serial
            # adder, even when gridder workers complete out of order.  A
            # quarantined group adds nothing but still releases its credit
            # and advances the sequence.  This single-worker stage is the
            # grid's only mutator, so every snapshot sees a quiescent grid.
            nonlocal next_seq
            reorder[seq] = item
            while next_seq in reorder:
                group, fourier = reorder.pop(next_seq)
                done = program.adder(group, fourier)
                gate.release()
                next_seq += 1
                if program.source is not None and next_seq % 8 == 0:
                    # Retired groups' file pages are dead weight: evict them
                    # and snapshot the memory gauges so the trace shows RSS
                    # staying flat as data streams through.  Every 8th group
                    # is often enough — each madvise sweep walks the whole
                    # mapping's page tables, and the un-evicted residue is
                    # bounded by 8 groups' worth of file pages.
                    program.drop_caches()
                    record_memory_gauges(tm)
                checkpoint.retire(group, done)

        graph = StageGraph("grid", n_buffers=cfg.n_buffers, telemetry=tm)
        graph.add_abortable(gate)
        graph.add_source("splitter", self._gated(pending, gate))
        if program.source is not None:
            # Out-of-core reader stage ahead of the (emulated) device upload:
            # it copies exactly the blocks a group needs off the memory map,
            # downstream stages never touch the map, and with the credit
            # gate upstream at most `n_buffers` prefetched groups exist at
            # once — the RSS bound of the out-of-core path.
            graph.add_stage("reader", _step(lambda group, _: program.read(group)))
        if cfg.emulate_pcie_gbs is not None:
            graph.add_stage("htod", self._link(_visibility_bytes(program)))
        graph.add_stage(
            "gridder", _step(program.gridder), workers=cfg.gridder_workers
        )
        graph.add_stage(
            "subgrid_fft", _step(program.subgrid_fft), workers=cfg.fft_workers
        )
        if cfg.emulate_pcie_gbs is not None:
            graph.add_stage("dtoh", self._link(lambda group, fourier: fourier.nbytes))
        graph.add_sink("adder", do_add)
        with checkpoint:
            # `run` joins every stage thread before it re-raises, so the
            # final snapshot of an aborted run also sees a quiescent grid.
            graph.run()
        record_memory_gauges(tm)
        self.last_telemetry = tm
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
        """Pipelined equivalent of :meth:`repro.core.IDG.degrid` (same
        keywords).

        With fault tolerance active, a quarantined work group leaves its
        visibility block zero (the same convention the plan uses for
        unplaceable samples) and is reported on ``last_fault_report``.
        """
        cfg = self.config
        tm = Telemetry()
        program = WorkGroupProgram.degridding(
            self.idg, plan, uvw_m, grid, aterms=aterms,
            aterm_fields=aterm_fields, out=out, faults=self.faults,
            telemetry=tm,
        )
        self.last_fault_report = program.fault_report
        gate = CreditGate(cfg.n_buffers, telemetry=tm, name="in_flight")

        def do_degrid(seq: int, item: tuple[int, Any]) -> tuple[int, Any]:
            # Work items cover disjoint (baseline, time, channel) blocks, so
            # concurrent workers write `out` without synchronisation.
            program.degridder(*item)
            return item

        def retiring(stage: Callable) -> Callable:
            # The last stage returns the group's credit.
            def retire(seq: int, item: tuple[int, Any]) -> None:
                stage(seq, item)
                gate.release()
            return retire

        graph = StageGraph("degrid", n_buffers=cfg.n_buffers, telemetry=tm)
        graph.add_abortable(gate)
        graph.add_source("splitter", self._gated(range(len(program.groups)), gate))
        graph.add_stage(
            "subgrid_split", _step(lambda group, _: program.splitter(group))
        )
        if cfg.emulate_pcie_gbs is not None:
            graph.add_stage("htod", self._link(lambda group, patches: patches.nbytes))
        graph.add_stage(
            "subgrid_ifft", _step(program.subgrid_ifft), workers=cfg.fft_workers
        )
        if cfg.emulate_pcie_gbs is not None:
            graph.add_stage("degridder", do_degrid, workers=cfg.degridder_workers)
            graph.add_sink("dtoh", retiring(self._link(_visibility_bytes(program))))
        else:
            graph.add_sink(
                "degridder", retiring(do_degrid), workers=cfg.degridder_workers
            )
        graph.run()
        record_memory_gauges(tm)
        self.last_telemetry = tm
        return program.finish()


def _visibility_bytes(program: WorkGroupProgram) -> Callable[[int, Any], float]:
    """Link bytes of a group's visibilities and uvw (the htod side of
    gridding, the dtoh side of degridding)."""
    return lambda group, _: chunk_transfer_bytes(program.plan, *program.groups[group])[0]


def _step(call: Callable[[int, Any], Any]) -> Callable:
    """A stage body running one program call on a ``(group, value)`` item."""
    return lambda seq, item: (item[0], call(*item))


def modeled_schedule_jobs(
    telemetry: Telemetry, stages: tuple[Any, Any, Any]
) -> list[Any]:
    """Per-work-group durations of three streams from a measured run, in the
    job format :func:`repro.perfmodel.streams.schedule_buffers` takes — the
    bridge between a measured trace and the Fig 7 simulation.

    Each of the three entries is a stage name or a tuple of stage names
    whose per-item durations are summed (e.g. ``("htod", ("gridder",
    "subgrid_fft"), "dtoh")`` folds the compute stages into one stream).
    """
    streams: list[list[float]] = []
    for entry in stages:
        names = (entry,) if isinstance(entry, str) else tuple(entry)
        per_stage = [telemetry.stage_durations(name) for name in names]
        n = min((len(d) for d in per_stage), default=0)
        streams.append([sum(d[k] for d in per_stage) for k in range(n)])
    n_jobs = min(len(s) for s in streams)
    return [tuple(s[k] for s in streams) for k in range(n_jobs)]
