"""Checkpoint/resume for gridding runs.

Gridding retires work groups onto the master grid in plan order, whichever
executor schedules them: the adder stage of
:class:`~repro.runtime.StreamingIDG` and the parent merge loop of
:class:`~repro.parallel.process.ProcessShardedIDG`.  Both hand each
retirement to one :class:`Checkpointer`, built from their config's
``checkpoint_path`` / ``checkpoint_interval`` / ``resume_from``.  It
snapshots the master grid plus the set of retired work-group ids every
``checkpoint_interval`` retirements and once more when the run ends, on
completion *and* on abort; a later run started with ``resume_from`` (CLI
``--resume``) restores the grid and skips the completed groups.  Resume is
*bit-exact*: a checkpoint taken after groups ``0..k`` holds exactly the
floating-point prefix sum an uninterrupted run would have at that point, and
resuming adds the remaining groups in the same order onto the same bits.

Snapshots are written atomically (temp file + ``os.replace`` via
:mod:`repro.atomicio`), so a crash mid-checkpoint leaves the previous
complete snapshot in place, never a truncated archive.  Each snapshot embeds
a :func:`plan_signature` — a hash of the plan's work items, geometry and the
work-group size — and :func:`load_checkpoint` refuses to resume against a
mismatched plan instead of silently producing a wrong image.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.atomicio import atomic_savez_compressed
from repro.hashing import ContentHasher

if TYPE_CHECKING:
    from repro.runtime.program import WorkGroupProgram

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "GridCheckpoint",
    "load_checkpoint",
    "plan_signature",
    "save_checkpoint",
]

#: On-disk schema version of checkpoint archives.
CHECKPOINT_VERSION = 1


def plan_signature(plan: Any, work_group_size: int) -> str:
    """Hex digest identifying a (plan, work-group partition) pair.

    Two runs may share a checkpoint only when their plans cover the same
    work items on the same grid geometry *and* chunk them into the same
    work groups — otherwise completed-group ids would not line up.

    Built on :class:`repro.hashing.ContentHasher` with the exact byte
    stream of the original implementation (items, frequencies, int64
    geometry, float64 scalars — untagged), so checkpoints written by
    earlier builds keep validating; ``tests/test_hashing.py`` pins a
    known digest.
    """
    hasher = ContentHasher()
    hasher.update_array(plan.items)
    hasher.update_array(plan.frequencies_hz)
    hasher.update_ints(
        plan.subgrid_size,
        plan.kernel_support,
        plan.gridspec.grid_size,
        int(work_group_size),
    )
    hasher.update_floats(plan.gridspec.image_size, plan.w_offset)
    return hasher.hexdigest()


@dataclass(frozen=True)
class GridCheckpoint:
    """One snapshot: the partial master grid plus retirement bookkeeping.

    Attributes
    ----------
    signature:
        :func:`plan_signature` of the run that wrote the snapshot.
    grid:
        ``(4, G, G)`` complex master grid holding the contributions of
        exactly the ``completed`` work groups.
    completed:
        Sorted work-group sequence indices already retired by the adder.
    n_retired:
        Total groups retired (completed plus quarantined) when the
        snapshot was taken.
    """

    signature: str
    grid: np.ndarray
    completed: np.ndarray
    n_retired: int

    @property
    def completed_set(self) -> frozenset[int]:
        return frozenset(int(k) for k in self.completed)


def save_checkpoint(
    path: str | pathlib.Path,
    grid: np.ndarray,
    completed: Any,
    signature: str,
    n_retired: int | None = None,
) -> pathlib.Path:
    """Atomically write a :class:`GridCheckpoint` archive; returns the path
    actually written (a ``.npz`` suffix is appended when missing)."""
    completed_arr = np.asarray(sorted(int(k) for k in completed), dtype=np.int64)
    return atomic_savez_compressed(
        path,
        checkpoint_version=np.int64(CHECKPOINT_VERSION),
        signature=np.str_(signature),
        grid=grid,
        completed=completed_arr,
        n_retired=np.int64(
            n_retired if n_retired is not None else completed_arr.size
        ),
    )


def load_checkpoint(
    path: str | pathlib.Path, signature: str | None = None
) -> GridCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    When ``signature`` is given, a mismatch raises ``ValueError`` — the
    checkpoint belongs to a different plan or work-group size and resuming
    from it would corrupt the result.
    """
    with np.load(path) as archive:
        version = int(archive["checkpoint_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version} "
                f"(this build reads {CHECKPOINT_VERSION})"
            )
        ckpt = GridCheckpoint(
            signature=str(archive["signature"]),
            grid=archive["grid"],
            completed=archive["completed"],
            n_retired=int(archive["n_retired"]),
        )
    if signature is not None and ckpt.signature != signature:
        raise ValueError(
            "checkpoint does not match this run: plan items, grid geometry "
            "or work-group size differ (refusing to resume)"
        )
    return ckpt


class Checkpointer:
    """The checkpoint/resume bookkeeping of one gridding run.

    Built from the executor's config (any object with ``checkpoint_path``,
    ``checkpoint_interval`` and ``resume_from``) over the run's gridding
    ``program``.  Construction restores ``program.grid`` from
    ``resume_from``, replacing any caller-supplied grid; :attr:`resumed`
    is the set of groups the run must skip.  The executor then reports
    every retired group, in plan order, to :meth:`retire`, inside a
    ``with`` block whose exit writes the final snapshot — on completion and
    on abort alike, so the caller must leave the grid quiescent by then.

    ``save`` writes one snapshot (:func:`save_checkpoint` by default); each
    write counts as one ``checkpoints`` telemetry counter.
    """

    def __init__(
        self,
        program: WorkGroupProgram,
        config: Any,
        save: Callable[..., pathlib.Path] = save_checkpoint,
    ) -> None:
        self.path = config.checkpoint_path
        self.interval = config.checkpoint_interval
        self._program = program
        self._save = save
        self._signature: str | None = None
        self._completed: set[int] = set()
        if self.path is not None or config.resume_from is not None:
            self._signature = plan_signature(
                program.plan, program.idg.config.work_group_size
            )
        if config.resume_from is not None:
            ckpt = load_checkpoint(config.resume_from, signature=self._signature)
            self._completed = set(ckpt.completed_set)
            # The snapshot holds the prefix sum of exactly these groups; the
            # run continues from those bits.
            np.copyto(program.grid, ckpt.grid)
        self.resumed = frozenset(self._completed)
        #: Groups retired so far, resumed ones included (the snapshot's
        #: ``n_retired``).
        self.n_retired = len(self.resumed)

    def retire(self, group: int, done: bool) -> None:
        """Record one retired group (``done`` False when quarantined) and
        snapshot after every ``interval`` retirements of this run."""
        if done:
            self._completed.add(group)
        self.n_retired += 1
        if (
            self.path is not None
            and (self.n_retired - len(self.resumed)) % self.interval == 0
        ):
            self._snapshot()

    def _snapshot(self) -> None:
        """Write the grid and the retirement record to ``path``."""
        self._save(
            self.path, self._program.grid, self._completed, self._signature,
            n_retired=self.n_retired,
        )
        telemetry = self._program.runner.telemetry
        if telemetry is not None:
            telemetry.add_counter("checkpoints", 1)

    def __enter__(self) -> Checkpointer:
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.path is not None:
            self._snapshot()
