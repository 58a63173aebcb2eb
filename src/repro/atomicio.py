"""Crash-safe file writes shared by dataset, plan, checkpoint and build I/O.

A process dying mid-``np.savez_compressed`` leaves a truncated archive that
``np.load`` cannot open — fatal for anything meant to survive a crash
(datasets, execution plans, streaming checkpoints, compiled kernels).  The
helpers here write to a temporary file *in the destination directory* (so
the final rename never crosses a filesystem) and publish it with
``os.replace``, which is atomic on POSIX and Windows: readers see either the
old complete file or the new complete file, never a partial one.  Missing
parent directories are created instead of failing with a bare
``FileNotFoundError``.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
from collections.abc import Callable
from typing import Any

import numpy as np

__all__ = ["atomic_publish", "atomic_savez_compressed"]


def atomic_publish(
    path: str | pathlib.Path, write: Callable[[pathlib.Path], None]
) -> pathlib.Path:
    """Publish a file atomically: ``write(tmp)`` fills a fresh temporary file
    beside ``path``, which is fsynced and renamed over ``path``.

    On any failure the temporary file is removed and the previous ``path``
    (if any) is left untouched.  Returns ``path``.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem}.", suffix=f".tmp{path.suffix}"
    )
    os.close(fd)
    try:
        write(pathlib.Path(tmp_name))
        with open(tmp_name, "rb") as fh:
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_savez_compressed(
    path: str | pathlib.Path, **arrays: Any
) -> pathlib.Path:
    """``np.savez_compressed`` with write-to-temp-then-rename semantics.

    Mirrors numpy's name handling (a ``.npz`` suffix is appended when
    missing) and returns the path actually written.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")

    def write(tmp: pathlib.Path) -> None:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)

    return atomic_publish(path, write)
