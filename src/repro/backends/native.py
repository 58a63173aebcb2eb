"""The ``native`` backend: compiled C phasor cores, built on first use.

The paper's CPU kernel (Section V-B, Listing 1) vectorises the gridder's
pixel loop and spends its time in sine/cosine and FMAs.  ``native.c``, next
to this module, is that kernel for the channel-recurrence path: it replaces
only the phasor x visibility sum of
:func:`repro.core.gridder.gridder_bucket_fast` and
:func:`repro.core.degridder.degridder_bucket_fast`.  The bucketed drivers of
:mod:`repro.parallel.bucketing` keep gather, A-term sandwich, taper and
scatter, and an unevenly spaced channel ladder still takes their NumPy
direct-sum path.

**Build.**  On first use the source is compiled with ``$CC`` (default
``cc``) and :data:`CFLAGS` into ``$XDG_CACHE_HOME/repro/native`` (default
``~/.cache/repro/native``), or into ``repro-<uid>-native`` under the system
temp dir when that is not writable.  That directory is created mode 0700
and refused (the backend falls back) if another user owns it or can write
it.  The file name is a sha256 of the source, the flags, the compiler (its
resolved path, size and mtime stand in for its version, so a warm start
runs no subprocess) and the CPU's flags (``-march=native`` code must not
load on another CPU).  The library is
published with :func:`repro.atomicio.atomic_publish`, so concurrent first
uses in several processes each load a complete file.

**Loading.**  :meth:`NativeBackend.ready` loads the library with ``ctypes``
once per backend instance, under a lock; :func:`repro.backends.resolve_backend`
calls it, so the cost falls in the ``IDG`` constructor and forked workers
inherit the mapping.  ``ctypes`` releases the GIL for the call, and each call
runs on the calling thread only: the executors own parallelism.

**Fallback.**  :class:`NativeBackend` is :class:`VectorizedBackend` with
the compiled cores plugged in.  With no compiler, or when the build or load
fails, it logs one warning and keeps the NumPy cores, so it computes
exactly what ``vectorized`` does.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import pathlib
import shutil
import stat
import subprocess
import tempfile
import threading
from typing import Final

import numpy as np
from numpy.ctypeslib import ndpointer

from repro.atomicio import atomic_publish
from repro.backends.vectorized import VectorizedBackend
from repro.constants import ACCUM_DTYPE
from repro.core.gridder import PHASOR_RENORM_INTERVAL
from repro.core.scratch import ScratchArena

logger = logging.getLogger(__name__)

#: The C source shipped with the package.
SOURCE: Final = pathlib.Path(__file__).with_name("native.c")

#: Compiler flags.  ``-fno-math-errno`` lets ``sqrt`` vectorise; there is no
#: ``-ffast-math``, so NaN and Inf propagate as they do in NumPy.
CFLAGS: Final = ("-O3", "-march=native", "-fno-math-errno", "-shared", "-fPIC")

_F64 = ndpointer(np.float64, flags="C_CONTIGUOUS")
_C128 = ndpointer(ACCUM_DTYPE, flags="C_CONTIGUOUS")
_I64 = ctypes.c_int64
#: ``(G, T, C, P, lmn, uvw_m, scale0, ds, offsets, input, renorm, output)``
_CORE_ARGTYPES: Final = (
    _I64, _I64, _I64, _I64, _F64, _F64, _F64, ctypes.c_double, _F64, _C128, _I64, _C128,
)


class NativeBuildError(RuntimeError):
    """The C source could not be compiled (no compiler, or it failed)."""


def cache_dir() -> pathlib.Path:
    """Writable directory for built libraries (created on demand)."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    preferred = pathlib.Path(root) / "repro" / "native"
    try:
        preferred.mkdir(parents=True, exist_ok=True)
        if os.access(preferred, os.W_OK):
            return preferred
    except OSError:
        pass
    return _private_dir(pathlib.Path(tempfile.gettempdir()) / f"repro-{os.getuid()}-native")


def _private_dir(path: pathlib.Path) -> pathlib.Path:
    """``path`` as a directory only this user can write, created mode 0700.

    The temp dir is shared, and a library found in the cache is loaded and
    run, so a directory another user owns or can write (planted before the
    first build) is refused rather than trusted.
    """
    try:
        path.mkdir(mode=0o700)
    except FileExistsError:
        pass
    st = os.lstat(path)
    if (
        not stat.S_ISDIR(st.st_mode)
        or st.st_uid != os.getuid()
        or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise NativeBuildError(
            f"refusing cache directory {path}: not a directory owned by this "
            "user and writable by no one else"
        )
    return path


def _cpu_flags() -> bytes:
    """The CPU's feature flags (``-march=native`` depends on them)."""
    try:
        with open("/proc/cpuinfo", "rb") as fh:
            for line in fh:
                if line.startswith((b"flags", b"Features")):
                    return line
    except OSError:
        pass
    return os.uname().machine.encode()


def library_path(compiler: str) -> pathlib.Path:
    """Cache path of the library built from :data:`SOURCE` by ``compiler``."""
    cc_stat = os.stat(compiler)
    key = hashlib.sha256()
    for part in (
        SOURCE.read_bytes(),
        " ".join(CFLAGS).encode(),
        f"{os.path.realpath(compiler)}:{cc_stat.st_size}:{cc_stat.st_mtime_ns}".encode(),
        _cpu_flags(),
    ):
        key.update(hashlib.sha256(part).digest())
    return cache_dir() / f"idg-native-{key.hexdigest()[:32]}.so"


def build_library() -> pathlib.Path:
    """Path of the built library, compiling it first when not cached."""
    compiler = shutil.which(os.environ.get("CC") or "cc")
    if compiler is None:
        raise NativeBuildError("no C compiler found (set CC or install cc)")
    path = library_path(compiler)
    if path.exists():
        return path

    def compile_to(tmp: pathlib.Path) -> None:
        result = subprocess.run(
            [compiler, *CFLAGS, "-o", str(tmp), str(SOURCE)],
            capture_output=True, text=True, timeout=300, check=False,
        )
        if result.returncode != 0:
            raise NativeBuildError(
                f"{compiler} exited with {result.returncode}: {result.stderr.strip()}"
            )

    return atomic_publish(path, compile_to)


class NativeKernels:
    """The loaded library's two cores, with the NumPy cores' signatures."""

    def __init__(self, path: pathlib.Path) -> None:
        lib = ctypes.CDLL(str(path))
        for name in ("idg_gridder_core", "idg_degridder_core"):
            fn = getattr(lib, name)
            fn.argtypes = _CORE_ARGTYPES
            fn.restype = ctypes.c_int
        lib.idg_sincos.argtypes = (_I64, _F64, _F64, _F64)
        lib.idg_sincos.restype = None
        self.path = path
        self._lib = lib

    def sincos(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(sin(x), cos(x))`` of a float64 array by the kernels' sincos."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        s = np.empty_like(x)
        c = np.empty_like(x)
        self._lib.idg_sincos(x.size, x, s, c)
        return s, c

    def gridder_core(
        self,
        visibilities: np.ndarray,
        uvw_m: np.ndarray,
        scale0: np.ndarray,
        ds: float,
        offsets: np.ndarray,
        lmn: np.ndarray,
        arena: ScratchArena,
    ) -> np.ndarray:
        """Compiled :func:`repro.core.gridder.gridder_bucket_core`."""
        g_total, t_total, c_total = visibilities.shape[:3]
        lmn = np.ascontiguousarray(lmn, dtype=np.float64)
        _check_shapes(uvw_m, scale0, offsets, lmn, g_total, t_total)
        if visibilities.shape != (g_total, t_total, c_total, 4):
            raise ValueError(f"visibilities {visibilities.shape} must be (G, T, C, 4)")
        acc = arena.take("gridder.acc", (g_total, lmn.shape[0], 4), ACCUM_DTYPE)
        status = self._lib.idg_gridder_core(
            g_total, t_total, c_total, lmn.shape[0], lmn, uvw_m, scale0, ds,
            offsets, visibilities, PHASOR_RENORM_INTERVAL, acc,
        )
        if status != 0:
            raise MemoryError("native gridder core could not allocate scratch")
        return acc

    def degridder_core(
        self,
        pixels: np.ndarray,
        uvw_m: np.ndarray,
        scale0: np.ndarray,
        ds: float,
        n_channels: int,
        offsets: np.ndarray,
        lmn: np.ndarray,
        arena: ScratchArena,
    ) -> np.ndarray:
        """Compiled :func:`repro.core.degridder.degridder_bucket_core`."""
        g_total, t_total = uvw_m.shape[:2]
        lmn = np.ascontiguousarray(lmn, dtype=np.float64)
        _check_shapes(uvw_m, scale0, offsets, lmn, g_total, t_total)
        if pixels.shape != (g_total, lmn.shape[0], 4):
            raise ValueError(f"pixels {pixels.shape} must be (G, N**2, 4)")
        out = arena.take("degridder.out", (g_total, t_total, n_channels, 4), ACCUM_DTYPE)
        status = self._lib.idg_degridder_core(
            g_total, t_total, n_channels, lmn.shape[0], lmn, uvw_m, scale0, ds,
            offsets, pixels, PHASOR_RENORM_INTERVAL, out,
        )
        if status != 0:
            raise MemoryError("native degridder core could not allocate scratch")
        return out


def _check_shapes(uvw_m, scale0, offsets, lmn, g_total, t_total) -> None:
    """Reject arrays whose extents disagree before pointers reach C."""
    if (
        uvw_m.shape != (g_total, t_total, 3)
        or scale0.shape != (g_total,)
        or offsets.shape != (g_total, 3)
        or lmn.ndim != 2
        or lmn.shape[1] != 3
    ):
        raise ValueError(
            f"inconsistent core inputs: uvw_m {uvw_m.shape}, scale0 "
            f"{scale0.shape}, offsets {offsets.shape}, lmn {lmn.shape}"
        )


class NativeBackend(VectorizedBackend):
    """``vectorized`` with the compiled channel-recurrence cores.

    :meth:`ready` sets :attr:`gridder_core` / :attr:`degridder_core` to the
    loaded library's; on fallback they stay ``None`` and every call runs
    the NumPy cores.  An unevenly spaced channel ladder takes the NumPy
    direct sum either way.
    """

    name = "native"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._loaded = False
        self._kernels: NativeKernels | None = None

    def ready(self) -> None:
        """Build (if needed) and load the library, once; on failure log one
        warning and keep the NumPy cores for every later call."""
        if self._loaded:
            return
        with self._lock:
            if self._loaded:
                return
            try:
                self._kernels = NativeKernels(build_library())
            except (OSError, NativeBuildError, subprocess.SubprocessError) as exc:
                logger.warning(
                    "the 'native' backend falls back to 'vectorized': %s", exc
                )
            else:
                self.gridder_core = self._kernels.gridder_core
                self.degridder_core = self._kernels.degridder_core
            self._loaded = True

    @property
    def is_fallback(self) -> bool:
        """True when this instance runs the ``vectorized`` NumPy cores."""
        self.ready()
        return self._kernels is None

    @property
    def kernels(self) -> NativeKernels | None:
        """The loaded cores (``None`` on the fallback path)."""
        self.ready()
        return self._kernels
