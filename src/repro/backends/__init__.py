"""Pluggable kernel backends (the paper's architecture-specific kernels).

One IDG algorithm, several interchangeable kernel implementations — the
software analogue of the paper running the same pipeline on HASWELL, FIJI
and PASCAL.  Three backends register at import time:

* ``reference``  — the loop-level Algorithm 1/2 oracle (slow, authoritative);
* ``vectorized`` — the BLAS fast path in NumPy;
* ``native``     — the default: the paper's pixel-vectorised Listing-1 loop
  (phase-offset/phase-index split, channel-phasor recurrence) in C, built
  by the system compiler on first use (``cc -O3 -march=native``, cached
  under ``$XDG_CACHE_HOME/repro/native``); it falls back to ``vectorized``
  with one logged warning when no compiler is available or the build fails.

Select a backend with ``IDGConfig(backend="vectorized")``, the CLI
``--backend`` flag, or the ``IDG_BACKEND`` environment variable.  All
registered backends are held to pairwise ``rtol = 1e-5`` agreement and
per-backend gridder/degridder adjointness by the differential harness in
``tests/backends/``.
"""

from repro.backends.base import KernelBackend
from repro.backends.native import NativeBackend
from repro.backends.reference import ReferenceBackend
from repro.backends.registry import (
    DEFAULT_BACKEND,
    IDG_BACKEND_ENV,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backends.vectorized import VectorizedBackend

register_backend(ReferenceBackend())
register_backend(VectorizedBackend())
register_backend(NativeBackend())

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "NativeBackend",
    "DEFAULT_BACKEND",
    "IDG_BACKEND_ENV",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
