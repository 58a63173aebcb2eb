"""Batched subgrid FFTs (paper Fig 4, step 2).

After gridding, every image-domain subgrid is Fourier-transformed (four
``N x N`` FFTs per subgrid, one per polarisation product) before the adder
places it on the master grid; degridding applies the reverse transform after
the splitter.  The paper offloads this embarrassingly parallel step to
MKL/cuFFT/clFFT; here a single batched single-precision ``numpy.fft`` call
over the stacked pol-major ``(n_subgrids, 4, N, N)`` array plays that role.
The pixel axes are the contiguous last two, so the call needs no axis move,
no copy and no promotion to ``complex128``.

Centring without shifts.  Subgrids are stored centered (index ``N // 2`` is
the origin), which :func:`~repro.kernels.fft.centered_fft2` handles with an
``ifftshift``/``fftshift`` pair.  For even ``N`` (which
:class:`~repro.core.pipeline.IDGConfig` enforces) each shift by ``N / 2``
equals a ``(-1)**k`` modulation on the other side of the transform, and in
2-D the leftover ``(-1)**N`` is 1, so exactly

``centered_fft2(a) == C * fft2(C * a)``  with  ``C[y, x] = (-1)**(x + y)``

and likewise for the inverse.  The transforms multiply by the checkerboard
before and after one in-place FFT.

Normalisation.  Both directions carry a ``1/N**2``:

* ``subgrids_to_fourier = centered_fft2 / N**2`` (``norm="forward"``) — an
  on-cell visibility of amplitude V then lands on the master grid as exactly
  V, so the master image ``IFFT(grid) * G**2`` sums visibilities with unit
  weight;
* ``subgrids_to_image = centered_ifft2`` (whose default normalisation is
  ``1/N**2``) — a model image FFT'd onto the master grid then degrids to
  exactly its DFT for aligned sources.

With this choice the two transforms are *adjoints* of each other (not
inverses: composing them yields ``1/N**2``), which makes the full degridding
pipeline the exact adjoint of the full gridding pipeline — the property the
property-based tests assert.

The inverse calls ``np.fft.ifftn(..., axes=(-2, -1), out=...)``, not
``ifft2``: numpy's ``ifft2`` does not forward its ``out`` argument (it
returns a new array and leaves ``out`` unwritten).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import shape_checked


def _checkerboard(n: int) -> np.ndarray:
    """The ``(n, n)`` float32 ``(-1)**(x + y)`` of an even ``n``."""
    if n % 2:
        raise ValueError(f"subgrid size must be even, got {n}")
    parity = np.add.outer(np.arange(n), np.arange(n)) % 2
    return (1 - 2 * parity).astype(np.float32)


@shape_checked(subgrid_images="(G, 4, N, N)", returns="(G, 4, N, N)")
def subgrids_to_fourier(subgrid_images: np.ndarray) -> np.ndarray:
    """Forward transform: image-domain subgrids -> uv-domain subgrids.

    ``subgrid_images`` has shape ``(G, 4, N, N)``; the FFT acts on the two
    pixel axes and is scaled by ``1/N**2`` (see module docstring).  Returns
    a new C-contiguous array of the input's dtype.
    """
    board = _checkerboard(subgrid_images.shape[-1])
    out = np.multiply(subgrid_images, board)
    np.fft.fft2(out, norm="forward", out=out)
    out *= board
    return out


@shape_checked(subgrid_fourier="(G, 4, N, N)", returns="(G, 4, N, N)")
def subgrids_to_image(subgrid_fourier: np.ndarray) -> np.ndarray:
    """Reverse transform: uv-domain subgrids -> image-domain subgrids.

    The centered inverse FFT (its built-in ``1/N**2`` included), i.e. the
    adjoint of :func:`subgrids_to_fourier`.  Returns a new C-contiguous
    array of the input's dtype.
    """
    board = _checkerboard(subgrid_fourier.shape[-1])
    out = np.multiply(subgrid_fourier, board)
    np.fft.ifftn(out, axes=(-2, -1), out=out)
    out *= board
    return out
