"""The imaging major cycle (paper Fig 2).

One *imaging cycle* is: grid the residual visibilities and inverse-FFT to a
dirty image; CLEAN the brightest emission into the sky model; predict the
model back to visibilities (FFT + degridding) and subtract — revealing
fainter structure for the next cycle.  The paper benchmarks exactly one such
cycle (Fig 9/14: "Distribution of runtime/energy for one full imaging
cycle"); this module also iterates it to convergence, since that is what a
downstream user runs.

Invert and predict always run through an
:class:`~repro.imaging.pipeline.FTProcessor`: the one passed in, or a 2-D
:class:`~repro.imaging.pipeline.SingleFieldProcessor` over the given
gridder.  Anything exposing the :class:`repro.core.IDG` interface
(``make_plan``/``grid``/``degrid``) works as that gridder, which is how the
W-projection baseline is compared end-to-end.  The PSF, CLEAN-window and
auto-threshold helpers here are shared with
:func:`repro.calibration.self_calibrate`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.aterms.schedule import ATermSchedule
from repro.constants import COMPLEX_DTYPE
from repro.core.pipeline import IDG
from repro.core.scratch import trim_thread_arenas
from repro.imaging.clean import CleanResult, hogbom_clean
from repro.imaging.pipeline import (
    FTProcessor,
    ImagingContext,
    SingleFieldProcessor,
)


@dataclass
class MajorCycleResult:
    """Result of :meth:`ImagingCycle.run`.

    Attributes
    ----------
    model_image:
        ``(G, G)`` real CLEAN-component image (Stokes I).
    residual_image:
        Final ``(G, G)`` Stokes-I residual dirty image.
    psf:
        ``(G, G)`` point spread function used by CLEAN.
    cycles:
        Per-major-cycle :class:`CleanResult` records.
    residual_rms_history:
        Residual-image rms after each major cycle.
    """

    model_image: np.ndarray
    residual_image: np.ndarray
    psf: np.ndarray
    cycles: list[CleanResult]
    residual_rms_history: list[float]

    @property
    def n_major_cycles(self) -> int:
        return len(self.cycles)

    def total_clean_flux(self) -> float:
        return float(sum(c.component_flux() for c in self.cycles))

    def restored(self):
        """Restored image: model convolved with the fitted clean beam plus
        the residual (see :mod:`repro.imaging.restore`).

        Returns ``(restored_image, beam_fit)``.
        """
        from repro.imaging.restore import restore_image

        return restore_image(self.model_image, self.residual_image, psf=self.psf)


def psf_image(
    invert: Callable[[np.ndarray], np.ndarray], vis_shape: tuple[int, ...]
) -> np.ndarray:
    """PSF: the Stokes-I image ``invert`` makes of unit visibilities on the
    ``(n_bl, T, C)`` layout ``vis_shape``, normalised to peak 1."""
    unit = np.zeros(vis_shape + (2, 2), dtype=COMPLEX_DTYPE)
    unit[..., 0, 0] = 1.0
    unit[..., 1, 1] = 1.0
    psf = invert(unit)
    centre = psf.shape[0] // 2
    peak = psf[centre, centre]
    if peak == 0:
        raise RuntimeError("PSF centre is zero — no visibilities were gridded")
    return psf / peak


def clean_window(grid_size: int, fraction: float) -> np.ndarray | None:
    """Boolean mask of the central ``fraction`` of the image (``None`` —
    the whole image — unless ``0 < fraction < 1``)."""
    if not (0.0 < fraction < 1.0):
        return None
    margin = int(round(grid_size * (1.0 - fraction) / 2.0))
    window = np.zeros((grid_size, grid_size), dtype=bool)
    window[margin : grid_size - margin, margin : grid_size - margin] = True
    return window


def windowed_stats(
    image: np.ndarray, window: np.ndarray | None
) -> tuple[float, float]:
    """``(rms, peak |value|)`` of an image inside a CLEAN window."""
    values = image[window] if window is not None else image
    return float(np.sqrt((values**2).mean())), float(np.abs(values).max())


def clean_threshold(
    rms: float, peak: float, threshold_factor: float, major_gain: float
) -> float:
    """The minor loop's auto-threshold: ``threshold_factor`` times the
    residual rms, or the point where the peak has dropped by
    ``major_gain`` (WSClean's ``-mgain``), whichever is higher."""
    return max(threshold_factor * rms, (1.0 - major_gain) * peak)


class ImagingCycle:
    """Drives major cycles over a fixed observation with a given gridder.

    ``processor`` optionally replaces the default 2-D processor over
    ``idg`` with any :class:`repro.imaging.pipeline.FTProcessor`
    (w-stacked, faceted, ...); the major-cycle logic is identical either
    way.  The default processor grids on ``idg`` itself, not on an
    executor built by :func:`repro.imaging.pipeline.make_engine`.
    """

    def __init__(
        self,
        idg: IDG,
        uvw_m: np.ndarray,
        frequencies_hz: np.ndarray,
        baselines: np.ndarray,
        aterms: ATermGenerator | None = None,
        aterm_schedule: ATermSchedule | None = None,
        processor: FTProcessor | None = None,
    ):
        self.idg = idg
        self.aterms = aterms
        if processor is None:
            context = ImagingContext(
                idg, uvw_m, frequencies_hz, baselines,
                aterms=aterms, aterm_schedule=aterm_schedule,
            )
            processor = SingleFieldProcessor(context, engine=idg)
        self.processor = processor
        self.plan = processor.plan
        # Only override a given processor's own A-term default when this
        # cycle was given one explicitly.
        self._aterm_override = {} if aterms is None else {"aterms": aterms}

    # ------------------------------------------------------------ building
    def make_dirty_image(self, visibilities: np.ndarray) -> np.ndarray:
        """Stokes-I dirty image of a visibility set (grid + IFFT + correct)."""
        return self.processor.invert(
            visibilities, **self._aterm_override
        ).stokes_i

    def make_psf(self) -> np.ndarray:
        """PSF: the image of unit visibilities, normalised to peak 1."""
        return psf_image(self.make_dirty_image, self.plan.flagged.shape)

    def predict(self, model_image_stokes_i: np.ndarray) -> np.ndarray:
        """Predict visibilities of a Stokes-I model image (FFT + degrid)."""
        return self.processor.predict(
            model_image_stokes_i, **self._aterm_override
        )

    # ------------------------------------------------------------- driving
    def run(
        self,
        visibilities: np.ndarray,
        n_major: int = 3,
        gain: float = 0.1,
        minor_iterations: int = 200,
        threshold_factor: float = 3.0,
        clean_window_fraction: float = 0.75,
        major_gain: float = 0.8,
    ) -> MajorCycleResult:
        """Run up to ``n_major`` major cycles.

        ``threshold_factor`` sets each cycle's CLEAN stop threshold at
        ``factor * residual rms`` — a standard auto-threshold rule.
        ``clean_window_fraction`` restricts CLEAN peaks to the central
        fraction of the image: near the edge the taper grid correction
        divides by a vanishing taper, amplifying aliasing into spurious
        peaks (the usual reason imagers pad their grids and image only the
        interior).
        ``major_gain`` (WSClean's ``-mgain``) stops each minor loop once the
        residual peak has dropped by this fraction.  The PSF is only
        approximately shift-invariant (w-terms make the true response
        position-dependent), so minor cycles must not dig too deep before the
        exact degridding predict of the next major cycle resynchronises the
        residual.
        """
        if not (0.0 < major_gain <= 1.0):
            raise ValueError("major_gain must be in (0, 1]")
        psf = self.make_psf()
        g = psf.shape[0]
        model = np.zeros((g, g), dtype=np.float64)
        window = clean_window(g, clean_window_fraction)
        cycles: list[CleanResult] = []
        rms_history: list[float] = []
        residual_image = self.make_dirty_image(visibilities)

        for _ in range(n_major):
            rms, peak = windowed_stats(residual_image, window)
            result = hogbom_clean(
                residual_image, psf, gain=gain,
                threshold=clean_threshold(rms, peak, threshold_factor, major_gain),
                max_iterations=minor_iterations,
                window=window,
            )
            cycles.append(result)
            if len(result.components) == 0:
                rms_history.append(rms)
                break
            model += result.model_image
            predicted = self.predict(model)
            residual_vis = np.asarray(visibilities) - predicted
            residual_image = self.make_dirty_image(residual_vis)
            rms_history.append(windowed_stats(residual_image, window)[0])
            # The gridding/degridding above is quiescent here; shrink the
            # scratch arenas to this cycle's working set so one oversized
            # early bucket doesn't pin its peak footprint for the whole run.
            trim_thread_arenas()

        return MajorCycleResult(
            model_image=model,
            residual_image=residual_image,
            psf=psf,
            cycles=cycles,
            residual_rms_history=rms_history,
        )
