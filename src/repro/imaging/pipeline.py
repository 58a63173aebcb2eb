"""Pluggable invert/predict pipeline: 2-D, w-stacked, faceted imaging.

This is the repo's equivalent of ARL's ``ftprocessor`` and the only 2-D
invert/predict in the package: a single :class:`FTProcessor` contract —
``invert`` (visibilities → normalised image) and ``predict`` (model image
→ visibilities) — built by :func:`make_ftprocessor` in one of four kinds:

* ``"2d"``            — plain IDG on the master grid;
* ``"wstack"``        — IDG under w-stacking
  (:func:`repro.core.wstack.split_plan_by_w` layers);
* ``"facets"``        — phase-rotated facets, plain IDG per facet;
* ``"wstack_facets"`` — w-stacking inside every facet.

Two classes implement them: :class:`SingleFieldProcessor` (the un-faceted
kinds) and :class:`FacetedProcessor` (one field per facet tile), both
assembled from the same single-field core.
:class:`~repro.imaging.cycle.ImagingCycle`,
:class:`~repro.imaging.spectral.SpectralImager` and
:func:`~repro.calibration.self_calibrate` all invert and predict through
them.

Every variant uses IDG as the inner gridder — through **any** of the four
executors (serial / threads / streaming / processes), selected on the
:class:`ImagingContext`.  Because all executors are bit-identical on
grids and predictions (the PR 8 conformance corpus pins this) and the
image-domain post-processing here is identical numpy code, a pipeline
result is ``np.array_equal`` across executors.

Normalisation contract: ``invert`` returns an :class:`InvertResult` whose
``image`` is the taper-corrected complex ``(4, G, G)`` dirty image in flux
units (``stokes_i`` reduces it); ``predict`` takes a ``(G, G)`` Stokes-I or
``(4, G, G)`` model and returns ``(n_bl, T, C, 2, 2)`` visibilities.
Weighted imaging passes Briggs/uniform weights from
:mod:`repro.imaging.weighting` straight into ``invert`` — the weights
multiply the visibilities and their (coverage-masked) sum normalises the
image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Final, Protocol

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.aterms.schedule import ATermSchedule
from repro.constants import ACCUM_DTYPE, COMPLEX_DTYPE
from repro.core.pipeline import IDG
from repro.core.plan import Plan
from repro.core.wstack import WLayer, split_plan_by_w
from repro.imaging.facets import (
    FacetScheme,
    Facet,
    embed_tile,
    extract_tile,
    facet_idg,
    facet_rotation_phasor,
    facet_shifted_uvw,
    plan_facets,
)
from repro.imaging.image import (
    dirty_image_from_grid,
    model_image_to_grid,
    stokes_i_image,
)
from repro.imaging.weighting import apply_weights
from repro.kernels.fft import centered_fft2, centered_ifft2
from repro.kernels.spheroidal import grid_correction
from repro.kernels.wkernel import w_kernel_image

__all__ = [
    "EXECUTORS",
    "FTProcessor",
    "FacetedProcessor",
    "ImagingContext",
    "InvertResult",
    "SingleFieldProcessor",
    "make_engine",
    "make_ftprocessor",
    "plan_coverage",
    "plan_weight_sum",
]

#: Executor names an :class:`ImagingContext` accepts.
EXECUTORS = ("serial", "threads", "streaming", "processes")

#: Sentinel distinguishing "use the context's A-terms" from an explicit
#: ``None`` (identity) override on ``invert``/``predict``.
_UNSET: Any = object()


def make_engine(
    idg: IDG,
    executor: str = "serial",
    n_workers: int = 2,
    n_buffers: int = 3,
    start_method: str = "fork",
) -> Any:
    """Wrap an IDG facade in one of the four executors.

    All executors run the same work-group program and accept the same
    keywords — ``grid(plan, uvw, vis, aterms=, grid=, flags=,
    aterm_fields=)`` / ``degrid(plan, uvw, grid, aterms=, aterm_fields=,
    out=)`` — and produce bit-identical results, so callers can treat the
    return value as an opaque gridding engine.
    """
    if executor == "serial":
        return idg
    if executor == "threads":
        from repro.parallel.executor import ParallelIDG

        return ParallelIDG(idg, n_workers=n_workers)
    if executor == "streaming":
        from repro.runtime import RuntimeConfig, StreamingIDG

        return StreamingIDG(
            idg,
            RuntimeConfig(
                n_buffers=n_buffers,
                gridder_workers=n_workers,
                fft_workers=n_workers,
                degridder_workers=n_workers,
            ),
        )
    if executor == "processes":
        from repro.parallel.process import ProcessConfig, ProcessShardedIDG

        return ProcessShardedIDG(
            idg, ProcessConfig(n_procs=n_workers, start_method=start_method)
        )
    raise ValueError(
        f"executor must be one of {EXECUTORS}, got {executor!r}"
    )


@dataclass
class ImagingContext:
    """Everything the FT processors share for one observation.

    Attributes
    ----------
    idg:
        The configured IDG facade — its gridspec/config define the master
        grid geometry and inner-gridder parameters.
    uvw_m, frequencies_hz, baselines:
        The observation.
    aterms:
        Default A-term generator applied by ``invert``/``predict`` (both
        accept a per-call override).
    aterm_schedule:
        A-term update cadence baked into every plan (required whenever
        ``aterms`` vary per interval — e.g. gain solutions).
    executor:
        One of :data:`EXECUTORS`; how every inner grid/degrid executes.
    executor_workers, executor_buffers, start_method:
        Executor sizing knobs (ignored by ``serial``).
    """

    idg: IDG
    uvw_m: np.ndarray
    frequencies_hz: np.ndarray
    baselines: np.ndarray
    aterms: ATermGenerator | None = None
    aterm_schedule: ATermSchedule | None = None
    executor: str = "serial"
    executor_workers: int = 2
    executor_buffers: int = 3
    start_method: str = "fork"

    def __post_init__(self) -> None:
        self.uvw_m = np.asarray(self.uvw_m, dtype=np.float64)
        self.frequencies_hz = np.atleast_1d(
            np.asarray(self.frequencies_hz, dtype=np.float64)
        )
        self.baselines = np.asarray(self.baselines)
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )

    def engine(self, idg: IDG | None = None) -> Any:
        """An executor-wrapped gridding engine (for ``idg`` or the master)."""
        return make_engine(
            idg if idg is not None else self.idg,
            self.executor,
            n_workers=self.executor_workers,
            n_buffers=self.executor_buffers,
            start_method=self.start_method,
        )


@dataclass(frozen=True)
class InvertResult:
    """Normalised dirty image plus the weight that normalised it."""

    image: np.ndarray  # (4, G, G) complex, taper-corrected, flux units
    weight_sum: float

    @property
    def stokes_i(self) -> np.ndarray:
        """Real ``(G, G)`` Stokes-I reduction of ``image``."""
        return stokes_i_image(self.image)


# --------------------------------------------------------------- weighting


def plan_coverage(plan: Plan) -> np.ndarray:
    """``(n_bl, T, C)`` bool mask of samples the plan's work items grid."""
    out = np.zeros(plan.flagged.shape, dtype=bool)
    for item in plan:
        out[
            item.baseline,
            item.time_start : item.time_end,
            item.channel_start : item.channel_end,
        ] = True
    return out & ~plan.flagged


def plan_weight_sum(
    plan: Plan,
    weights: np.ndarray | None = None,
    flags: np.ndarray | None = None,
) -> float:
    """Total gridded weight of a plan under optional weights and flags.

    With unit weights and no flags this equals
    ``plan.statistics.n_visibilities_gridded``; otherwise the imaging
    weights are summed over exactly the samples the gridder will accept
    (covered by a work item, not plan-flagged, not caller-flagged).
    """
    if weights is None and flags is None:
        return float(plan.statistics.n_visibilities_gridded)
    covered = plan_coverage(plan)
    if flags is not None:
        covered &= ~np.asarray(flags, dtype=bool)
    if weights is None:
        return float(covered.sum())
    weights = np.asarray(weights)
    if weights.shape != covered.shape:
        raise ValueError(
            f"weights shape {weights.shape} != visibility layout {covered.shape}"
        )
    return float(weights[covered].sum())


def _as_model4(model_image: np.ndarray, grid_size: int) -> np.ndarray:
    """Lift a ``(G, G)`` Stokes-I model to the ``(4, G, G)`` XX=YY=I form
    (pass-through for an explicit 4-polarisation model)."""
    model_image = np.asarray(model_image)
    if model_image.shape == (4, grid_size, grid_size):
        return model_image.astype(ACCUM_DTYPE, copy=False)
    if model_image.shape != (grid_size, grid_size):
        raise ValueError(
            f"model image must be ({grid_size}, {grid_size}) Stokes I or "
            f"(4, {grid_size}, {grid_size}), got {model_image.shape}"
        )
    model4 = np.zeros((4, grid_size, grid_size), dtype=ACCUM_DTYPE)
    model4[0] = model_image  # XX = YY = I  (B = I * eye convention)
    model4[3] = model_image
    return model4


def _weighted(
    visibilities: np.ndarray, weights: np.ndarray | None
) -> np.ndarray:
    """Visibilities multiplied by imaging weights (identity when None)."""
    if weights is None:
        return visibilities
    return apply_weights(visibilities, np.asarray(weights))


# ------------------------------------------------------------ single field


class _Field:
    """One phase centre: a grid (master or facet) with optional w layers.

    This is the shared core both processors are assembled from: the 2-D
    kinds use a layer-less field, the w-stack kinds split the field's plan
    into :class:`~repro.core.wstack.WLayer` sub-plans; the facet kinds run
    one field per tile on the facet grid.
    """

    def __init__(
        self,
        idg: IDG,
        engine: Any,
        uvw_m: np.ndarray,
        frequencies_hz: np.ndarray,
        baselines: np.ndarray,
        aterm_schedule: ATermSchedule | None,
        n_w_planes: int | None,
    ):
        self.idg = idg
        self.engine = engine
        self.uvw_m = uvw_m
        self.plan = idg.make_plan(
            uvw_m, frequencies_hz, baselines, aterm_schedule=aterm_schedule
        )
        # ``None``: a layer-less 2-D field; otherwise exactly ``n_w_planes``
        # w layers (fewer only when a layer would be empty).
        self.layers: list[WLayer] | None = (
            None
            if n_w_planes is None
            else split_plan_by_w(self.plan, uvw_m, n_w_planes)
        )

    # -- helpers (hoisted out of the layer loops: IDG002/IDG003 style) -----

    def _grid_correction(self) -> np.ndarray:
        return grid_correction(
            self.idg.gridspec.grid_size,
            taper=self.idg.config.taper,
            beta=self.idg.config.taper_beta,
        )

    def _layer_image(
        self,
        layer: WLayer,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None,
        flags: np.ndarray | None,
    ) -> np.ndarray:
        """One layer's raw (unnormalised) w-corrected image."""
        gs = self.idg.gridspec
        g = gs.grid_size
        grid = self.engine.grid(
            layer.plan, self.uvw_m, visibilities, aterms=aterms, flags=flags
        )
        image = centered_ifft2(grid, axes=(-2, -1)) * (g * g)
        return image * w_kernel_image(layer.w_centre, g, gs.image_size, sign=+1.0)

    def _layer_predict(
        self,
        layer: WLayer,
        pre_corrected: np.ndarray,
        aterms: ATermGenerator | None,
    ) -> np.ndarray:
        """One layer's predicted visibilities (disjoint blocks per layer)."""
        gs = self.idg.gridspec
        screened = pre_corrected * w_kernel_image(
            layer.w_centre, gs.grid_size, gs.image_size, sign=-1.0
        )
        grid = centered_fft2(screened, axes=(-2, -1)).astype(COMPLEX_DTYPE)
        return self.engine.degrid(layer.plan, self.uvw_m, grid, aterms=aterms)

    # -- the two directions ------------------------------------------------

    def weight_sum(
        self, weights: np.ndarray | None, flags: np.ndarray | None
    ) -> float:
        return plan_weight_sum(self.plan, weights, flags)

    def invert(
        self,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None,
        flags: np.ndarray | None,
        weight_sum: float,
    ) -> np.ndarray:
        """Normalised, taper-corrected ``(4, g, g)`` image of this field."""
        if weight_sum <= 0:
            raise ValueError(
                "weight_sum must be positive — no unflagged visibility was "
                "covered by the plan (or the imaging weights sum to zero)"
            )
        if self.layers is None:
            grid = self.engine.grid(
                self.plan, self.uvw_m, visibilities, aterms=aterms, flags=flags
            )
            return dirty_image_from_grid(
                grid,
                self.idg.gridspec,
                weight_sum=weight_sum,
                taper=self.idg.config.taper,
                taper_beta=self.idg.config.taper_beta,
            )
        g = self.idg.gridspec.grid_size
        accum = np.zeros((4, g, g), dtype=ACCUM_DTYPE)
        for layer in self.layers:
            accum += self._layer_image(layer, visibilities, aterms, flags)
        accum /= weight_sum
        return accum / self._grid_correction()

    def predict(
        self, model4: np.ndarray, aterms: ATermGenerator | None
    ) -> np.ndarray:
        """Predicted ``(n_bl, T, C, 2, 2)`` visibilities of a ``(4, g, g)``
        model on this field's raster."""
        if self.layers is None:
            grid = model_image_to_grid(
                model4,
                self.idg.gridspec,
                taper=self.idg.config.taper,
                taper_beta=self.idg.config.taper_beta,
            )
            return self.engine.degrid(self.plan, self.uvw_m, grid, aterms=aterms)
        pre = model4 / self._grid_correction()
        n_bl, n_times, _ = self.uvw_m.shape
        out = np.zeros(
            (n_bl, n_times, self.plan.n_channels, 2, 2), dtype=COMPLEX_DTYPE
        )
        for layer in self.layers:
            out += self._layer_predict(layer, pre, aterms)  # disjoint blocks
        return out


# -------------------------------------------------------------- processors


class FTProcessor(Protocol):
    """The invert/predict contract every processor implements."""

    @property
    def plan(self) -> Plan: ...

    def invert(
        self,
        visibilities: np.ndarray,
        weights: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterms: ATermGenerator | None = _UNSET,
    ) -> InvertResult: ...

    def predict(
        self,
        model_image: np.ndarray,
        aterms: ATermGenerator | None = _UNSET,
    ) -> np.ndarray: ...


def _resolve_aterms(
    ctx: ImagingContext, override: ATermGenerator | None
) -> ATermGenerator | None:
    return ctx.aterms if override is _UNSET else override


class SingleFieldProcessor:
    """The un-faceted kinds: one field on the master grid, either plain IDG
    (``n_w_planes=None``, w handled exactly per subgrid) or IDG under
    w-stacking (paper Section IV).

    ``engine`` runs every grid/degrid: :func:`make_ftprocessor` passes
    ``ctx.engine()``, :class:`~repro.imaging.cycle.ImagingCycle` its own
    gridder.  ``n_w_planes == 1`` is a single mean-w layer: plain IDG up to
    a constant w shift the screen exactly undoes — kept on the layered path
    so the kind stays honest about its math.
    """

    def __init__(
        self, ctx: ImagingContext, engine: Any, n_w_planes: int | None = None
    ):
        self.ctx = ctx
        self._field = _Field(
            ctx.idg,
            engine,
            ctx.uvw_m,
            ctx.frequencies_hz,
            ctx.baselines,
            ctx.aterm_schedule,
            n_w_planes,
        )

    @property
    def plan(self) -> Plan:
        """The master-grid execution plan (shape/weight bookkeeping)."""
        return self._field.plan

    def invert(
        self,
        visibilities: np.ndarray,
        weights: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterms: ATermGenerator | None = _UNSET,
    ) -> InvertResult:
        weight_sum = self._field.weight_sum(weights, flags)
        image = self._field.invert(
            _weighted(visibilities, weights),
            _resolve_aterms(self.ctx, aterms),
            flags,
            weight_sum,
        )
        return InvertResult(image=image, weight_sum=weight_sum)

    def predict(
        self,
        model_image: np.ndarray,
        aterms: ATermGenerator | None = _UNSET,
    ) -> np.ndarray:
        model4 = _as_model4(model_image, self.ctx.idg.gridspec.grid_size)
        return self._field.predict(model4, _resolve_aterms(self.ctx, aterms))


class FacetedProcessor:
    """The faceted kinds: phase-rotated facets, each imaged by plain IDG
    (``n_w_planes=None``) or w-stacking — the full wide-field decomposition
    (w planes x facets).

    All facets share the facet grid geometry and executor engine (same
    pixel scale, same uv extent), but each facet grids with its own
    :func:`~repro.imaging.facets.facet_shifted_uvw` coordinates — the
    per-facet (u, v) shift that absorbs the first-order tangent-plane w
    error — and therefore builds its own plan.
    """

    def __init__(
        self,
        ctx: ImagingContext,
        n_facets: int,
        n_w_planes: int | None,
        padding: float,
    ):
        self.ctx = ctx
        self.scheme: FacetScheme = plan_facets(
            ctx.idg.gridspec, n_facets, padding=padding
        )
        self._idg_f = facet_idg(ctx.idg, self.scheme)
        engine = ctx.engine(self._idg_f)
        self._fields = [
            _Field(
                self._idg_f,
                engine,
                facet_shifted_uvw(ctx.uvw_m, facet),
                ctx.frequencies_hz,
                ctx.baselines,
                ctx.aterm_schedule,
                n_w_planes,
            )
            for facet in self.scheme.facets
        ]

    @property
    def plan(self) -> Plan:
        """The first facet's execution plan (shape/weight bookkeeping; all
        facets share the visibility layout)."""
        return self._fields[0].plan

    # -- per-facet helpers (loop bodies live here, not in the loop) --------

    def _rotate(self, visibilities: np.ndarray, facet: Facet, sign: float) -> np.ndarray:
        """Phase-rotate a visibility set to (+1) / from (-1) a facet centre."""
        phasor = facet_rotation_phasor(
            self.ctx.uvw_m, self.ctx.frequencies_hz, facet.l0, facet.m0, sign
        )
        return (visibilities * phasor[..., np.newaxis, np.newaxis]).astype(
            COMPLEX_DTYPE
        )

    def _facet_invert_into(
        self,
        mosaic: np.ndarray,
        index: int,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None,
        flags: np.ndarray | None,
        weights: np.ndarray | None,
    ) -> None:
        """Image one facet and place its central tile into the mosaic."""
        facet = self.scheme.facets[index]
        field = self._fields[index]
        rotated = self._rotate(visibilities, facet, sign=+1.0)
        weight_sum = field.weight_sum(weights, flags)
        image = field.invert(rotated, aterms, flags, weight_sum)
        tile = extract_tile(image, self.scheme, facet)
        t = self.scheme.tile_size
        mosaic[
            :, facet.row0 : facet.row0 + t, facet.col0 : facet.col0 + t
        ] = tile

    def _facet_predict(
        self,
        model4: np.ndarray,
        index: int,
        aterms: ATermGenerator | None,
    ) -> np.ndarray:
        """One facet's (de-rotated) contribution to the predicted set."""
        facet = self.scheme.facets[index]
        facet_model = embed_tile(model4, self.scheme, facet)
        predicted = self._fields[index].predict(facet_model, aterms)
        return self._rotate(predicted, facet, sign=-1.0)

    # -- the two directions ------------------------------------------------

    def invert(
        self,
        visibilities: np.ndarray,
        weights: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterms: ATermGenerator | None = _UNSET,
    ) -> InvertResult:
        weighted = _weighted(visibilities, weights)
        aterms_ = _resolve_aterms(self.ctx, aterms)
        g = self.scheme.master.grid_size
        mosaic = np.zeros((4, g, g), dtype=ACCUM_DTYPE)
        # each facet normalises by its own gridded weight (the uv shift can
        # move samples on/off the grid edge per facet)
        for index in range(len(self.scheme.facets)):
            self._facet_invert_into(
                mosaic, index, weighted, aterms_, flags, weights
            )
        return InvertResult(
            image=mosaic,
            weight_sum=self._fields[0].weight_sum(weights, flags),
        )

    def predict(
        self,
        model_image: np.ndarray,
        aterms: ATermGenerator | None = _UNSET,
    ) -> np.ndarray:
        model4 = _as_model4(model_image, self.scheme.master.grid_size)
        aterms_ = _resolve_aterms(self.ctx, aterms)
        n_bl, n_times, _ = self.ctx.uvw_m.shape
        out = np.zeros(
            (n_bl, n_times, self.ctx.frequencies_hz.size, 2, 2),
            dtype=COMPLEX_DTYPE,
        )
        # every sky component lives in exactly one facet's tile, so the
        # per-facet predictions add to the full-model prediction.
        for index in range(len(self.scheme.facets)):
            out += self._facet_predict(model4, index, aterms_)
        return out


#: Each kind's options and their defaults.
_KINDS: Final = {
    "2d": {},
    "wstack": {"n_w_planes": 4},
    "facets": {"n_facets": 2, "padding": 1.5},
    "wstack_facets": {"n_facets": 2, "n_w_planes": 4, "padding": 1.5},
}


def make_ftprocessor(ctx: ImagingContext, kind: str = "2d", **options: Any) -> FTProcessor:
    """Build a processor by kind (``2d``/``wstack``/``facets``/
    ``wstack_facets``); ``options`` override the kind's defaults
    (``n_w_planes=4``, ``n_facets=2``, ``padding=1.5``) and must apply to
    it.  Every grid/degrid runs on ``ctx.engine()``."""
    try:
        defaults = _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"kind must be one of {sorted(_KINDS)}, got {kind!r}"
        ) from None
    unknown = sorted(set(options) - set(defaults))
    if unknown:
        raise TypeError(f"kind {kind!r} takes no option(s) {unknown}")
    chosen = {**defaults, **options}
    n_w_planes = chosen.get("n_w_planes")
    if "n_w_planes" in chosen and not n_w_planes > 0:
        raise ValueError("n_w_planes must be positive")
    if "n_facets" in chosen:
        return FacetedProcessor(
            ctx, chosen["n_facets"], n_w_planes, chosen["padding"]
        )
    return SingleFieldProcessor(ctx, ctx.engine(), n_w_planes)
