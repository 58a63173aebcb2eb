"""The benchmark's three workloads: inputs from a seed, set-up, one cycle, checks.

Each workload is a class with the same surface:

``__init__(seed, size, work_dir)``
    Generates the inputs (observation, sky, visibilities, gains or an input
    store).  Untimed.  The array layout, the sky and the self-cal gains are
    a fixed problem, drawn once from ``FIELD_SEED``; ``seed`` draws the
    thermal-noise realisation added to the visibilities.  A sky drawn per
    seed would move the accuracy metrics and the self-cal cycle count from
    run to run by far more than any bound could absorb.
``setup(backend=None)``
    Everything between having the inputs and being ready for the first grid
    call: IDG construction, plan, A-term fields, store open.  Timed as
    ``setup_s``.  ``backend`` is ``None`` (the program's default) except in
    the traced run, which passes a delegating backend.
``cycle(state)``
    One timed workload cycle; returns its outputs.
``check(outputs)``
    Untimed correctness checks: returns ``(failures, accuracy)``.
``same(a, b)``
    Bit-identity of two cycles' outputs.

Only problem parameters are passed to the program (stations, timesteps,
channels, grid and subgrid size, kernel support, T̃_max, A-term cadence,
executor and worker count, checkpoint interval).  Every code-path knob
(``backend``, ``batched``, ``channel_recurrence``, ``vis_batch``,
``work_group_size``) stays at its default, so a change of default is measured.
See README.md for why each workload exists.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import replace
from typing import Final

import numpy as np

from repro.aterms.generators import GainATerm
from repro.aterms.schedule import ATermSchedule
from repro.calibration.gains import random_gains
from repro.calibration.selfcal import (
    SelfCalConfig,
    corrupt_with_interval_gains,
    gain_amplitude_error,
    self_calibrate,
    selfcal_schedule,
)
from repro.constants import SPEED_OF_LIGHT
from repro.core.pipeline import IDG, IDGConfig
from repro.data.store import DatasetWriter, open_store
from repro.imaging.cycle import ImagingCycle
from repro.imaging.image import dirty_image_from_grid, model_image_to_grid, stokes_i_image
from repro.imaging.metrics import dynamic_range
from repro.imaging.pipeline import ImagingContext, make_engine, make_ftprocessor, plan_coverage
from repro.kernels.wkernel import n_term
from repro.parallel.process import ProcessConfig, ProcessShardedIDG
from repro.runtime.checkpoint import load_checkpoint, plan_signature
from repro.sky.model import SkyModel
from repro.sky.simulate import predict_visibilities
from repro.telescope.observation import ska1_low_observation

#: Worker threads or processes of the parallel executors (the host's nproc).
WORKERS = 2
#: Station-layout seed: the array is part of the problem, not of the seed.
LAYOUT_SEED = 0
#: Seed of the fixed sky and gains (the "standard field" of every run).
FIELD_SEED = 17
#: Thermal noise per visibility and polarisation [Jy], drawn from the run seed.
NOISE_JY = 0.05
#: Correctness tolerances, recorded with every result.
IMAGE_TOL = 1e-2
PREDICT_TOL = 2e-2
AMPLITUDE_ERROR_GATE = 0.01
DR_GATE = 5.0

#: Problem sizes.  ``full`` is what BENCHMARK.json runs; ``tiny`` is the
#: smoke size of the benchmark's own tests.
SIZES: Final = {
    "via-cycle": {
        "full": dict(stations=20, times=64, channels=16, grid=512),
        "tiny": dict(stations=6, times=16, channels=4, grid=256),
    },
    "selfcal-wstack": {
        "full": dict(stations=16, times=64, channels=4, grid=256),
        "tiny": dict(stations=10, times=32, channels=2, grid=128),
    },
    "ooc-roundtrip": {
        "full": dict(stations=30, times=64, channels=8, grid=512),
        "tiny": dict(stations=8, times=32, channels=2, grid=256),
    },
}


# ------------------------------------------------------------------ helpers


def random_sky(rng: np.random.Generator, gridspec, n_sources: int = 3,
               companion_jy: tuple[float, float] = (1.0, 3.0)) -> SkyModel:
    """``n_sources`` point sources on pixel centres in the central third of
    the field, one of 5 Jy and the rest drawn from ``companion_jy``, at least
    8 pixels apart."""
    g = gridspec.grid_size
    dl = gridspec.pixel_scale
    half = g // 6
    pixels: list[tuple[int, int]] = []
    while len(pixels) < n_sources:
        p = tuple(int(v) for v in rng.integers(-half, half + 1, size=2))
        if all(max(abs(p[0] - q[0]), abs(p[1] - q[1])) >= 8 for q in pixels):
            pixels.append(p)
    fluxes = np.concatenate([[5.0], rng.uniform(*companion_jy, n_sources - 1)])
    offsets = np.asarray(pixels, dtype=np.float64)
    return SkyModel(
        l=offsets[:, 1] * dl,
        m=offsets[:, 0] * dl,
        brightness=fluxes[:, None, None] * np.eye(2, dtype=np.complex128),
    )


def add_noise(visibilities: np.ndarray, seed: int) -> np.ndarray:
    """``visibilities`` plus complex Gaussian noise of ``NOISE_JY`` rms."""
    rng = np.random.default_rng(seed)
    shape = visibilities.shape
    noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (NOISE_JY / np.sqrt(2))
    return (visibilities + noise).astype(visibilities.dtype)


def sky_pixels(sky: SkyModel, gridspec) -> list[tuple[int, int]]:
    """(row, col) of each source plus five fixed pixels off the sources."""
    g = gridspec.grid_size
    dl = gridspec.pixel_scale
    sources = [
        (int(round(m / dl)) + g // 2, int(round(l / dl)) + g // 2)
        for l, m in zip(sky.l, sky.m)
    ]
    q = g // 8
    fixed = [(g // 2, g // 2), (g // 2 + q, g // 2 + q), (g // 2 - q, g // 2 + q),
             (g // 2 + q, g // 2 - q), (g // 2 - q, g // 2 - q)]
    return sources + [p for p in fixed if p not in sources]


def model_sky(model_image: np.ndarray, gridspec) -> SkyModel:
    """The point sources of a Stokes-I component image (``B = flux * eye``)."""
    rows, cols = np.nonzero(model_image)
    g = gridspec.grid_size
    dl = gridspec.pixel_scale
    flux = model_image[rows, cols]
    return SkyModel(
        l=(cols - g // 2) * dl,
        m=(rows - g // 2) * dl,
        brightness=flux[:, None, None] * np.eye(2, dtype=np.complex128),
    )


def dft_image(uvw_m, frequencies_hz, visibilities, covered, pixels, gridspec) -> np.ndarray:
    """Stokes-I dirty image by direct Fourier sum at ``pixels`` only.

    ``I(l, m) = Re sum_k ((XX + YY) / 2) exp(+2 pi i (u l + v m + w n)) / W``
    over the covered samples, the inverse of :func:`predict_visibilities`.
    """
    g = gridspec.grid_size
    dl = gridspec.pixel_scale
    stokes = 0.5 * (visibilities[..., 0, 0] + visibilities[..., 1, 1]).astype(np.complex128)
    stokes = np.where(covered, stokes, 0.0)
    weight = float(covered.sum())
    scale = np.asarray(frequencies_hz) / SPEED_OF_LIGHT
    out = np.empty(len(pixels))
    for k, (row, col) in enumerate(pixels):
        l, m = (col - g // 2) * dl, (row - g // 2) * dl
        lmn = np.array([l, m, float(n_term(np.array(l), np.array(m)))])
        delay = np.asarray(uvw_m) @ lmn  # (bl, t)
        phase = 2.0 * np.pi * delay[..., None] * scale  # (bl, t, c)
        out[k] = float(np.real((stokes * np.exp(1j * phase)).sum())) / weight  # idglint: disable=IDG002  (oracle: direct Fourier sum)
    return out


def image_error(image, reference, pixels) -> float:
    """Max error at ``pixels`` relative to the reference's largest value there."""
    values = np.array([image[r, c] for r, c in pixels])
    return float(np.abs(values - reference).max() / np.abs(reference).max())


def predict_error(predicted, reference, covered) -> float:
    """Max error of the XX and YY predictions on covered samples, relative to
    the reference's largest amplitude."""
    pols = (slice(None), slice(None), slice(None), [0, 1], [0, 1])
    p = predicted[pols][covered]
    r = reference[pols][covered]
    return float(np.abs(p - r).max() / np.abs(r).max())


def tolerance_failures(accuracy: dict) -> list[str]:
    failures = []
    if not accuracy["image_rel_err"] <= IMAGE_TOL:
        failures.append(f"image_rel_err {accuracy['image_rel_err']:.3g} > {IMAGE_TOL}")
    if not accuracy["predict_rel_err"] <= PREDICT_TOL:
        failures.append(f"predict_rel_err {accuracy['predict_rel_err']:.3g} > {PREDICT_TOL}")
    return failures


def all_finite(outputs: dict) -> list[str]:
    return [
        f"{name} has non-finite values"
        for name, value in outputs.items()
        if isinstance(value, np.ndarray) and not np.isfinite(value).all()
    ]


def arrays_equal(a: dict, b: dict) -> bool:
    """Bit-identity of two output dicts (arrays by ``array_equal``, rest by ==)."""
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, np.ndarray):
            if not (isinstance(y, np.ndarray) and x.shape == y.shape
                    and np.array_equal(x, y)):
                return False
        elif x != y:
            return False
    return True


# ---------------------------------------------------------------- workloads


class Workload:
    """Defaults of the workload surface (module docstring)."""

    name = ""

    def engines(self, state) -> list:
        """Executors built in ``setup`` whose calls the trace should wrap."""
        return []

    same = staticmethod(arrays_equal)

    def discard(self, outputs: dict) -> None:
        """Release what one cycle's outputs hold on disk."""

    def close(self) -> None:
        """Release what the inputs hold on disk."""


class ViaCycle(Workload):
    """One ``ImagingCycle.run(n_major=1)`` on the serial executor."""

    name = "via-cycle"

    def __init__(self, seed: int, size: str = "full", work_dir: str | None = None):
        p = SIZES[self.name][size]
        self.obs = ska1_low_observation(
            n_stations=p["stations"], n_times=p["times"], n_channels=p["channels"],
            seed=LAYOUT_SEED,
        )
        self.gridspec = self.obs.fitting_gridspec(p["grid"])
        self.baselines = self.obs.array.baselines()
        self.sky = random_sky(np.random.default_rng(FIELD_SEED), self.gridspec)
        self.vis = add_noise(predict_visibilities(
            self.obs.uvw_m, self.obs.frequencies_hz, self.sky), seed)

    def setup(self, backend=None):
        idg = IDG(self.gridspec, IDGConfig(
            subgrid_size=24, kernel_support=8, time_max=128, backend=backend,
        ))
        return ImagingCycle(
            idg, self.obs.uvw_m, self.obs.frequencies_hz, self.baselines,
            aterm_schedule=ATermSchedule(update_interval=256),
        )

    def engines(self, state):
        return [state.idg]

    def cycle(self, state) -> dict:
        result = state.run(self.vis, n_major=1)
        return {"psf": result.psf, "model": result.model_image,
                "residual": result.residual_image}

    def check(self, outputs: dict, state) -> tuple[list[str], dict]:
        failures = all_finite(outputs)
        covered = plan_coverage(state.plan)
        pixels = sky_pixels(self.sky, self.gridspec)
        reference = dft_image(self.obs.uvw_m, self.obs.frequencies_hz, self.vis,
                              covered, pixels, self.gridspec)
        dirty = state.make_dirty_image(self.vis)
        model = outputs["model"]
        predicted = state.predict(model)
        truth = predict_visibilities(self.obs.uvw_m, self.obs.frequencies_hz,
                                     model_sky(model, self.gridspec))
        accuracy = {
            "image_rel_err": image_error(dirty, reference, pixels),
            "predict_rel_err": predict_error(predicted, truth, covered),
            "dynamic_range": float(dynamic_range(model + outputs["residual"])),
        }
        return failures + tolerance_failures(accuracy), accuracy


class SelfcalWstack(Workload):
    """``self_calibrate(kind="wstack")`` to convergence on 2 threads."""

    name = "selfcal-wstack"
    SOLUTION_INTERVAL = 16
    N_W_PLANES = 4

    def __init__(self, seed: int, size: str = "full", work_dir: str | None = None):
        p = SIZES[self.name][size]
        self.n_stations = p["stations"]
        self.obs = ska1_low_observation(
            n_stations=p["stations"], n_times=p["times"], n_channels=p["channels"],
            integration_time_s=120.0, max_radius_m=2000.0, seed=LAYOUT_SEED,
        )
        self.gridspec = self.obs.fitting_gridspec(p["grid"], fill_factor=1.2)
        self.baselines = self.obs.array.baselines()
        # One dominant source: with fainter companions the loop's CLEAN
        # model lags and the 1% gain gate fails at this size.
        rng = np.random.default_rng(FIELD_SEED)
        self.sky = random_sky(rng, self.gridspec, n_sources=1)
        self.true_vis = predict_visibilities(
            self.obs.uvw_m, self.obs.frequencies_hz, self.sky, baselines=self.baselines,
        )
        n_intervals = -(-p["times"] // self.SOLUTION_INTERVAL)
        gain_seeds = rng.integers(0, 2**31, size=n_intervals)
        gains = np.stack([
            random_gains(self.n_stations, amplitude_rms=0.2, phase_rms_rad=0.6, seed=int(s))
            for s in gain_seeds
        ])
        # self-cal pins |g[reference]| = 1; normalise the truth the same way
        self.true_gains = gains / np.abs(gains[:, :1])
        self.vis = add_noise(corrupt_with_interval_gains(
            self.true_vis, self.true_gains, self.baselines, self.SOLUTION_INTERVAL,
        ), seed)
        # The data calibrated with the true gains, noise included.
        self.ideal_vis = corrupt_with_interval_gains(
            self.vis, 1.0 / self.true_gains, self.baselines, self.SOLUTION_INTERVAL)
        self.config = SelfCalConfig(solution_interval=self.SOLUTION_INTERVAL)
        self._uncalibrated_dr: float | None = None

    def setup(self, backend=None):
        idg = IDG(self.gridspec, IDGConfig(
            subgrid_size=16, kernel_support=6, time_max=8, backend=backend,
        ))
        context = ImagingContext(
            idg=idg, uvw_m=self.obs.uvw_m, frequencies_hz=self.obs.frequencies_hz,
            baselines=self.baselines, executor="threads", executor_workers=WORKERS,
        )
        # Ready for the first grid: the processor self_calibrate builds (plan,
        # w-layer split, engine) and the gain A-term fields of its schedule.
        processor = make_ftprocessor(
            replace(context, aterm_schedule=selfcal_schedule(self.config)),
            kind="wstack", n_w_planes=self.N_W_PLANES,
        )
        unit = np.ones((len(self.true_gains), self.n_stations), dtype=np.complex128)
        idg.aterm_fields(processor.plan, GainATerm(unit, mode="calibrate"))
        return {"context": context, "processor": processor}

    def cycle(self, state) -> dict:
        result = self_calibrate(
            state["context"], self.vis, self.n_stations, config=self.config,
            kind="wstack", true_gains=self.true_gains, n_w_planes=self.N_W_PLANES,
        )
        return {"gains": result.gains, "model": result.model_image,
                "residual": result.residual_image,
                "converged": bool(result.converged), "cycles": result.n_cycles}

    def check(self, outputs: dict, state) -> tuple[list[str], dict]:
        failures = all_finite(outputs)
        processor = state["processor"]
        if self._uncalibrated_dr is None:
            self._uncalibrated_dr = float(dynamic_range(
                processor.invert(self.vis, aterms=None).stokes_i))
        # The w-stacked dirty image of the data calibrated with the true gains
        # (how well the loop recovered the gains is gain_amp_err's job).
        ideal = processor.invert(self.ideal_vis, aterms=None).stokes_i
        covered = plan_coverage(processor.plan)
        pixels = sky_pixels(self.sky, self.gridspec)
        reference = dft_image(self.obs.uvw_m, self.obs.frequencies_hz, self.ideal_vis,
                              covered, pixels, self.gridspec)
        model = outputs["model"]
        predicted = processor.predict(model, aterms=None)
        truth = predict_visibilities(self.obs.uvw_m, self.obs.frequencies_hz,
                                     model_sky(model, self.gridspec))
        dr = float(dynamic_range(model + outputs["residual"]))
        amp_err = gain_amplitude_error(outputs["gains"], self.true_gains)
        accuracy = {
            "image_rel_err": image_error(ideal, reference, pixels),
            "predict_rel_err": predict_error(predicted, truth, covered),
            "dynamic_range": dr,
            "gain_amp_err": amp_err,
            "selfcal_cycles": float(outputs["cycles"]),
            "uncalibrated_dynamic_range": self._uncalibrated_dr,
        }
        if not outputs["converged"]:
            failures.append("self-cal did not converge within its cycle budget")
        if not amp_err < AMPLITUDE_ERROR_GATE:
            failures.append(f"gain amplitude error {amp_err:.3g} >= {AMPLITUDE_ERROR_GATE}")
        if not dr >= DR_GATE * self._uncalibrated_dr:
            failures.append(
                f"dynamic range {dr:.4g} < {DR_GATE} x uncalibrated {self._uncalibrated_dr:.4g}")
        return failures + tolerance_failures(accuracy), accuracy


class OocRoundtrip(Workload):
    """Store -> process-sharded grid with checkpoints -> dirty image ->
    streaming predict into a new store -> finalize."""

    name = "ooc-roundtrip"
    CHECKPOINT_INTERVAL = 1

    def __init__(self, seed: int, size: str = "full", work_dir: str | None = None):
        p = SIZES[self.name][size]
        self.obs = ska1_low_observation(
            n_stations=p["stations"], n_times=p["times"], n_channels=p["channels"],
            seed=LAYOUT_SEED,
        )
        self.gridspec = self.obs.fitting_gridspec(p["grid"])
        self.baselines = self.obs.array.baselines()
        self.sky = random_sky(np.random.default_rng(FIELD_SEED), self.gridspec)
        self.config = IDGConfig(subgrid_size=24, kernel_support=8, time_max=16)
        self.work_dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=work_dir)
        self.store_path = os.path.join(self.work_dir, "input.vis")
        self.checkpoint_path = os.path.join(self.work_dir, "grid.ckpt.npz")
        self.model_vis = predict_visibilities(
            self.obs.uvw_m, self.obs.frequencies_hz, self.sky)
        vis = add_noise(self.model_vis, seed)
        with DatasetWriter(self.store_path, self.obs.n_baselines, self.obs.n_times,
                           self.obs.n_channels) as writer:
            writer.set_frequencies(self.obs.frequencies_hz)
            writer.set_baselines(self.baselines)
            for t0 in range(0, self.obs.n_times, 16):
                writer.write_times(t0, self.obs.uvw_m[:, t0:t0 + 16], vis[:, t0:t0 + 16])
            writer.finalize()
        # The serial in-memory reference the sharded out-of-core grid must equal.
        idg = IDG(self.gridspec, self.config)
        plan = idg.make_plan(self.obs.uvw_m, self.obs.frequencies_hz, self.baselines)
        self.reference_grid = idg.grid(plan, self.obs.uvw_m, vis)
        self.covered = plan_coverage(plan)
        self.pixels = sky_pixels(self.sky, self.gridspec)
        self.reference_image = dft_image(self.obs.uvw_m, self.obs.frequencies_hz, vis,
                                         self.covered, self.pixels, self.gridspec)
        model4 = self.sky.to_image(self.gridspec.grid_size, self.gridspec.image_size)
        self.model_grid = model_image_to_grid(model4, self.gridspec)
        self._n_out = 0

    def setup(self, backend=None):
        idg = IDG(self.gridspec, replace(self.config, backend=backend))
        store = open_store(self.store_path)
        plan = idg.make_plan(store.uvw_m, store.frequencies_hz, store.baselines)
        procs = ProcessShardedIDG(idg, ProcessConfig(
            n_procs=WORKERS, start_method="fork", checkpoint_path=self.checkpoint_path,
            checkpoint_interval=self.CHECKPOINT_INTERVAL,
        ))
        stream = make_engine(idg, "streaming", n_workers=WORKERS)
        return {"idg": idg, "plan": plan, "procs": procs, "stream": stream}

    def engines(self, state):
        return [state["procs"], state["stream"]]

    def cycle(self, state) -> dict:
        idg, plan = state["idg"], state["plan"]
        store = open_store(self.store_path)
        grid = state["procs"].grid(plan, store.uvw_m, store.source())
        image = stokes_i_image(dirty_image_from_grid(
            grid, self.gridspec, weight_sum=float(plan.statistics.n_visibilities_gridded),
            taper=idg.config.taper, taper_beta=idg.config.taper_beta,
        ))
        self._n_out += 1
        out_path = os.path.join(self.work_dir, f"predicted-{self._n_out}.vis")
        writer = DatasetWriter(out_path, store.n_baselines, store.n_times, store.n_channels)
        try:
            writer.set_frequencies(store.frequencies_hz)
            writer.set_baselines(store.baselines)
            writer.uvw_m[:] = store.uvw_m
            state["stream"].degrid(plan, store.uvw_m, self.model_grid, out=writer.visibilities)
            writer.mark_written(0, store.n_times)
            written = writer.finalize()
        finally:
            writer.close()
        return {"grid": grid, "image": image, "store": out_path,
                "content_hash": written.manifest.content_hash}

    def check(self, outputs: dict, state) -> tuple[list[str], dict]:
        failures = all_finite(outputs)
        if not np.array_equal(outputs["grid"], self.reference_grid):
            failures.append("sharded out-of-core grid != serial in-memory reference")
        written = open_store(outputs["store"], verify=True)
        checkpoint = load_checkpoint(
            self.checkpoint_path,
            signature=plan_signature(state["plan"], state["idg"].config.work_group_size),
        )
        if not np.array_equal(checkpoint.grid, outputs["grid"]):
            failures.append("last checkpoint grid != final grid")
        predicted = np.asarray(written.visibilities)
        accuracy = {
            "image_rel_err": image_error(outputs["image"], self.reference_image, self.pixels),
            "predict_rel_err": predict_error(predicted, self.model_vis, self.covered),
            "dynamic_range": float(dynamic_range(outputs["image"])),
        }
        return failures + tolerance_failures(accuracy), accuracy

    @staticmethod
    def same(a: dict, b: dict) -> bool:
        return (a["content_hash"] == b["content_hash"]
                and np.array_equal(a["grid"], b["grid"])
                and np.array_equal(a["image"], b["image"]))

    def discard(self, outputs: dict) -> None:
        shutil.rmtree(outputs["store"], ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS: Final = {w.name: w for w in (ViaCycle, SelfcalWstack, OocRoundtrip)}
