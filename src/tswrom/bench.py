"""Double-vortex benchmark: configuration, initial data, metrics, pipeline.

The benchmark evolves two like-signed geostrophic vortices on a doubly
periodic square. Both vortices sit on the domain diagonal, the height field
carries compensating Gaussian depressions (recentered so the mean depth stays
at the reference value), the velocities are in geostrophic balance with the
depressions, and the buoyancy is a gentle zonal modulation of gravity. All
profile functions are built from sin() of the periodic coordinate, so the
fields are exactly periodic on the grid.

run_pipeline drives the full sequence measured by the acceptance suite:
full-order solve, proper-orthogonal basis, interpolation training, tensor
precompute, both reduced solves, error metrics, and the on-disk artifacts.
"""

from __future__ import annotations

import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .deim import NUM_NONLIN, DeimSet, build_deim, collect_nonlin_snapshots
from .errors import ConfigError, NumericError
from .fom import (FomResult, Physics, State, integrate_fom, potential_vorticity)
from .grid import DiffOps, Grid, build_diff_ops, build_grid
from .pod import VARIABLES, PodBasis, build_pod_basis, collect_snapshots, restrict
from .rom import (RomOperators, RomResult, RomState, integrate_rom, precompute_rom)

__all__ = [
    "DoubleVortexConfig",
    "PipelineResult",
    "INVARIANT_NAMES",
    "double_vortex_initial",
    "make_physics",
    "relative_l2_error",
    "invariant_errors",
    "run_pipeline",
]

INVARIANT_NAMES = ("H", "M", "Q", "B")

_log = logging.getLogger(__name__)

_METHOD_TAGS = ("pod", "pod_deim")


@dataclass(frozen=True)
class DoubleVortexConfig:
    """Benchmark parameters; defaults give the production configuration."""

    n: int = 100
    num_steps: int = 250
    dt: float = 486.0
    length: float = 5.0e6
    coriolis: float = 0.00006147
    gravity: float = 9.80616
    mean_depth: float = 750.0
    depth_drop: float = 75.0
    sigma_x_frac: float = 3.0 / 40.0
    sigma_y_frac: float = 3.0 / 40.0
    center_offset: float = 0.1
    buoyancy_wobble: float = 0.05
    kappa_pod: float = 1.0e-3
    kappa_deim: float = 1.0e-5
    r_override: int | None = None
    p_override: int | None = None
    projected_nonlin: bool = True

    @property
    def sigma_x(self) -> float:
        return self.sigma_x_frac * self.length

    @property
    def sigma_y(self) -> float:
        return self.sigma_y_frac * self.length

    def validate(self) -> None:
        if self.n < 3:
            raise ConfigError(f"grid size n must be >= 3, got {self.n}")
        if self.num_steps < 1:
            raise ConfigError(f"need at least one step, got {self.num_steps}")
        if not self.dt > 0.0:
            raise ConfigError(f"time step must be positive, got {self.dt}")
        if not self.length > 0.0:
            raise ConfigError(f"domain length must be positive, got {self.length}")
        if self.coriolis == 0.0:
            raise ConfigError("rotation rate must be nonzero (geostrophic balance)")
        if not self.gravity > 0.0:
            raise ConfigError(f"gravity must be positive, got {self.gravity}")
        if not 0.0 < self.mean_depth:
            raise ConfigError(f"mean depth must be positive, got {self.mean_depth}")
        if not 0.0 <= self.depth_drop < self.mean_depth:
            raise ConfigError(
                f"vortex depth drop must lie in [0, mean depth), got {self.depth_drop}")
        if not (self.sigma_x_frac > 0.0 and self.sigma_y_frac > 0.0):
            raise ConfigError("vortex widths must be positive")
        if not 0.0 <= self.center_offset < 0.5:
            raise ConfigError(f"center offset must lie in [0, 0.5), got {self.center_offset}")
        if not 0.0 <= self.buoyancy_wobble < 1.0:
            raise ConfigError(f"buoyancy wobble must lie in [0, 1), got {self.buoyancy_wobble}")
        for name, kappa in (("kappa_pod", self.kappa_pod), ("kappa_deim", self.kappa_deim)):
            if not 0.0 <= kappa < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {kappa}")
        for name, val in (("r_override", self.r_override), ("p_override", self.p_override)):
            if val is not None and int(val) < 1:
                raise ConfigError(f"{name} must be a positive integer, got {val}")

    def make_grid(self) -> Grid:
        return build_grid(self.n, (0.0, self.length, 0.0, self.length))


def make_physics(cfg: DoubleVortexConfig, N: int) -> Physics:
    """Flat-bottom physics for the benchmark."""
    return Physics.flat_bottom(cfg.coriolis, cfg.gravity, N)


def double_vortex_initial(grid: Grid, cfg: DoubleVortexConfig) -> State:
    """Two geostrophically balanced vortices on the domain diagonal."""
    L = cfg.length
    sx, sy = cfg.sigma_x, cfg.sigma_y
    xx, yy = grid.meshcoords()
    centers = ((0.5 - cfg.center_offset) * L, (0.5 + cfg.center_offset) * L)

    # Periodic coordinate stretches: primes feed the Gaussian envelopes,
    # double primes their exact derivatives (up to constants).
    def envelope(c):
        xp = (L / (np.pi * sx)) * np.sin(np.pi * (xx - c) / L)
        yp = (L / (np.pi * sy)) * np.sin(np.pi * (yy - c) / L)
        xpp = (L / (2.0 * np.pi * sx)) * np.sin(2.0 * np.pi * (xx - c) / L)
        ypp = (L / (2.0 * np.pi * sy)) * np.sin(2.0 * np.pi * (yy - c) / L)
        e = np.exp(-0.5 * (xp * xp + yp * yp))
        return e, xpp, ypp

    e1, xpp1, ypp1 = envelope(centers[0])
    e2, xpp2, ypp2 = envelope(centers[1])

    # The constant shift recenters the mass so the mean depth stays put.
    h = cfg.mean_depth - cfg.depth_drop * (e1 + e2 - 4.0 * np.pi * sx * sy / (L * L))
    coeff = cfg.gravity * cfg.depth_drop / cfg.coriolis
    u = -(coeff / sy) * (ypp1 * e1 + ypp2 * e2)
    v = (coeff / sx) * (xpp1 * e1 + xpp2 * e2)
    s = cfg.gravity * (1.0 + cfg.buoyancy_wobble * np.sin(2.0 * np.pi * (xx - 0.5 * L) / L))
    return State.from_fields(h, u, v, s, t=0.0)


def _check_initial(state: State, cfg: DoubleVortexConfig) -> None:
    hmin = float(state.h.min())
    if not hmin > 0.0:
        raise NumericError(f"initial height not positive (min {hmin:.6e})")
    mean_h = float(state.h.mean())
    lo = cfg.mean_depth - 2.0 * cfg.depth_drop
    hi = cfg.mean_depth + 2.0 * cfg.depth_drop
    if not lo <= mean_h <= hi:
        raise NumericError(
            f"initial mean depth {mean_h:.6e} outside the sane window "
            f"[{lo:.6e}, {hi:.6e}]; vortex parameters are inconsistent")


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def relative_l2_error(reference: np.ndarray, trial: np.ndarray,
                      start: int = 1) -> np.ndarray:
    """Time-averaged relative l2 error per variable.

    Both trajectories are packed (4N, K+1); the average runs over columns
    start..K (the initial state is not a training snapshot, so it is skipped
    by default). Returns four values ordered (h, u, v, s).
    """
    if reference.shape != trial.shape:
        raise ConfigError(
            f"trajectory shapes differ: {reference.shape} vs {trial.shape}")
    N = reference.shape[0] // 4
    cols = list(range(start, reference.shape[1]))
    if not cols:
        raise ConfigError("no columns to average over")
    out = np.zeros(4)
    for i in range(4):
        ref = reference[i * N : (i + 1) * N, cols]
        diff = ref - trial[i * N : (i + 1) * N, cols]
        norms = np.linalg.norm(ref, axis=0)
        if not norms.min() > 0.0:
            raise NumericError(f"zero reference norm for variable {VARIABLES[i]}")
        out[i] = float(np.mean(np.linalg.norm(diff, axis=0) / norms))
    return out


def invariant_errors(invariants: np.ndarray):
    """Relative drift of each conserved quantity along a trajectory.

    invariants has shape (K+1, 4) ordered (H, M, Q, B). Returns the per-step
    relative error series (K, 4) for k = 1..K plus its mean and max over
    time (each shape (4,)).
    """
    ref = invariants[0]
    if not np.all(np.abs(ref) > 0.0):
        raise NumericError("an initial invariant vanishes; relative drift undefined")
    series = np.abs(invariants[1:] - ref) / np.abs(ref)
    return series, series.mean(axis=0), series.max(axis=0)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    """Everything the benchmark produced, in memory plus the report dict."""

    config: DoubleVortexConfig
    grid: Grid
    physics: Physics
    diffops: DiffOps
    fom: FomResult
    basis: PodBasis
    deim: DeimSet
    romops: RomOperators
    rom_pod: RomResult
    rom_deim: RomResult
    report: dict


@contextmanager
def progress_to_stdout(enabled: bool):
    """While enabled, print the INFO records of the tswrom loggers (such as
    integrate_fom's progress lines) on standard output, and only there: they
    do not also propagate to the root logger's handlers."""
    if not enabled:
        yield
        return
    logger = logging.getLogger("tswrom")
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level, propagate = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate


def run_pipeline(cfg: DoubleVortexConfig, outdir=None, verbose: bool = False) -> PipelineResult:
    """Full-order solve, model reduction, both reduced solves, metrics.

    When outdir is given, all binary and text artifacts are written there
    (snapshots, basis, interpolation data, reduced operators, invariant and
    error tables, field dumps, report.json).
    """
    cfg.validate()
    grid = cfg.make_grid()
    dops = build_diff_ops(grid)
    physics = make_physics(cfg, grid.N)
    z0 = double_vortex_initial(grid, cfg)
    _check_initial(z0, cfg)

    out = None
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)

    with progress_to_stdout(verbose):
        _log.info("full model: n=%d, %d steps, dt=%g s", cfg.n, cfg.num_steps, cfg.dt)
        t0 = time.perf_counter()
        fom = integrate_fom(
            z0, cfg.dt, cfg.num_steps, physics, dops,
            snapshot_path=None if out is None else out / "snapshots.bin",
            log_every=50 if verbose else 0,
        )
        wall_fom = time.perf_counter() - t0

        t0 = time.perf_counter()
        snaps = collect_snapshots(fom.trajectory[:, 1:])
        basis = build_pod_basis(snaps, kappa=cfg.kappa_pod, r_override=cfg.r_override)
        wall_pod_off = time.perf_counter() - t0
        _log.info("basis: r=%d (per-variable energy ranks %s)", basis.r, basis.ranks)

        t0 = time.perf_counter()
        nonlin = collect_nonlin_snapshots(snaps, basis, physics, dops,
                                          projected=cfg.projected_nonlin)
        dset = build_deim(nonlin, kappa=cfg.kappa_deim, p_override=cfg.p_override)
        romops = precompute_rom(basis, dset, physics, dops)
        wall_deim_off = time.perf_counter() - t0
        _log.info("interpolation: p=%d (per-nonlinearity energy ranks %s)",
                  dset.p, dset.ranks)

        zr0 = restrict(basis, z0)
        _log.info("reduced solve (galerkin)")
        t0 = time.perf_counter()
        rom_pod = integrate_rom(romops, RomState(z_r=zr0, t=z0.t),
                                cfg.dt, cfg.num_steps, method="pod")
        wall_pod_on = time.perf_counter() - t0
        _log.info("reduced solve (tensor interpolation)")
        t0 = time.perf_counter()
        rom_deim = integrate_rom(romops, RomState(z_r=zr0, t=z0.t),
                                 cfg.dt, cfg.num_steps, method="pod-deim")
        wall_deim_on = time.perf_counter() - t0

        l2 = {
            "pod": relative_l2_error(fom.trajectory, basis.lift_array(rom_pod.reduced)),
            "pod_deim": relative_l2_error(fom.trajectory, basis.lift_array(rom_deim.reduced)),
        }
        drift = {
            "fom": invariant_errors(fom.invariants),
            "pod": invariant_errors(rom_pod.invariants),
            "pod_deim": invariant_errors(rom_deim.invariants),
        }

        report: dict = {
            "n": cfg.n,
            "num_steps": cfg.num_steps,
            "dt": cfg.dt,
            "kappa_pod": cfg.kappa_pod,
            "kappa_deim": cfg.kappa_deim,
            "r": basis.r,
            "p": dset.p,
            "r_criterion": int(max(basis.ranks)),
            "p_criterion": int(max(dset.ranks)),
        }
        for i, var in enumerate(VARIABLES):
            report[f"l2_pod_{var}"] = float(l2["pod"][i])
            report[f"l2_pod_deim_{var}"] = float(l2["pod_deim"][i])
        for src, (_, mean, peak) in drift.items():
            for i, name in enumerate(INVARIANT_NAMES):
                report[f"inv_{src}_{name}"] = float(mean[i])
                report[f"inv_max_{src}_{name}"] = float(peak[i])
        report["wall_fom_s"] = wall_fom
        report["wall_pod_offline_s"] = wall_pod_off
        report["wall_pod_deim_offline_s"] = wall_pod_off + wall_deim_off
        report["wall_pod_online_s"] = wall_pod_on
        report["wall_pod_deim_online_s"] = wall_deim_on
        report["speedup_pod"] = wall_fom / wall_pod_on
        report["speedup_pod_deim"] = wall_fom / wall_deim_on

        result = PipelineResult(
            config=cfg, grid=grid, physics=physics, diffops=dops, fom=fom,
            basis=basis, deim=dset, romops=romops,
            rom_pod=rom_pod, rom_deim=rom_deim, report=report,
        )
        if out is not None:
            _write_artifacts(result, out)
            _log.info("artifacts written to %s", out)
        return result


def error_table_rows(report: dict):
    """errors.csv rows (metric, method, name, value) from a report dict."""
    rows = []
    for tag in _METHOD_TAGS:
        for var in VARIABLES:
            rows.append(("l2", tag, var, report[f"l2_{tag}_{var}"]))
    for src in ("fom", *_METHOD_TAGS):
        for name in INVARIANT_NAMES:
            rows.append(("invariant_mean", src, name, report[f"inv_{src}_{name}"]))
            rows.append(("invariant_max", src, name, report[f"inv_max_{src}_{name}"]))
    return rows


def _dump_fields(out: Path, tag: str, grid: Grid, physics: Physics, dops: DiffOps,
                 traj: np.ndarray, times: np.ndarray, steps, labels=None) -> None:
    labels = list(steps) if labels is None else list(labels)
    for k, label in zip(steps, labels):
        st = State(z=traj[:, k].copy(), t=float(times[k]))
        fields = {"h": st.h, "u": st.u, "v": st.v, "s": st.s,
                  "q": potential_vorticity(st, physics, dops)}
        fileio.write_fields_csv(out / f"fields_{tag}_{label:04d}.csv", grid, fields)


def _write_artifacts(res: PipelineResult, out: Path) -> None:
    cfg = res.config
    fileio.write_invariants_csv(out / "fom_invariants.csv",
                                res.fom.times, res.fom.invariants)
    fileio.write_invariants_csv(out / "rom_invariants_pod.csv",
                                res.rom_pod.times, res.rom_pod.invariants)
    fileio.write_invariants_csv(out / "rom_invariants_pod_deim.csv",
                                res.rom_deim.times, res.rom_deim.invariants)
    fileio.write_basis(out / "basis.bin", res.basis, res.grid.n)
    fileio.write_deim(out / "deim.bin", res.deim)
    fileio.write_romops(out / "romops.bin", res.romops)
    fileio.write_spectra_csv(out / "pod_spectra.csv", VARIABLES,
                             res.basis.singular_values)
    fileio.write_spectra_csv(out / "deim_spectra.csv",
                             [f"F{j}" for j in range(1, NUM_NONLIN + 1)],
                             res.deim.singular_values)
    fileio.write_errors_csv(out / "errors.csv", error_table_rows(res.report))
    fileio.write_report_json(out / "report.json", res.report)

    steps = sorted({0, cfg.num_steps // 2, cfg.num_steps})
    _dump_fields(out, "fom", res.grid, res.physics, res.diffops,
                 res.fom.trajectory, res.fom.times, steps)
    for tag, rom in (("pod", res.rom_pod), ("pod_deim", res.rom_deim)):
        lifted = res.basis.lift_array(rom.reduced[:, steps])
        _dump_fields(out, tag, res.grid, res.physics, res.diffops,
                     lifted, rom.times[steps], range(len(steps)), labels=steps)
