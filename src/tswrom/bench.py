"""Double-vortex benchmark: configuration, initial data, metrics, pipeline.

The benchmark evolves two like-signed geostrophic vortices on a doubly
periodic square. Both vortices sit on the domain diagonal, the height field
carries compensating Gaussian depressions (recentered so the mean depth stays
at the reference value), the velocities are in geostrophic balance with the
depressions, and the buoyancy is a gentle zonal modulation of gravity. All
profile functions are built from sin() of the periodic coordinate, so the
fields are exactly periodic on the grid.

The pipeline is four stage functions, each written once: stage_fom (the
full-order solve), stage_reduce (basis, interpolation training and tensor
precompute), stage_rom (one reduced solve) and stage_report (error and
drift metrics). Each takes its inputs in memory and, given an output
directory, writes its artifacts and its run_meta.json entries there.
run_pipeline chains them in memory; the command-line stages check and read
a stage's inputs from the directory and call the same function, so a
run_pipeline output directory is a valid command-line workspace.
"""

from __future__ import annotations

import json
import logging
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

# Stage code calls the functions of these modules through the module, so a
# name rebound on the module after import (a tracer's wrapper) is the one
# that runs.
from . import deim, fileio, fom, pod, rom
from .deim import DeimSet
from .errors import ConfigError, FormatError, NumericError
from .fom import FomResult, Physics, potential_vorticity
from .grid import Grid, build_grid
from .pod import VARIABLES, PodBasis
from .rom import RomOperators, RomResult, RomState

__all__ = [
    "DoubleVortexConfig",
    "Case",
    "PipelineResult",
    "INVARIANT_NAMES",
    "double_vortex_initial",
    "make_physics",
    "relative_l2_error",
    "invariant_errors",
    "check_lineage",
    "fom_case",
    "read_run_meta",
    "snapshot_set",
    "stage_fom",
    "stage_reduce",
    "stage_rom",
    "stage_report",
    "run_pipeline",
]

INVARIANT_NAMES = ("H", "M", "Q", "B")

_log = logging.getLogger(__name__)


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
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
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
        return build_grid(self.n, self.length)


def make_physics(cfg: DoubleVortexConfig, N: int) -> Physics:
    """Flat-bottom physics for the benchmark."""
    return Physics(f=float(cfg.coriolis), b=np.zeros(N))


def double_vortex_initial(grid: Grid, cfg: DoubleVortexConfig) -> np.ndarray:
    """Two geostrophically balanced vortices on the domain diagonal, as one
    packed state (4N,)."""
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
    return np.concatenate([h, u, v, s])


def _check_initial(z: np.ndarray, cfg: DoubleVortexConfig) -> None:
    mean_h = float(z[: z.size // 4].mean())
    lo = cfg.mean_depth - 2.0 * cfg.depth_drop
    hi = cfg.mean_depth + 2.0 * cfg.depth_drop
    if not lo <= mean_h <= hi:
        raise NumericError(
            f"initial mean depth {mean_h:.6e} outside the sane window "
            f"[{lo:.6e}, {hi:.6e}]; vortex parameters are inconsistent")


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

# States per chunk that relative_l2_error squares at a time: at N = 10^4
# the buffer and both input chunks take 1.9 MB, within a core's L2 cache.
_L2_STATES = 2


def relative_l2_error(reference: np.ndarray, trial: np.ndarray) -> np.ndarray:
    """Time-averaged relative l2 error per variable.

    Both trajectories are packed (4N, K+1); the average runs over columns
    1..K (the initial state is not a training snapshot, so it is skipped).
    Returns four values ordered (h, u, v, s).

    One sweep over chunks of _L2_STATES states squares the reference, then
    the difference, of each chunk in one reused C-order (c, 4, N) buffer and
    sums over N, so the result does not depend on the memory layout of the
    inputs and no full-size temporary is formed.
    """
    if reference.shape != trial.shape:
        raise ConfigError(
            f"trajectory shapes differ: {reference.shape} vs {trial.shape}")
    N = reference.shape[0] // 4
    K = reference.shape[1] - 1
    if K < 1:
        raise ConfigError("no columns to average over")
    buf = np.empty((_L2_STATES, 4, N))
    ref2, err2 = np.empty((2, K, 4))
    for a in range(1, K + 1, _L2_STATES):
        b = min(a + _L2_STATES, K + 1)
        ref, block = reference[:, a:b].T.reshape(b - a, 4, N), buf[: b - a]
        np.multiply(ref, ref, out=block)
        np.add.reduce(block, axis=2, out=ref2[a - 1 : b - 1])
        np.subtract(ref, trial[:, a:b].T.reshape(b - a, 4, N), out=block)
        block *= block
        np.add.reduce(block, axis=2, out=err2[a - 1 : b - 1])
    for i, var in enumerate(VARIABLES):
        if not ref2[:, i].min() > 0.0:
            raise NumericError(f"zero reference norm for variable {var}")
    return np.mean(np.sqrt(err2) / np.sqrt(ref2), axis=0)


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
# stages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """A validated config with the grid and physics it builds; every stage
    runs on one."""

    config: DoubleVortexConfig
    grid: Grid
    physics: Physics

    @classmethod
    def build(cls, cfg: DoubleVortexConfig) -> Case:
        cfg.validate()
        grid = cfg.make_grid()
        return cls(cfg, grid, make_physics(cfg, grid.N))


@contextmanager
def progress_to_stdout(level: int | None):
    """Unless level is None, print the records of the tswrom loggers at
    level and above on standard output, and only there: they do not also
    propagate to the root logger's handlers. The stage lines are INFO
    records and integrate_fom's progress lines DEBUG records."""
    if level is None:
        yield
        return
    logger = logging.getLogger("tswrom")
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    saved_level, propagate = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved_level)
        logger.propagate = propagate


# Each binary artifact, the artifacts it is derived from (listed before it),
# whose fingerprints it records (fileio.lineage), and the command writing it.
_DERIVATION = {
    "snapshots.bin": ((), "fom"),
    "basis.bin": (("snapshots.bin",), "reduce"),
    "deim.bin": (("snapshots.bin", "basis.bin"), "reduce"),
    "romops.bin": (("basis.bin", "deim.bin"), "reduce"),
    "rom_pod.bin": (("snapshots.bin", "basis.bin"), "rom --method pod"),
    "rom_pod_deim.bin": (("snapshots.bin", "basis.bin", "deim.bin", "romops.bin"),
                         "rom --method pod-deim"),
}

# the offline config fields; the others, the fom run's, snapshots.bin records
_OFFLINE_FIELDS = ("kappa_pod", "kappa_deim", "r_override", "p_override", "projected_nonlin")
_RUN_FIELDS = tuple(f.name for f in fields(DoubleVortexConfig) if f.name not in _OFFLINE_FIELDS)

# the run_meta.json entries the report copies
_REPORT_ENTRIES = ("wall_fom_s", "r", "p", "r_criterion", "p_criterion",
                   "kappa_pod", "kappa_deim", "wall_pod_offline_s", "wall_pod_deim_offline_s",
                   *(f"wall_{tag}_online_s" for tag in rom.TAGS.values()))


def check_lineage(out: Path, needs) -> None:
    """ConfigError unless the artifacts named in needs and those they derive
    from are in out, each derived from the very files there."""
    needed = set(needs)
    for name in reversed(_DERIVATION):
        if name in needed:
            needed.update(_DERIVATION[name][0])
    prints = {}
    for name, (inputs, command) in _DERIVATION.items():
        if name not in needed:
            continue
        remedy = f"run `tswrom {command}` there"
        if not (out / name).exists():
            raise ConfigError(f"{out} holds no {name}; {remedy}")
        prints[name], recorded = fileio.lineage(out / name, name.removesuffix(".bin"))
        for source in inputs:
            if recorded.get(source) != prints[source]:
                raise ConfigError(f"{name} in {out} was derived from another {source}; {remedy}")


def _input_prints(out: Path, name: str) -> dict[str, str]:
    """The fingerprints of the artifacts in out that name is derived from."""
    return {source: fileio.lineage(out / source, source.removesuffix(".bin"))[0]
            for source in _DERIVATION[name][0]}


def fom_case(keys: dict, snapshot_meta: dict, out: Path) -> Case:
    """The case of the fom run in out, given its snapshots.bin meta, with the
    offline fields set in keys; a run field set in keys must equal the run's."""
    run = snapshot_meta["config"]
    if not (isinstance(run, dict) and run.keys() == set(_RUN_FIELDS)):
        raise FormatError(f"{out / 'snapshots.bin'}: config records not exactly the run fields")
    for key, value in keys.items():
        if key in run and value != run[key]:
            raise ConfigError(f"{key}={value!r} differs from {key}={run[key]!r} of the fom run "
                              f"in {out}; a later stage takes the run's value, so leave it unset")
    return Case.build(DoubleVortexConfig(**{**keys, **run}))


def read_run_meta(out: Path) -> dict:
    """The timing and rank log run_meta.json in out, {} before the first
    stage; a FormatError unless it is a UTF-8 JSON object of numbers."""
    path = out / "run_meta.json"
    try:
        meta = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not (isinstance(meta, dict) and all(type(v) in (int, float) for v in meta.values())):
        raise FormatError(f"{path}: not a JSON object of numbers")
    return meta


def _energy_drift(invariants: np.ndarray) -> float:
    """Relative energy change from the first to the last stored state."""
    return abs(invariants[-1, 0] - invariants[0, 0]) / abs(invariants[0, 0])


def stage_fom(case: Case, meta: dict, out: Path | None = None) -> FomResult:
    """Full-order solve from the double-vortex initial state.

    Adds wall_fom_s, the time of the solve alone, to meta. With out, writes
    snapshots.bin (recording the config's run fields), fom_invariants.csv
    and run_meta.json there.
    """
    cfg = case.config
    z0 = double_vortex_initial(case.grid, cfg)
    _check_initial(z0, cfg)

    _log.info("full model: n=%d, %d steps, dt=%g s", cfg.n, cfg.num_steps, cfg.dt)
    t0 = time.perf_counter()
    full = fom.integrate_fom(z0, cfg.dt, cfg.num_steps, case.physics, case.grid)
    wall = time.perf_counter() - t0

    meta["wall_fom_s"] = wall
    if out is not None:
        run = {key: getattr(cfg, key) for key in _RUN_FIELDS}
        with fileio.SnapshotWriter(out / "snapshots.bin", run) as writer:
            for z, invs in zip(full.trajectory.T, full.invariants):
                writer.append(z, invs)
        fileio.write_invariants_csv(out / "fom_invariants.csv", cfg.dt, full.invariants)
        fileio.write_json(out / "run_meta.json", meta)
    _log.info("done in %.2f s; final relative energy drift %.3e",
              wall, _energy_drift(full.invariants))
    return full


def snapshot_set(trajectory: np.ndarray) -> tuple[pod.SnapshotSet, float]:
    """The snapshot set of a full-order trajectory (4N, K+1), every state
    but the initial one, and the seconds it took, for stage_reduce. The
    set holds no reference to the trajectory, so a caller done with the
    trajectory can release it before the offline phase."""
    t0 = time.perf_counter()
    snaps = pod.collect_snapshots(trajectory[:, 1:])
    return snaps, time.perf_counter() - t0


def stage_reduce(case: Case, snaps: pod.SnapshotSet, collect_s: float, meta: dict,
                 out: Path | None = None) -> tuple[PodBasis, DeimSet, RomOperators]:
    """Offline phase on the snapshot set of a full-order trajectory that
    snapshot_set made in collect_s seconds: basis, interpolation training
    and tensor precompute.

    Adds the ranks, the thresholds and the offline timings to meta, with
    collect_s counted in both. With out, writes basis.bin, deim.bin,
    romops.bin and run_meta.json there.
    """
    cfg, physics, grid = case.config, case.physics, case.grid
    t0 = time.perf_counter()
    basis = pod.build_pod_basis(snaps, kappa=cfg.kappa_pod, r_override=cfg.r_override)
    wall_pod = collect_s + time.perf_counter() - t0
    _log.info("basis: r=%d (per-variable energy ranks %s)", basis.r, basis.ranks)

    t0 = time.perf_counter()
    nonlin = deim.collect_nonlin_snapshots(snaps, basis, physics, grid,
                                           projected=cfg.projected_nonlin)
    dset = deim.build_deim(nonlin, kappa=cfg.kappa_deim, p_override=cfg.p_override)
    romops = rom.precompute_rom(basis, dset, physics, grid)
    wall_deim = time.perf_counter() - t0
    _log.info("interpolation: p=%d (per-nonlinearity energy ranks %s)", dset.p, dset.ranks)

    meta.update(r=basis.r, p=dset.p,
                r_criterion=int(max(basis.ranks)), p_criterion=int(max(dset.ranks)),
                kappa_pod=cfg.kappa_pod, kappa_deim=cfg.kappa_deim,
                wall_pod_offline_s=wall_pod, wall_pod_deim_offline_s=wall_pod + wall_deim)
    if out is not None:
        fileio.write_basis(out / "basis.bin", basis, _input_prints(out, "basis.bin"))
        fileio.write_deim(out / "deim.bin", dset, _input_prints(out, "deim.bin"))
        fileio.write_romops(out / "romops.bin", romops, _input_prints(out, "romops.bin"))
        fileio.write_json(out / "run_meta.json", meta)
    _log.info("done in %.2f s; r = %d (energy rank %d), p = %d (energy rank %d)",
              wall_pod + wall_deim, basis.r, meta["r_criterion"], dset.p, meta["p_criterion"])
    return basis, dset, romops


_SOLVE_NAMES = {"pod": "galerkin", "pod-deim": "tensor interpolation"}


def stage_rom(case: Case, ops: RomOperators, z0: np.ndarray, method: str, meta: dict,
              out: Path | None = None) -> RomResult:
    """One reduced solve from the packed full state z0, for the case's step
    count and size.

    Adds wall_{tag}_online_s to meta. With out, writes
    rom_invariants_{tag}.csv, rom_{tag}.bin and run_meta.json there.
    """
    basis, cfg = ops.basis, case.config
    zr0 = pod.restrict(basis, z0)
    _log.info("reduced solve (%s): r=%d, %d steps", _SOLVE_NAMES.get(method, method),
              basis.r, cfg.num_steps)
    t0 = time.perf_counter()
    result = rom.integrate_rom(ops, RomState(z_r=zr0, t=0.0), cfg.dt, cfg.num_steps,
                               method=method)
    wall = time.perf_counter() - t0

    tag = rom.TAGS[method]
    meta[f"wall_{tag}_online_s"] = wall
    if out is not None:
        fileio.write_invariants_csv(out / f"rom_invariants_{tag}.csv", cfg.dt,
                                    result.invariants)
        fileio.write_rom(out / f"rom_{tag}.bin", result, _input_prints(out, f"rom_{tag}.bin"))
        fileio.write_json(out / "run_meta.json", meta)
    _log.info("done in %.2f s; final relative energy drift %.3e",
              wall, _energy_drift(result.invariants))
    return result


def stage_report(case: Case, meta: dict, full: FomResult, basis: PodBasis,
                 roms: dict[str, RomResult], out: Path | None = None) -> dict:
    """The report: the case's discretization, ranks and timings from meta,
    the time-averaged relative L2 error of each lifted reduced trajectory and
    the invariant drifts of every trajectory, keyed by method tag (pod, pod_deim).

    A wall time of the speedups that is not positive and finite raises
    FormatError naming its key. With out, writes report.json and field
    dumps at the first, middle and last step there.
    """
    missing = [key for key in _REPORT_ENTRIES if key not in meta]
    if missing:
        raise FormatError(f"run_meta.json records no {', '.join(missing)}")
    report = {**{key: getattr(case.config, key) for key in ("n", "num_steps", "dt")},
              **{key: meta[key] for key in _REPORT_ENTRIES}}
    for key in ("wall_fom_s", *(f"wall_{tag}_online_s" for tag in roms)):
        if not (math.isfinite(report[key]) and report[key] > 0.0):
            raise FormatError(f"run_meta.json records {key}={report[key]}; a speedup needs "
                              "a positive finite wall time")
    drifts = {"fom": full.invariants}
    for tag, res in roms.items():
        l2 = relative_l2_error(full.trajectory, basis.lift_array(res.reduced))
        for i, var in enumerate(VARIABLES):
            report[f"l2_{tag}_{var}"] = float(l2[i])
        drifts[tag] = res.invariants
    for src, invs in drifts.items():
        _, mean, peak = invariant_errors(invs)
        for i, name in enumerate(INVARIANT_NAMES):
            report[f"inv_{src}_{name}"] = float(mean[i])
            report[f"inv_max_{src}_{name}"] = float(peak[i])
    for tag in roms:
        report[f"speedup_{tag}"] = report["wall_fom_s"] / report[f"wall_{tag}_online_s"]

    if out is not None:
        fileio.write_json(out / "report.json", report)
        steps = sorted({0, case.config.num_steps // 2, case.config.num_steps})
        _dump_fields(out, case, "fom", full.trajectory[:, steps], steps)
        for tag, res in roms.items():
            _dump_fields(out, case, tag, basis.lift_array(res.reduced[:, steps]), steps)
    return report


def _dump_fields(out: Path, case: Case, tag: str, states: np.ndarray, steps) -> None:
    """fields_{tag}_{step}.csv for each packed state column and its step."""
    for k, z in zip(steps, states.T):
        h, u, v, s = z.reshape(4, -1)
        fields = {"h": h, "u": u, "v": v, "s": s,
                  "q": potential_vorticity(z, case.physics, case.grid)}
        fileio.write_fields_csv(out / f"fields_{tag}_{k:04d}.csv", case.grid, fields)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    """Everything the benchmark produced, in memory plus the report dict."""

    config: DoubleVortexConfig
    grid: Grid
    physics: Physics
    fom: FomResult
    basis: PodBasis
    deim: DeimSet
    romops: RomOperators
    rom_pod: RomResult
    rom_deim: RomResult
    report: dict


def run_pipeline(cfg: DoubleVortexConfig, outdir=None, verbose: bool = False) -> PipelineResult:
    """Full-order solve, model reduction, both reduced solves, metrics: the
    four stages chained in memory.

    When outdir is given, every stage writes its artifacts there, so the
    directory is the workspace the command-line stages would have left.
    With verbose, the stage lines and the full model's progress lines are
    printed on standard output.
    """
    case = Case.build(cfg)
    out = None
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)

    meta: dict = {}
    with progress_to_stdout(logging.DEBUG if verbose else None):
        full = stage_fom(case, meta, out)
        basis, dset, romops = stage_reduce(case, *snapshot_set(full.trajectory), meta, out)
        roms = {tag: stage_rom(case, romops, full.trajectory[:, 0], method, meta, out)
                for method, tag in rom.TAGS.items()}
        report = stage_report(case, meta, full, basis, roms, out)
        if out is not None:
            _log.info("artifacts written to %s", out)
    return PipelineResult(
        config=cfg, grid=case.grid, physics=case.physics, fom=full,
        basis=basis, deim=dset, romops=romops,
        rom_pod=roms["pod"], rom_deim=roms["pod_deim"], report=report,
    )
