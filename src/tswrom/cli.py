"""Command-line driver for the benchmark pipeline.

Four subcommands share one working directory of artifacts:

    tswrom fom     --out DIR    full-order solve -> snapshots.bin,
                                fom_invariants.csv
    tswrom reduce  --out DIR    basis + interpolation training ->
                                basis.bin, deim.bin, romops.bin, spectra CSVs
    tswrom rom     --out DIR --method {pod,pod-deim}
                                reduced solve -> rom_invariants_*.csv,
                                rom_state_*.csv
    tswrom compare --out DIR    errors.csv, report.json, field dumps, and
                                printed accuracy/conservation/timing tables

Parameters come from an optional config file of `key = value` lines (keys
mirror DoubleVortexConfig fields, `#` starts a comment), overridden by
`--set key=value` and by the explicit flags. Stage timings accumulate in
DIR/run_meta.json so `compare` can assemble the final report. The fom stage
also records the Coriolis parameter and gravity there; reduce, rom and
compare exit 2 when the physics they build from their own parameters
differs, so every stage must be given the same physics settings.

Exit codes: 0 success, 2 configuration errors, 3 numerical failures,
4 I/O errors, 5 malformed artifact files.

This module imports nothing heavy at the top so `--threads` can pin the
linear-algebra thread pools before they spin up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

__all__ = ["main", "build_parser"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_OS = 4
_EXIT_FORMAT = 5

# kept alive on purpose: releasing it would restore the previous pool sizes
_THREAD_LIMITER = None


def _pin_threads(threads: int | None) -> None:
    global _THREAD_LIMITER
    if not threads:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return
    _THREAD_LIMITER = threadpool_limits(limits=threads)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _parse_config_file(path) -> dict[str, str]:
    from .errors import ConfigError

    raw: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, value = line.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def _coerce(name: str, text: str, default):
    from .errors import ConfigError

    low = text.lower()
    if name in ("r_override", "p_override"):
        if low in ("none", ""):
            return None
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"config key {name} must be an integer or `none`, got {text!r}")
    if isinstance(default, bool):
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"config key {name} must be a boolean, got {text!r}")
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"config key {name} must be an integer, got {text!r}")
    if isinstance(default, float):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"config key {name} must be a number, got {text!r}")
    raise ConfigError(f"config key {name} has unsupported type")


# explicit flags that override config-file values (flag dest -> config field)
_FLAG_FIELDS = {
    "n": "n",
    "num_steps": "num_steps",
    "dt": "dt",
    "kappa_pod": "kappa_pod",
    "kappa_deim": "kappa_deim",
    "r": "r_override",
    "p": "p_override",
}


def _build_config(args):
    """Defaults <- config file <- --set pairs <- explicit flags."""
    import dataclasses

    from .bench import DoubleVortexConfig
    from .errors import ConfigError

    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        raw.update(_parse_config_file(args.config))
    for pair in getattr(args, "set", None) or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        raw[key.strip()] = value.strip()

    defaults = {f.name: f.default for f in dataclasses.fields(DoubleVortexConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: {', '.join(sorted(defaults))}")
        kwargs[key] = _coerce(key, value, defaults[key])
    cfg = DoubleVortexConfig(**kwargs)

    overrides = {}
    for dest, name in _FLAG_FIELDS.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "raw_nonlin", False):
        overrides["projected_nonlin"] = False
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _workspace(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _merge_meta(out: Path, **entries) -> dict:
    path = out / "run_meta.json"
    meta = json.loads(path.read_text()) if path.exists() else {}
    meta.update(entries)
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return meta


def _load_meta(out: Path) -> dict:
    path = out / "run_meta.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _setup(cfg):
    """Grid, difference operators, physics for a config."""
    from .bench import make_physics
    from .grid import build_diff_ops

    grid = cfg.make_grid()
    dops = build_diff_ops(grid)
    return grid, dops, make_physics(cfg, grid.N)


def _check_physics(out: Path, physics) -> None:
    """Refuse a later stage whose physics differs from the one the fom stage
    recorded in run_meta.json, or that finds none recorded."""
    from .errors import ConfigError

    meta = _load_meta(out)
    for key, built in (("coriolis", physics.f), ("gravity", physics.g)):
        if key not in meta:
            raise ConfigError(f"run_meta.json in {out} records no {key}; "
                              f"re-run `tswrom fom` there")
        if built != meta[key]:
            raise ConfigError(
                f"{key}={built!r} differs from {key}={meta[key]!r} of the fom "
                f"run in {out}; pass every stage the same --set/--config values")


def _config_for_artifacts(args, n: int, dt: float, num_steps: int):
    """Config with discretization pinned to what the artifact files carry."""
    import dataclasses

    return dataclasses.replace(_build_config(args), n=n, dt=dt, num_steps=num_steps)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fom(args) -> int:
    from . import fileio
    from .bench import _check_initial, double_vortex_initial, progress_to_stdout
    from .fom import integrate_fom

    cfg = _build_config(args)
    cfg.validate()
    out = _workspace(args)
    grid, dops, physics = _setup(cfg)
    z0 = double_vortex_initial(grid, cfg)
    _check_initial(z0, cfg)

    print(f"full model: n={cfg.n}, {cfg.num_steps} steps, dt={cfg.dt:g} s", flush=True)
    t0 = time.perf_counter()
    with progress_to_stdout(args.verbose):
        result = integrate_fom(z0, cfg.dt, cfg.num_steps, physics, dops,
                               snapshot_path=out / "snapshots.bin",
                               log_every=50 if args.verbose else 0)
    wall = time.perf_counter() - t0

    fileio.write_invariants_csv(out / "fom_invariants.csv",
                                result.times, result.invariants)
    _merge_meta(out, wall_fom_s=wall, n=cfg.n, num_steps=cfg.num_steps, dt=cfg.dt,
                coriolis=physics.f, gravity=physics.g)
    drift = abs(result.invariants[-1, 0] - result.invariants[0, 0]) / abs(result.invariants[0, 0])
    print(f"done in {wall:.2f} s; final relative energy drift {drift:.3e}")
    return _EXIT_OK


def cmd_reduce(args) -> int:
    from . import fileio
    from .deim import NUM_NONLIN, build_deim, collect_nonlin_snapshots
    from .pod import VARIABLES, build_pod_basis, collect_snapshots
    from .rom import precompute_rom

    out = _workspace(args)
    traj, n, dt = fileio.read_snapshots(out / "snapshots.bin")
    cfg = _config_for_artifacts(args, n, dt, traj.shape[1] - 1)
    cfg.validate()
    grid, dops, physics = _setup(cfg)
    _check_physics(out, physics)

    snaps = collect_snapshots(traj[:, 1:])
    t0 = time.perf_counter()
    basis = build_pod_basis(snaps, kappa=cfg.kappa_pod, r_override=cfg.r_override)
    wall_pod = time.perf_counter() - t0

    t0 = time.perf_counter()
    nonlin = collect_nonlin_snapshots(snaps, basis, physics, dops,
                                      projected=cfg.projected_nonlin)
    dset = build_deim(nonlin, kappa=cfg.kappa_deim, p_override=cfg.p_override)
    romops = precompute_rom(basis, dset, physics, dops)
    wall_deim = time.perf_counter() - t0

    fileio.write_basis(out / "basis.bin", basis, grid.n)
    fileio.write_deim(out / "deim.bin", dset)
    fileio.write_romops(out / "romops.bin", romops)
    fileio.write_spectra_csv(out / "pod_spectra.csv", VARIABLES, basis.singular_values)
    fileio.write_spectra_csv(out / "deim_spectra.csv",
                             [f"F{j}" for j in range(1, NUM_NONLIN + 1)],
                             dset.singular_values)
    _merge_meta(out,
                wall_pod_offline_s=wall_pod,
                wall_pod_deim_offline_s=wall_pod + wall_deim,
                r=basis.r, p=dset.p,
                r_criterion=int(max(basis.ranks)),
                p_criterion=int(max(dset.ranks)),
                kappa_pod=cfg.kappa_pod, kappa_deim=cfg.kappa_deim)
    print(f"r = {basis.r} (energy rank {max(basis.ranks)}), "
          f"p = {dset.p} (energy rank {max(dset.ranks)})")
    return _EXIT_OK


def _method_tag(method: str) -> str:
    return method.replace("-", "_")


def cmd_rom(args) -> int:
    from . import fileio
    from .errors import ConfigError
    from .fom import State
    from .pod import restrict
    from .rom import (RomState, galerkin_operators, integrate_rom,
                      rom_operators_from_parts)

    out = _workspace(args)
    traj, n, dt = fileio.read_snapshots(out / "snapshots.bin")
    num_steps = traj.shape[1] - 1
    cfg = _config_for_artifacts(args, n, dt, num_steps)
    cfg.validate()
    grid, dops, physics = _setup(cfg)
    _check_physics(out, physics)

    basis = fileio.read_basis(out / "basis.bin")
    if basis.N != grid.N:
        raise ConfigError(f"basis N={basis.N} does not match snapshot grid N={grid.N}")
    if args.method == "pod":
        ops = galerkin_operators(basis, physics, dops)
    else:
        dset = fileio.read_deim(out / "deim.bin")
        mats, r, p = fileio.read_romops(out / "romops.bin")
        if r != basis.r or p != dset.p:
            raise ConfigError(
                f"reduced operators carry (r={r}, p={p}) but basis/interpolation "
                f"give (r={basis.r}, p={dset.p})")
        ops = rom_operators_from_parts(mats, basis, dset, physics, dops)

    z0 = State(z=traj[:, 0].copy(), t=0.0)
    zr0 = restrict(basis, z0)
    print(f"reduced solve ({args.method}): r={basis.r}, {num_steps} steps", flush=True)
    t0 = time.perf_counter()
    result = integrate_rom(ops, RomState(z_r=zr0, t=0.0), dt, num_steps,
                           method=args.method)
    wall = time.perf_counter() - t0

    tag = _method_tag(args.method)
    fileio.write_invariants_csv(out / f"rom_invariants_{tag}.csv",
                                result.times, result.invariants)
    fileio.write_matrix_csv(out / f"rom_state_{tag}.csv",
                            "# rows are stored states, columns the 4r reduced coefficients",
                            result.reduced.T)
    _merge_meta(out, **{f"wall_{tag}_online_s": wall})
    drift = abs(result.invariants[-1, 0] - result.invariants[0, 0]) / abs(result.invariants[0, 0])
    print(f"done in {wall:.2f} s; final relative energy drift {drift:.3e}")
    return _EXIT_OK


def _print_table(title: str, col_names, row_names, rows) -> None:
    width = max(12, *(len(c) + 2 for c in col_names))
    print(f"\n{title}")
    print(" " * 6 + "".join(f"{c:>{width}}" for c in col_names))
    for name, row in zip(row_names, rows):
        cells = "".join(
            f"{v:>{width}.3e}" if v is not None else f"{'-':>{width}}" for v in row)
        print(f"{name:<6}{cells}")


def cmd_compare(args) -> int:
    import numpy as np

    from . import fileio
    from .bench import (INVARIANT_NAMES, _dump_fields, error_table_rows,
                        invariant_errors, relative_l2_error)
    from .errors import ConfigError
    from .pod import VARIABLES

    out = _workspace(args)
    traj, n, dt = fileio.read_snapshots(out / "snapshots.bin")
    num_steps = traj.shape[1] - 1
    cfg = _config_for_artifacts(args, n, dt, num_steps)
    grid, dops, physics = _setup(cfg)
    _check_physics(out, physics)
    basis = fileio.read_basis(out / "basis.bin")
    if basis.N != grid.N:
        raise ConfigError(f"basis N={basis.N} does not match snapshot grid N={grid.N}")

    report: dict = {"n": n, "num_steps": num_steps, "dt": dt,
                    "r": basis.r, "p": None}
    meta = _load_meta(out)
    for key in ("p", "r_criterion", "p_criterion", "kappa_pod", "kappa_deim",
                "wall_fom_s", "wall_pod_offline_s", "wall_pod_deim_offline_s",
                "wall_pod_online_s", "wall_pod_deim_online_s"):
        if key in meta:
            report[key] = meta[key]

    _, fom_invs = fileio.read_invariants_csv(out / "fom_invariants.csv")
    _, fom_mean, fom_peak = invariant_errors(fom_invs)
    for i, name in enumerate(INVARIANT_NAMES):
        report[f"inv_fom_{name}"] = float(fom_mean[i])
        report[f"inv_max_fom_{name}"] = float(fom_peak[i])

    lifted_all = {}
    for tag in ("pod", "pod_deim"):
        state_path = out / f"rom_state_{tag}.csv"
        if not state_path.exists():
            raise ConfigError(
                f"missing {state_path.name}; run `tswrom rom --method "
                f"{tag.replace('_', '-')}` first")
        reduced = fileio.read_matrix_csv(state_path).T
        if reduced.shape != (4 * basis.r, num_steps + 1):
            raise ConfigError(
                f"{state_path.name} has shape {reduced.shape}, expected "
                f"{(4 * basis.r, num_steps + 1)}")
        lifted = basis.lift_array(reduced)
        lifted_all[tag] = lifted
        l2 = relative_l2_error(traj, lifted)
        for i, var in enumerate(VARIABLES):
            report[f"l2_{tag}_{var}"] = float(l2[i])
        _, rom_invs = fileio.read_invariants_csv(out / f"rom_invariants_{tag}.csv")
        _, mean, peak = invariant_errors(rom_invs)
        for i, name in enumerate(INVARIANT_NAMES):
            report[f"inv_{tag}_{name}"] = float(mean[i])
            report[f"inv_max_{tag}_{name}"] = float(peak[i])

    if "wall_fom_s" in report:
        for tag in ("pod", "pod_deim"):
            if f"wall_{tag}_online_s" in report:
                report[f"speedup_{tag}"] = report["wall_fom_s"] / report[f"wall_{tag}_online_s"]

    fileio.write_errors_csv(out / "errors.csv", error_table_rows(report))
    fileio.write_report_json(out / "report.json", report)

    steps = sorted({0, num_steps // 2, num_steps})
    times = dt * np.arange(num_steps + 1)
    _dump_fields(out, "fom", grid, physics, dops, traj, times, steps)
    for tag, lifted in lifted_all.items():
        _dump_fields(out, tag, grid, physics, dops, lifted, times, steps)

    _print_table("time-averaged relative l2 error",
                 ("pod", "pod-deim"), VARIABLES,
                 [(report[f"l2_pod_{v}"], report[f"l2_pod_deim_{v}"]) for v in VARIABLES])
    _print_table("time-averaged relative invariant drift",
                 ("full", "pod", "pod-deim"), INVARIANT_NAMES,
                 [(report[f"inv_fom_{q}"], report[f"inv_pod_{q}"],
                   report[f"inv_pod_deim_{q}"]) for q in INVARIANT_NAMES])
    _print_table("wall clock [s] (offline / online / speedup)",
                 ("offline", "online", "speedup"),
                 ("full", "pod", "p-deim"),
                 [(None, report.get("wall_fom_s"), None),
                  (report.get("wall_pod_offline_s"), report.get("wall_pod_online_s"),
                   report.get("speedup_pod")),
                  (report.get("wall_pod_deim_offline_s"), report.get("wall_pod_deim_online_s"),
                   report.get("speedup_pod_deim"))])
    print(f"\nreport written to {out / 'report.json'}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="working directory for artifacts")
    common.add_argument("--config", help="config file of `key = value` lines")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a single config key (repeatable)")
    common.add_argument("--threads", type=int,
                        help="pin linear-algebra thread pools to this many threads")

    parser = argparse.ArgumentParser(
        prog="tswrom",
        description="structure-preserving shallow water solver and reduced models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fom = sub.add_parser("fom", parents=[common],
                           help="run the full-order model, write snapshots")
    p_fom.add_argument("--n", type=int, help="grid points per direction")
    p_fom.add_argument("--num-steps", dest="num_steps", type=int, help="time steps")
    p_fom.add_argument("--dt", type=float, help="time step size [s]")
    p_fom.add_argument("-v", "--verbose", action="store_true")
    p_fom.set_defaults(func=cmd_fom)

    p_red = sub.add_parser("reduce", parents=[common],
                           help="build basis, interpolation and reduced operators")
    p_red.add_argument("--kappa-pod", dest="kappa_pod", type=float,
                       help="energy threshold for the state basis")
    p_red.add_argument("--kappa-deim", dest="kappa_deim", type=float,
                       help="energy threshold for the interpolation bases")
    p_red.add_argument("--r", type=int, help="pin the basis size")
    p_red.add_argument("--p", type=int, help="pin the interpolation point count")
    p_red.add_argument("--raw-nonlin", dest="raw_nonlin", action="store_true",
                       help="train interpolation on raw snapshots instead of "
                            "their basis reconstructions")
    p_red.set_defaults(func=cmd_reduce)

    p_rom = sub.add_parser("rom", parents=[common], help="run a reduced model")
    p_rom.add_argument("--method", choices=("pod", "pod-deim"), default="pod-deim")
    p_rom.set_defaults(func=cmd_rom)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="compute errors, assemble the report, print tables")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _pin_threads(args.threads)

    from .errors import ConfigError, FormatError, NumericError

    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_OS


if __name__ == "__main__":
    sys.exit(main())
