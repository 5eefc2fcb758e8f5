"""Command-line driver for the benchmark pipeline.

Four subcommands share one working directory of artifacts:

    tswrom fom     --out DIR    full-order solve -> snapshots.bin,
                                fom_invariants.csv
    tswrom reduce  --out DIR    basis + interpolation training ->
                                basis.bin, deim.bin, romops.bin
    tswrom rom     --out DIR --method {pod,pod-deim}
                                reduced solve -> rom_pod.bin or
                                rom_pod_deim.bin, rom_invariants_*.csv
    tswrom compare --out DIR    report.json, field dumps, and printed
                                accuracy/conservation/timing tables

Each subcommand reads its stage's inputs from DIR and calls the stage
function of tswrom.bench that run_pipeline chains in memory, so both write
the same artifacts, time the same work and build the same report; a
run_pipeline output directory can be continued here. Stage lines go to
standard output through logging at INFO level; fom --verbose lowers it to
DEBUG, which adds the full model's progress lines.

Parameters come from an optional config file of `key = value` lines (keys
mirror DoubleVortexConfig fields, `#` starts a comment), overridden by
`--set key=value` and by the explicit flags. A stage reads an artifact only
while the fingerprints it records of the artifacts it was derived from match
the files in DIR (tswrom.bench.check_lineage); a missing or stale input
exits 2 and names the command that rebuilds it. Later stages take the
discretization from snapshots.bin and exit 2 when the domain length or the
physics they build from their own parameters differs from the fom run's.
DIR/run_meta.json logs each stage's timings and ranks for compare's report.
`--set projected_nonlin=false` trains the interpolation on raw snapshots.

The binary artifacts are checksummed containers (see tswrom.fileio). A
corrupted, truncated, misshapen, foreign or older-version artifact exits 5.

Exit codes: 0 success, 2 configuration errors, 3 numerical failures,
4 I/O errors, 5 malformed artifact files.

This module imports nothing heavy at the top so `--threads` can pin the
linear-algebra thread pools before they spin up.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_OS = 4
_EXIT_FORMAT = 5


def _pin_threads(threads: int | None) -> None:
    """Size the thread pools of the linear-algebra libraries, which read
    these variables when they load: main calls this before importing any."""
    if threads is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)


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
    for key in defaults:  # each explicit flag's dest is the field it sets
        if getattr(args, key, None) is not None:
            kwargs[key] = getattr(args, key)
    return DoubleVortexConfig(**kwargs)


def _inputs(args, needs, initial_only: bool = False):
    """The working directory, its fom run (only the initial state when
    initial_only), the case of the arguments pinned to that run and the
    run log, once bench.check_lineage(needs) passed there."""
    from . import fileio
    from .bench import check_lineage, fom_case, read_run_meta

    out = Path(args.out)
    check_lineage(out, needs)
    read = fileio.read_initial_snapshot if initial_only else fileio.read_snapshots
    snaps, snapshot_meta = read(out / "snapshots.bin")
    return out, snaps, fom_case(_build_config(args), snapshot_meta, out), read_run_meta(out)


# ---------------------------------------------------------------------------
# subcommands: each reads its stage's inputs from --out and runs the bench
# stage function that run_pipeline runs
# ---------------------------------------------------------------------------

def cmd_fom(args) -> int:
    from .bench import Case, progress_to_stdout, read_run_meta, stage_fom

    case = Case.build(_build_config(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with progress_to_stdout(logging.DEBUG if args.verbose else logging.INFO):
        stage_fom(case, read_run_meta(out), out)
    return _EXIT_OK


def cmd_reduce(args) -> int:
    from .bench import progress_to_stdout, snapshot_set, stage_reduce

    out, full, case, meta = _inputs(args, ("snapshots.bin",))
    snaps = snapshot_set(full.trajectory)
    del full  # the trajectory is not needed past its snapshot set
    with progress_to_stdout(logging.INFO):
        stage_reduce(case, *snaps, meta, out)
    return _EXIT_OK


def cmd_rom(args) -> int:
    from . import fileio
    from .bench import progress_to_stdout, stage_rom
    from .rom import RomOperators, rom_operators_from_parts

    needs = "basis.bin" if args.method == "pod" else "romops.bin"
    out, z0, case, meta = _inputs(args, (needs,), initial_only=True)
    basis = fileio.read_basis(out / "basis.bin", case.grid.N)
    if args.method == "pod":
        ops = RomOperators(basis, case.physics, case.grid)
    else:
        dset = fileio.read_deim(out / "deim.bin")
        mats, _, _ = fileio.read_romops(out / "romops.bin")
        ops = rom_operators_from_parts(mats, basis, dset, case.physics, case.grid)
    with progress_to_stdout(logging.INFO):
        stage_rom(case, ops, z0, args.method, meta, out)
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
    from . import fileio
    from .bench import INVARIANT_NAMES, stage_report
    from .pod import VARIABLES
    from .rom import METHODS

    tags = {method: method.replace("-", "_") for method in METHODS}
    out, full, case, meta = _inputs(args, [f"rom_{tag}.bin" for tag in tags.values()])
    basis = fileio.read_basis(out / "basis.bin", case.grid.N)
    roms = {tag: fileio.read_rom(out / f"rom_{tag}.bin", method, basis.r)
            for method, tag in tags.items()}
    report = stage_report(case, meta, full, basis, roms, out)

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
                 [(None, report["wall_fom_s"], None),
                  (report["wall_pod_offline_s"], report["wall_pod_online_s"],
                   report["speedup_pod"]),
                  (report["wall_pod_deim_offline_s"], report["wall_pod_deim_online_s"],
                   report["speedup_pod_deim"])])
    print(f"\nreport written to {out / 'report.json'}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="working directory for artifacts")
    common.add_argument("--config", help="config file of `key = value` lines")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a single config key (repeatable)")
    common.add_argument("--threads", type=_positive_int,
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
    p_red.add_argument("--r", dest="r_override", metavar="R", type=int,
                       help="pin the basis size")
    p_red.add_argument("--p", dest="p_override", metavar="P", type=int,
                       help="pin the interpolation point count")
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

    exit_codes = {ConfigError: _EXIT_CONFIG, NumericError: _EXIT_NUMERIC,
                  FormatError: _EXIT_FORMAT, OSError: _EXIT_OS}
    try:
        return args.func(args)
    except tuple(exit_codes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in exit_codes.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
