"""The benchmark's three workloads, each one closed-loop pass over tswrom's
public stage functions, timed from outside.

A pass records wall-time samples per end-to-end metric and runs every output
check as one attempted operation. Seed 0 is the paper configuration; other
seeds jitter center_offset, depth_drop and buoyancy_wobble by up to +-5%.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from tswrom import bench, cli, deim, fom, grid, pod, rom

import checks

#: Why each workload is in the benchmark: which layers it stresses and
#: which it bypasses.
WHY = {
    "production": (
        "The paper's and the ROADMAP's fixed benchmark (n=100, 250 steps of 486 s, "
        "r=5, p=35), in memory through the stage functions run_pipeline calls. The "
        "full-order solve is about half the run and the Galerkin online solve about "
        "a third; there is no file I/O, so it exercises fom and bypasses fileio."),
    "rom-ensemble": (
        "Train once at n=32, then march 20 tensor-model members of 250 steps from "
        "seeded 1e-3 perturbations of the initial reduced state: the many-query use "
        "the reduced model exists for. The tensor loop (sampler, contractions, dense "
        "Newton) is about three quarters of the run; per-step lifted diagnostics are "
        "a small share at N=1024. Longer horizons reach a nonpositive height."),
    "cli-disk": (
        "The README's chain through tswrom.cli.main in one working directory: "
        "fom --n 64 --num-steps 250 --dt 486, reduce --r 5 --p 35, rom pod-deim, "
        "rom pod, compare. The only workload with fileio work: snapshots.bin is "
        "streamed once and read four times, and compare writes nine field CSVs. "
        "Pinned ranks: the energy-rule ranks r=p=26 put the h error near the "
        "criterion-3 bound and make the Galerkin solve several times slower."),
}

NUM_STEPS = 250
DT = 486.0
GRID = {"production": 100, "rom-ensemble": 32, "cli-disk": 64}
JITTERED = ("center_offset", "depth_drop", "buoyancy_wobble")

TENSOR_REPEATS = 8      # production: the 0.4 s tensor solve
REPORT_REPEATS = 3
CLI_REPEATS = 3         # cli-disk: the sub-second rom pod-deim and compare stages
MEMBERS = 20
MEMBER_PERTURBATION = 1e-3


def make_config(workload: str, seed: int) -> bench.DoubleVortexConfig:
    cfg = bench.DoubleVortexConfig(n=GRID[workload], num_steps=NUM_STEPS, dt=DT,
                                   r_override=checks.R, p_override=checks.P)
    if seed == 0:
        return cfg
    factors = np.random.default_rng(seed).uniform(0.95, 1.05, size=len(JITTERED))
    return dataclasses.replace(cfg, **{name: getattr(cfg, name) * float(f)
                                       for name, f in zip(JITTERED, factors)})


def build(cfg):
    """Grid, difference operators, physics and initial state."""
    mesh = cfg.make_grid()
    dops = grid.build_diff_ops(mesh)
    physics = bench.make_physics(cfg, mesh.N)
    z0 = bench.double_vortex_initial(mesh, cfg)
    return dops, physics, z0


class Run:
    """Samples and check outcomes of one benchmark process."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None

    def check(self, operation: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{operation}: " + "; ".join(problems))

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def timed(self, metric: str, span: str):
        t0 = time.perf_counter()
        with self.span(span):
            yield
        self.samples[metric].append(time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# in-memory stages
# ---------------------------------------------------------------------------

def _full_order(run: Run, cfg, dops, physics, z0):
    with run.timed("fom_s", "stage.fom"):
        full = fom.integrate_fom(z0, cfg.dt, cfg.num_steps, physics, dops)
    run.check("fom", checks.fom_problems(full.invariants))
    return full


def _offline(run: Run, cfg, full, dops, physics):
    with run.timed("offline_s", "stage.offline"):
        snaps = pod.collect_snapshots(full.trajectory[:, 1:])
        basis = pod.build_pod_basis(snaps, kappa=cfg.kappa_pod, r_override=cfg.r_override)
        nonlin = deim.collect_nonlin_snapshots(snaps, basis, physics, dops,
                                               projected=cfg.projected_nonlin)
        dset = deim.build_deim(nonlin, kappa=cfg.kappa_deim, p_override=cfg.p_override)
        romops = rom.precompute_rom(basis, dset, physics, dops)
    run.check("offline", checks.rank_problems(basis.r, dset.p))
    return basis, romops


def _galerkin(run: Run, cfg, romops, zr0):
    with run.timed("rom_pod_online_s", "stage.rom_pod"):
        result = rom.integrate_rom(romops, rom.RomState(z_r=zr0, t=0.0),
                                   cfg.dt, cfg.num_steps, method="pod")
    run.check("rom pod", checks.reduced_problems("galerkin", result.invariants))
    return result


def _tensor(cfg, romops, zr0):
    return rom.integrate_rom(romops, rom.RomState(z_r=zr0, t=0.0),
                             cfg.dt, cfg.num_steps, method="pod-deim")


def _tensor_problems(full, basis, result) -> list[str]:
    lifted = checks.lift(basis.means, basis.modes, result.reduced)
    return (checks.l2_problems(checks.relative_l2(full.trajectory, lifted))
            + checks.reduced_problems("tensor", result.invariants))


def _report(run: Run, full, basis, results: dict) -> None:
    """The program's error and drift metrics for every reduced trajectory,
    checked against the benchmark's own computation of the same numbers."""
    for _ in range(REPORT_REPEATS):
        with run.timed("report_s", "stage.report"):
            l2 = {tag: bench.relative_l2_error(full.trajectory, basis.lift_array(res.reduced))
                  for tag, res in results.items()}
            drifts = {tag: bench.invariant_errors(res.invariants)[1]
                      for tag, res in results.items()}
            drifts["fom"] = bench.invariant_errors(full.invariants)[1]
    problems = []
    for tag, res in results.items():
        own = checks.relative_l2(full.trajectory,
                                 checks.lift(basis.means, basis.modes, res.reduced))
        if not np.allclose(l2[tag], own, rtol=1e-9, atol=0.0):
            problems.append(f"{tag} l2 {l2[tag]} != {own}")
    for tag, inv in [("fom", full.invariants)] + [(t, r.invariants) for t, r in results.items()]:
        if not np.allclose(drifts[tag], checks.drift(inv)[0], rtol=1e-9, atol=1e-15):
            problems.append(f"{tag} drift {drifts[tag]} != {checks.drift(inv)[0]}")
    run.check("report", problems)


def production(run: Run, cfg, seed: int):
    dops, physics, z0 = build(cfg)
    full = _full_order(run, cfg, dops, physics, z0)
    basis, romops = _offline(run, cfg, full, dops, physics)
    zr0 = pod.restrict(basis, z0)

    def tensor_repeats(count):
        for _ in range(count):
            with run.timed("rom_deim_online_s", "stage.rom_deim"):
                result = _tensor(cfg, romops, zr0)
            run.check("rom pod-deim", _tensor_problems(full, basis, result))
        return result

    # half the tensor solves on each side of the 10 s Galerkin solve, so
    # their mean spans the run rather than one moment of it
    tensor_repeats(TENSOR_REPEATS // 2)
    galerkin = _galerkin(run, cfg, romops, zr0)
    tensor = tensor_repeats(TENSOR_REPEATS - TENSOR_REPEATS // 2)
    _report(run, full, basis, {"pod": galerkin, "pod_deim": tensor})
    return lambda: (romops, zr0)


def _perturbed(zr0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """zr0 plus a random offset of relative size 1e-3 in each variable block."""
    r = zr0.size // 4
    out = zr0.copy()
    for i in range(4):
        block = zr0[i * r:(i + 1) * r]
        offset = rng.standard_normal(r)
        out[i * r:(i + 1) * r] += (MEMBER_PERTURBATION * np.linalg.norm(block)
                                   / np.linalg.norm(offset)) * offset
    return out


def rom_ensemble(run: Run, cfg, seed: int):
    dops, physics, z0 = build(cfg)
    full = _full_order(run, cfg, dops, physics, z0)
    basis, romops = _offline(run, cfg, full, dops, physics)
    zr0 = pod.restrict(basis, z0)
    results = {"pod": _galerkin(run, cfg, romops, zr0)}
    rng = np.random.default_rng([seed, 1])
    online = 0.0
    for k in range(MEMBERS):
        start = _perturbed(zr0, rng)
        t0 = time.perf_counter()
        with run.span("stage.rom_deim"):
            member = _tensor(cfg, romops, start)
        online += time.perf_counter() - t0
        run.check(f"member {k}", _tensor_problems(full, basis, member))
        results[f"member_{k}"] = member
    run.samples["rom_deim_online_s"].append(online)
    _report(run, full, basis, results)
    return lambda: (romops, zr0)


# ---------------------------------------------------------------------------
# on-disk CLI chain
# ---------------------------------------------------------------------------

def _cli(run: Run, metric: str, argv: list[str]) -> tuple[int, str]:
    """One tswrom.cli.main call, timed; returns exit code and its output."""
    log = io.StringIO()
    with run.timed(metric, f"cli.{argv[0]}"), contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, log.getvalue()


def _exit_problems(code: int, log: str) -> list[str]:
    return [] if code == 0 else [f"exit code {code}: {log.strip()[-300:]}"]


def _csv_invariants(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2:]


def cli_disk(run: Run, cfg, seed: int):
    work = run.workdir / "cli"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--out", str(work), "--threads", "1"]
    for name in JITTERED:
        common += ["--set", f"{name}={getattr(cfg, name)!r}"]

    code, log = _cli(run, "fom_s", ["fom", *common, "--n", str(cfg.n),
                                    "--num-steps", str(cfg.num_steps), "--dt", repr(cfg.dt)])
    problems = _exit_problems(code, log)
    if not problems:
        problems = checks.fom_problems(_csv_invariants(work / "fom_invariants.csv"))
    run.check("cli fom", problems)

    code, log = _cli(run, "offline_s", ["reduce", *common, "--r", str(cfg.r_override),
                                        "--p", str(cfg.p_override)])
    problems = _exit_problems(code, log)
    if not problems:
        meta = json.loads((work / "run_meta.json").read_text())
        problems = checks.rank_problems(meta["r"], meta["p"])
    run.check("cli reduce", problems)

    def rom_stage(method, metric, label):
        code, log = _cli(run, metric, ["rom", *common, "--method", method])
        problems = _exit_problems(code, log)
        if not problems:
            tag = method.replace("-", "_")
            problems = checks.reduced_problems(
                label, _csv_invariants(work / f"rom_invariants_{tag}.csv"))
        run.check(f"cli rom {method}", problems)

    def compare_stage():
        code, log = _cli(run, "report_s", ["compare", *common])
        problems = _exit_problems(code, log)
        if not problems:
            report = json.loads((work / "report.json").read_text())
            problems = (checks.l2_problems([report[f"l2_pod_deim_{v}"]
                                            for v in checks.VARIABLES])
                        + checks.rank_problems(report["r"], report["p"]))
        run.check("cli compare", problems)

    rom_stage("pod-deim", "rom_deim_online_s", "tensor")
    rom_stage("pod", "rom_pod_online_s", "galerkin")
    compare_stage()
    # the sub-second stages again, alternating, so their mean spans the pass
    for _ in range(CLI_REPEATS - 1):
        rom_stage("pod-deim", "rom_deim_online_s", "tensor")
        compare_stage()
    return lambda: _load_cli_model(work, cfg)


def _load_cli_model(work: Path, cfg):
    from tswrom import fileio

    dops, physics, z0 = build(cfg)
    basis = fileio.read_basis(work / "basis.bin")
    dset = fileio.read_deim(work / "deim.bin")
    mats, _, _ = fileio.read_romops(work / "romops.bin")
    romops = rom.rom_operators_from_parts(mats, basis, dset, physics, dops)
    return romops, pod.restrict(basis, z0)


PASSES = {"production": production, "rom-ensemble": rom_ensemble, "cli-disk": cli_disk}


# ---------------------------------------------------------------------------
# reduced right-hand side, measured directly
# ---------------------------------------------------------------------------

RHS_CALLS = 200


def rhs_cost(romops, zr0) -> tuple[int, float]:
    """Flops of one tensor rom_rhs call (FlopCounter) and its median time in us."""
    counter = rom.FlopCounter()
    rom.rom_rhs(romops, zr0, counter)
    times = []
    for _ in range(RHS_CALLS):
        t0 = time.perf_counter()
        rom.rom_rhs(romops, zr0)
        times.append(time.perf_counter() - t0)
    times.sort()
    return counter.core + counter.sampling, times[len(times) // 2] * 1e6


def cross_grid_flops(seed: int, n: int) -> int:
    """rom_rhs flops of an r=5, p=35 model trained on 40 steps at grid size n
    (criterion 8's setting), for comparison with the workload's own model."""
    cfg = dataclasses.replace(make_config("production", seed), n=n, num_steps=40)
    dops, physics, z0 = build(cfg)
    full = fom.integrate_fom(z0, cfg.dt, cfg.num_steps, physics, dops)
    snaps = pod.collect_snapshots(full.trajectory[:, 1:])
    basis = pod.build_pod_basis(snaps, kappa=cfg.kappa_pod, r_override=cfg.r_override)
    nonlin = deim.collect_nonlin_snapshots(snaps, basis, physics, dops)
    dset = deim.build_deim(nonlin, kappa=cfg.kappa_deim, p_override=cfg.p_override)
    romops = rom.precompute_rom(basis, dset, physics, dops)
    counter = rom.FlopCounter()
    rom.rom_rhs(romops, pod.restrict(basis, z0), counter)
    return counter.core + counter.sampling
