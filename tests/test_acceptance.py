"""End-to-end acceptance gate: one pass/fail verdict per shipping criterion.

Every test measures first, records its verdict for the terminal summary
(printed by the hook in conftest), and only then asserts, so a red run still
reports every criterion it reached.  All tolerances are pinned here.
"""

import time

import numpy as np
import pytest

import conftest
from helpers import random_physics, random_state, small_setup

from tswrom.bench import (DoubleVortexConfig, double_vortex_initial,
                          invariant_errors, make_physics, run_pipeline)
from tswrom.deim import build_deim, collect_nonlin_snapshots
from tswrom.fom import (State, apply_poisson, avf_gradient,
                        dense_poisson_matrix, grad_hamiltonian, hamiltonian,
                        integrate_fom)
from tswrom.grid import build_diff_ops
from tswrom.pod import build_pod_basis, collect_snapshots, restrict
from tswrom.rom import (FlopCounter, RomState, integrate_rom, precompute_rom,
                        reduced_poisson_matrix, rom_rhs)

conftest.ACCEPTANCE_ATTEMPTED = True
_record = conftest.record_criterion

#: Reference time-averaged relative l2 errors of the tensor-interpolation
#: reduced solve on the double-vortex benchmark at r=5, p=35, per variable.
#: Criterion 3 requires agreement within a factor of three, both ways.
REFERENCE_L2 = {"h": 1.014e-2, "u": 1.737e-1, "v": 2.400e-1, "s": 7.943e-4}


@pytest.fixture(scope="module")
def desk_fom():
    """Full-order n=32 run, small enough for an always-on gate."""
    cfg = DoubleVortexConfig(n=32, num_steps=100, dt=486.0)
    grid = cfg.make_grid()
    dops = build_diff_ops(grid)
    physics = make_physics(cfg, grid.N)
    z0 = double_vortex_initial(grid, cfg)
    start = time.perf_counter()
    result = integrate_fom(z0, cfg.dt, cfg.num_steps, physics, dops)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def production_pipeline():
    """The complete production-scale benchmark, shared by criteria 2/3/4/7."""
    return run_pipeline(DoubleVortexConfig(r_override=5, p_override=35))


def test_criterion_1_conservation_at_desk_scale(desk_fom):
    result, wall = desk_fom
    _, mean, _ = invariant_errors(result.invariants)
    ok = bool(np.all(mean <= 1e-9)) and wall <= 120.0
    _record(1, "full-order conservation, n=32, 100 steps", ok,
            "mean rel drift H={:.1e} M={:.1e} Q={:.1e} B={:.1e} (tol 1e-9); "
            "wall {:.1f} s (limit 120)".format(*mean, wall))
    assert np.all(mean <= 1e-9)
    assert wall <= 120.0


def test_criterion_2_conservation_at_production_scale(production_pipeline):
    rep = production_pipeline.report
    mean = {name: rep[f"inv_fom_{name}"] for name in "HMQB"}
    ok = all(value <= 1e-9 for value in mean.values()) and mean["Q"] <= 1e-13
    _record(2, "full-order conservation, n=100, 250 steps", ok,
            f"mean rel drift H={mean['H']:.1e} M={mean['M']:.1e} "
            f"Q={mean['Q']:.1e} B={mean['B']:.1e} (tol 1e-9; Q 1e-13)")
    for name, value in mean.items():
        assert value <= 1e-9, name
    assert mean["Q"] <= 1e-13


def test_criterion_3_reduced_accuracy_at_production_scale(production_pipeline):
    rep = production_pipeline.report
    errors = {var: rep[f"l2_pod_deim_{var}"] for var in REFERENCE_L2}
    in_band = {var: REFERENCE_L2[var] / 3.0 <= err <= REFERENCE_L2[var] * 3.0
               for var, err in errors.items()}
    ok = rep["r"] == 5 and rep["p"] == 35 and all(in_band.values())
    detail = ", ".join(f"{var}={errors[var]:.2e} (ref {REFERENCE_L2[var]:.2e})"
                       for var in REFERENCE_L2)
    _record(3, "reduced accuracy at r=5, p=35", ok,
            f"{detail}; energy-rule ranks r={rep['r_criterion']}, "
            f"p={rep['p_criterion']}")
    assert rep["r"] == 5 and rep["p"] == 35
    for var, err in errors.items():
        assert in_band[var], (
            f"{var}: {err:.3e} outside [{REFERENCE_L2[var] / 3.0:.3e}, "
            f"{REFERENCE_L2[var] * 3.0:.3e}]")


def test_criterion_4_reduced_conservation_at_production_scale(production_pipeline):
    rep = production_pipeline.report
    fragments = []
    ok = True
    for tag in ("pod", "pod_deim"):
        mean = {name: rep[f"inv_{tag}_{name}"] for name in "HMQB"}
        peak = {name: rep[f"inv_max_{tag}_{name}"] for name in "HMQB"}
        bounded = (mean["H"] <= 1e-3 and mean["M"] <= 1e-3
                   and mean["B"] <= 1e-3 and mean["Q"] <= 1e-12)
        # flat in time: the worst drift may not exceed ten times the mean,
        # unless it already sits at the rounding floor
        steady = all(peak[name] <= 10.0 * mean[name] or peak[name] <= 1e-13
                     for name in "HMB")
        ok = ok and bounded and steady
        ratio = max(peak[name] / mean[name] for name in "HMB" if mean[name] > 0)
        fragments.append(
            f"{tag}: H={mean['H']:.1e} M={mean['M']:.1e} Q={mean['Q']:.1e} "
            f"B={mean['B']:.1e}, worst peak/mean {ratio:.1f}")
    _record(4, "reduced conservation without secular drift", ok,
            "; ".join(fragments))
    for tag in ("pod", "pod_deim"):
        for name in "HMB":
            assert rep[f"inv_{tag}_{name}"] <= 1e-3, (tag, name)
        assert rep[f"inv_{tag}_Q"] <= 1e-12, tag
        for name in "HMB":
            mean, peak = rep[f"inv_{tag}_{name}"], rep[f"inv_max_{tag}_{name}"]
            assert peak <= 10.0 * mean or peak <= 1e-13, (tag, name, peak, mean)


def test_criterion_5_full_rank_reduction_recovers_full_order():
    # With at least as many snapshots as grid unknowns the singular bases
    # are square orthonormal matrices: V V^T = I and the interpolation is
    # exact, so both reduced solvers must reproduce the full-order
    # trajectory in reduced coordinates.
    start = time.perf_counter()
    cfg = DoubleVortexConfig(n=16, num_steps=280, dt=486.0)
    grid = cfg.make_grid()
    dops = build_diff_ops(grid)
    physics = make_physics(cfg, grid.N)
    z0 = double_vortex_initial(grid, cfg)
    fom = integrate_fom(z0, cfg.dt, cfg.num_steps, physics, dops)

    N = grid.N
    snaps = collect_snapshots(fom.trajectory[:, 1:])
    basis = build_pod_basis(snaps, kappa=0.0, r_override=N)
    nonlin = collect_nonlin_snapshots(snaps, basis, physics, dops)
    dset = build_deim(nonlin, kappa=0.0, p_override=N)
    ops = precompute_rom(basis, dset, physics, dops)

    eye = np.eye(N)
    projector_err = max(float(np.abs(v @ v.T - eye).max()) for v in basis.modes)
    interp_err = max(float(np.abs(op.psi[op.indices] - eye).max()) for op in dset)

    steps = 10
    reference = basis.restrict_array(fom.trajectory[:, : steps + 1])
    zr0 = restrict(basis, z0)
    coeff_err = {}
    for method in ("pod", "pod-deim"):
        run = integrate_rom(ops, RomState(z_r=zr0, t=z0.t), cfg.dt, steps,
                            method=method, solver="krylov")
        coeff_err[method] = float(np.abs(run.reduced - reference).max())
    wall = time.perf_counter() - start

    ok = (projector_err <= 1e-10 and interp_err <= 1e-10
          and all(err <= 1e-6 for err in coeff_err.values()))
    _record(5, "full-rank reduction recovers the full order (n=16)", ok,
            f"max coefficient error galerkin={coeff_err['pod']:.1e}, "
            f"tensor={coeff_err['pod-deim']:.1e} (tol 1e-6); "
            f"|VV^T-I|={projector_err:.1e}, |psi[idx]-I|={interp_err:.1e}; "
            f"wall {wall:.0f} s")
    assert projector_err <= 1e-10
    assert interp_err <= 1e-10
    assert coeff_err["pod"] <= 1e-6
    assert coeff_err["pod-deim"] <= 1e-6


def _small_reduction(rng):
    """Random smooth states through the whole offline path, n=5, r=3, p=4."""
    grid, dops = small_setup(n=5)
    phys = random_physics(grid, rng)
    traj = np.stack([random_state(grid, rng).z for _ in range(8)], axis=1)
    snaps = collect_snapshots(traj)
    basis = build_pod_basis(snaps, kappa=0.0, r_override=3)
    nonlin = collect_nonlin_snapshots(snaps, basis, phys, dops)
    dset = build_deim(nonlin, kappa=0.0, p_override=4)
    ops = precompute_rom(basis, dset, phys, dops)
    return grid, dops, phys, basis, dset, ops


def test_criterion_6_structural_identities(rng):
    checks = {}

    grid, dops = small_setup(n=8)
    checks["operator skew"] = (
        max(float(np.abs((dops.dx_op + dops.dx_op.T).toarray()).max()),
            float(np.abs((dops.dy_op + dops.dy_op.T).toarray()).max())),
        1e-12)

    phys = random_physics(grid, rng)
    state = random_state(grid, rng)
    g = rng.normal(size=4 * grid.N)
    dense = dense_poisson_matrix(state, phys, dops)
    checks["dense vs matrix-free"] = (
        float(np.abs(dense @ g - apply_poisson(state, phys, dops, g)).max()),
        1e-12)

    # the averaged gradient equals a 10-point quadrature along the chord
    other = random_state(grid, rng)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    dz = other.z - state.z
    quad = sum(0.5 * w * grad_hamiltonian(State(z=state.z + 0.5 * (x + 1.0) * dz), phys)
               for x, w in zip(nodes, weights))
    checks["averaged gradient vs 10-point"] = (
        float(np.abs(avf_gradient(state, other, phys) - quad).max()), 1e-13)

    # the energy gradient against central differences of the energy itself
    grad = grad_hamiltonian(state, phys)
    eps = 1e-5
    fd = np.empty_like(grad)
    for i in range(fd.size):
        zp, zm = state.z.copy(), state.z.copy()
        zp[i] += eps
        zm[i] -= eps
        fd[i] = (hamiltonian(State(z=zp), phys, grid)
                 - hamiltonian(State(z=zm), phys, grid)) / (2.0 * eps * grid.cell_area)
    checks["gradient vs finite differences (rel)"] = (
        float(np.abs(grad - fd).max() / np.abs(grad).max()), 1e-6)

    sgrid, sdops, sphys, sbasis, sdset, sops = _small_reduction(rng)
    sstate = random_state(sgrid, rng)
    jr = reduced_poisson_matrix(sbasis, sstate, sphys, sdops)
    checks["reduced skew"] = (float(np.abs(jr + jr.T).max()), 1e-12)

    eye = np.eye(sdset.p)
    checks["interpolation projector"] = (
        max(float(np.abs(op.psi[op.indices] - eye).max()) for op in sdset),
        1e-10)

    # the K_j tensors against V_a^T diag(psi_j f) V_b, and the gradient
    # tensors against V_a^T ((V_b x) o (V_c y)), both ways they are read
    vh, vu, vv, vs = sbasis.modes
    r = sbasis.r
    f = rng.normal(size=sdset.p)
    x = rng.normal(size=r)
    y = rng.normal(size=r)
    deviations = [
        float(np.abs((f @ kj).reshape(r, r)
                     - va.T @ ((sdset[j].psi @ f)[:, None] * vb)).max())
        for kj, j, va, vb in ((sops.k1, 1, vu, vv), (sops.k2, 2, vu, vs),
                              (sops.k3, 3, vv, vs))]
    grad = sops.grad
    for tens, va, vb, vc in ((grad.t_uu, vh, vu, vu), (grad.t_vv, vh, vv, vv),
                             (grad.t_hs, vh, vh, vs)):
        deviations.append(float(np.abs(np.einsum("ijk,j,k->i", tens, x, y)
                                       - va.T @ ((vb @ x) * (vc @ y))).max()))
        deviations.append(float(np.abs(np.einsum("ijk,i,k->j", tens, x, y)
                                       - vb.T @ ((va @ x) * (vc @ y))).max()))
    checks["tensor vs pointwise products"] = (max(deviations), 1e-12)

    ok = all(value <= tol for value, tol in checks.values())
    _record(6, "structural identity suite", ok,
            ", ".join(f"{name} {value:.1e}/{tol:.0e}"
                      for name, (value, tol) in checks.items()))
    for name, (value, tol) in checks.items():
        assert value <= tol, (name, value, tol)


def test_criterion_7_runtime_ordering(production_pipeline):
    rep = production_pipeline.report
    fom_wall = rep["wall_fom_s"]
    pod_wall = rep["wall_pod_online_s"]
    deim_wall = rep["wall_pod_deim_online_s"]
    speedup = rep["speedup_pod_deim"]
    ok = deim_wall < pod_wall < fom_wall and speedup >= 20.0
    _record(7, "online runtime ordering and speedup", ok,
            f"full {fom_wall:.2f} s, galerkin online {pod_wall:.2f} s, "
            f"tensor online {deim_wall:.3f} s, speedup {speedup:.0f}x "
            f"(need >= 20)")
    assert deim_wall < pod_wall < fom_wall
    assert speedup >= 20.0


def _tensor_counts(n):
    """Train a reduced model at grid size n and count one rhs evaluation."""
    cfg = DoubleVortexConfig(n=n, num_steps=40, dt=486.0,
                             r_override=5, p_override=35)
    grid = cfg.make_grid()
    dops = build_diff_ops(grid)
    physics = make_physics(cfg, grid.N)
    z0 = double_vortex_initial(grid, cfg)
    fom = integrate_fom(z0, cfg.dt, cfg.num_steps, physics, dops)
    snaps = collect_snapshots(fom.trajectory[:, 1:])
    basis = build_pod_basis(snaps, kappa=cfg.kappa_pod, r_override=5)
    nonlin = collect_nonlin_snapshots(snaps, basis, physics, dops)
    dset = build_deim(nonlin, kappa=cfg.kappa_deim, p_override=35)
    ops = precompute_rom(basis, dset, physics, dops)
    counter = FlopCounter()
    rom_rhs(ops, restrict(basis, z0), counter)
    return counter


def test_criterion_8_online_cost_independent_of_grid():
    c32 = _tensor_counts(32)
    c64 = _tensor_counts(64)
    ok = c32.core > 0 and c32.core == c64.core and c32.sampling == c64.sampling
    _record(8, "online flop count independent of grid size", ok,
            f"core {c32.core} (n=32) vs {c64.core} (n=64), "
            f"sampling {c32.sampling} vs {c64.sampling}")
    assert c32.core > 0
    assert c32.core == c64.core
    assert c32.sampling == c64.sampling
