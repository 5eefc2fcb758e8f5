"""End-to-end acceptance gate: one pass/fail verdict per shipping criterion.

Every test measures first, records its verdict for the terminal summary
(printed by the hook in conftest), and only then asserts, so a red run still
reports every criterion it reached.  All tolerances are pinned here.
"""

import time
import tracemalloc

import numpy as np
import pytest

import conftest
from helpers import (apply_poisson, avf_gradient, dense_poisson_matrix, random_physics,
                     random_state, reduced_poisson_matrix, small_setup)

from tswrom import rom
from tswrom.bench import (DoubleVortexConfig, double_vortex_initial,
                          invariant_errors, make_physics, run_pipeline)
from tswrom.deim import build_deim, collect_nonlin_snapshots
from tswrom.errors import NumericError
from tswrom.fom import grad_hamiltonian, hamiltonian, integrate_fom, march
from tswrom.grid import apply_dx, apply_dy
from tswrom.pod import build_pod_basis, collect_snapshots, restrict
from tswrom.rom import (FlopCounter, RomState, integrate_rom, precompute_rom,
                        rom_rhs)

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
    physics = make_physics(cfg, grid.N)
    z0 = double_vortex_initial(grid, cfg)
    start = time.perf_counter()
    result = integrate_fom(z0, cfg.dt, cfg.num_steps, physics, grid)
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


#: Criterion 4's long horizon: ten training windows of the production run.
LONG_HORIZON_STEPS = 2500


def test_criterion_4_reduced_conservation_at_production_scale(production_pipeline):
    # Over the training window both reduced models conserve energy,
    # vorticity and, with the constant field in the depth basis, mass to
    # rounding, and the buoyancy drift is bounded and flat. Marched ten
    # windows on the same operators, both must keep positive depth and the
    # same conservation; the buoyancy drift measured 6.1e-3 (Galerkin) and
    # 7.4e-3 (tensor) there, against the bound 1e-2.
    rep = production_pipeline.report
    fragments = []
    ok = True
    for tag in ("pod", "pod_deim"):
        mean = {name: rep[f"inv_{tag}_{name}"] for name in "HMQB"}
        peak = {name: rep[f"inv_max_{tag}_{name}"] for name in "HMQB"}
        bounded = (mean["H"] <= 1e-3 and mean["B"] <= 1e-3
                   and max(mean["M"], peak["M"], mean["Q"]) <= 1e-12)
        # flat in time: the worst drift may not exceed ten times the mean,
        # unless it already sits at the rounding floor
        steady = all(peak[name] <= 10.0 * mean[name] or peak[name] <= 1e-13
                     for name in "HMB")
        ok = ok and bounded and steady
        ratio = max(peak[name] / mean[name] for name in "HMB" if mean[name] > 0)
        fragments.append(
            f"{tag}: H={mean['H']:.1e} M={mean['M']:.1e}/{peak['M']:.1e} Q={mean['Q']:.1e} "
            f"B={mean['B']:.1e}, worst peak/mean {ratio:.1f}")

    cfg, ops = production_pipeline.config, production_pipeline.romops
    start = rom.RomState(z_r=restrict(ops.basis, production_pipeline.fom.trajectory[:, 0]))
    long_peaks, failures = {}, {}
    for method in rom.METHODS:
        try:
            result = integrate_rom(ops, start, cfg.dt, LONG_HORIZON_STEPS, method=method)
        except NumericError as exc:
            failures[method] = str(exc)
            ok = False
            fragments.append(f"{method} x{LONG_HORIZON_STEPS} steps: {exc}")
            continue
        peak = dict(zip("HMQB", invariant_errors(result.invariants)[2]))
        long_peaks[method] = peak
        ok = ok and (peak["H"] <= 1e-11 and max(peak["M"], peak["Q"]) <= 1e-12
                     and peak["B"] <= 1e-2)
        fragments.append(f"{method} x{LONG_HORIZON_STEPS} steps peak: H={peak['H']:.1e} "
                         f"M={peak['M']:.1e} Q={peak['Q']:.1e} B={peak['B']:.1e}")
    _record(4, "reduced conservation without secular drift", ok,
            "; ".join(fragments))
    for tag in ("pod", "pod_deim"):
        for name in "HB":
            assert rep[f"inv_{tag}_{name}"] <= 1e-3, (tag, name)
        assert rep[f"inv_{tag}_Q"] <= 1e-12, tag
        assert rep[f"inv_{tag}_M"] <= 1e-12 and rep[f"inv_max_{tag}_M"] <= 1e-12, tag
        for name in "HMB":
            mean, peak = rep[f"inv_{tag}_{name}"], rep[f"inv_max_{tag}_{name}"]
            assert peak <= 10.0 * mean or peak <= 1e-13, (tag, name, peak, mean)
    assert not failures, failures
    for method, peak in long_peaks.items():
        assert peak["H"] <= 1e-11, (method, peak)
        assert peak["M"] <= 1e-12 and peak["Q"] <= 1e-12, (method, peak)
        assert peak["B"] <= 1e-2, (method, peak)


def test_criterion_5_full_rank_reduction_recovers_full_order():
    # With at least as many snapshots as grid unknowns the singular bases
    # are square orthonormal matrices: V V^T = I and the interpolation is
    # exact, so both reduced models must reproduce the full-order
    # trajectory in reduced coordinates.
    start = time.perf_counter()
    cfg = DoubleVortexConfig(n=16, num_steps=280, dt=486.0)
    grid = cfg.make_grid()
    physics = make_physics(cfg, grid.N)
    z0 = double_vortex_initial(grid, cfg)
    fom = integrate_fom(z0, cfg.dt, cfg.num_steps, physics, grid)

    N = grid.N
    snaps = collect_snapshots(fom.trajectory[:, 1:])
    basis = build_pod_basis(snaps, kappa=0.0, r_override=N)
    nonlin = collect_nonlin_snapshots(snaps, basis, physics, grid)
    dset = build_deim(nonlin, kappa=0.0, p_override=N)
    ops = precompute_rom(basis, dset, physics, grid)

    eye = np.eye(N)
    projector_err = max(float(np.abs(v @ v.T - eye).max()) for v in basis.modes)
    interp_err = max(float(np.abs(psi[idx] - eye).max())
                     for idx, psi in zip(dset.indices, dset.psi))

    steps = 10
    reference = restrict(basis, fom.trajectory[:, : steps + 1])
    zr0 = restrict(basis, z0)
    coeff_err = {}
    for method in ("pod", "pod-deim"):
        run = integrate_rom(ops, RomState(z_r=zr0), cfg.dt, steps, method=method)
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
    grid = small_setup(n=5)
    phys = random_physics(grid, rng)
    traj = np.stack([random_state(grid, rng) for _ in range(8)], axis=1)
    snaps = collect_snapshots(traj)
    basis = build_pod_basis(snaps, kappa=0.0, r_override=3)
    nonlin = collect_nonlin_snapshots(snaps, basis, phys, grid)
    dset = build_deim(nonlin, kappa=0.0, p_override=4)
    ops = precompute_rom(basis, dset, phys, grid)
    return grid, phys, basis, dset, ops


def test_criterion_6_structural_identities(rng):
    checks = {}

    # the difference stencils the solvers run, as matrices: D applied to I
    grid = small_setup(n=8)
    eye = np.eye(grid.N)
    checks["operator skew"] = (
        max(float(np.abs(d + d.T).max()) for d in (apply_dx(grid, eye), apply_dy(grid, eye))),
        1e-12)

    phys = random_physics(grid, rng)
    z = random_state(grid, rng)
    g = rng.normal(size=4 * grid.N)
    dense = dense_poisson_matrix(z, phys, grid)
    checks["dense vs matrix-free"] = (
        float(np.abs(dense @ g - apply_poisson(z, phys, grid, g)).max()),
        1e-12)

    # the averaged gradient equals a 10-point quadrature along the chord
    other = random_state(grid, rng)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    dz = other - z
    quad = sum(0.5 * w * grad_hamiltonian(z + 0.5 * (x + 1.0) * dz, phys)
               for x, w in zip(nodes, weights))
    checks["averaged gradient vs 10-point"] = (
        float(np.abs(avf_gradient(z, other, phys) - quad).max()), 1e-13)

    # the energy gradient against central differences of the energy itself
    grad = grad_hamiltonian(z, phys)
    eps = 1e-5
    fd = np.empty_like(grad)
    for i in range(fd.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += eps
        zm[i] -= eps
        fd[i] = (hamiltonian(zp, phys, grid)
                 - hamiltonian(zm, phys, grid)) / (2.0 * eps * grid.cell_area)
    checks["gradient vs finite differences (rel)"] = (
        float(np.abs(grad - fd).max() / np.abs(grad).max()), 1e-6)

    sgrid, sphys, sbasis, sdset, sops = _small_reduction(rng)
    sstate = random_state(sgrid, rng)
    jr = reduced_poisson_matrix(sbasis, sstate, sphys, sgrid)
    checks["reduced skew"] = (float(np.abs(jr + jr.T).max()), 1e-12)

    eye = np.eye(sdset.p)
    checks["interpolation projector"] = (
        max(float(np.abs(psi[idx] - eye).max()) for idx, psi in zip(sdset.indices, sdset.psi)),
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
                     - va.T @ ((psi @ f)[:, None] * vb)).max())
        for kj, psi, va, vb in zip(sops.k, sdset.psi, (vu, vu, vv), (vv, vs, vs))]
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


def _online_cost(n):
    """Train a reduced model at grid size n, count one tensor rhs evaluation
    and trace the allocation peaks of a 40-step integrate_rom run of each
    method: over its time loop, and over the whole call."""
    cfg = DoubleVortexConfig(n=n, num_steps=40, dt=486.0,
                             r_override=5, p_override=35)
    grid = cfg.make_grid()
    physics = make_physics(cfg, grid.N)
    z0 = double_vortex_initial(grid, cfg)
    fom = integrate_fom(z0, cfg.dt, cfg.num_steps, physics, grid)
    snaps = collect_snapshots(fom.trajectory[:, 1:])
    basis = build_pod_basis(snaps, kappa=cfg.kappa_pod, r_override=5)
    nonlin = collect_nonlin_snapshots(snaps, basis, physics, grid)
    dset = build_deim(nonlin, kappa=cfg.kappa_deim, p_override=35)
    ops = precompute_rom(basis, dset, physics, grid)
    zr0 = restrict(basis, z0)
    counter = FlopCounter()
    rom_rhs(ops, zr0, counter)
    # integrate_rom looks march up at call time; this one reads the peak
    # when the time loop ends, before the invariants of all states, whose
    # evaluation would otherwise hide a transient N-sized array per step
    loop_peaks = []

    def traced_march(*args):
        yield from march(*args)
        loop_peaks.append(tracemalloc.get_traced_memory()[1])

    peaks = {}
    for method in ("pod", "pod-deim"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rom, "march", traced_march)
            tracemalloc.start()
            try:
                integrate_rom(ops, RomState(z_r=zr0), cfg.dt, cfg.num_steps, method=method)
                peaks[method] = (loop_peaks[-1], tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    return counter, peaks


def test_criterion_8_online_cost_independent_of_grid():
    # one rhs evaluation's flops, and the allocation peaks of the online
    # loop: the tensor model's must not grow from n=32 to n=64, while the
    # Galerkin model's growing at least 3x shows that the probe sees
    # N-sized arrays
    (c32, p32), (c64, p64) = _online_cost(32), _online_cost(64)
    tensor_ratios = [b / a for a, b in zip(p32["pod-deim"], p64["pod-deim"])]
    galerkin_ratio = p64["pod"][1] / p32["pod"][1]
    ok = (c32.core > 0 and c32.core == c64.core and c32.sampling == c64.sampling
          and all(abs(x - 1.0) <= 0.1 for x in tensor_ratios) and galerkin_ratio >= 3.0)
    _record(8, "online cost independent of grid size", ok,
            f"core {c32.core} (n=32) vs {c64.core} (n=64), "
            f"sampling {c32.sampling} vs {c64.sampling}; allocation peak of 40 steps "
            f"(time loop, whole call): tensor {p32['pod-deim']} B vs {p64['pod-deim']} B "
            f"(x{tensor_ratios[0]:.3f}, x{tensor_ratios[1]:.3f}, tol 10%), "
            f"galerkin {p32['pod'][1]} B vs {p64['pod'][1]} B "
            f"(x{galerkin_ratio:.2f}, need >= 3)")
    assert c32.core > 0
    assert c32.core == c64.core
    assert c32.sampling == c64.sampling
    assert all(abs(x - 1.0) <= 0.1 for x in tensor_ratios)
    assert galerkin_ratio >= 3.0
