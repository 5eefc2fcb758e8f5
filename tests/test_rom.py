"""Reduced models: tensor assembly, sampled evaluation, implicit stepping."""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from helpers import (SEED, apply_poisson, central_difference_jacobian,
                     dense_poisson_matrix, einsum_quadratic, nonlinearity, random_physics,
                     random_state, reduced_poisson_matrix, rhs, rom_rhs_pod_only,
                     small_setup)

from tswrom import rom as rom_mod
from tswrom.deim import NUM_NONLIN, build_deim, collect_nonlin_snapshots
from tswrom.errors import ConfigError, NumericError
from tswrom.fom import grad_hamiltonian, hamiltonian, invariants, newton
from tswrom.pod import build_pod_basis, collect_snapshots, restrict
from tswrom.fileio import write_romops
from tswrom.rom import (FlopCounter, RomOperators, RomState, integrate_rom,
                        precompute_rom, rom_avf_step, rom_operators_from_parts,
                        rom_rhs)


def _random_reduction(n, num_snaps, r, p, rng, flat=False):
    """Basis, interpolation, and tensor operators from random smooth states."""
    grid = small_setup(n=n)
    phys = random_physics(grid, rng, flat=flat)
    traj = np.stack([random_state(grid, rng) for _ in range(num_snaps)], axis=1)
    snaps = collect_snapshots(traj)
    basis = build_pod_basis(snaps, kappa=0.0, r_override=r)
    nonlin = collect_nonlin_snapshots(snaps, basis, phys, grid)
    dset = build_deim(nonlin, kappa=0.0, p_override=p)
    ops = precompute_rom(basis, dset, phys, grid)
    return grid, phys, basis, dset, ops


def _blockwise_project(basis, w):
    N, r = basis.N, basis.r
    return np.concatenate(
        [basis.modes[i].T @ w[i * N : (i + 1) * N] for i in range(4)])


def test_three_way_tensor_matches_dense_einsum(rng):
    N = 25
    a = rng.normal(size=(N, 4))
    b = rng.normal(size=(N, 3))
    c = rng.normal(size=(N, 2))
    expected = np.einsum("ni,nj,nk->ijk", a, b, c)
    np.testing.assert_allclose(rom_mod._three_way(a, b, c), expected, rtol=1e-13, atol=1e-13)


def test_tensor_identity_against_hadamard_products(rng):
    # each K_j applied to samples must give V_a^T diag(psi_j f) V_b, and each
    # gradient tensor its two pointwise products of lifted modes
    grid, phys, basis, dset, ops = _random_reduction(5, 8, 3, 4, rng)
    vh, vu, vv, vs = basis.modes
    r, p = basis.r, dset.p
    f = rng.normal(size=(p, 2))
    assert ops.k.shape == (NUM_NONLIN, p, r * r)
    for kj, psi, va, vb in zip(ops.k, dset.psi, (vu, vu, vv), (vv, vs, vs)):
        tensor = (f.T @ kj).reshape(2, r, r)
        for col in range(2):
            direct = va.T @ ((psi @ f[:, col])[:, None] * vb)
            np.testing.assert_allclose(tensor[col], direct, rtol=1e-11, atol=1e-12)
    x = rng.normal(size=(r, 2))
    y = rng.normal(size=(r, 2))
    grad = ops.grad
    cases = [(grad.t_uu, vh, vu, vu), (grad.t_vv, vh, vv, vv), (grad.t_hs, vh, vh, vs)]
    for tens, va, vb, vc in cases:
        # contracted over its last two indices, and over its first and last
        np.testing.assert_allclose(np.einsum("ijk,jm,km->im", tens, x, y),
                                   va.T @ ((vb @ x) * (vc @ y)), rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(np.einsum("ijk,im,km->jm", tens, x, y),
                                   vb.T @ ((va @ x) * (vc @ y)), rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 40])
def test_quadratic_matches_einsum_oracle(mini_pipeline, rng, m):
    # one state, a chord mean's [mid | dz] pair, and the width of a
    # Jacobian-build chord mean at r=5 (2 x 4r columns)
    grad = mini_pipeline.romops.grad
    x = rng.normal(size=(4 * mini_pipeline.basis.r, m))
    expected = einsum_quadratic(grad, x)
    assert np.max(np.abs(grad.quadratic(x) - expected)) <= 1e-14 * np.max(np.abs(expected))


def _mini_states(mini_pipeline, rng):
    """Trajectory states of mini_pipeline and random perturbations of them."""
    basis = mini_pipeline.basis
    z = np.stack([restrict(basis, mini_pipeline.fom.trajectory[:, k]) for k in (0, 17, 40)], axis=1)
    return z + 1e-2 * np.abs(z).max(axis=0) * rng.normal(size=z.shape)


def _operator_sets(mini_pipeline):
    return {"tensor": mini_pipeline.romops,
            "galerkin": RomOperators(mini_pipeline.basis, mini_pipeline.physics,
                                     mini_pipeline.grid)}


def test_reduced_gradient_matches_projected_full_gradient(mini_pipeline, rng):
    basis, phys = mini_pipeline.basis, mini_pipeline.physics
    z = _mini_states(mini_pipeline, rng)
    for name, ops in _operator_sets(mini_pipeline).items():
        g = ops.grad.gradient(z)
        for k in range(z.shape[1]):
            lifted = basis.lift_array(z[:, k])
            expected = basis.project_modes(grad_hamiltonian(lifted, phys))[:, 0]
            err = np.max(np.abs(g[:, k] - expected)) / np.max(np.abs(expected))
            assert err <= 1e-13, (name, k, err)
    # the closed-form chord mean against 3-point Gauss-Legendre on the chord
    grad = mini_pipeline.romops.grad
    z_old, dz = z[:, :1], z[:, 1:2] - z[:, :1]
    nodes, weights = np.polynomial.legendre.leggauss(3)
    quad = sum(0.5 * w * grad.gradient(z_old + 0.5 * (x + 1.0) * dz)
               for x, w in zip(nodes, weights))
    mean = grad.chord_mean(z_old + 0.5 * dz, dz)
    assert np.max(np.abs(mean - quad)) <= 1e-13 * np.max(np.abs(quad))


def test_polynomial_invariants_match_lifted_invariants(mini_pipeline, rng):
    basis, phys = mini_pipeline.basis, mini_pipeline.physics
    grid = mini_pipeline.grid
    z = _mini_states(mini_pipeline, rng)
    for name, ops in _operator_sets(mini_pipeline).items():
        poly = ops.grad.invariants(z)
        assert poly.shape == (z.shape[1], 4)
        for k in range(z.shape[1]):
            lifted = basis.lift_array(z[:, k])
            expected = invariants(lifted, phys, grid)
            err = np.abs(poly[k] - expected) / np.abs(expected)
            assert np.all(err <= 1e-13), (name, k, err)


def test_reduced_poisson_is_exactly_skew(mini_pipeline, rng):
    ops = mini_pipeline.romops
    f = ops.sampler.sample(_mini_states(mini_pipeline, rng))
    q = [(fj.T @ kj).reshape(-1, ops.r, ops.r) for fj, kj in zip(f, ops.k)]
    jr = rom_mod._reduced_poisson(ops, q)
    assert jr.shape == (3, 4 * ops.r, 4 * ops.r)
    assert np.all(jr + jr.transpose(0, 2, 1) == 0.0)
    assert np.max(np.abs(jr)) > 0.0


def test_galerkin_poisson_is_projected_full_operator(mini_pipeline, rng):
    # the matrix-free Galerkin J_r applied to the identity is V^T J(lift m) V,
    # skew to round-off, both for one midpoint and many columns (the chord
    # Jacobian's call) and one column at a time (every residual's)
    basis, phys, grid = mini_pipeline.basis, mini_pipeline.physics, mini_pipeline.grid
    ops = RomOperators(basis, phys, grid)
    z = _mini_states(mini_pipeline, rng)
    z_old = z[:, 0]
    eye = np.eye(4 * basis.r)
    poisson = rom_mod._galerkin_poisson(ops, z_old)
    for mid in z.T:
        # the increment whose midpoint z_old + dz/2 is mid
        dz = 2.0 * (mid - z_old)[:, None]
        jr = poisson(mid[:, None], dz, eye)
        expected = reduced_poisson_matrix(basis, basis.lift_array(mid), phys, grid)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(jr - expected)) <= 1e-12 * scale
        assert np.max(np.abs(jr + jr.T)) <= 1e-13 * scale
        for j in range(eye.shape[1]):
            col = poisson(mid[:, None], dz, eye[:, j : j + 1])
            assert col.shape == (eye.shape[0], 1)
            assert np.max(np.abs(col[:, 0] - jr[:, j])) <= 1e-12 * scale, j
            assert np.max(np.abs(col[:, 0] - expected[:, j])) <= 1e-12 * scale, j


def test_residuals_at_zero_increment_are_scaled_rhs(mini_pipeline, rng):
    # with z_new = z_old the chord mean is g_r(z_old), so the AVF residual
    # is dt J_r g_r = -dt rhs: the tensor model's own rhs, and the Galerkin
    # rhs of the CSR oracle
    ops = mini_pipeline.romops
    basis, phys, grid = mini_pipeline.basis, mini_pipeline.physics, mini_pipeline.grid
    dt = mini_pipeline.config.dt
    for z in _mini_states(mini_pipeline, rng).T:
        cases = [("pod-deim", rom_rhs(ops, z)),
                 ("pod", rom_rhs_pod_only(basis, z, phys, grid))]
        for method, rhs_value in cases:
            res = rom_mod._avf_residual(ops, z, dt, method)[0](z)
            scale = np.max(np.abs(dt * rhs_value))
            assert np.max(np.abs(res + dt * rhs_value)) <= 1e-12 * scale, method


def test_tensor_model_conserves_lifted_energy(mini_pipeline):
    basis, phys, grid = mini_pipeline.basis, mini_pipeline.physics, mini_pipeline.grid
    lifted = basis.lift_array(mini_pipeline.rom_deim.reduced)
    energy = np.array([hamiltonian(col, phys, grid) for col in lifted.T])
    drift = np.abs(energy[1:] - energy[0]) / abs(energy[0])
    assert np.mean(drift) <= 1e-12
    np.testing.assert_allclose(mini_pipeline.rom_deim.invariants[:, 0], energy,
                               rtol=1e-13, atol=0.0)


def test_full_rank_rom_rhs_matches_projected_full_model():
    # with r = p = N the basis is square-orthonormal and the interpolation is
    # the identity, so the tensor evaluation must equal V^T rhs(lift) and the
    # plain Galerkin evaluation must agree with both
    rng = np.random.default_rng(SEED + 1)
    n, K = 6, 45
    grid, phys, basis, dset, ops = _random_reduction(n, K, grid_rank := n * n,
                                                           grid_rank, rng)
    assert basis.r == grid.N and dset.p == grid.N
    for i in range(4):
        np.testing.assert_allclose(basis.modes[i] @ basis.modes[i].T,
                                   np.eye(grid.N), atol=1e-12)
    z_r = restrict(basis, random_state(grid, rng))
    lifted = basis.lift_array(z_r)
    expected = _blockwise_project(basis, rhs(lifted, phys, grid))

    tensor_route = rom_rhs(ops, z_r)
    galerkin_route = rom_rhs_pod_only(basis, z_r, phys, grid)
    assert np.max(np.abs(tensor_route - expected)) <= 1e-9
    assert np.max(np.abs(galerkin_route - expected)) <= 1e-9


def test_rom_rhs_pod_only_matches_projected_poisson_oracle(mini_pipeline):
    # truncated production basis: the Galerkin field is J at the lifted state
    # applied to the reprojected energy gradient, then projected back
    basis = mini_pipeline.basis
    phys, grid = mini_pipeline.physics, mini_pipeline.grid
    N = basis.N
    z_r = restrict(basis, mini_pipeline.fom.trajectory[:, 9])
    lifted = basis.lift_array(z_r)
    g = grad_hamiltonian(lifted, phys)
    gproj = np.concatenate(
        [basis.modes[i] @ (basis.modes[i].T @ g[i * N : (i + 1) * N]) for i in range(4)])
    expected = -_blockwise_project(basis, apply_poisson(lifted, phys, grid, gproj))
    actual = rom_rhs_pod_only(basis, z_r, phys, grid)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(actual - expected)) <= 1e-12 * scale


def test_sampler_matches_full_nonlinearities(mini_pipeline):
    ops = mini_pipeline.romops
    basis, dset = mini_pipeline.basis, mini_pipeline.deim
    phys, grid = mini_pipeline.physics, mini_pipeline.grid
    z_r = restrict(basis, mini_pipeline.fom.trajectory[:, 7])
    sampled = ops.sampler.sample(z_r[:, None])
    lifted = basis.lift_array(z_r)
    for j in range(1, NUM_NONLIN + 1):
        full = nonlinearity(j, lifted, phys, grid)[dset.indices[j - 1]]
        np.testing.assert_allclose(sampled[j - 1][:, 0], full, rtol=1e-9, atol=0.0)


def test_flop_counts_independent_of_grid_size():
    counts = []
    for i, n in enumerate((10, 14)):
        rng = np.random.default_rng(SEED + 10 + i)
        _, _, basis, _, ops = _random_reduction(n, 12, 3, 5, rng)
        counter = FlopCounter()
        rom_rhs(ops, np.zeros(4 * basis.r), counter)
        counts.append((counter.core, counter.sampling))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


def test_flop_counter_core_formula(rng):
    _, _, basis, dset, ops = _random_reduction(5, 8, 3, 4, rng)
    r, p = basis.r, dset.p
    counter = FlopCounter()
    rom_rhs(ops, np.zeros(4 * r), counter)
    # m = 1: the 9 nonzero blocks of L and the constant, the quadratic part
    # (three r^3 contractions, six r^2 contractions, the scalings and adds),
    # its sum; the three Q_j = K_j f_j, the 10 nonzero blocks of J_r, the sign
    gradient = (9 * 2 * r * r + 4 * r) + (3 * 2 * r**3 + 6 * 2 * r**2 + 5 * r) + 4 * r
    expected_core = gradient + 3 * 2 * p * r * r + 10 * 2 * r * r + 4 * r
    assert counter.core == expected_core
    # sampling: the 7 nonzero (p, r) blocks of the stacked map (curl reads
    # two velocity blocks), the offset adds, f and the divisions
    assert counter.sampling == 7 * (2 * p * r) + 10 * p


def test_reduced_poisson_matrix_projection_and_skewness(rng):
    grid, phys, basis, _, _ = _random_reduction(5, 8, 3, 4, rng)
    z = random_state(grid, rng)
    jr = reduced_poisson_matrix(basis, z, phys, grid)
    N, r = grid.N, basis.r
    vblk = np.zeros((4 * N, 4 * r))
    for i in range(4):
        vblk[i * N : (i + 1) * N, i * r : (i + 1) * r] = basis.modes[i]
    expected = vblk.T @ dense_poisson_matrix(z, phys, grid) @ vblk
    np.testing.assert_allclose(jr, expected, rtol=1e-11, atol=1e-12)
    assert np.max(np.abs(jr + jr.T)) <= 1e-12 * max(1.0, float(np.max(np.abs(jr))))


def test_rom_avf_step_zero_dt_identity(mini_pipeline):
    ops = mini_pipeline.romops
    z_r = restrict(mini_pipeline.basis, mini_pipeline.fom.trajectory[:, 0])
    for method in ("pod", "pod-deim"):
        out = rom_avf_step(ops, z_r, 0.0, method=method)
        np.testing.assert_array_equal(out, z_r)


def test_pod_step_conserves_lifted_energy(mini_pipeline):
    ops = mini_pipeline.romops
    basis, phys = mini_pipeline.basis, mini_pipeline.physics
    grid = mini_pipeline.grid
    z0 = restrict(basis, mini_pipeline.fom.trajectory[:, 0])
    z1 = rom_avf_step(ops, z0, mini_pipeline.config.dt, method="pod")
    h0 = hamiltonian(basis.lift_array(z0), phys, grid)
    h1 = hamiltonian(basis.lift_array(z1), phys, grid)
    assert abs(h1 - h0) / abs(h0) <= 1e-12


def _jacobian_error(residual, jacobian, z):
    """max |J - J_fd| / max |J - I| for the closed-form Jacobian J at z and
    its central differences J_fd at steps 1e-5 max(1, |z|)."""
    jac = jacobian(z)
    oracle = central_difference_jacobian(residual, z, 1e-5 * np.maximum(1.0, np.abs(z)))
    return np.max(np.abs(jac - oracle)) / np.max(np.abs(jac - np.eye(z.size))), jac


@pytest.mark.parametrize("method", ["pod", "pod-deim"])
def test_jacobian_matches_central_differences(mini_pipeline, method):
    # the step from the model's own state after 3 steps, at its next state
    ops = mini_pipeline.romops
    run = mini_pipeline.rom_pod if method == "pod" else mini_pipeline.rom_deim
    z_old, z = run.reduced[:, 3], run.reduced[:, 4]
    err, _ = _jacobian_error(*rom_mod._avf_residual(ops, z_old, mini_pipeline.config.dt,
                                                    method), z)
    assert err <= 1e-7


def test_full_rank_jacobians_match_central_differences_and_agree():
    # with r = p = N the Galerkin and tensor residuals are the same function,
    # so their closed-form Jacobians must agree to round-off
    rng = np.random.default_rng(SEED + 1)
    grid, _, basis, _, ops = _random_reduction(6, 45, 36, 36, rng)
    z_old = restrict(basis, random_state(grid, rng))
    z = z_old + 1e-2 * rng.normal(size=z_old.size)
    jacs = []
    for method in ("pod", "pod-deim"):
        # a step long enough that dt dR/dz, not I, dominates the Jacobian
        err, jac = _jacobian_error(*rom_mod._avf_residual(ops, z_old, 100.0, method), z)
        assert err <= 1e-8, method
        jacs.append(jac)
    scale = np.max(np.abs(jacs[0] - np.eye(z.size)))
    assert np.max(np.abs(jacs[0] - jacs[1])) <= 1e-12 * scale


def test_hessian_is_the_symmetric_derivative_of_q(mini_pipeline, rng):
    # H(x) x = 2 Q(x) and, Q being quadratic, H(x) y = Q(x + y) - Q(x) - Q(y)
    grad = mini_pipeline.romops.grad
    x, y = 10.0 * rng.normal(size=(2, 4 * mini_pipeline.basis.r))
    hess = grad.hessian(x)
    q = grad.quadratic(np.stack([x, y, x + y], axis=1))
    scale = np.max(np.abs(q))
    assert np.max(np.abs(hess - hess.T)) <= 1e-14 * np.max(np.abs(hess))
    assert np.max(np.abs(hess @ x - 2.0 * q[:, 0])) <= 1e-14 * scale
    assert np.max(np.abs(hess @ y - (q[:, 2] - q[:, 0] - q[:, 1]))) <= 1e-14 * scale


def test_reduced_newton_stall_raises(mini_pipeline, monkeypatch):
    ops = mini_pipeline.romops
    z0 = restrict(mini_pipeline.basis, mini_pipeline.fom.trajectory[:, 0])
    monkeypatch.setattr(rom_mod, "_ROM_NEWTON_TOL", 1e-30)
    monkeypatch.setattr(rom_mod, "_ROM_NEWTON_MAXITER", 1)
    with pytest.raises(NumericError, match="stalled after 1 iterations"):
        rom_avf_step(ops, z0, mini_pipeline.config.dt)


def _count_residuals(monkeypatch):
    """Wrap the residual factory; count the residual evaluations and the
    Jacobian builds."""
    counts = {"calls": 0, "builds": 0}
    make = rom_mod._avf_residual

    def counting(ops, z_old, dt, method):
        residual, jacobian = make(ops, z_old, dt, method)

        def counted(key, fn):
            def wrapped(z):
                counts[key] += 1
                return fn(z)
            return wrapped

        return counted("calls", residual), counted("builds", jacobian)

    monkeypatch.setattr(rom_mod, "_avf_residual", counting)
    return counts



@pytest.mark.parametrize("method", ["pod", "pod-deim"])
def test_carried_jacobian_matches_fresh_steps(mini_pipeline, monkeypatch, method):
    # integrate_rom keeps one factored Jacobian across steps; stand-alone
    # steps build a fresh one each time. Both must land on the same states.
    ops = mini_pipeline.romops
    z0 = restrict(mini_pipeline.basis, mini_pipeline.fom.trajectory[:, 0])
    dt, steps = mini_pipeline.config.dt, mini_pipeline.config.num_steps
    counts = _count_residuals(monkeypatch)
    carried = integrate_rom(ops, RomState(z_r=z0), dt, steps, method=method).reduced
    carried_builds = counts["builds"]
    fresh = [z0]
    for _ in range(steps):
        fresh.append(rom_avf_step(ops, fresh[-1], dt, method=method))
    fresh = np.stack(fresh, axis=1)
    scale = max(1.0, float(np.max(np.abs(fresh))))
    assert np.max(np.abs(carried - fresh)) <= 1e-7 * scale
    assert counts["builds"] - carried_builds >= steps
    assert 1 <= carried_builds <= steps // 10


@pytest.mark.parametrize("method", ["pod", "pod-deim"])
def test_wrong_carried_jacobian_is_rebuilt_on_stall(mini_pipeline, monkeypatch, method):
    ops = mini_pipeline.romops
    z0 = restrict(mini_pipeline.basis, mini_pipeline.fom.trajectory[:, 0])
    dt = mini_pipeline.config.dt
    fresh = rom_avf_step(ops, z0, dt, method=method)
    counts = _count_residuals(monkeypatch)
    chord = rom_mod._ChordJacobian()
    chord.factor(-np.eye(z0.size))
    rebuilt = rom_avf_step(ops, z0, dt, method=method, _chord=chord)
    assert counts["builds"] == 1
    scale = max(1.0, float(np.max(np.abs(fresh))))
    assert np.max(np.abs(rebuilt - fresh)) <= 1e-7 * scale


def test_chord_solve_matches_lu_solve(rng):
    a = rng.normal(size=(20, 20))
    b = rng.normal(size=20)
    chord = rom_mod._ChordJacobian()
    chord.factor(a)
    np.testing.assert_array_equal(chord.solve(b), lu_solve(lu_factor(a), b))


@pytest.mark.parametrize("method", ["pod", "pod-deim"])
def test_non_finite_reduced_state_stops_at_once(mini_pipeline, monkeypatch, method):
    ops = mini_pipeline.romops
    r = mini_pipeline.basis.r
    z0 = restrict(mini_pipeline.basis, mini_pipeline.fom.trajectory[:, 0])
    z0[3 * r] = np.nan
    # the state is refused before its first residual, also with a carried
    # Jacobian, which no factorization would make meet the NaN
    chord = rom_mod._ChordJacobian()
    chord.factor(np.eye(z0.size))
    counts = _count_residuals(monkeypatch)
    message = r"non-finite reduced state s \(nan\) at coefficient 0$"
    with pytest.raises(NumericError, match=f"^{message}"):
        rom_avf_step(ops, z0, mini_pipeline.config.dt, method=method, _chord=chord)
    assert counts["calls"] == 0
    # integrate_rom names the step that failed
    with pytest.raises(NumericError, match=f"^step 1: {message}"):
        integrate_rom(ops, RomState(z_r=z0), mini_pipeline.config.dt, 3, method=method)


def test_sampler_names_a_nan_height_non_finite(mini_pipeline):
    # mode 0 of the height is its normalized mean (see the next test)
    sampler, basis = mini_pipeline.romops.sampler, mini_pipeline.basis
    z = restrict(basis, mini_pipeline.fom.trajectory[:, 0])[:, None]
    sampler.sample(z)
    low = z[0, 0] - 4.0 * np.linalg.norm(basis.means[0])
    z[0] = np.nan
    with pytest.raises(NumericError, match=r"^non-finite sampled height .*\(min nan\)$"):
        sampler.sample(z)
    z[0] = low
    with pytest.raises(NumericError, match="^nonpositive sampled height"):
        sampler.sample(z)


@pytest.mark.parametrize("method", ["pod", "pod-deim"])
def test_start_with_nonpositive_midpoint_height_falls_back(mini_pipeline, monkeypatch,
                                                           method):
    # mode 0 of the height is its normalized mean, so moving the start far
    # down along it puts the midpoint height below zero everywhere
    ops, basis = mini_pipeline.romops, mini_pipeline.basis
    z0 = restrict(basis, mini_pipeline.fom.trajectory[:, 5])
    start = z0.copy()
    start[0] -= 4.0 * np.linalg.norm(basis.means[0])
    dt = mini_pipeline.config.dt
    with pytest.raises(NumericError, match="nonpositive"):
        rom_mod._avf_residual(ops, z0, dt, method)[0](start)
    np.testing.assert_array_equal(rom_avf_step(ops, z0, dt, method=method, start=start),
                                  rom_avf_step(ops, z0, dt, method=method))
    # a start of the wrong shape is refused before any residual
    counts = _count_residuals(monkeypatch)
    with pytest.raises(ValueError, match=r"^start shape \(1,\) != state shape"):
        rom_avf_step(ops, z0, dt, method=method, start=np.ones(1))
    assert counts == {"calls": 0, "builds": 0}


def test_tensor_residuals_per_step_at_n32(monkeypatch):
    # regression guard on the reduced Newton work of the extrapolated start;
    # starting every step from z^k this run spends 4.94 residuals per step
    from tswrom.bench import Case, DoubleVortexConfig, snapshot_set, stage_fom, stage_reduce

    cfg = DoubleVortexConfig(n=32, num_steps=250, dt=486.0, r_override=5, p_override=35)
    case = Case.build(cfg)
    full = stage_fom(case, {})
    basis, _, ops = stage_reduce(case, *snapshot_set(full.trajectory), {})
    counts = _count_residuals(monkeypatch)
    integrate_rom(ops, RomState(z_r=restrict(basis, full.trajectory[:, 0])), cfg.dt,
                  cfg.num_steps)
    assert counts["calls"] / cfg.num_steps <= 4.5


def test_singular_reduced_jacobian_raises(rng):
    # a zero column makes the Jacobian exactly rank deficient, so its LU
    # factorization meets an exactly zero pivot
    a = rng.normal(size=(4, 4))
    a[:, 2] = 0.0
    with pytest.raises(NumericError, match="singular reduced Newton Jacobian"):
        newton(lambda z: a @ z - 1.0, np.zeros(4), 1e-12, 10, "reduced Newton",
               partial(rom_mod._ChordJacobian().correct, lambda z: a))


def test_method_and_solver_validation(mini_pipeline):
    ops = mini_pipeline.romops
    z0 = restrict(mini_pipeline.basis, mini_pipeline.fom.trajectory[:, 0])
    with pytest.raises(ConfigError):
        rom_avf_step(ops, z0, 1.0, method="bogus")
    # one correction rule: there is no solver option to choose another
    with pytest.raises(TypeError, match="solver"):
        rom_avf_step(ops, z0, 1.0, solver="dense")
    with pytest.raises(ConfigError):
        integrate_rom(ops, RomState(z_r=z0), 1.0, 1, method="bogus")


def test_galerkin_operators_drive_pod_only(mini_pipeline, tmp_path):
    basis = mini_pipeline.basis
    phys, grid = mini_pipeline.physics, mini_pipeline.grid
    ops = RomOperators(basis, phys, grid)
    z0 = restrict(basis, mini_pipeline.fom.trajectory[:, 0])
    dt = mini_pipeline.config.dt

    res = integrate_rom(ops, RomState(z_r=z0), dt, 2, method="pod")
    assert res.reduced.shape == (4 * basis.r, 3)
    assert res.invariants.shape == (3, 4)
    np.testing.assert_array_equal(res.reduced[:, 0], z0)
    # the same derivative blocks and trajectory as the full operator set
    full_ops = mini_pipeline.romops
    np.testing.assert_array_equal(ops.j0, full_ops.j0)
    res_full = integrate_rom(full_ops, RomState(z_r=z0), dt, 2, method="pod")
    np.testing.assert_allclose(res.reduced, res_full.reduced, rtol=0.0, atol=1e-10)

    with pytest.raises(ConfigError):
        rom_avf_step(ops, z0, dt, method="pod-deim")
    with pytest.raises(ConfigError):
        rom_rhs(ops, z0)
    with pytest.raises(ConfigError):
        write_romops(tmp_path / "romops.bin", ops, {})
    with pytest.raises(ConfigError, match="reduced operator k has shape"):
        RomOperators(basis, phys, grid, k=full_ops.k)


def test_rom_operators_from_parts_roundtrip(mini_pipeline):
    ops = mini_pipeline.romops
    rebuilt = rom_operators_from_parts({"k": ops.k}, mini_pipeline.basis,
                                       mini_pipeline.deim, mini_pipeline.physics,
                                       mini_pipeline.grid)
    np.testing.assert_array_equal(rebuilt.k, ops.k)
    np.testing.assert_array_equal(rebuilt.j0, ops.j0)
    z_r = restrict(mini_pipeline.basis, mini_pipeline.fom.trajectory[:, 4])
    np.testing.assert_array_equal(rom_rhs(rebuilt, z_r), rom_rhs(ops, z_r))

    with pytest.raises(ConfigError, match="missing reduced operator k"):
        rom_operators_from_parts({}, mini_pipeline.basis, mini_pipeline.deim,
                                 mini_pipeline.physics, mini_pipeline.grid)
    wrong = {"k": ops.k[:, :, :-1]}
    with pytest.raises(ConfigError, match="reduced operator k has shape"):
        rom_operators_from_parts(wrong, mini_pipeline.basis, mini_pipeline.deim,
                                 mini_pipeline.physics, mini_pipeline.grid)


def test_precompute_rom_writes_each_tensor_into_its_result(rng):
    # each K_j is written into the one (3, p, r, r) result, with the bits of
    # a K_j built alone, so the traced peak stays within 1.25x of the operator
    # set returned; stacking three separate K_j held 2x k at once (1.40x here)
    grid, phys, basis, dset, _ = _random_reduction(16, 300, 32, 240, rng)
    tracemalloc.start()
    try:
        ops = precompute_rom(basis, dset, phys, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = [ops.k, ops.j0, ops.sampler.rows, ops.sampler.offset,
            *(v for v in vars(ops.grad).values() if isinstance(v, np.ndarray))]
    held_bytes = sum(a.nbytes for a in held)
    assert peak <= 1.25 * held_bytes, (peak, held_bytes, ops.k.nbytes)
    for kj, psi, (a, b) in zip(ops.k, dset.psi, rom_mod._SKEW_PAIRS):
        alone = rom_mod._three_way(psi, basis.modes[a], basis.modes[b])
        np.testing.assert_array_equal(kj, alone.reshape(kj.shape))


def test_precompute_rejects_mismatched_grid(rng, mini_pipeline):
    grid, phys, basis, dset, _ = _random_reduction(5, 8, 3, 4, rng)
    with pytest.raises(ConfigError):
        precompute_rom(basis, dset, phys, mini_pipeline.grid)
    with pytest.raises(ConfigError):
        RomOperators(basis, phys, mini_pipeline.grid)
    with pytest.raises(ConfigError):
        precompute_rom(mini_pipeline.basis, dset, phys, grid)
