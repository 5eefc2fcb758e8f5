"""Reduced models: tensor assembly, sampled evaluation, implicit stepping."""

import numpy as np
import pytest

from helpers import SEED, random_physics, random_state, small_setup

from tswrom import rom as rom_mod
from tswrom.deim import build_deim, collect_nonlin_snapshots, nonlinearity
from tswrom.errors import ConfigError, NumericError
from tswrom.fom import State, apply_poisson, dense_poisson_matrix, grad_hamiltonian, hamiltonian, rhs
from tswrom.pod import build_pod_basis, collect_snapshots, restrict
from tswrom.rom import (FlopCounter, RomState, galerkin_operators,
                        integrate_rom, precompute_rom, reduced_poisson_matrix,
                        rom_avf_step, rom_operators_from_parts, rom_rhs,
                        rom_rhs_pod_only)


def _random_reduction(n, num_snaps, r, p, rng, flat=False):
    """Basis, interpolation, and tensor operators from random smooth states."""
    grid, dops = small_setup(n=n)
    phys = random_physics(grid, rng, flat=flat)
    traj = np.stack([random_state(grid, rng).z for _ in range(num_snaps)], axis=1)
    snaps = collect_snapshots(traj)
    basis = build_pod_basis(snaps, kappa=0.0, r_override=r)
    nonlin = collect_nonlin_snapshots(snaps, basis, phys, dops)
    dset = build_deim(nonlin, kappa=0.0, p_override=p)
    ops = precompute_rom(basis, dset, phys, dops)
    return grid, dops, phys, basis, dset, ops


def _blockwise_project(basis, w):
    N, r = basis.N, basis.r
    return np.concatenate(
        [basis.modes[i].T @ w[i * N : (i + 1) * N] for i in range(4)])


def test_stream_tensor_matches_dense_einsum(rng, monkeypatch):
    N, r, p = 25, 3, 4
    V = rng.normal(size=(N, r))
    psi = rng.normal(size=(N, p))
    D = rng.normal(size=(N, p))
    expected = np.einsum("mr,mp,mq->rpq", V, psi, D).reshape(r, p * p)
    one_block = rom_mod._stream_tensor(V, psi, D)
    np.testing.assert_allclose(one_block, expected, rtol=1e-13, atol=1e-13)
    # a tiny budget forces many row blocks; the accumulation must not care
    monkeypatch.setattr(rom_mod, "_STREAM_BYTES", 256)
    multi_block = rom_mod._stream_tensor(V, psi, D)
    np.testing.assert_allclose(multi_block, expected, rtol=1e-13, atol=1e-13)


def test_quad_applies_matricized_tensor(rng):
    r, p, m = 3, 5, 2
    gmat = rng.normal(size=(r, p * p))
    a = rng.normal(size=(p, m))
    b = rng.normal(size=(p, m))
    out = rom_mod._quad(gmat, a, b, None)
    tens = gmat.reshape(r, p, p)
    for col in range(m):
        expected = np.einsum("ipq,p,q->i", tens, a[:, col], b[:, col])
        np.testing.assert_allclose(out[:, col], expected, rtol=1e-13, atol=1e-14)


def test_tensor_identity_against_hadamard_products(rng):
    # each matricized tensor must reproduce V_a^T ((Psi_x a) o (D_y b))
    grid, dops, phys, basis, dset, ops = _random_reduction(5, 8, 3, 4, rng)
    vh, vu, vv, vs = basis.modes
    psi = {j: dset[j].psi for j in range(1, 8)}
    d5 = vu @ (vu.T @ psi[5])
    d6 = vv @ (vv.T @ psi[6])
    d7 = vs @ (vs.T @ psi[7])
    cases = [
        (ops.g1, vu, psi[1], d6),
        (ops.g2, vu, psi[2], d7),
        (ops.g3, vv, psi[1], d5),
        (ops.g4, vv, psi[3], d7),
        (ops.g5, vs, psi[2], d5),
        (ops.g6, vs, psi[3], d6),
    ]
    a = rng.normal(size=(ops.p, 2))
    b = rng.normal(size=(ops.p, 2))
    for gmat, va, px, dy in cases:
        direct = va.T @ ((px @ a) * (dy @ b))
        tensor = rom_mod._quad(gmat, a, b, None)
        np.testing.assert_allclose(tensor, direct, rtol=1e-11, atol=1e-12)


def test_full_rank_rom_rhs_matches_projected_full_model():
    # with r = p = N the basis is square-orthonormal and the interpolation is
    # the identity, so the tensor evaluation must equal V^T rhs(lift) and the
    # plain Galerkin evaluation must agree with both
    rng = np.random.default_rng(SEED + 1)
    n, K = 6, 45
    grid, dops, phys, basis, dset, ops = _random_reduction(n, K, grid_rank := n * n,
                                                           grid_rank, rng)
    assert basis.r == grid.N and dset.p == grid.N
    for i in range(4):
        np.testing.assert_allclose(basis.modes[i] @ basis.modes[i].T,
                                   np.eye(grid.N), atol=1e-12)
    z_r = restrict(basis, random_state(grid, rng))
    lifted = State(z=basis.lift_array(z_r))
    expected = _blockwise_project(basis, rhs(lifted, phys, dops))

    tensor_route = rom_rhs(ops, z_r)
    galerkin_route = rom_rhs_pod_only(basis, z_r, phys, dops)
    assert np.max(np.abs(tensor_route - expected)) <= 1e-9
    assert np.max(np.abs(galerkin_route - expected)) <= 1e-9


def test_rom_rhs_pod_only_matches_projected_poisson_oracle(mini_pipeline):
    # truncated production basis: the Galerkin field is J at the lifted state
    # applied to the reprojected energy gradient, then projected back
    basis = mini_pipeline.basis
    phys, dops = mini_pipeline.physics, mini_pipeline.diffops
    N = basis.N
    z_r = restrict(basis, mini_pipeline.fom.state(9))
    lifted = State(z=basis.lift_array(z_r))
    g = grad_hamiltonian(lifted, phys)
    gproj = np.concatenate(
        [basis.modes[i] @ (basis.modes[i].T @ g[i * N : (i + 1) * N]) for i in range(4)])
    expected = -_blockwise_project(basis, apply_poisson(lifted, phys, dops, gproj))
    actual = rom_rhs_pod_only(basis, z_r, phys, dops)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(actual - expected)) <= 1e-12 * scale


def test_sampler_matches_full_nonlinearities(mini_pipeline):
    ops = mini_pipeline.romops
    basis, dset = mini_pipeline.basis, mini_pipeline.deim
    phys, dops = mini_pipeline.physics, mini_pipeline.diffops
    z_r = restrict(basis, mini_pipeline.fom.state(7))
    sampled = ops.sampler.sample(z_r[:, None])
    lifted = State(z=basis.lift_array(z_r))
    for j in range(1, 8):
        full = nonlinearity(j, lifted, phys, dops)[dset[j].indices]
        np.testing.assert_allclose(sampled[j - 1][:, 0], full, rtol=1e-9, atol=0.0)


def test_flop_counts_independent_of_grid_size():
    counts = []
    for i, n in enumerate((10, 14)):
        rng = np.random.default_rng(SEED + 10 + i)
        _, _, _, basis, _, ops = _random_reduction(n, 12, 3, 5, rng)
        counter = FlopCounter()
        rom_rhs(ops, np.zeros(4 * basis.r), counter)
        counts.append((counter.core, counter.sampling))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


def test_flop_counter_core_formula(rng):
    # 6 tensor applications + 4 linear maps + the final adds, m = 1
    _, _, _, basis, dset, ops = _random_reduction(5, 8, 3, 4, rng)
    r, p = basis.r, dset.p
    counter = FlopCounter()
    rom_rhs(ops, np.zeros(4 * r), counter)
    expected_core = 6 * (2 * r * p * p + 2 * r * p) + 4 * (2 * r * p) + 7 * r
    assert counter.core == expected_core


def test_reduced_poisson_matrix_projection_and_skewness(rng):
    grid, dops, phys, basis, _, _ = _random_reduction(5, 8, 3, 4, rng)
    state = random_state(grid, rng)
    jr = reduced_poisson_matrix(basis, state, phys, dops)
    N, r = grid.N, basis.r
    vblk = np.zeros((4 * N, 4 * r))
    for i in range(4):
        vblk[i * N : (i + 1) * N, i * r : (i + 1) * r] = basis.modes[i]
    expected = vblk.T @ dense_poisson_matrix(state, phys, dops) @ vblk
    np.testing.assert_allclose(jr, expected, rtol=1e-11, atol=1e-12)
    assert np.max(np.abs(jr + jr.T)) <= 1e-12 * max(1.0, float(np.max(np.abs(jr))))


def test_rom_avf_step_zero_dt_identity(mini_pipeline):
    ops = mini_pipeline.romops
    z_r = restrict(mini_pipeline.basis, mini_pipeline.fom.state(0))
    for method in ("pod", "pod-deim"):
        out = rom_avf_step(ops, z_r, 0.0, method=method)
        np.testing.assert_array_equal(out, z_r)


def test_pod_step_conserves_lifted_energy(mini_pipeline):
    ops = mini_pipeline.romops
    basis, phys = mini_pipeline.basis, mini_pipeline.physics
    grid = mini_pipeline.grid
    z0 = restrict(basis, mini_pipeline.fom.state(0))
    z1 = rom_avf_step(ops, z0, mini_pipeline.config.dt, method="pod")
    h0 = hamiltonian(State(z=basis.lift_array(z0)), phys, grid)
    h1 = hamiltonian(State(z=basis.lift_array(z1)), phys, grid)
    assert abs(h1 - h0) / abs(h0) <= 1e-12


def test_reduced_newton_solvers_agree(mini_pipeline):
    ops = mini_pipeline.romops
    z0 = restrict(mini_pipeline.basis, mini_pipeline.fom.state(0))
    dt = mini_pipeline.config.dt
    dense = rom_avf_step(ops, z0, dt, method="pod-deim", solver="dense")
    krylov = rom_avf_step(ops, z0, dt, method="pod-deim", solver="krylov")
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(dense - krylov)) <= 1e-7 * scale


def _count_jacobian_builds(monkeypatch):
    """Wrap both residual factories; count batched (width > 1) evaluations,
    each of which builds one finite-difference Jacobian."""
    counts = {"builds": 0}
    for name in ("_pod_residual", "_deim_residual"):
        make = getattr(rom_mod, name)

        def counting(ops, z_old, dt, make=make):
            residual = make(ops, z_old, dt)

            def wrapped(cols):
                if cols.shape[1] > 1:
                    counts["builds"] += 1
                return residual(cols)

            return wrapped

        monkeypatch.setattr(rom_mod, name, counting)
    return counts


@pytest.mark.parametrize("method", ["pod", "pod-deim"])
def test_carried_jacobian_matches_fresh_steps(mini_pipeline, monkeypatch, method):
    # integrate_rom keeps one factored Jacobian across steps; stand-alone
    # steps build a fresh one each time. Both must land on the same states.
    ops = mini_pipeline.romops
    z0 = restrict(mini_pipeline.basis, mini_pipeline.fom.state(0))
    dt, steps = mini_pipeline.config.dt, mini_pipeline.config.num_steps
    counts = _count_jacobian_builds(monkeypatch)
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
    z0 = restrict(mini_pipeline.basis, mini_pipeline.fom.state(0))
    dt = mini_pipeline.config.dt
    fresh = rom_avf_step(ops, z0, dt, method=method)
    counts = _count_jacobian_builds(monkeypatch)
    chord = rom_mod._ChordJacobian()
    chord.factor(-np.eye(z0.size))
    rebuilt = rom_avf_step(ops, z0, dt, method=method, _chord=chord)
    assert counts["builds"] == 1
    scale = max(1.0, float(np.max(np.abs(fresh))))
    assert np.max(np.abs(rebuilt - fresh)) <= 1e-7 * scale


def test_singular_reduced_jacobian_raises(rng):
    # a zero column keeps the finite-difference Jacobian exactly rank
    # deficient, so its LU factorization meets an exactly zero pivot
    a = rng.normal(size=(4, 4))
    a[:, 2] = 0.0

    def residual(cols):
        return a @ cols - 1.0

    with pytest.raises(NumericError, match="singular reduced Newton Jacobian"):
        rom_mod._rom_newton_dense(residual, np.zeros(4), 1e-12, 10,
                                  rom_mod._ChordJacobian())


def test_method_and_solver_validation(mini_pipeline):
    ops = mini_pipeline.romops
    z0 = restrict(mini_pipeline.basis, mini_pipeline.fom.state(0))
    with pytest.raises(ConfigError):
        rom_avf_step(ops, z0, 1.0, method="bogus")
    with pytest.raises(ConfigError):
        rom_avf_step(ops, z0, 1.0, solver="bogus")
    with pytest.raises(ConfigError):
        integrate_rom(ops, RomState(z_r=z0), 1.0, 1, method="bogus")


def test_galerkin_operators_drive_pod_only(mini_pipeline):
    basis = mini_pipeline.basis
    phys, dops = mini_pipeline.physics, mini_pipeline.diffops
    ops = galerkin_operators(basis, phys, dops)
    z0 = restrict(basis, mini_pipeline.fom.state(0))
    dt = mini_pipeline.config.dt

    res = integrate_rom(ops, RomState(z_r=z0), dt, 2, method="pod")
    assert res.reduced.shape == (4 * basis.r, 3)
    assert res.invariants.shape == (3, 4)
    np.testing.assert_array_equal(res.reduced[:, 0], z0)
    # identical trajectory to the full operator set on the same method
    full_ops = mini_pipeline.romops
    res_full = integrate_rom(full_ops, RomState(z_r=z0), dt, 2, method="pod")
    np.testing.assert_allclose(res.reduced, res_full.reduced, rtol=0.0, atol=1e-10)

    with pytest.raises(ConfigError):
        rom_avf_step(ops, z0, dt, method="pod-deim")
    with pytest.raises(ConfigError):
        rom_rhs(ops, z0)
    with pytest.raises(ConfigError):
        ops.p
    with pytest.raises(ConfigError):
        ops.matrices()


def test_rom_operators_from_parts_roundtrip(mini_pipeline):
    ops = mini_pipeline.romops
    rebuilt = rom_operators_from_parts(ops.matrices(), mini_pipeline.basis,
                                       mini_pipeline.deim, mini_pipeline.physics,
                                       mini_pipeline.diffops)
    z_r = restrict(mini_pipeline.basis, mini_pipeline.fom.state(4))
    np.testing.assert_array_equal(rom_rhs(rebuilt, z_r), rom_rhs(ops, z_r))

    incomplete = dict(ops.matrices())
    incomplete.pop("g4")
    with pytest.raises(ConfigError):
        rom_operators_from_parts(incomplete, mini_pipeline.basis, mini_pipeline.deim,
                                 mini_pipeline.physics, mini_pipeline.diffops)
    wrong = dict(ops.matrices())
    wrong["a1"] = np.zeros((2, 2))
    with pytest.raises(ConfigError):
        rom_operators_from_parts(wrong, mini_pipeline.basis, mini_pipeline.deim,
                                 mini_pipeline.physics, mini_pipeline.diffops)


def test_precompute_rejects_mismatched_grid(rng, mini_pipeline):
    _, dops, phys, basis, dset, _ = _random_reduction(5, 8, 3, 4, rng)
    with pytest.raises(ConfigError):
        precompute_rom(basis, dset, phys, mini_pipeline.diffops)
    with pytest.raises(ConfigError):
        galerkin_operators(basis, phys, mini_pipeline.diffops)
    with pytest.raises(ConfigError):
        precompute_rom(mini_pipeline.basis, dset, phys, dops)
