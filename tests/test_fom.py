"""Full-order solver: Hamiltonian structure, Poisson operator, AVF stepping."""

import math
import weakref
from functools import partial

import numpy as np
import pytest
from scipy.sparse.linalg import aslinearoperator

from helpers import (apply_poisson, avf_gradient, dense_newton_avf_step,
                     dense_poisson_matrix, gauss_avf_gradient, gauss_avf_residual,
                     random_physics, random_state, rhs, small_setup)

from tswrom import fom as fom_mod
from tswrom.errors import NumericError
from tswrom.fom import (_AvfResidual, avf_step, gmres,
                        grad_hamiltonian, hamiltonian, integrate_fom,
                        invariants, krylov_correction, march, newton, potential_vorticity)
from tswrom.grid import apply_dx, apply_dy
from tswrom.rom import _ChordJacobian


def _dense_stencil(n):
    c = np.zeros((n, n))
    for i in range(n):
        c[i, (i + 1) % n] = 1.0
        c[i, (i - 1) % n] = -1.0
    return c


def _dense_j(z, physics, grid):
    """Independent dense Poisson assembly straight from the block formula."""
    n = grid.n
    dxm = np.kron(_dense_stencil(n), np.eye(n)) / (2.0 * grid.dx)
    dym = np.kron(np.eye(n), _dense_stencil(n)) / (2.0 * grid.dx)
    h, u, v, s = np.split(z, 4)
    q = np.diag((dxm @ v - dym @ u + physics.f) / h)
    c2 = np.diag((dxm @ s) / h)
    c3 = np.diag((dym @ s) / h)
    zero = np.zeros((grid.N, grid.N))
    return np.block([
        [zero, dxm, dym, zero],
        [dxm, zero, -q, -c2],
        [dym, q, zero, -c3],
        [zero, c2, c3, zero],
    ])


def test_hamiltonian_uniform_state_by_hand():
    grid = small_setup(n=6)
    N = grid.N
    z = np.concatenate([np.full(N, 2.0), np.zeros(N), np.zeros(N), np.full(N, 3.0)])
    phys = random_physics(grid, np.random.default_rng(0), flat=True)
    # density 0.5 h^2 s = 6 at rest over a flat bottom
    area = grid.length ** 2
    np.testing.assert_allclose(hamiltonian(z, phys, grid), 6.0 * area, rtol=1e-14)
    _, mass, _, buoyancy = invariants(z, phys, grid)
    np.testing.assert_allclose(mass, 2.0 * area, rtol=1e-14)
    np.testing.assert_allclose(buoyancy, 6.0 * area, rtol=1e-14)


def test_grad_hamiltonian_matches_finite_differences(rng):
    grid = small_setup(n=6)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    grad = grad_hamiltonian(z, phys)
    eps = 1e-5
    fd = np.empty_like(grad)
    for i in range(z.size):
        zp = z.copy()
        zp[i] += eps
        zm = z.copy()
        zm[i] -= eps
        hp = hamiltonian(zp, phys, grid)
        hm = hamiltonian(zm, phys, grid)
        # the gradient is of the plain nodal sum; the energy carries dx dy
        fd[i] = (hp - hm) / (2.0 * eps * grid.cell_area)
    np.testing.assert_allclose(fd, grad, rtol=1e-6, atol=1e-8)


def test_apply_poisson_matches_dense(rng):
    grid = small_setup(n=6)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    jdense = dense_poisson_matrix(z, phys, grid)
    for _ in range(3):
        g = rng.normal(size=4 * grid.N)
        np.testing.assert_allclose(apply_poisson(z, phys, grid, g), jdense @ g,
                                   rtol=1e-12, atol=1e-13)


def test_dense_poisson_matches_independent_assembly(rng):
    grid = small_setup(n=5)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    np.testing.assert_allclose(dense_poisson_matrix(z, phys, grid),
                               _dense_j(z, phys, grid), rtol=0.0, atol=1e-14)


def test_poisson_operator_skew_symmetric(rng):
    grid = small_setup(n=6)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    jdense = dense_poisson_matrix(z, phys, grid)
    assert np.max(np.abs(jdense + jdense.T)) <= 1e-13
    # same fact through the matrix-free route: a.(J b) = -b.(J a)
    for _ in range(3):
        a = rng.normal(size=4 * grid.N)
        b = rng.normal(size=4 * grid.N)
        left = a @ apply_poisson(z, phys, grid, b)
        right = -b @ apply_poisson(z, phys, grid, a)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)


def test_rhs_primitive_identities(rng):
    # row 1 of -J grad H is the mass flux divergence, row 4 the buoyancy
    # advection; both must come out of the packed evaluation verbatim
    grid = small_setup(n=8)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    f = rhs(z, phys, grid)
    N = grid.N
    h, u, v, s = np.split(z, 4)
    np.testing.assert_allclose(
        f[:N], -(apply_dx(grid, h * u) + apply_dy(grid, h * v)), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(
        f[3 * N:], -(u * apply_dx(grid, s) + v * apply_dy(grid, s)), rtol=0.0, atol=1e-13)


def test_rhs_equals_negated_dense_product(rng):
    grid = small_setup(n=6)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    expected = -(_dense_j(z, phys, grid) @ grad_hamiltonian(z, phys))
    np.testing.assert_allclose(rhs(z, phys, grid), expected, rtol=1e-12, atol=1e-12)


def test_potential_vorticity_formula(rng):
    grid = small_setup(n=7)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    h, u, v, _ = np.split(z, 4)
    expected = (apply_dx(grid, v) - apply_dy(grid, u) + phys.f) / h
    np.testing.assert_allclose(potential_vorticity(z, phys, grid), expected,
                               rtol=1e-14, atol=0.0)


def test_avf_gradient_matches_high_order_quadrature(rng):
    grid = small_setup(n=6)
    phys = random_physics(grid, rng)
    z_old = random_state(grid, rng)
    z_new = random_state(grid, rng)
    avf = avf_gradient(z_old, z_new, phys)

    nodes, weights = np.polynomial.legendre.leggauss(10)
    xi = 0.5 * (nodes + 1.0)
    wi = 0.5 * weights
    dz = z_new - z_old
    acc = np.zeros_like(avf)
    for x, w in zip(xi, wi):
        acc += w * grad_hamiltonian(z_old + x * dz, phys)
    np.testing.assert_allclose(avf, acc, rtol=0.0, atol=1e-13)

    # Simpson's rule is also exact for a quadratic integrand
    simpson = (grad_hamiltonian(z_old, phys)
               + 4.0 * grad_hamiltonian(z_old + 0.5 * dz, phys)
               + grad_hamiltonian(z_new, phys)) / 6.0
    np.testing.assert_allclose(avf, simpson, rtol=0.0, atol=1e-13)


def test_avf_step_zero_dt_is_identity(rng):
    grid = small_setup(n=6)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    out = avf_step(z, 0.0, phys, grid)
    np.testing.assert_array_equal(out, z)


def test_newton_variants_agree(rng):
    grid = small_setup(n=6)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    zk = avf_step(z, 0.05, phys, grid)
    zd = dense_newton_avf_step(z, 0.05, phys, grid)
    np.testing.assert_allclose(zk, zd, rtol=0.0, atol=1e-8)


def test_avf_step_time_reversible(rng):
    grid = small_setup(n=8)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    fwd = avf_step(z, 0.05, phys, grid)
    back = avf_step(fwd, -0.05, phys, grid)
    np.testing.assert_allclose(back, z, rtol=0.0, atol=1e-8)


def test_single_step_conserves_invariants_production_scale(vortex16):
    z = vortex16.initial
    phys, grid = vortex16.physics, vortex16.grid
    before = invariants(z, phys, grid)
    after = invariants(avf_step(z, vortex16.cfg.dt, phys, grid), phys, grid)
    rel = np.abs(after - before) / np.abs(before)
    assert np.all(rel <= 1e-12), rel


def test_total_vorticity_telescopes(rng):
    # sum over nodes of the discrete curl cancels exactly, leaving f * area
    grid = small_setup(n=8)
    phys = random_physics(grid, rng)
    for _ in range(3):
        z = random_state(grid, rng)
        vort = invariants(z, phys, grid)[2]
        np.testing.assert_allclose(vort, phys.f * grid.length ** 2, rtol=1e-13)


def test_nonpositive_height_rejected(rng):
    grid = small_setup(n=5)
    phys = random_physics(grid, rng)
    bad = random_state(grid, rng)
    bad[3] = -0.1
    with pytest.raises(NumericError):
        rhs(bad, phys, grid)
    with pytest.raises(NumericError):
        potential_vorticity(bad, phys, grid)
    with pytest.raises(NumericError):
        apply_poisson(bad, phys, grid, np.ones(4 * grid.N))
    with pytest.raises(NumericError, match=r"nonpositive initial height \(min .* at node 3\)"):
        integrate_fom(bad, 0.05, 1, phys, grid)


def test_newton_stall_raises(rng, monkeypatch):
    grid = small_setup(n=5)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    monkeypatch.setattr(fom_mod, "_NEWTON_TOL", 1e-30)
    monkeypatch.setattr(fom_mod, "_NEWTON_MAXITER", 1)
    with pytest.raises(NumericError, match="Newton-Krylov stalled after 1 iterations"):
        avf_step(z, 0.05, phys, grid)


def test_integrate_fom_shapes(rng):
    grid = small_setup(n=6)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    res = integrate_fom(z, 0.02, 3, phys, grid)
    assert res.trajectory.shape == (4 * grid.N, 4)
    assert res.invariants.shape == (4, 4)
    np.testing.assert_array_equal(res.trajectory[:, 0], z)
    np.testing.assert_array_equal(res.invariants[0], fom_mod.invariants(z, phys, grid))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", range(4))
def test_non_finite_input_names_field_and_node(vortex16, monkeypatch, field, value):
    phys, grid, dt = vortex16.physics, vortex16.grid, vortex16.cfg.dt
    z = vortex16.initial.copy()
    z[field * vortex16.grid.N + 37] = value
    with pytest.raises(NumericError, match=f"non-finite initial {'huvs'[field]} .* at node 37$"):
        integrate_fom(z, dt, 1, phys, grid)
    # a single step stops before its first residual instead of iterating on it
    calls = _count_newton_iterations(monkeypatch)
    with pytest.raises(NumericError, match=f"^non-finite state {'huvs'[field]} .* at node 37$"):
        avf_step(z, dt, phys, grid)
    assert not calls


def test_integrate_fom_rejects_mismatched_state(rng):
    grid = small_setup(n=6)
    other_grid = small_setup(n=5)
    z = random_state(other_grid, rng)
    phys = random_physics(grid, rng)
    with pytest.raises(ValueError):
        integrate_fom(z, 0.02, 2, phys, grid)


def test_fused_residual_and_gradient_match_gauss_reference(rng):
    # the closed-form chord mean grad H(m) + Q(dz)/12 on slice stencils
    # against 2-point Gauss on CSR stencils
    for n in (5, 8):
        grid = small_setup(n=n)
        phys = random_physics(grid, rng)
        for _ in range(3):
            z_old = random_state(grid, rng)
            z_new = random_state(grid, rng)
            ref = gauss_avf_gradient(z_old, z_new, phys.b)
            got = avf_gradient(z_old, z_new, phys)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            for dt in (0.05, 1.3):
                ref = gauss_avf_residual(z_new, z_old, dt, phys, grid)
                got = _AvfResidual(z_old, dt, phys, grid)(z_new)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_residual_checks_midpoint_height(rng):
    grid = small_setup(n=5)
    phys = random_physics(grid, rng)
    z = random_state(grid, rng)
    residual = _AvfResidual(z, 0.05, phys, grid)
    bad = z.copy()
    bad[7] = -3.0 * z[7]
    with pytest.raises(NumericError, match="midpoint height.*node 7"):
        residual(bad)


class _CountingOperator:
    def __init__(self, matrix):
        self.op = aslinearoperator(matrix)
        self.calls = 0

    def matvec(self, x):
        self.calls += 1
        return self.op.matvec(x)


def test_gmres_solves_nonsymmetric_system(rng):
    matrix = 3.0 * np.eye(40) + rng.normal(size=(40, 40)) / np.sqrt(40.0)
    b = rng.normal(size=40)
    for restart in (50, 6):  # one cycle, and several restarted cycles
        x, info = gmres(aslinearoperator(matrix), b, rtol=1e-10, restart=restart,
                        maxiter=40)
        assert info == 0
        assert np.linalg.norm(b - matrix @ x) <= 1e-10 * np.linalg.norm(b)


def test_gmres_zero_rhs_returns_zero():
    op = _CountingOperator(np.eye(5) + np.diag(np.ones(4), 1))
    x, info = gmres(op, np.zeros(5), rtol=1e-8, restart=5, maxiter=3)
    np.testing.assert_array_equal(x, np.zeros(5))
    assert info == 0 and op.calls == 0


def test_gmres_respects_maxiter(rng):
    # eigenvalues spread over [1, 1000]: six Krylov vectors cannot get 1e-14
    matrix = np.diag(np.linspace(1.0, 1000.0, 40)) + 0.1 * rng.normal(size=(40, 40))
    op = _CountingOperator(matrix)
    b = rng.normal(size=40)
    x, info = gmres(op, b, rtol=1e-14, restart=3, maxiter=2)
    # restart Arnoldi matvecs per cycle, one true residual between cycles
    assert op.calls == 2 * 3 + 1
    assert info == op.calls
    assert np.linalg.norm(b - matrix @ x) < np.linalg.norm(b)


def _count_newton_iterations(monkeypatch):
    """Count fom.gmres calls: one per Newton-Krylov iteration."""
    calls = []
    real = fom_mod.gmres

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fom_mod, "gmres", counted)
    return calls


def test_extrapolated_guess_matches_plain_start(vortex16, monkeypatch):
    phys, grid = vortex16.physics, vortex16.grid
    steps = 6
    calls = _count_newton_iterations(monkeypatch)
    result = integrate_fom(vortex16.initial, vortex16.cfg.dt, steps, phys, grid)
    extrapolated = len(calls)
    calls.clear()
    z = vortex16.initial
    for _ in range(steps):
        z = avf_step(z, vortex16.cfg.dt, phys, grid)
    final = result.trajectory[:, -1]
    assert np.linalg.norm(final - z) <= 1e-9 * np.linalg.norm(z)
    assert extrapolated < len(calls)


def test_guess_used_or_rejected(vortex16, monkeypatch):
    phys, grid, dt = vortex16.physics, vortex16.grid, vortex16.cfg.dt
    z = vortex16.initial
    plain = avf_step(z, dt, phys, grid)
    # a converged start is returned as it is, without a Newton iteration
    calls = _count_newton_iterations(monkeypatch)
    again = avf_step(z, dt, phys, grid, start=plain)
    assert not calls
    np.testing.assert_array_equal(again, plain)
    # a start whose midpoint height is nonpositive falls back to the input
    bad = plain.copy()
    N = z.size // 4
    bad[:N] = -2.0 * z[:N]
    fallback = avf_step(z, dt, phys, grid, start=bad)
    np.testing.assert_array_equal(fallback, plain)
    # a start of the wrong shape is refused before any residual
    residuals = []
    real = fom_mod._AvfResidual.__call__
    monkeypatch.setattr(fom_mod._AvfResidual, "__call__",
                        lambda self, state: residuals.append(1) or real(self, state))
    with pytest.raises(ValueError, match=rf"^start shape \({z.size - 1},\) != state shape"):
        avf_step(z, dt, phys, grid, start=plain[:-1])
    assert not residuals


def test_stalled_step_fails_fast_and_names_it(monkeypatch):
    # at dt=1e9 no GMRES solve converges and max |R| levels off near 1.6e4
    # after four corrections; the step stops there, not after max_iter
    from tswrom.bench import DoubleVortexConfig, double_vortex_initial, make_physics

    cfg = DoubleVortexConfig(n=8, num_steps=1, dt=1e9)
    grid = cfg.make_grid()
    calls = _count_newton_iterations(monkeypatch)
    with pytest.raises(NumericError, match=r"^step 1: Newton-Krylov stalled at iteration \d+: "
                                           r"GMRES did not converge in \d+ matvecs"):
        integrate_fom(double_vortex_initial(grid, cfg), cfg.dt, cfg.num_steps,
                      make_physics(cfg, grid.N), grid)
    assert len(calls) <= 5


def _record_gmres_calls(monkeypatch):
    """Record (rtol, max |b|, matvecs) of every fom.gmres call."""
    calls = []
    real = fom_mod.gmres

    def recorded(A, b, *, rtol, restart, maxiter):
        matvecs = []

        def matvec(w):
            matvecs.append(1)
            return A.matvec(w)

        counted = fom_mod.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
        result = real(counted, b, rtol=rtol, restart=restart, maxiter=maxiter)
        calls.append((rtol, float(np.max(np.abs(b))), len(matvecs)))
        return result

    monkeypatch.setattr(fom_mod, "gmres", recorded)
    return calls


def test_forcing_floor_keeps_the_last_correction_from_oversolving(vortex16, monkeypatch):
    # every correction is asked for no more than half of the way from max|R|
    # down to tol, however small the Eisenstat-Walker term gets
    calls = _record_gmres_calls(monkeypatch)
    integrate_fom(vortex16.initial, vortex16.cfg.dt, 3, vortex16.physics, vortex16.grid)
    assert calls
    for rtol, bmax, _ in calls:
        assert rtol >= min(0.5, 0.5 * fom_mod._NEWTON_TOL / bmax)


def test_krylov_matvecs_per_step_at_n32(monkeypatch):
    # regression guard on the full-order Krylov work; without the forcing
    # floor this run spends 19 matvecs per step
    from tswrom.bench import DoubleVortexConfig, double_vortex_initial, make_physics

    cfg = DoubleVortexConfig(n=32, num_steps=40)
    grid = cfg.make_grid()
    calls = _record_gmres_calls(monkeypatch)
    integrate_fom(double_vortex_initial(grid, cfg), cfg.dt, cfg.num_steps,
                  make_physics(cfg, grid.N), grid)
    assert sum(m for _, _, m in calls) / cfg.num_steps <= 15.0


def test_residuals_per_step_at_n32(monkeypatch):
    # regression guard on the full-order Newton work of march's start; this
    # run spends 16.05 residual evaluations per step with the linear start
    # 2 z^k - z^{k-1} on every step, 14.72 with the quadratic one and 10.95
    # with march's degree-8 extrapolation
    from tswrom.bench import DoubleVortexConfig, double_vortex_initial, make_physics

    calls = []
    real = _AvfResidual.__call__

    def counted(self, z):
        calls.append(1)
        return real(self, z)

    monkeypatch.setattr(_AvfResidual, "__call__", counted)
    cfg = DoubleVortexConfig(n=32, num_steps=100, dt=486.0)
    grid = cfg.make_grid()
    integrate_fom(double_vortex_initial(grid, cfg), cfg.dt, cfg.num_steps,
                  make_physics(cfg, grid.N), grid)
    assert len(calls) / cfg.num_steps <= 11.5


def test_march_starts_and_names_the_failing_step():
    # a toy step that records its starts and returns z + 1, then z + 2, ...
    starts = []

    def step(z, start):
        starts.append(None if start is None else start.copy())
        if len(starts) == 4:
            raise NumericError("toy failure")
        return z + float(len(starts))

    z0 = np.array([1.0, -2.0])
    assert [z.tolist() for z in march(step, z0, 0)] == [[1.0, -2.0]]
    assert not starts
    states = list(march(step, z0, 3))
    assert len(states) == 4
    z = np.array(states)
    np.testing.assert_array_equal(z[1:] - z[:-1], [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    assert starts[0] is None
    np.testing.assert_array_equal(starts[1], 2.0 * z[1] - z[0])
    np.testing.assert_array_equal(starts[2], 3.0 * z[2] - 3.0 * z[1] + z[0])
    starts.clear()
    with pytest.raises(NumericError, match="^step 4: toy failure$"):
        for _ in march(step, z0, 5):
            pass


def test_march_extrapolates_from_at_most_nine_states():
    # a toy step whose states are no polynomial in k, so every weight of the
    # start shows; integer entries keep the arithmetic exact
    starts, alive = [], []

    def step(z, start):
        starts.append(start.copy() if start is not None else None)
        k = len(starts)
        return z + np.array([k * k, (-2.0) ** k])

    states = []
    for z in march(step, np.array([1.0, -2.0]), 12):
        states.append(z.copy())
        alive.append(weakref.ref(z))
        # besides its argument z^0, march holds only z^k .. z^{k-8}, the
        # states of the next start
        assert all(ref() is None for ref in alive[1:-9])
    assert starts[0] is None
    for k in range(1, 12):
        d = min(k, 8)
        expected = sum((-1) ** j * math.comb(d + 1, j + 1) * states[k - j]
                       for j in range(d + 1))
        np.testing.assert_array_equal(starts[k], expected)


def _toy_residual(calls, c):
    """R(z) = z - c + z^3 / 10, which refuses any z with z[0] <= 0 as an AVF
    residual refuses a nonpositive midpoint height; calls records each z."""
    def residual(z):
        calls.append(z.copy())
        if not z[0] > 0.0:
            raise NumericError(f"nonpositive toy height {z[0]}")
        return z - c + 0.1 * z**3

    return residual


def _toy_corrections(residual):
    """The two correction rules of newton on the flat toy residual, the
    chord rule with its exact Jacobian I + 0.3 diag(z^2)."""
    def jacobian(z):
        return np.eye(z.size) + 0.3 * np.diag(z**2)

    return {"krylov": krylov_correction(residual, 1.0, 1e-12),
            "chord": partial(_ChordJacobian().correct, jacobian)}


@pytest.mark.parametrize("rule", ["krylov", "chord"])
def test_newton_falls_back_only_when_the_residual_refuses_the_start(rule):
    c = np.array([1.0, 0.5, -0.3])
    calls = []
    residual = _toy_residual(calls, c)
    correct = _toy_corrections(residual)[rule]
    good, fallback = np.array([0.9, 0.4, -0.2]), np.array([1.0, 0.0, 0.0])
    root = newton(residual, good, 1e-12, 20, "toy", correct, fallback=fallback)
    assert np.max(np.abs(residual(root))) <= 1e-12
    np.testing.assert_array_equal(calls[0], good)
    assert not any(np.array_equal(z, fallback) for z in calls)
    # a refused start is evaluated once, then the loop runs from the fallback
    calls.clear()
    bad = np.array([-1.0, 0.4, -0.2])
    again = newton(residual, bad, 1e-12, 20, "toy", correct, fallback=fallback)
    np.testing.assert_array_equal(calls[0], bad)
    np.testing.assert_array_equal(calls[1], fallback)
    assert all(z[0] > 0.0 for z in calls[1:])
    np.testing.assert_allclose(again, root, atol=1e-10)
    # the loop returns new arrays and leaves its inputs alone
    assert newton(residual, root, 1e-12, 20, "toy", correct) is not root
    np.testing.assert_array_equal(fallback, [1.0, 0.0, 0.0])


def test_newton_refused_fallback_or_start_propagates():
    calls = []
    residual = _toy_residual(calls, np.ones(2))
    correct = krylov_correction(residual, 1.0, 1e-12)
    with pytest.raises(NumericError, match="^nonpositive toy height -2.0$"):
        newton(residual, np.array([-1.0, 0.0]), 1e-12, 5, "toy", correct,
               fallback=np.array([-2.0, 0.0]))
    assert len(calls) == 2
    with pytest.raises(NumericError, match="^nonpositive toy height -1.0$"):
        newton(residual, np.array([-1.0, 0.0]), 1e-12, 5, "toy", correct)


@pytest.mark.parametrize("rule", ["krylov", "chord"])
def test_newton_rules_share_non_finite_and_max_iter_exits(rule):
    c = np.array([1.0, 0.5])
    residual = _toy_residual([], c)
    correct = _toy_corrections(residual)[rule]
    # one correction does not reach 1e-30, so the loop gives up after it
    with pytest.raises(NumericError, match=r"^toy stalled after 1 iterations; "
                                           r"last residual .* > tol 1\.000e-30$"):
        newton(residual, np.array([0.9, 0.4]), 1e-30, 1, "toy", correct)

    # a residual that turns NaN away from the start (the Krylov rule's
    # finite-difference probes stay near it) stops at the first NaN, after
    # one correction
    def poisoned(z):
        return residual(z) if abs(z[1] - 0.4) < 0.01 else np.full_like(z, np.nan)

    with pytest.raises(NumericError, match=r"^toy: non-finite residual \(max \|R\| = nan\) "
                                           r"after 1 iterations$"):
        newton(poisoned, np.array([0.9, 0.4]), 1e-12, 20, "toy",
               _toy_corrections(poisoned)[rule])
