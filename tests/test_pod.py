"""Snapshot collection, energy-rank truncation, and the POD basis maps."""

import numpy as np
import pytest

from helpers import SEED, lift, random_state, small_setup, svd_pod_basis

from tswrom.errors import ConfigError
from tswrom.pod import _thin_svd, build_pod_basis, collect_snapshots, restrict, truncate_rank


def _tiny_snapshots():
    """Two snapshots with a hand-computable decomposition.

    The h block has columns (1, 0, 0, 0) and (3, 0, 0, 0): mean (2, 0, 0, 0),
    deviations -/+ e1, singular value sqrt(2), single mode e1. The other
    variables are constant in time, so their deviations vanish.
    """
    N = 4
    z1 = np.concatenate([[1.0, 0, 0, 0], np.full(N, 0.5), np.full(N, -0.25), np.full(N, 3.0)])
    z2 = np.concatenate([[3.0, 0, 0, 0], np.full(N, 0.5), np.full(N, -0.25), np.full(N, 3.0)])
    return np.stack([z1, z2], axis=1)


def test_collect_snapshots_worked_example():
    snaps = collect_snapshots(_tiny_snapshots())
    assert snaps.N == 4
    assert snaps.num_snapshots == 2
    np.testing.assert_array_equal(snaps.means[0], [2.0, 0, 0, 0])
    np.testing.assert_array_equal(snaps.means[3], np.full(4, 3.0))
    np.testing.assert_array_equal(snaps.deviations[0][:, 0], [-1.0, 0, 0, 0])
    np.testing.assert_array_equal(snaps.deviations[0][:, 1], [1.0, 0, 0, 0])
    assert np.max(np.abs(snaps.deviations[1:])) == 0.0


def test_collect_snapshots_ignores_the_input_layout(rng):
    # a C array and its Fortran-ordered copy give the same bits
    states = 1e3 * rng.normal(size=(4 * 37, 29))
    c, f = collect_snapshots(states), collect_snapshots(np.asfortranarray(states))
    np.testing.assert_array_equal(f.means, c.means)
    np.testing.assert_array_equal(f.deviations, c.deviations)


def test_build_pod_basis_worked_example():
    traj = _tiny_snapshots()
    basis = build_pod_basis(collect_snapshots(traj), kappa=0.0)
    assert basis.r == 1
    assert basis.ranks == (1, 1, 1, 1)
    np.testing.assert_allclose(basis.singular_values[0][0], np.sqrt(2.0), rtol=1e-14)
    # the depth basis leads with the constant field
    np.testing.assert_allclose(basis.modes[0][:, 0], np.full(4, 0.5), rtol=1e-14)
    # at r = 2 the h mean and mode, both along e1, complete the depth span,
    # so lift(restrict(.)) reproduces both snapshots
    basis = build_pod_basis(collect_snapshots(traj), kappa=0.0, r_override=2)
    np.testing.assert_allclose(basis.modes[0][:, 1], np.array([3.0, -1, -1, -1]) / np.sqrt(12),
                               rtol=0.0, atol=1e-14)
    rebuilt = basis.lift_array(restrict(basis, traj))
    np.testing.assert_allclose(rebuilt, traj, rtol=0.0, atol=1e-13)
    # two snapshots offer two singular directions and the mean a third, but
    # when the u block varies like h, its mean is parallel to its mode, so
    # u spans only two
    traj[4:8] = traj[:4]
    with pytest.raises(ConfigError, match=r"^snapshots support only 2 independent "
                                          r"directions, need r=3$"):
        build_pod_basis(collect_snapshots(traj), kappa=0.0, r_override=3)


def _graded(m, n, rng):
    """An (m, n) matrix with log-spaced singular values 1 .. 1e-14, and
    those values."""
    q = min(m, n)
    left = np.linalg.qr(rng.standard_normal((m, q)))[0]
    right = np.linalg.qr(rng.standard_normal((n, q)))[0]
    sig = np.logspace(0.0, -14.0, q)
    return (left * sig) @ right.T, sig


@pytest.mark.parametrize("shape", [(400, 30), (60, 30), (30, 30), (30, 60), (12, 200)])
def test_thin_svd_matches_numpy(shape):
    a, exact = _graded(*shape, np.random.default_rng(SEED))
    u, sig, _ = np.linalg.svd(a, full_matrices=False)
    values, leading = _thin_svd(a)
    assert np.max(np.abs(values - sig)) <= 1e-14 * sig[0]
    # vectors of singular values >= 1e-3 are determined to about 1e-13
    k = int(np.sum(exact >= 1e-3))
    vecs = leading(k)
    assert vecs.shape == (shape[0], k)
    # np.linalg.svd leaves each vector's sign to LAPACK, which _thin_svd
    # fixes (see the next test); the vectors agree up to sign
    ref = u[:, :k] * np.sign(np.sum(u[:, :k] * vecs, axis=0))
    assert np.max(np.abs(vecs - ref)) <= 1e-12
    # all min(m, n) vectors are formed orthonormal when asked for
    full = leading(min(shape))
    np.testing.assert_allclose(full.T @ full, np.eye(min(shape)), rtol=0.0, atol=1e-13)


def test_thin_svd_vector_signs_follow_the_largest_entry():
    # each vector's largest-magnitude entry is positive, so a rounding-level
    # change of the matrix, or its negation, leaves every vector's sign
    a, exact = _graded(400, 30, np.random.default_rng(SEED))
    k = int(np.sum(exact >= 1e-3))
    vecs = _thin_svd(a)[1](k)
    assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)] > 0.0)
    assert np.max(np.abs(_thin_svd(-a)[1](k) - vecs)) <= 1e-12
    # the perturbation moves the vectors by about 1e-14 / 1e-3; a flipped
    # one would move by twice its largest entry
    noise = 1e-14 * np.random.default_rng(SEED + 1).standard_normal(a.shape)
    assert np.max(np.abs(_thin_svd(a + noise)[1](k) - vecs)) <= 1e-9


def test_build_pod_basis_matches_full_svd_oracle(mini_pipeline):
    cfg = mini_pipeline.config
    snaps = collect_snapshots(mini_pipeline.fom.trajectory[:, 1:])
    basis = build_pod_basis(snaps, kappa=cfg.kappa_pod, r_override=cfg.r_override)
    ref = svd_pod_basis(snaps, kappa=cfg.kappa_pod, r_override=cfg.r_override)
    assert basis.ranks == ref.ranks
    assert basis.r == ref.r
    sig = ref.singular_values
    assert np.all(np.abs(basis.singular_values - sig) <= 1e-14 * sig[:, :1])
    assert np.max(np.abs(basis.modes - ref.modes)) <= 1e-12
    np.testing.assert_array_equal(basis.means, ref.means)


def test_collect_snapshots_rejects_bad_input():
    with pytest.raises(ConfigError):
        collect_snapshots(np.zeros(0))
    with pytest.raises(ConfigError):
        collect_snapshots(np.zeros((16, 0)))
    with pytest.raises(ConfigError):
        collect_snapshots(np.zeros((15, 3)))


def test_truncate_rank_worked_examples():
    sig = np.array([10.0, 1.0, 0.1])
    # squared energies 100, 1, 0.01: tails after r modes are 1.01 and 0.01
    assert truncate_rank(sig, 0.011) == 1
    assert truncate_rank(sig, 0.005) == 2
    assert truncate_rank(sig, 0.0) == 3
    # numerically zero singular values are clipped before the kappa = 0 rule
    assert truncate_rank(np.array([10.0, 1.0, 1e-17]), 0.0) == 2


def test_truncate_rank_rejects_bad_input():
    with pytest.raises(ConfigError):
        truncate_rank(np.array([1.0, 2.0]), 0.1)  # increasing
    with pytest.raises(ConfigError):
        truncate_rank(np.array([1.0, 0.5]), -0.1)
    with pytest.raises(ConfigError):
        truncate_rank(np.array([1.0, 0.5]), 1.0)
    with pytest.raises(ConfigError):
        truncate_rank(np.array([0.0, 0.0]), 0.1)
    with pytest.raises(ConfigError):
        truncate_rank(np.array([]), 0.1)


def test_modes_orthonormal(mini_pipeline):
    basis = mini_pipeline.basis
    for i in range(4):
        gram = basis.modes[i].T @ basis.modes[i]
        np.testing.assert_allclose(gram, np.eye(basis.r), rtol=0.0, atol=1e-12)


def test_r_override(rng):
    grid = small_setup(n=4)
    traj = np.stack([random_state(grid, rng) for _ in range(6)], axis=1)
    snaps = collect_snapshots(traj)
    basis = build_pod_basis(snaps, kappa=1e-3, r_override=3)
    assert basis.r == 3
    # criterion ranks are still reported
    assert all(1 <= rk <= 6 for rk in basis.ranks)
    with pytest.raises(ConfigError, match=r"^reduced dimension r=0 outside \[1, 7\]$"):
        build_pod_basis(snaps, kappa=1e-3, r_override=0)
    # six snapshots offer six singular directions; the mean adds a seventh
    with pytest.raises(ConfigError, match=r"^reduced dimension r=8 outside \[1, 7\]$"):
        build_pod_basis(snaps, kappa=1e-3, r_override=8)


def test_full_rank_basis_reproduces_snapshots(rng):
    grid = small_setup(n=4)
    traj = np.stack([random_state(grid, rng) for _ in range(5)], axis=1)
    snaps = collect_snapshots(traj)
    # r = K + 1: the depth basis holds the constant field, its mean and the
    # rank-4 deviation span, the others their mean and that span
    basis = build_pod_basis(snaps, kappa=0.0, r_override=6)
    rebuilt = basis.lift_array(restrict(basis, traj))
    np.testing.assert_allclose(rebuilt, traj, rtol=0.0, atol=1e-10)


def test_restrict_lift_state_interface(rng):
    grid = small_setup(n=4)
    traj = np.stack([random_state(grid, rng) for _ in range(5)], axis=1)
    # six columns hold the mean direction (and the depth basis's constant
    # field) plus the full rank-4 deviation span of five snapshots, so
    # reconstruction of the snapshots is exact
    basis = build_pod_basis(collect_snapshots(traj), kappa=1e-8, r_override=6)
    z = traj[:, 2]
    z_r = restrict(basis, z)
    assert z_r.shape == (4 * basis.r,)
    lifted = lift(basis, z_r)
    np.testing.assert_allclose(lifted, z, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(basis.lift_array(z_r), lifted, rtol=0.0, atol=1e-14)
    # batched and single-column maps agree
    np.testing.assert_allclose(restrict(basis, traj)[:, 2], z_r, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(basis.lift_array(restrict(basis, traj))[:, 2], lifted,
                               rtol=0.0, atol=1e-14)

    other = random_state(small_setup(n=5), rng)
    with pytest.raises(ConfigError):
        restrict(basis, other)


def test_mean_direction_lies_in_default_span(rng):
    grid = small_setup(n=4)
    traj = np.stack([random_state(grid, rng) for _ in range(6)], axis=1)
    snaps = collect_snapshots(traj)
    basis = build_pod_basis(snaps, kappa=1e-3, r_override=3)
    for i in range(4):
        mean = basis.means[i]
        kept = basis.modes[i] @ (basis.modes[i].T @ mean)
        assert np.linalg.norm(kept - mean) <= 1e-10 * np.linalg.norm(mean)
        # whereas the plain SVD span is (generically) far from the mean
        plain = np.linalg.svd(snaps.deviations[i], full_matrices=False)[0][:, :3]
        dropped = mean - plain @ (plain.T @ mean)
        assert np.linalg.norm(dropped) > 0.1 * np.linalg.norm(mean)


def test_plain_svd_projection_is_least_squares_optimal(rng):
    # the stored spectra are those of the deviations: projecting onto the
    # leading r plain singular vectors leaves || S - U_r U_r^T S ||_F^2 equal
    # to the tail energy sum_{j>r} sigma_j^2 of the stored singular values
    grid = small_setup(n=4)
    traj = np.stack([random_state(grid, rng) for _ in range(8)], axis=1)
    snaps = collect_snapshots(traj)
    r = 3
    basis = build_pod_basis(snaps, kappa=1e-3, r_override=r)
    for i in range(4):
        s = snaps.deviations[i]
        u = np.linalg.svd(s, full_matrices=False)[0][:, :r]
        err2 = np.linalg.norm(s - u @ (u.T @ s)) ** 2
        tail = (basis.singular_values[i][r:] ** 2).sum()
        np.testing.assert_allclose(err2, tail, rtol=1e-10)


def test_mean_led_projection_error_sandwich(rng):
    # Spending one of r columns on the mean costs at most one mode of energy:
    # the optimal rank-r and rank-(r-1) tails bracket the projection error.
    # The depth basis spends two, on the constant field and the mean, so
    # there the rank-(r-2) tail is the upper bound.
    grid = small_setup(n=4)
    traj = np.stack([random_state(grid, rng) for _ in range(8)], axis=1)
    snaps = collect_snapshots(traj)
    r = 4
    basis = build_pod_basis(snaps, kappa=1e-3, r_override=r)
    for i in range(4):
        s = snaps.deviations[i]
        sig2 = basis.singular_values[i] ** 2
        err2 = np.linalg.norm(s - basis.modes[i] @ (basis.modes[i].T @ s)) ** 2
        slack = 1e-10 * sig2.sum()
        leads = 2 if i == 0 else 1
        assert sig2[r:].sum() - slack <= err2 <= sig2[r - leads :].sum() + slack


def test_constant_trajectory_mean_led_basis():
    # deviations vanish entirely; the mean direction alone is exact
    traj = np.tile(np.arange(1.0, 17.0)[:, None], (1, 3))
    basis = build_pod_basis(collect_snapshots(traj), kappa=0.0)
    assert basis.r == 1
    rebuilt = basis.lift_array(restrict(basis, traj))
    np.testing.assert_allclose(rebuilt, traj, rtol=1e-14)


def test_mean_z_packs_variable_blocks():
    basis = build_pod_basis(collect_snapshots(_tiny_snapshots()), kappa=0.0)
    mean_z = basis.mean_z
    assert mean_z.shape == (16,)
    np.testing.assert_array_equal(mean_z[:4], [2.0, 0, 0, 0])
    np.testing.assert_array_equal(mean_z[12:], np.full(4, 3.0))
