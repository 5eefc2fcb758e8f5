"""Nonlinearity evaluation, Q-DEIM point selection, interpolation operators."""

import itertools
import tracemalloc

import numpy as np
import pytest

from helpers import (deim_apply, nonlinearity, random_physics, random_state, small_setup,
                     svd_deim)

from tswrom.deim import (_CHUNK, NUM_NONLIN, _eval_all, build_deim, collect_nonlin_snapshots,
                         qdeim_select)
from tswrom.errors import ConfigError, NumericError
from tswrom.grid import apply_dx, apply_dy
from tswrom.pod import build_pod_basis, collect_snapshots, restrict

# Frozen oracle for the crafted 6x2 selection problem below: the pivoted-QR
# choice, the greedy interpolation choice, and the brute-force maximum-volume
# subset all pick rows {0, 1}, with |det| of the selected square
BEST_DET = 0.9817590507097221


def _crafted_phi():
    raw = np.array([[10.0, 0.2], [0.1, 9.0], [1.0, 1.0],
                    [0.5, -0.3], [-0.7, 0.4], [0.2, 0.6]])
    phi, _ = np.linalg.qr(raw)
    return phi


def _raw_nonlinearities(states, phys, grid):
    """The program's F1..F3 on states, as unprojected nonlinear snapshots."""
    snaps = collect_snapshots(np.stack(states, axis=1))
    return collect_nonlin_snapshots(snaps, None, phys, grid, projected=False)


def test_nonlinearity_formulas(rng):
    grid = small_setup(n=7)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    h, u, v, s = np.split(z, 4)
    expected = [
        (apply_dx(grid, v) - apply_dy(grid, u) + phys.f) / h,
        apply_dx(grid, s) / h,
        apply_dy(grid, s) / h,
    ]
    assert NUM_NONLIN == 3
    values = _raw_nonlinearities([z], phys, grid)
    for j in range(1, NUM_NONLIN + 1):
        np.testing.assert_allclose(values[j - 1][:, 0], expected[j - 1], rtol=1e-13, atol=1e-14)
        # the CSR oracle the other tests use agrees with the same formulas
        np.testing.assert_allclose(nonlinearity(j, z, phys, grid), expected[j - 1],
                                   rtol=1e-13, atol=1e-14)


def test_nonlinearity_requires_positive_height(rng):
    grid = small_setup(n=5)
    z = random_state(grid, rng)
    phys = random_physics(grid, rng)
    z[2] = -0.5
    with pytest.raises(NumericError):
        _raw_nonlinearities([z], phys, grid)


def test_collect_nonlin_snapshots_projection_switch(rng):
    grid = small_setup(n=5)
    phys = random_physics(grid, rng)
    traj = np.stack([random_state(grid, rng) for _ in range(6)], axis=1)
    snaps = collect_snapshots(traj)
    # a genuinely truncated basis, so reconstruction differs from the raw data
    basis = build_pod_basis(snaps, kappa=1e-2, r_override=2)

    raw = collect_nonlin_snapshots(snaps, basis, phys, grid, projected=False)
    proj = collect_nonlin_snapshots(snaps, basis, phys, grid, projected=True)
    assert raw.shape == proj.shape == (NUM_NONLIN, grid.N, 6)

    # raw trains on the snapshots themselves ...
    k = 3
    st = traj[:, k]
    for j in range(1, NUM_NONLIN + 1):
        np.testing.assert_allclose(raw[j - 1][:, k],
                                   nonlinearity(j, st, phys, grid), rtol=1e-13, atol=1e-14)
    # ... projected trains on their POD reconstructions
    rec = basis.lift_array(restrict(basis, traj[:, k]))
    for j in range(1, NUM_NONLIN + 1):
        np.testing.assert_allclose(proj[j - 1][:, k],
                                   nonlinearity(j, rec, phys, grid), rtol=1e-13, atol=1e-14)
    assert np.max(np.abs(raw - proj)) > 1e-8  # the switch matters

    # a basis built on other snapshots has other means; the projection is
    # still z -> mean + V V^T (z - mean) with the basis' own mean
    other = build_pod_basis(collect_snapshots(traj[:, :4]), kappa=1e-2, r_override=2)
    shifted = collect_nonlin_snapshots(snaps, other, phys, grid, projected=True)
    rec = other.lift_array(restrict(other, traj[:, k]))
    for j in range(1, NUM_NONLIN + 1):
        np.testing.assert_allclose(shifted[j - 1][:, k],
                                   nonlinearity(j, rec, phys, grid), rtol=1e-12, atol=1e-13)


def _mixed_states(grid, rng, count):
    """count convex combinations of six random states (4N, count), so every
    column keeps a positive height."""
    states = np.stack([random_state(grid, rng) for _ in range(6)], axis=1)
    return states @ rng.dirichlet(np.ones(6), size=count).T


@pytest.mark.parametrize("projected", [True, False])
def test_collect_nonlin_snapshots_chunks_match_one_shot(rng, projected):
    # K is not a multiple of the chunk, so the last chunk is partial
    grid = small_setup(n=6)
    phys = random_physics(grid, rng)
    traj = _mixed_states(grid, rng, 2 * _CHUNK + 5)
    snaps = collect_snapshots(traj)
    own = build_pod_basis(snaps, kappa=1e-2, r_override=3)
    # a basis on other snapshots has other means: the offset branch
    other = build_pod_basis(collect_snapshots(traj[:, :_CHUNK]), kappa=1e-2, r_override=3)
    for basis in (own, other):
        states = basis.lift_array(restrict(basis, traj)) if projected else traj
        expected = _eval_all(states, phys, grid)
        got = collect_nonlin_snapshots(snaps, basis, phys, grid, projected=projected)
        for got_j, expected_j in zip(got, expected):
            np.testing.assert_allclose(got_j, expected_j, rtol=0.0,
                                       atol=1e-13 * np.abs(expected_j).max())


def test_collect_nonlin_snapshots_holds_one_chunk_besides_the_result(rng):
    # n = 32: besides the (3, N, K) result only one chunk of states and of
    # fields is allocated; lifting every snapshot at once would add 4NK
    grid = small_setup(n=32)
    phys = random_physics(grid, rng)
    snaps = collect_snapshots(_mixed_states(grid, rng, 300))
    basis = build_pod_basis(snaps, kappa=1e-2, r_override=3)
    for projected in (True, False):
        tracemalloc.start()
        try:
            nonlin = collect_nonlin_snapshots(snaps, basis, phys, grid, projected=projected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * nonlin.nbytes


def test_qdeim_matches_brute_force_and_greedy():
    phi = _crafted_phi()
    picked = qdeim_select(phi)

    best, best_det = None, -1.0
    for rows in itertools.combinations(range(phi.shape[0]), 2):
        d = abs(np.linalg.det(phi[list(rows)]))
        if d > best_det:
            best, best_det = set(rows), d

    greedy = [int(np.argmax(np.abs(phi[:, 0])))]
    for k in range(1, phi.shape[1]):
        coeff = np.linalg.solve(phi[greedy][:, :k], phi[greedy, k])
        residual = phi[:, k] - phi[:, :k] @ coeff
        greedy.append(int(np.argmax(np.abs(residual))))

    assert set(picked.tolist()) == best == set(greedy)
    np.testing.assert_allclose(abs(np.linalg.det(phi[picked])), BEST_DET, rtol=1e-13)
    np.testing.assert_allclose(best_det, BEST_DET, rtol=1e-13)


def test_qdeim_validation():
    phi = _crafted_phi()
    with pytest.raises(ConfigError):
        qdeim_select(phi, p=0)
    with pytest.raises(ConfigError):
        qdeim_select(phi, p=3)
    with pytest.raises(ConfigError):
        qdeim_select(np.zeros(5))
    # duplicate columns: rank deficiency must be detected, not interpolated
    degenerate = np.column_stack([phi[:, 0], phi[:, 0]])
    with pytest.raises(NumericError):
        qdeim_select(degenerate)


def test_interpolation_property(mini_pipeline):
    dset = mini_pipeline.deim
    for idx, psi in zip(dset.indices, dset.psi):
        np.testing.assert_allclose(psi[idx, :], np.eye(dset.p), rtol=0.0, atol=1e-10)
        assert len(np.unique(idx)) == dset.p


def test_deim_set_indexing(mini_pipeline):
    # one row per F_j in each stacked array
    dset = mini_pipeline.deim
    N, p = mini_pipeline.grid.N, dset.p
    assert dset.indices.shape == (NUM_NONLIN, p) and dset.indices.dtype == np.int64
    assert dset.psi.shape == (NUM_NONLIN, N, p)
    assert dset.singular_values.shape[0] == NUM_NONLIN


def test_deim_apply_matches_full_evaluation(mini_pipeline):
    z = mini_pipeline.fom.trajectory[:, 5]
    phys, grid, dset = mini_pipeline.physics, mini_pipeline.grid, mini_pipeline.deim
    for j in range(1, NUM_NONLIN + 1):
        sampled = deim_apply(dset, j, z, phys, grid)
        full = nonlinearity(j, z, phys, grid)[dset.indices[j - 1]]
        np.testing.assert_allclose(sampled, full, rtol=1e-11, atol=0.0)


def test_deim_apply_requires_positive_sampled_height(mini_pipeline):
    z = mini_pipeline.fom.trajectory[:, 0].copy()
    phys, grid = mini_pipeline.physics, mini_pipeline.grid
    z[: mini_pipeline.grid.N] = -1.0
    with pytest.raises(NumericError):
        deim_apply(mini_pipeline.deim, 2, z, phys, grid)


def test_build_deim_p_override(rng):
    grid = small_setup(n=5)
    phys = random_physics(grid, rng)
    traj = np.stack([random_state(grid, rng) for _ in range(6)], axis=1)
    snaps = collect_snapshots(traj)
    basis = build_pod_basis(snaps, kappa=1e-6)
    nonlin = collect_nonlin_snapshots(snaps, basis, phys, grid)

    dset = build_deim(nonlin, kappa=1e-8, p_override=4)
    assert dset.p == 4
    assert dset.indices.shape == (NUM_NONLIN, 4) and dset.psi.shape == (NUM_NONLIN, grid.N, 4)
    default = build_deim(nonlin, kappa=1e-8)
    assert default.p == max(default.ranks)
    with pytest.raises(ConfigError, match=r"^interpolation count p=0 outside \[1, 6\]$"):
        build_deim(nonlin, kappa=1e-8, p_override=0)
    with pytest.raises(ConfigError, match=r"^interpolation count p=7 outside \[1, 6\]$"):
        build_deim(nonlin, kappa=1e-8, p_override=7)


def test_build_deim_matches_full_svd_oracle(mini_pipeline):
    cfg = mini_pipeline.config
    snaps = collect_snapshots(mini_pipeline.fom.trajectory[:, 1:])
    nonlin = collect_nonlin_snapshots(snaps, mini_pipeline.basis, mini_pipeline.physics,
                                      mini_pipeline.grid)
    dset = build_deim(nonlin, kappa=cfg.kappa_deim, p_override=cfg.p_override)
    spectra, indices, phi, psi = svd_deim(nonlin, kappa=cfg.kappa_deim,
                                          p_override=cfg.p_override)
    assert np.all(np.abs(dset.singular_values - spectra) <= 1e-14 * spectra[:, :1])
    np.testing.assert_array_equal(dset.indices, indices)
    for got, phi_j, psi_j, idx in zip(dset.psi, phi, psi, indices):
        # psi carries cond(P^T phi), which amplifies the rounding in phi
        assert np.max(np.abs(got - psi_j)) <= 1e-12 * np.linalg.cond(phi_j[idx]) * np.abs(psi_j).max()


def test_projected_nonlin_snapshots_memory(mini_pipeline):
    # Peak allocation of the projected evaluation: the lifted states (4NK),
    # the three coefficient fields (3NK) and one scratch field (NK). Forming
    # the full snapshots first would add another 4NK.
    snaps = collect_snapshots(mini_pipeline.fom.trajectory[:, 1:])
    basis = mini_pipeline.basis
    args = (snaps, basis, mini_pipeline.physics, mini_pipeline.grid)
    tracemalloc.start()
    try:
        nonlin = collect_nonlin_snapshots(*args, projected=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nonlin.shape == (NUM_NONLIN, snaps.N, snaps.num_snapshots)
    assert peak <= 9 * snaps.N * snaps.num_snapshots * 8
