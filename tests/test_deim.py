"""Nonlinearity evaluation, Q-DEIM point selection, interpolation operators."""

import itertools

import numpy as np
import pytest

from helpers import deim_apply, random_physics, random_state, small_setup

from tswrom.deim import (NUM_NONLIN, build_deim, collect_nonlin_snapshots,
                         nonlinearity, qdeim_select)
from tswrom.errors import ConfigError, NumericError
from tswrom.grid import apply_dx, apply_dy
from tswrom.pod import build_pod_basis, collect_snapshots

# Frozen oracle for the crafted 6x2 selection problem below: the pivoted-QR
# choice, the greedy interpolation choice, and the brute-force maximum-volume
# subset all pick rows {0, 1}, with |det| of the selected square
BEST_DET = 0.9817590507097221


def _crafted_phi():
    raw = np.array([[10.0, 0.2], [0.1, 9.0], [1.0, 1.0],
                    [0.5, -0.3], [-0.7, 0.4], [0.2, 0.6]])
    phi, _ = np.linalg.qr(raw)
    return phi


def test_nonlinearity_formulas(rng):
    grid, ops = small_setup(n=7)
    state = random_state(grid, rng)
    phys = random_physics(grid, rng)
    h, u, v, s = state.h, state.u, state.v, state.s
    expected = [
        (apply_dx(ops, v) - apply_dy(ops, u) + phys.f) / h,
        apply_dx(ops, s) / h,
        apply_dy(ops, s) / h,
    ]
    assert NUM_NONLIN == 3
    for j in range(1, NUM_NONLIN + 1):
        np.testing.assert_allclose(nonlinearity(j, state, phys, ops), expected[j - 1],
                                   rtol=1e-13, atol=1e-14)
    with pytest.raises(ConfigError):
        nonlinearity(0, state, phys, ops)
    with pytest.raises(ConfigError):
        nonlinearity(4, state, phys, ops)


def test_nonlinearity_requires_positive_height(rng):
    grid, ops = small_setup(n=5)
    state = random_state(grid, rng)
    phys = random_physics(grid, rng)
    state.z[2] = -0.5
    with pytest.raises(NumericError):
        nonlinearity(1, state, phys, ops)


def test_collect_nonlin_snapshots_projection_switch(rng):
    grid, ops = small_setup(n=5)
    phys = random_physics(grid, rng)
    traj = np.stack([random_state(grid, rng).z for _ in range(6)], axis=1)
    snaps = collect_snapshots(traj)
    # a genuinely truncated basis, so reconstruction differs from the raw data
    basis = build_pod_basis(snaps, kappa=1e-2, r_override=2)

    raw = collect_nonlin_snapshots(snaps, basis, phys, ops, projected=False)
    proj = collect_nonlin_snapshots(snaps, basis, phys, ops, projected=True)
    assert raw.values.shape == (NUM_NONLIN, grid.N, 6)
    assert not raw.projected and proj.projected

    # raw trains on the snapshots themselves ...
    k = 3
    from tswrom.fom import State

    st = State(z=traj[:, k])
    for j in range(1, NUM_NONLIN + 1):
        np.testing.assert_allclose(raw.values[j - 1][:, k],
                                   nonlinearity(j, st, phys, ops), rtol=1e-13, atol=1e-14)
    # ... projected trains on their POD reconstructions
    rec = State(z=basis.lift_array(basis.restrict_array(traj[:, k])))
    for j in range(1, NUM_NONLIN + 1):
        np.testing.assert_allclose(proj.values[j - 1][:, k],
                                   nonlinearity(j, rec, phys, ops), rtol=1e-13, atol=1e-14)
    assert np.max(np.abs(raw.values - proj.values)) > 1e-8  # the switch matters


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
    for op in dset:
        square = op.psi[op.indices, :]
        np.testing.assert_allclose(square, np.eye(op.p), rtol=0.0, atol=1e-10)
        assert op.phi.shape == op.psi.shape
        assert len(np.unique(op.indices)) == op.p


def test_deim_set_indexing(mini_pipeline):
    dset = mini_pipeline.deim
    assert [op.j for op in dset] == list(range(1, NUM_NONLIN + 1))
    assert dset[1].j == 1 and dset[3].j == 3
    assert dset.p == dset[1].p
    assert dset.singular_values.shape[0] == NUM_NONLIN


def test_deim_apply_matches_full_evaluation(mini_pipeline):
    state = mini_pipeline.fom.state(5)
    phys, ops = mini_pipeline.physics, mini_pipeline.diffops
    for op in mini_pipeline.deim:
        sampled = deim_apply(op, state, phys, ops)
        full = nonlinearity(op.j, state, phys, ops)[op.indices]
        np.testing.assert_allclose(sampled, full, rtol=1e-11, atol=0.0)


def test_deim_apply_requires_positive_sampled_height(mini_pipeline):
    state = mini_pipeline.fom.state(0).copy()
    phys, ops = mini_pipeline.physics, mini_pipeline.diffops
    state.z[: state.N] = -1.0
    with pytest.raises(NumericError):
        deim_apply(mini_pipeline.deim[2], state, phys, ops)


def test_build_deim_p_override(rng):
    grid, ops = small_setup(n=5)
    phys = random_physics(grid, rng)
    traj = np.stack([random_state(grid, rng).z for _ in range(6)], axis=1)
    snaps = collect_snapshots(traj)
    basis = build_pod_basis(snaps, kappa=1e-6)
    nonlin = collect_nonlin_snapshots(snaps, basis, phys, ops)

    dset = build_deim(nonlin, kappa=1e-8, p_override=4)
    assert dset.p == 4
    assert all(op.p == 4 for op in dset)
    default = build_deim(nonlin, kappa=1e-8)
    assert default.p == max(default.ranks)
    with pytest.raises(ConfigError):
        build_deim(nonlin, kappa=1e-8, p_override=0)
    with pytest.raises(ConfigError):
        build_deim(nonlin, kappa=1e-8, p_override=7)
