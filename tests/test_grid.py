"""Grid geometry and the centered periodic difference operators."""

import numpy as np
import pytest

from helpers import csr_diff_ops, small_setup

from tswrom.grid import apply_dx, apply_dy, build_diff_ops, build_grid

# Frozen oracle: on a 4-node periodic grid over [0, 2pi) the centered
# difference of sin(x) is (sin(x + pi/2) - sin(x - pi/2)) / pi, which equals
# (2/pi) cos(x) exactly at the nodes (not just to truncation order).
TWO_OVER_PI = 0.6366197723675814


def test_grid_geometry():
    grid = build_grid(5, (0.0, 10.0, 1.0, 3.0))
    assert grid.N == 25
    assert grid.lx == 10.0
    assert grid.ly == 2.0
    assert grid.dx == 2.0
    assert grid.dy == 0.4
    assert grid.cell_area == 0.8
    np.testing.assert_allclose(grid.x, [0.0, 2.0, 4.0, 6.0, 8.0])
    np.testing.assert_allclose(grid.y, [1.0, 1.4, 1.8, 2.2, 2.6])


def test_grid_ordering_y_fastest():
    grid = build_grid(3, (0.0, 3.0, 0.0, 6.0))
    xx, yy = grid.meshcoords()
    # entry m = i*n + j holds (x_i, y_j): x repeats in blocks, y cycles
    np.testing.assert_allclose(xx, [0, 0, 0, 1, 1, 1, 2, 2, 2])
    np.testing.assert_allclose(yy, [0, 2, 4, 0, 2, 4, 0, 2, 4])


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(2, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        build_grid(8, (1.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        build_grid(8, (0.0, 1.0, 2.0, 1.0))


def test_stencil_rows():
    grid, _ = small_setup(n=7)
    for op, delta in zip(csr_diff_ops(grid), (grid.dx, grid.dy)):
        dense = op.toarray()
        assert np.all(np.count_nonzero(dense, axis=1) == 2)
        vals = np.unique(dense[dense != 0.0])
        np.testing.assert_array_equal(np.sort(vals), [-0.5 / delta, 0.5 / delta])
        # constants are annihilated exactly, per row
        assert np.all(dense.sum(axis=1) == 0.0)


def test_operators_exactly_skew_symmetric():
    grid, _ = small_setup(n=9)
    for op in csr_diff_ops(grid):
        assert (op + op.T).count_nonzero() == 0


def test_kron_orientation():
    # a field constant in y must have an exactly zero y derivative, and the
    # x derivative must couple nodes n apart (one x block), not adjacent ones
    grid, ops = small_setup(n=6)
    xx, yy = grid.meshcoords()
    fx = np.sin(2.0 * np.pi * xx / grid.lx)
    fy = np.cos(2.0 * np.pi * yy / grid.ly)
    assert np.max(np.abs(apply_dy(ops, fx))) == 0.0
    assert np.max(np.abs(apply_dx(ops, fy))) == 0.0
    assert np.max(np.abs(apply_dx(ops, fx))) > 0.1
    assert np.max(np.abs(apply_dy(ops, fy))) > 0.1


def test_four_node_sine_derivative_frozen_value():
    grid, ops = small_setup(n=4)
    xx, _ = grid.meshcoords()
    deriv = apply_dx(ops, np.sin(xx))
    np.testing.assert_allclose(deriv, TWO_OVER_PI * np.cos(xx), rtol=0.0, atol=1e-16)
    # the peak value itself is the frozen constant
    np.testing.assert_allclose(deriv.max(), TWO_OVER_PI, rtol=0.0, atol=1e-16)


def test_second_order_convergence():
    errs_x = []
    errs_y = []
    for n in (16, 32, 64):
        grid, ops = small_setup(n=n)
        xx, yy = grid.meshcoords()
        w = np.sin(xx) * np.cos(2.0 * yy)
        errs_x.append(np.max(np.abs(apply_dx(ops, w) - np.cos(xx) * np.cos(2.0 * yy))))
        errs_y.append(np.max(np.abs(apply_dy(ops, w) + 2.0 * np.sin(xx) * np.sin(2.0 * yy))))
    for errs in (errs_x, errs_y):
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios > 3.5) and np.all(ratios < 4.5), ratios


def test_apply_rejects_wrong_length():
    _, ops = small_setup(n=5)
    with pytest.raises(ValueError):
        apply_dx(ops, np.zeros(24))
    with pytest.raises(ValueError):
        apply_dy(ops, np.zeros(26))


def test_operators_match_dense_kron_assembly():
    # independent dense assembly: explicit circulant loops + np.kron
    grid, ops = small_setup(n=5)
    n = grid.n
    c = np.zeros((n, n))
    for i in range(n):
        c[i, (i + 1) % n] = 1.0
        c[i, (i - 1) % n] = -1.0
    dxm = np.kron(c, np.eye(n)) / (2.0 * grid.dx)
    dym = np.kron(np.eye(n), c) / (2.0 * grid.dy)
    eye = np.eye(grid.N)
    np.testing.assert_array_equal(apply_dx(ops, eye), dxm)
    np.testing.assert_array_equal(apply_dy(ops, eye), dym)
    # and the CSR reference the other tests use
    dx, dy = csr_diff_ops(grid)
    np.testing.assert_array_equal(dx.toarray(), dxm)
    np.testing.assert_array_equal(dy.toarray(), dym)


@pytest.mark.parametrize("n", [3, 5, 16])
def test_slice_stencils_match_csr(n):
    grid, ops = small_setup(n=n)
    dx, dy = csr_diff_ops(grid)
    rng = np.random.default_rng(n)
    for shape in ((grid.N,), (grid.N, 3)):
        w = rng.normal(size=shape)
        tol = 1e-15 * np.max(np.abs(w))
        assert np.max(np.abs(apply_dx(ops, w) - dx @ w)) <= tol
        assert np.max(np.abs(apply_dy(ops, w) - dy @ w)) <= tol
        const = np.full(shape, 2.7)
        assert np.max(np.abs(apply_dx(ops, const))) == 0.0
        assert np.max(np.abs(apply_dy(ops, const))) == 0.0
