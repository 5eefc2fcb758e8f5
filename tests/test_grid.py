"""Grid geometry and the centered periodic difference operators."""

import numpy as np
import pytest

from helpers import csr_diff_ops, small_setup

from tswrom.grid import apply_dx, apply_dy, build_grid, centered_y

# Frozen oracle: on a 4-node periodic grid over [0, 2pi) the centered
# difference of sin(x) is (sin(x + pi/2) - sin(x - pi/2)) / pi, which equals
# (2/pi) cos(x) exactly at the nodes (not just to truncation order).
TWO_OVER_PI = 0.6366197723675814


def test_grid_geometry():
    grid = build_grid(5, 10.0)
    assert grid.N == 25
    assert grid.length == 10.0
    assert grid.dx == 2.0
    assert grid.cell_area == 4.0
    np.testing.assert_allclose(grid.x, [0.0, 2.0, 4.0, 6.0, 8.0])
    # both axes use the spacing dx: on w = sin(kx) + 2 sin(2ky), k = 2 pi / L,
    # the centered differences are exactly these, and differ if x and y swap
    xx, yy = grid.meshcoords()
    k = 2.0 * np.pi / grid.length
    w = np.sin(k * xx) + 2.0 * np.sin(2.0 * k * yy)
    np.testing.assert_allclose(apply_dx(grid, w), np.cos(k * xx) * np.sin(k * grid.dx) / grid.dx,
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(apply_dy(grid, w), 2.0 * np.cos(2.0 * k * yy)
                               * np.sin(2.0 * k * grid.dx) / grid.dx, rtol=0.0, atol=1e-15)


def test_grid_ordering_y_fastest():
    grid = build_grid(3, 3.0)
    xx, yy = grid.meshcoords()
    # entry m = i*n + j holds (x_i, y_j): x repeats in blocks, y cycles
    np.testing.assert_allclose(xx, [0, 0, 0, 1, 1, 1, 2, 2, 2])
    np.testing.assert_allclose(yy, [0, 1, 2, 0, 1, 2, 0, 1, 2])
    # a field that is not symmetric in x and y: row i of its (n, n) view is x_i
    w = (xx + 10.0 * yy).reshape(3, 3)
    np.testing.assert_allclose(w, [[0, 10, 20], [1, 11, 21], [2, 12, 22]])


def test_centered_y_on_a_state_major_batch():
    # a batch stored one state after another, an (n, n, m) view with the
    # state axis outermost, gets the bits of C order; an out whose grid axes
    # do not merge is refused, as the flat write would go to a copy
    w = np.random.default_rng(0).normal(size=(3, 5, 5)).transpose(1, 2, 0)
    out = centered_y(w, np.empty((3, 5, 5)).transpose(1, 2, 0), 0.25)
    np.testing.assert_array_equal(out, centered_y(w.copy(), np.empty((5, 5, 3)), 0.25))
    with pytest.raises(ValueError, match="grid axes"):
        centered_y(w, np.empty((5, 5, 3)).transpose(1, 0, 2), 0.25)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(2, 1.0)
    for length in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            build_grid(8, length)


def test_stencil_rows():
    grid = small_setup(n=7)
    for op, delta in zip(csr_diff_ops(grid), (grid.dx, grid.dx)):
        dense = op.toarray()
        assert np.all(np.count_nonzero(dense, axis=1) == 2)
        vals = np.unique(dense[dense != 0.0])
        np.testing.assert_array_equal(np.sort(vals), [-0.5 / delta, 0.5 / delta])
        # constants are annihilated exactly, per row
        assert np.all(dense.sum(axis=1) == 0.0)


def test_operators_exactly_skew_symmetric():
    grid = small_setup(n=9)
    for op in csr_diff_ops(grid):
        assert (op + op.T).count_nonzero() == 0


def test_kron_orientation():
    # a field constant in y must have an exactly zero y derivative, and the
    # x derivative must couple nodes n apart (one x block), not adjacent ones
    grid = small_setup(n=6)
    xx, yy = grid.meshcoords()
    fx = np.sin(2.0 * np.pi * xx / grid.length)
    fy = np.cos(2.0 * np.pi * yy / grid.length)
    assert np.max(np.abs(apply_dy(grid, fx))) == 0.0
    assert np.max(np.abs(apply_dx(grid, fy))) == 0.0
    assert np.max(np.abs(apply_dx(grid, fx))) > 0.1
    assert np.max(np.abs(apply_dy(grid, fy))) > 0.1


def test_four_node_sine_derivative_frozen_value():
    grid = small_setup(n=4)
    xx, _ = grid.meshcoords()
    deriv = apply_dx(grid, np.sin(xx))
    np.testing.assert_allclose(deriv, TWO_OVER_PI * np.cos(xx), rtol=0.0, atol=1e-16)
    # the peak value itself is the frozen constant
    np.testing.assert_allclose(deriv.max(), TWO_OVER_PI, rtol=0.0, atol=1e-16)


def test_second_order_convergence():
    errs_x = []
    errs_y = []
    for n in (16, 32, 64):
        grid = small_setup(n=n)
        xx, yy = grid.meshcoords()
        w = np.sin(xx) * np.cos(2.0 * yy)
        errs_x.append(np.max(np.abs(apply_dx(grid, w) - np.cos(xx) * np.cos(2.0 * yy))))
        errs_y.append(np.max(np.abs(apply_dy(grid, w) + 2.0 * np.sin(xx) * np.sin(2.0 * yy))))
    for errs in (errs_x, errs_y):
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios > 3.5) and np.all(ratios < 4.5), ratios


def test_apply_rejects_wrong_length():
    grid = small_setup(n=5)
    with pytest.raises(ValueError):
        apply_dx(grid, np.zeros(24))
    with pytest.raises(ValueError):
        apply_dy(grid, np.zeros(26))


def test_operators_match_dense_kron_assembly():
    # independent dense assembly: explicit circulant loops + np.kron
    grid = small_setup(n=5)
    n = grid.n
    c = np.zeros((n, n))
    for i in range(n):
        c[i, (i + 1) % n] = 1.0
        c[i, (i - 1) % n] = -1.0
    dxm = np.kron(c, np.eye(n)) / (2.0 * grid.dx)
    dym = np.kron(np.eye(n), c) / (2.0 * grid.dx)
    eye = np.eye(grid.N)
    np.testing.assert_array_equal(apply_dx(grid, eye), dxm)
    np.testing.assert_array_equal(apply_dy(grid, eye), dym)
    # and the CSR reference the other tests use
    dx, dy = csr_diff_ops(grid)
    np.testing.assert_array_equal(dx.toarray(), dxm)
    np.testing.assert_array_equal(dy.toarray(), dym)


@pytest.mark.parametrize("n", [3, 5, 16])
def test_slice_stencils_match_csr(n):
    grid = small_setup(n=n)
    dx, dy = csr_diff_ops(grid)
    rng = np.random.default_rng(n)
    for shape in ((grid.N,), (grid.N, 3)):
        w = rng.normal(size=shape)
        tol = 1e-15 * np.max(np.abs(w))
        assert np.max(np.abs(apply_dx(grid, w) - dx @ w)) <= tol
        assert np.max(np.abs(apply_dy(grid, w) - dy @ w)) <= tol
        const = np.full(shape, 2.7)
        assert np.max(np.abs(apply_dx(grid, const))) == 0.0
        assert np.max(np.abs(apply_dy(grid, const))) == 0.0
