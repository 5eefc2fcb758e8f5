"""Shared builders for the test suite.

Random states are band-limited trigonometric fields, so they are exactly
periodic on the grid and smooth enough that finite-difference cross-checks
are meaningful. Everything O(1)-scaled: structural identities (skewness,
gradient consistency, dual evaluation routes) are checked away from the
geophysical magnitudes, where float64 cancellation would mask real defects.
"""

import numpy as np

from tswrom.fom import Physics, State
from tswrom.grid import build_diff_ops, build_grid

SEED = 20260815


def small_setup(n=8, length=2.0 * np.pi):
    """Grid and difference operators on [0, length)^2."""
    grid = build_grid(n, (0.0, length, 0.0, length))
    return grid, build_diff_ops(grid)


def smooth_field(grid, rng, amplitude=1.0, modes=3):
    """Random band-limited doubly periodic field, O(amplitude)."""
    xx, yy = grid.meshcoords()
    kx = 2.0 * np.pi / grid.lx
    ky = 2.0 * np.pi / grid.ly
    out = np.zeros(grid.N)
    for _ in range(modes):
        ax, ay = rng.integers(1, 4, size=2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
        out += rng.normal() * np.cos(ax * kx * xx + px) * np.cos(ay * ky * yy + py)
    return amplitude * out / modes


def random_state(grid, rng, depth=2.0):
    """Positive-depth O(1) state with smooth random fields."""
    h = depth + smooth_field(grid, rng, 0.6)
    u = smooth_field(grid, rng, 1.0)
    v = smooth_field(grid, rng, 1.0)
    s = 3.0 + smooth_field(grid, rng, 0.8)
    return State.from_fields(h, u, v, s)


def random_physics(grid, rng, flat=False):
    """O(1) physics; a gentle bottom profile unless flat is requested."""
    b = np.zeros(grid.N) if flat else 0.3 + smooth_field(grid, rng, 0.2)
    return Physics(f=0.83, g=1.37, b=b)


# 2-point Gauss-Legendre nodes on [0, 1]: exact for the quadratic chord
# integrand of grad H.
GAUSS_NODES = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def plain_grad_h(z, b):
    """grad H of a packed state (4N,), written out block by block."""
    h, u, v, s = np.split(z, 4)
    return np.concatenate([0.5 * (u * u + v * v) + s * h + b * s,
                           h * u, h * v, 0.5 * h * h + b * h])


def gauss_avf_gradient(z_old, z_new, b):
    """Reference chord mean of grad H by 2-point Gauss-Legendre."""
    dz = z_new - z_old
    x1, x2 = GAUSS_NODES
    return 0.5 * (plain_grad_h(z_old + x1 * dz, b) + plain_grad_h(z_old + x2 * dz, b))


def gauss_avf_residual(z_new, z_old, dt, physics, ops):
    """Reference AVF residual z_new - z_old + dt J(mid) gbar, with CSR
    stencils and the Gauss chord mean."""
    h, u, v, s = np.split(0.5 * (z_old + z_new), 4)
    dx, dy = ops.dx_op, ops.dy_op
    q = (dx @ v - dy @ u + physics.f) / h
    c2 = (dx @ s) / h
    c3 = (dy @ s) / h
    gh, gu, gv, gs = np.split(gauss_avf_gradient(z_old, z_new, physics.b), 4)
    jg = np.concatenate([dx @ gu + dy @ gv,
                         dx @ gh - q * gv - c2 * gs,
                         dy @ gh + q * gu - c3 * gs,
                         c2 * gu + c3 * gv])
    return z_new - z_old + dt * jg
