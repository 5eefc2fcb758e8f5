"""Shared builders for the test suite.

Random states are band-limited trigonometric fields, so they are exactly
periodic on the grid and smooth enough that finite-difference cross-checks
are meaningful. Everything O(1)-scaled: structural identities (skewness,
gradient consistency, dual evaluation routes) are checked away from the
geophysical magnitudes, where float64 cancellation would mask real defects.
"""

import numpy as np

from tswrom.errors import NumericError
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


def plain_apply_j(mid, g, physics, ops):
    """Reference J(mid) g for packed (4N,) vectors, with CSR stencils."""
    h, u, v, s = np.split(mid, 4)
    dx, dy = ops.dx_op, ops.dy_op
    q = (dx @ v - dy @ u + physics.f) / h
    c2 = (dx @ s) / h
    c3 = (dy @ s) / h
    gh, gu, gv, gs = np.split(g, 4)
    return np.concatenate([dx @ gu + dy @ gv,
                           dx @ gh - q * gv - c2 * gs,
                           dy @ gh + q * gu - c3 * gs,
                           c2 * gu + c3 * gv])


def gauss_avf_residual(z_new, z_old, dt, physics, ops):
    """Reference AVF residual z_new - z_old + dt J(mid) gbar, with CSR
    stencils and the Gauss chord mean."""
    gbar = gauss_avf_gradient(z_old, z_new, physics.b)
    return z_new - z_old + dt * plain_apply_j(0.5 * (z_old + z_new), gbar, physics, ops)


def rom_rhs_pod_only(basis, z_r, physics, ops):
    """Reference Galerkin reduced time derivative -V^T J(w) V V^T grad H(w)
    at the lift w of reduced coefficients z_r (4r,), with CSR stencils."""
    N = basis.N
    lifted = basis.lift_array(z_r)
    g = plain_grad_h(lifted, physics.b)
    gproj = np.concatenate(
        [basis.modes[i] @ (basis.modes[i].T @ g[i * N : (i + 1) * N]) for i in range(4)])
    jg = plain_apply_j(lifted, gproj, physics, ops)
    return -np.concatenate([basis.modes[i].T @ jg[i * N : (i + 1) * N] for i in range(4)])


def deim_apply(op, state, physics, ops):
    """Reference sampled coefficient P_j^T F_j(state), j = 1..3, from the
    CSR stencil rows of the selected nodes only."""
    idx = op.indices
    h = state.z[idx]
    if not h.min() > 0.0:
        raise NumericError(f"nonpositive sampled height for F{op.j}")
    if op.j == 1:
        return (ops.dx_op[idx, :] @ state.v - ops.dy_op[idx, :] @ state.u + physics.f) / h
    if op.j == 2:
        return (ops.dx_op[idx, :] @ state.s) / h
    return (ops.dy_op[idx, :] @ state.s) / h
