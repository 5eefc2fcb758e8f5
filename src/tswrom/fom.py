"""Full-order rotating thermal shallow water dynamics.

State and operators follow the noncanonical Hamiltonian form

    dz/dt = -J(z) grad H(z),      z = (h, u, v, s),

with h the fluid depth, (u, v) the velocities, s the buoyancy, and J(z) the
skew-symmetric Poisson operator built from the centered-difference operators,
the potential vorticity q = (v_x - u_y + f)/h and the scaled buoyancy
gradients h^{-1} s_x, h^{-1} s_y. The discrete energy

    H = sum( h^2 s / 2 + h s b + h (u^2 + v^2) / 2 ) dx dy

and the Casimirs (mass, total vorticity, buoyancy) are conserved by the
average vector field (AVF) time discretization

    z^{k+1} = z^k - dt J((z^k + z^{k+1})/2) int_0^1 grad H(z^k + xi dz) dxi,

whose chord integral is evaluated exactly by 2-point Gauss-Legendre because
grad H is quadratic in z. Each implicit step is solved by a Jacobian-free
Newton-Krylov iteration (GMRES on a finite-difference directional
derivative); a dense finite-difference Jacobian path exists for small grids.

Array-level helpers accept either a single packed state of shape (4N,) or a
batch of columns (4N, m); everything downstream of the reduced-order models
leans on that for cheap finite-difference Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import NumericError
from .grid import DiffOps, Grid

__all__ = [
    "State",
    "Physics",
    "NewtonConfig",
    "InvariantValues",
    "FomResult",
    "potential_vorticity",
    "grad_hamiltonian",
    "hamiltonian",
    "apply_poisson",
    "dense_poisson_matrix",
    "rhs",
    "avf_gradient",
    "avf_step",
    "invariants",
    "integrate_fom",
]

# 2-point Gauss-Legendre nodes on [0, 1]; exact for the quadratic chord
# integrand of grad H (degree <= 3 would still be exact).
_GAUSS_NODES = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


@dataclass
class State:
    """Packed prognostic state (h, u, v, s) at a time t.

    The four fields are views into one contiguous vector of length 4N so the
    implicit solver can treat the state as a single unknown.
    """

    z: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.z = np.ascontiguousarray(self.z, dtype=np.float64)
        if self.z.ndim != 1 or self.z.size % 4:
            raise ValueError(f"state vector must be flat with length 4N, got shape {self.z.shape}")

    @property
    def N(self) -> int:
        return self.z.size // 4

    @property
    def h(self) -> np.ndarray:
        return self.z[: self.N]

    @property
    def u(self) -> np.ndarray:
        return self.z[self.N : 2 * self.N]

    @property
    def v(self) -> np.ndarray:
        return self.z[2 * self.N : 3 * self.N]

    @property
    def s(self) -> np.ndarray:
        return self.z[3 * self.N :]

    @classmethod
    def from_fields(cls, h, u, v, s, t: float = 0.0) -> "State":
        return cls(z=np.concatenate([h, u, v, s]), t=t)

    def copy(self) -> "State":
        return State(z=self.z.copy(), t=self.t)


@dataclass(frozen=True)
class Physics:
    """Coriolis parameter f, gravity g, and bottom topography b (length N)."""

    f: float
    g: float
    b: np.ndarray

    @classmethod
    def flat_bottom(cls, f: float, g: float, N: int) -> "Physics":
        return cls(f=float(f), g=float(g), b=np.zeros(N))


@dataclass(frozen=True)
class NewtonConfig:
    """Controls for the implicit AVF solve.

    method "krylov" is the production path (matrix-free GMRES on the
    finite-difference directional derivative); "dense" assembles the full
    finite-difference Jacobian and is only meant for small verification grids.
    """

    tol: float = 1e-11
    max_iter: int = 50
    method: str = "krylov"
    gmres_restart: int = 50
    gmres_maxiter: int = 40


@dataclass(frozen=True)
class InvariantValues:
    energy: float
    mass: float
    vorticity: float
    buoyancy: float

    def as_array(self) -> np.ndarray:
        return np.array([self.energy, self.mass, self.vorticity, self.buoyancy])


@dataclass
class FomResult:
    """Trajectory (4N, K+1), per-step invariants (K+1, 4), and times (K+1,)."""

    trajectory: np.ndarray
    invariants: np.ndarray
    times: np.ndarray

    @property
    def num_steps(self) -> int:
        return self.trajectory.shape[1] - 1

    def state(self, k: int) -> State:
        return State(z=self.trajectory[:, k].copy(), t=float(self.times[k]))


# ---------------------------------------------------------------------------
# array-level core (shape-agnostic: (4N,) or (4N, m))
# ---------------------------------------------------------------------------

def _blocks(z: np.ndarray, N: int):
    return z[:N], z[N : 2 * N], z[2 * N : 3 * N], z[3 * N :]


def _require_positive(h: np.ndarray, what: str) -> None:
    hmin = h.min()
    if not hmin > 0.0:
        idx = int(np.argmin(h if h.ndim == 1 else h.min(axis=1)))
        raise NumericError(f"nonpositive {what} (min {hmin:.6e} at node {idx})")


def _grad_h(z: np.ndarray, b, N: int) -> np.ndarray:
    h, u, v, s = _blocks(z, N)
    out = np.empty_like(z)
    gh, gu, gv, gs = _blocks(out, N)
    if z.ndim == 2:
        b = b[:, None]
    gh[...] = 0.5 * (u * u + v * v) + s * h + b * s
    gu[...] = h * u
    gv[...] = h * v
    gs[...] = 0.5 * h * h + b * h
    return out


def _avf_grad(z_old: np.ndarray, z_new: np.ndarray, b, N: int) -> np.ndarray:
    dz = z_new - z_old
    x1, x2 = _GAUSS_NODES
    return 0.5 * (_grad_h(z_old + x1 * dz, b, N) + _grad_h(z_old + x2 * dz, b, N))


def _apply_j(z: np.ndarray, g: np.ndarray, f: float, dxop, dyop, N: int) -> np.ndarray:
    """J(z) @ g without assembling J. Caller guarantees positive h."""
    h, u, v, s = _blocks(z, N)
    q = (dxop @ v - dyop @ u + f) / h
    c2 = (dxop @ s) / h
    c3 = (dyop @ s) / h
    if g.ndim == 2 and q.ndim == 1:
        q, c2, c3 = q[:, None], c2[:, None], c3[:, None]
    gh, gu, gv, gs = _blocks(g, N)
    out = np.empty_like(g)
    oh, ou, ov, os_ = _blocks(out, N)
    oh[...] = dxop @ gu + dyop @ gv
    ou[...] = dxop @ gh - q * gv - c2 * gs
    ov[...] = dyop @ gh + q * gu - c3 * gs
    os_[...] = c2 * gu + c3 * gv
    return out


def _residual(z_new, z_old, dt, physics: Physics, ops: DiffOps, N: int):
    z_mid = 0.5 * (z_old + z_new)
    _require_positive(z_mid[:N], "midpoint height")
    g = _avf_grad(z_old, z_new, physics.b, N)
    # dz/dt = -J grad H, so the AVF update is z_new = z_old - dt J(mid) gbar.
    return z_new - z_old + dt * _apply_j(z_mid, g, physics.f, ops.dx_op, ops.dy_op, N)


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------

def potential_vorticity(state: State, physics: Physics, ops: DiffOps) -> np.ndarray:
    """q = (v_x - u_y + f) / h; raises NumericError on nonpositive h."""
    _require_positive(state.h, "height")
    return (ops.dx_op @ state.v - ops.dy_op @ state.u + physics.f) / state.h


def grad_hamiltonian(state: State, physics: Physics) -> np.ndarray:
    """Gradient of the discrete energy w.r.t. z, blocks (h, u, v, s).

    The energy itself carries a factor dx dy per cell; the gradient returned
    here is of the plain nodal sum, matching how J consumes it.
    """
    return _grad_h(state.z, physics.b, state.N)


def hamiltonian(state: State, physics: Physics, grid: Grid) -> float:
    h, u, v, s = state.h, state.u, state.v, state.s
    density = 0.5 * h * h * s + h * s * physics.b + 0.5 * h * (u * u + v * v)
    return float(np.sum(density) * grid.cell_area)


def apply_poisson(state: State, physics: Physics, ops: DiffOps, g: np.ndarray) -> np.ndarray:
    """Matrix-free J(z) @ g for a packed gradient-like vector g (length 4N)."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape[0] != state.z.shape[0]:
        raise ValueError(f"gradient length {g.shape[0]} != state length {state.z.shape[0]}")
    _require_positive(state.h, "height")
    return _apply_j(state.z, g, physics.f, ops.dx_op, ops.dy_op, state.N)


def dense_poisson_matrix(state: State, physics: Physics, ops: DiffOps) -> np.ndarray:
    """Assemble J(z) densely (4N x 4N). Verification tool for small grids."""
    N = state.N
    _require_positive(state.h, "height")
    q = np.diag((ops.dx_op @ state.v - ops.dy_op @ state.u + physics.f) / state.h)
    c2 = np.diag((ops.dx_op @ state.s) / state.h)
    c3 = np.diag((ops.dy_op @ state.s) / state.h)
    dx = ops.dx_op.toarray()
    dy = ops.dy_op.toarray()
    zero = np.zeros((N, N))
    return np.block(
        [
            [zero, dx, dy, zero],
            [dx, zero, -q, -c2],
            [dy, q, zero, -c3],
            [zero, c2, c3, zero],
        ]
    )


def rhs(state: State, physics: Physics, ops: DiffOps) -> np.ndarray:
    """Time derivative -J(z) grad H(z), packed (h, u, v, s)."""
    _require_positive(state.h, "height")
    g = _grad_h(state.z, physics.b, state.N)
    return -_apply_j(state.z, g, physics.f, ops.dx_op, ops.dy_op, state.N)


def avf_gradient(z_old: State, z_new: State, physics: Physics) -> np.ndarray:
    """Chord-averaged energy gradient int_0^1 grad H(z_old + xi dz) dxi.

    Exact (2-point Gauss-Legendre) because grad H is quadratic in z.
    """
    return _avf_grad(z_old.z, z_new.z, physics.b, z_old.N)


def invariants(state: State, physics: Physics, grid: Grid, ops: DiffOps) -> InvariantValues:
    """Discrete energy, mass, total vorticity, and total buoyancy."""
    h, u, v, s = state.h, state.u, state.v, state.s
    area = grid.cell_area
    energy = np.sum(0.5 * h * h * s + h * s * physics.b + 0.5 * h * (u * u + v * v)) * area
    mass = np.sum(h) * area
    vort = (np.sum(ops.dx_op @ v) - np.sum(ops.dy_op @ u) + physics.f * grid.N) * area
    buoy = np.sum(h * s) * area
    return InvariantValues(float(energy), float(mass), float(vort), float(buoy))


# ---------------------------------------------------------------------------
# implicit AVF step
# ---------------------------------------------------------------------------

def _solve_newton_krylov(z_old, dt, physics, ops, N, cfg: NewtonConfig):
    z = z_old.copy()
    res = _residual(z, z_old, dt, physics, ops, N)
    scale = max(1.0, float(np.linalg.norm(z_old)))
    sqrt_eps = math.sqrt(np.finfo(np.float64).eps)
    rnorm_prev = None
    for _ in range(cfg.max_iter):
        rnorm = float(np.max(np.abs(res)))
        if rnorm <= cfg.tol:
            return z
        # Eisenstat-Walker-style forcing with conservative clamps.
        if rnorm_prev is None:
            eta = 1e-3
        else:
            eta = min(1e-2, max(1e-8, 0.9 * (rnorm / rnorm_prev) ** 2))
        rnorm_prev = rnorm

        def jacvec(w, z=z, res=res):
            wn = float(np.linalg.norm(w))
            if wn == 0.0:
                return np.zeros_like(w)
            eps = sqrt_eps * scale / wn
            return (_residual(z + eps * w, z_old, dt, physics, ops, N) - res) / eps

        op = LinearOperator((z.size, z.size), matvec=jacvec, dtype=np.float64)
        dz, _ = gmres(
            op, -res, rtol=eta, atol=0.0,
            restart=cfg.gmres_restart, maxiter=cfg.gmres_maxiter,
        )
        z = z + dz
        res = _residual(z, z_old, dt, physics, ops, N)
    if float(np.max(np.abs(res))) <= cfg.tol:
        return z
    raise NumericError(
        f"Newton-Krylov stalled after {cfg.max_iter} iterations; "
        f"last residual {float(np.max(np.abs(res))):.3e} > tol {cfg.tol:g}"
    )


def _solve_newton_dense(z_old, dt, physics, ops, N, cfg: NewtonConfig):
    # Full finite-difference Jacobian; only sensible for small grids (n <= 8).
    z = z_old.copy()
    sqrt_eps = math.sqrt(np.finfo(np.float64).eps)
    for _ in range(cfg.max_iter):
        res = _residual(z, z_old, dt, physics, ops, N)
        rnorm = float(np.max(np.abs(res)))
        if rnorm <= cfg.tol:
            return z
        eps = sqrt_eps * np.maximum(1.0, np.abs(z))
        zpert = z[:, None] + np.diag(eps)
        jac = np.empty((z.size, z.size))
        for i in range(z.size):
            jac[:, i] = (_residual(zpert[:, i], z_old, dt, physics, ops, N) - res) / eps[i]
        try:
            dz = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular dense Newton Jacobian: {exc}") from exc
        z = z + dz
    res = _residual(z, z_old, dt, physics, ops, N)
    if float(np.max(np.abs(res))) <= cfg.tol:
        return z
    raise NumericError(
        f"dense Newton stalled after {cfg.max_iter} iterations; "
        f"last residual {float(np.max(np.abs(res))):.3e} > tol {cfg.tol:g}"
    )


def avf_step(state: State, dt: float, physics: Physics, ops: DiffOps,
             newton: NewtonConfig | None = None) -> State:
    """One implicit AVF step of size dt; conserves the discrete energy.

    A dt of exactly zero returns a copy of the input (the residual vanishes
    at the initial guess).
    """
    cfg = newton or NewtonConfig()
    if cfg.method == "krylov":
        z_new = _solve_newton_krylov(state.z, dt, physics, ops, state.N, cfg)
    elif cfg.method == "dense":
        z_new = _solve_newton_dense(state.z, dt, physics, ops, state.N, cfg)
    else:
        raise ValueError(f"unknown Newton method {cfg.method!r}")
    return State(z=z_new, t=state.t + dt)


def integrate_fom(initial: State, dt: float, num_steps: int, physics: Physics,
                  ops: DiffOps, newton: NewtonConfig | None = None,
                  snapshot_path=None, log_every: int = 0) -> FomResult:
    """March num_steps AVF steps, recording the trajectory and invariants.

    When snapshot_path is given the K+1 states are streamed to disk in the
    packed binary snapshot format as they are produced.
    """
    grid = ops.grid
    if initial.N != grid.N:
        raise ValueError(f"state N={initial.N} does not match grid N={grid.N}")
    traj = np.empty((4 * grid.N, num_steps + 1))
    invs = np.empty((num_steps + 1, 4))
    times = np.empty(num_steps + 1)

    writer = None
    if snapshot_path is not None:
        from .fileio import SnapshotWriter

        writer = SnapshotWriter(snapshot_path, n=grid.n, num_steps=num_steps, dt=dt)

    try:
        state = initial.copy()
        traj[:, 0] = state.z
        invs[0] = invariants(state, physics, grid, ops).as_array()
        times[0] = state.t
        if writer is not None:
            writer.append(state.z)
        for k in range(1, num_steps + 1):
            state = avf_step(state, dt, physics, ops, newton)
            traj[:, k] = state.z
            invs[k] = invariants(state, physics, grid, ops).as_array()
            times[k] = state.t
            if writer is not None:
                writer.append(state.z)
            if log_every and (k % log_every == 0 or k == num_steps):
                drift = abs(invs[k, 0] - invs[0, 0]) / abs(invs[0, 0])
                print(f"  step {k:5d}/{num_steps}  t={state.t:12.1f}  |dH|/H = {drift:.3e}")
    finally:
        if writer is not None:
            writer.close()
    return FomResult(trajectory=traj, invariants=invs, times=times)
