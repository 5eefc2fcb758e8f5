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

    z^{k+1} = z^k - dt J(m) gbar,     m = (z^k + z^{k+1}) / 2,
    gbar = int_0^1 grad H(z^k + xi dz) dxi = grad H(m) + Q(dz) / 12.

The chord mean is exact in closed form because grad H is quadratic in z: Q
is its purely quadratic part, Q(dz) = ((du^2 + dv^2)/2 + dh ds, dh du,
dh dv, dh^2/2), and the term linear in (xi - 1/2) integrates to zero.

Each implicit step is solved by a Jacobian-free Newton-Krylov iteration:
restarted GMRES (gmres below: classical Gram-Schmidt, Givens rotations) on a
finite-difference directional derivative of the residual. One residual
object per step holds z^k and evaluates the residual on (4, n, n) views
with periodic slice-difference stencils, writing into its own buffers.
integrate_fom starts each Newton solve from the extrapolation
2 z^k - z^{k-1}. A dense
finite-difference Jacobian path exists for small grids.

The Poisson operator also applies to a batch of gradient-like columns
(4N, m), which the reduced-order checks use to assemble V^T J V. Its
kernels take one J per column as well: the Galerkin reduced model applies
J at a batch of midpoints with them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import LinearOperator

from .errors import NumericError
from .grid import DiffOps, Grid, apply_dx, apply_dy, centered_x, centered_y

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
    "gmres",
    "avf_step",
    "invariants",
    "integrate_fom",
]

_log = logging.getLogger(__name__)


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
# array-level core on (4, ...) block views of packed states
# ---------------------------------------------------------------------------

def _blocks(z: np.ndarray, n: int) -> np.ndarray:
    """(4, n, n[, m]) view of a packed state (4N,) or batch (4N, m)."""
    return z.reshape((4, n, n) + z.shape[1:])


def _require_positive(h: np.ndarray, what: str) -> None:
    hmin = h.min()
    if not hmin > 0.0:
        # the first two indices of an (n, n[, m]) height field give the node
        i, j = np.unravel_index(int(np.argmin(h)), h.shape)[:2]
        raise NumericError(f"nonpositive {what} (min {hmin:.6e} at node {i * h.shape[1] + j})")


def _chord_gradient(mid, dz, b, out, tmp):
    """out = grad H(mid) + Q(dz)/12 on (4, ...) blocks, or grad H(mid) if dz
    is None. With mid = z_old + dz/2 this is the exact chord mean of grad H
    from z_old to z_old + dz. tmp is (2, ...) scratch."""
    h, u, v, s = mid
    gh, gu, gv, gs = out
    t, e = tmp
    np.multiply(u, u, out=gh)
    np.multiply(v, v, out=t)
    gh += t
    gh *= 0.5
    np.add(h, b, out=t)
    t *= s
    gh += t                                  # (u^2 + v^2)/2 + s (h + b)
    np.multiply(h, u, out=gu)
    np.multiply(h, v, out=gv)
    np.multiply(h, 0.5, out=gs)
    gs += b
    gs *= h                                  # h (h/2 + b)
    if dz is None:
        return out
    dh, du, dv, ds = dz
    np.multiply(dh, 1.0 / 12.0, out=e)
    np.multiply(e, du, out=t)
    gu += t
    np.multiply(e, dv, out=t)
    gv += t
    np.multiply(e, ds, out=t)
    gh += t
    np.multiply(e, dh, out=t)
    t *= 0.5
    gs += t
    np.multiply(du, du, out=t)
    np.multiply(dv, dv, out=e)
    t += e
    t *= 1.0 / 24.0
    gh += t
    return out


def _poisson_coefficients(mid, f, sx, sy, out, tmp, scale=1.0):
    """out = scale (q, c2, c3) of J(mid) on (n, n[, m]) views:
    q = (v_x - u_y + f)/h, c2 = s_x/h, c3 = s_y/h, with stencil scales
    sx = 1/(2dx), sy = 1/(2dy). Caller guarantees positive h; tmp is scratch
    of one field's shape."""
    h, u, v, s = mid
    q, c2, c3 = out
    centered_x(v, q, sx)
    centered_y(u, c3, sy)
    q -= c3
    q += f
    centered_x(s, c2, sx)
    centered_y(s, c3, sy)
    np.divide(scale, h, out=tmp)
    out *= tmp
    return out


def _apply_j(coef, g, out, sx, sy, tmp):
    """out = J g on (4, n, n[, m]) blocks, J given by its coefficients
    coef = (q, c2, c3) and the stencil scales sx, sy. coef is (3, n, n),
    shared by all m columns, or (3, n, n, m), one J per column.
    Coefficients and scales that carry a common factor give that multiple
    of J g. tmp is scratch of one block's shape."""
    if coef.ndim < g.ndim:
        coef = coef[..., None]
    q, c2, c3 = coef
    gh, gu, gv, gs = g
    oh, ou, ov, os_ = out
    centered_x(gu, oh, sx)
    centered_y(gv, tmp, sy)
    oh += tmp
    centered_x(gh, ou, sx)
    np.multiply(q, gv, out=tmp)
    ou -= tmp
    np.multiply(c2, gs, out=tmp)
    ou -= tmp
    centered_y(gh, ov, sy)
    np.multiply(q, gu, out=tmp)
    ov += tmp
    np.multiply(c3, gs, out=tmp)
    ov -= tmp
    np.multiply(c2, gu, out=os_)
    np.multiply(c3, gv, out=tmp)
    os_ += tmp
    return out


def _coefficients(z: np.ndarray, f: float, grid: Grid, scale: float = 1.0,
                  what: str = "height") -> np.ndarray:
    """scale (q, c2, c3) of J(z) as (3, n, n[, m]) for a packed state (4N,)
    or batch (4N, m); raises on nonpositive height, naming it what."""
    z4 = _blocks(z, grid.n)
    _require_positive(z4[0], what)
    return _poisson_coefficients(z4, f, 0.5 / grid.dx, 0.5 / grid.dy,
                                 np.empty((3,) + z4.shape[1:]), np.empty(z4.shape[1:]), scale)


def _poisson(z: np.ndarray, g: np.ndarray, f: float, grid: Grid,
             scale: float = 1.0) -> np.ndarray:
    """scale J(z) g for a packed state z and g of shape (4N,) or (4N, m)."""
    n = grid.n
    coef = _coefficients(z, f, grid, scale)
    g4 = _blocks(np.ascontiguousarray(g, dtype=np.float64), n)
    out = np.empty(g.shape)
    _apply_j(coef, g4, _blocks(out, n), scale * 0.5 / grid.dx, scale * 0.5 / grid.dy,
             np.empty(g4.shape[1:]))
    return out


def _gradient(mid: np.ndarray, dz, b: np.ndarray) -> np.ndarray:
    """_chord_gradient on flat packed states (4N,)."""
    N = b.size
    out = np.empty(mid.shape)
    _chord_gradient(mid.reshape(4, N), None if dz is None else dz.reshape(4, N), b,
                    out.reshape(4, N), np.empty((2, N)))
    return out


class _AvfResidual:
    """AVF residual of one step from z_old,

        R(z) = z - z_old + dt J(m) gbar,   m = (z_old + z)/2,
        gbar = grad H(m) + Q(z - z_old)/12,

    evaluated on (4, n, n) views into buffers this object owns. dt is folded
    into the coefficients and stencil scales of J. Every call checks the
    midpoint height."""

    def __init__(self, z_old: np.ndarray, dt: float, physics: Physics, grid: Grid):
        n = grid.n
        self.z_old = z_old
        self.n = n
        self.dt = dt
        self.f = physics.f
        self.b = physics.b.reshape(n, n)
        self.sx = 0.5 / grid.dx
        self.sy = 0.5 / grid.dy
        self._mid = np.empty(z_old.shape)
        self._dz = np.empty(z_old.shape)
        self._grad = np.empty((4, n, n))
        self._coef = np.empty((3, n, n))
        self._tmp = np.empty((2, n, n))

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """R(z) for a packed state z (4N,), as a new array."""
        n, dt = self.n, self.dt
        mid, dz, tmp = self._mid, self._dz, self._tmp
        np.add(self.z_old, z, out=mid)
        mid *= 0.5
        np.subtract(z, self.z_old, out=dz)
        mid4 = _blocks(mid, n)
        _require_positive(mid4[0], "midpoint height")
        _poisson_coefficients(mid4, self.f, self.sx, self.sy, self._coef, tmp[0], dt)
        _chord_gradient(mid4, _blocks(dz, n), self.b, self._grad, tmp)
        out = np.empty(z.shape)
        # dz/dt = -J grad H, so the AVF update is z = z_old - dt J(m) gbar
        _apply_j(self._coef, self._grad, _blocks(out, n), dt * self.sx, dt * self.sy, tmp[0])
        out += dz
        return out


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------

def potential_vorticity(state: State, physics: Physics, ops: DiffOps) -> np.ndarray:
    """q = (v_x - u_y + f) / h; raises NumericError on nonpositive h."""
    return _coefficients(state.z, physics.f, ops.grid)[0].reshape(state.N)


def grad_hamiltonian(state: State, physics: Physics) -> np.ndarray:
    """Gradient of the discrete energy w.r.t. z, blocks (h, u, v, s).

    The energy itself carries a factor dx dy per cell; the gradient returned
    here is of the plain nodal sum, matching how J consumes it.
    """
    return _gradient(state.z, None, physics.b)


def hamiltonian(state: State, physics: Physics, grid: Grid) -> float:
    h, u, v, s = state.h, state.u, state.v, state.s
    density = 0.5 * h * h * s + h * s * physics.b + 0.5 * h * (u * u + v * v)
    return float(np.sum(density) * grid.cell_area)


def apply_poisson(state: State, physics: Physics, ops: DiffOps, g: np.ndarray) -> np.ndarray:
    """Matrix-free J(z) @ g for a packed gradient-like g, (4N,) or (4N, m)."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape[0] != state.z.shape[0]:
        raise ValueError(f"gradient length {g.shape[0]} != state length {state.z.shape[0]}")
    return _poisson(state.z, g, physics.f, ops.grid)


def dense_poisson_matrix(state: State, physics: Physics, ops: DiffOps) -> np.ndarray:
    """Assemble J(z) densely (4N x 4N) as J applied to the identity.
    Verification tool for small grids."""
    return _poisson(state.z, np.eye(4 * state.N), physics.f, ops.grid)


def rhs(state: State, physics: Physics, ops: DiffOps) -> np.ndarray:
    """Time derivative -J(z) grad H(z), packed (h, u, v, s)."""
    return _poisson(state.z, grad_hamiltonian(state, physics), physics.f, ops.grid, -1.0)


def avf_gradient(z_old: State, z_new: State, physics: Physics) -> np.ndarray:
    """Chord-averaged energy gradient int_0^1 grad H(z_old + xi dz) dxi,
    in closed form grad H(m) + Q(dz)/12 (exact: grad H is quadratic in z)."""
    dz = z_new.z - z_old.z
    return _gradient(z_old.z + 0.5 * dz, dz, physics.b)


def invariants(state: State, physics: Physics, grid: Grid, ops: DiffOps) -> InvariantValues:
    """Discrete energy, mass, total vorticity, and total buoyancy."""
    h, u, v, s = state.h, state.u, state.v, state.s
    area = grid.cell_area
    energy = hamiltonian(state, physics, grid)
    mass = np.sum(h) * area
    vort = (np.sum(apply_dx(ops, v)) - np.sum(apply_dy(ops, u)) + physics.f * grid.N) * area
    buoy = np.sum(h * s) * area
    return InvariantValues(float(energy), float(mass), float(vort), float(buoy))


# ---------------------------------------------------------------------------
# Krylov solver
# ---------------------------------------------------------------------------

def gmres(A, b: np.ndarray, *, rtol: float, restart: int, maxiter: int):
    """Solve A x = b by restarted GMRES(restart) from x = 0.

    A needs only a matvec method, whose result gmres may overwrite. Each
    cycle extends an Arnoldi basis by classical Gram-Schmidt (two
    matrix-vector products with the basis) and reduces the Hessenberg matrix
    by Givens rotations, which gives the residual norm of the current iterate
    without a matvec. A cycle ends once that estimate is at most rtol ||b||,
    or after restart vectors; at most maxiter cycles run, and each restart
    forms the true residual with one matvec.

    Returns (x, info): info is 0 on convergence, else the matvecs spent.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    tol = rtol * float(np.linalg.norm(b))
    V = np.empty((restart + 1, b.size))
    R = np.zeros((restart, restart))
    r = b
    matvecs = 0
    for cycle in range(maxiter):
        if cycle:
            r = b - A.matvec(x)
            matvecs += 1
        beta = float(np.linalg.norm(r))
        if beta <= tol:
            return x, 0
        np.multiply(r, 1.0 / beta, out=V[0])
        g = [beta]
        cs: list[float] = []
        sn: list[float] = []
        for j in range(restart):
            w = A.matvec(V[j])
            matvecs += 1
            h = V[: j + 1] @ w
            w -= h @ V[: j + 1]
            hn = float(np.linalg.norm(w))
            col = h.tolist()
            for i in range(j):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            denom = math.hypot(col[j], hn)
            if denom == 0.0:
                raise NumericError("GMRES breakdown: singular Krylov matrix")
            cs.append(col[j] / denom)
            sn.append(hn / denom)
            col[j] = denom
            R[: j + 1, j] = col
            g.append(-sn[j] * g[j])
            g[j] *= cs[j]
            if abs(g[j + 1]) <= tol:
                break
            np.multiply(w, 1.0 / hn, out=V[j + 1])
        k = len(cs)
        y = solve_triangular(R[:k, :k], g[:k], check_finite=False)
        x += y @ V[:k]
        if abs(g[k]) <= tol:
            return x, 0
    return x, matvecs


# ---------------------------------------------------------------------------
# implicit AVF step
# ---------------------------------------------------------------------------

def _solve_newton_krylov(residual: _AvfResidual, z, cfg: NewtonConfig):
    res = residual(z)
    scale = max(1.0, float(np.linalg.norm(residual.z_old)))
    sqrt_eps = math.sqrt(np.finfo(np.float64).eps)
    z_pert = np.empty_like(z)
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
            np.multiply(w, eps, out=z_pert)
            np.add(z_pert, z, out=z_pert)
            out = residual(z_pert)
            out -= res
            out /= eps
            return out

        op = LinearOperator((z.size, z.size), matvec=jacvec, dtype=np.float64)
        dz, _ = gmres(op, -res, rtol=eta, restart=cfg.gmres_restart,
                      maxiter=cfg.gmres_maxiter)
        z = z + dz
        res = residual(z)
    if float(np.max(np.abs(res))) <= cfg.tol:
        return z
    raise NumericError(
        f"Newton-Krylov stalled after {cfg.max_iter} iterations; "
        f"last residual {float(np.max(np.abs(res))):.3e} > tol {cfg.tol:g}"
    )


def _solve_newton_dense(residual: _AvfResidual, z, cfg: NewtonConfig):
    # Full finite-difference Jacobian; only sensible for small grids (n <= 8).
    sqrt_eps = math.sqrt(np.finfo(np.float64).eps)
    for _ in range(cfg.max_iter):
        res = residual(z)
        rnorm = float(np.max(np.abs(res)))
        if rnorm <= cfg.tol:
            return z
        eps = sqrt_eps * np.maximum(1.0, np.abs(z))
        jac = np.empty((z.size, z.size))
        for i in range(z.size):
            z_pert = z.copy()
            z_pert[i] += eps[i]
            jac[:, i] = (residual(z_pert) - res) / eps[i]
        try:
            dz = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular dense Newton Jacobian: {exc}") from exc
        z = z + dz
    res = residual(z)
    if float(np.max(np.abs(res))) <= cfg.tol:
        return z
    raise NumericError(
        f"dense Newton stalled after {cfg.max_iter} iterations; "
        f"last residual {float(np.max(np.abs(res))):.3e} > tol {cfg.tol:g}"
    )


def avf_step(state: State, dt: float, physics: Physics, ops: DiffOps,
             newton: NewtonConfig | None = None, *,
             guess: np.ndarray | None = None) -> State:
    """One implicit AVF step of size dt; conserves the discrete energy.

    Newton starts from guess, a packed state, when given and its midpoint
    height with the input is positive everywhere; otherwise it starts from
    the input state. A dt of exactly zero returns a copy of the input (the
    residual vanishes at that start).
    """
    cfg = newton or NewtonConfig()
    if cfg.method not in ("krylov", "dense"):
        raise ValueError(f"unknown Newton method {cfg.method!r}")
    z_old = state.z
    z = z_old.copy()
    if guess is not None:
        guess = np.asarray(guess, dtype=np.float64)
        if guess.shape != z_old.shape:
            raise ValueError(f"guess shape {guess.shape} != state shape {z_old.shape}")
        if np.min(z_old[: state.N] + guess[: state.N]) > 0.0:
            z = guess.copy()
    residual = _AvfResidual(z_old, dt, physics, ops.grid)
    if cfg.method == "krylov":
        z_new = _solve_newton_krylov(residual, z, cfg)
    else:
        z_new = _solve_newton_dense(residual, z, cfg)
    return State(z=z_new, t=state.t + dt)


def integrate_fom(initial: State, dt: float, num_steps: int, physics: Physics,
                  ops: DiffOps, newton: NewtonConfig | None = None,
                  snapshot_path=None, log_every: int = 0) -> FomResult:
    """March num_steps AVF steps, recording the trajectory and invariants.

    Each step after the first starts Newton from the extrapolation
    2 z^k - z^{k-1}. When
    snapshot_path is given the K+1 states are streamed to disk in the packed
    binary snapshot format as they are produced. With log_every > 0, every
    log_every-th step and the last are logged at INFO level to the
    tswrom.fom logger; they are shown only where a handler takes INFO
    records, such as logging.basicConfig(level=logging.INFO) or
    bench.progress_to_stdout.
    """
    grid = ops.grid
    if initial.N != grid.N:
        raise ValueError(f"state N={initial.N} does not match grid N={grid.N}")
    cfg = newton or NewtonConfig()
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
            guess = None if k == 1 else 2.0 * state.z - traj[:, k - 2]
            state = avf_step(state, dt, physics, ops, cfg, guess=guess)
            traj[:, k] = state.z
            invs[k] = invariants(state, physics, grid, ops).as_array()
            times[k] = state.t
            if writer is not None:
                writer.append(state.z)
            if log_every and (k % log_every == 0 or k == num_steps):
                drift = abs(invs[k, 0] - invs[0, 0]) / abs(invs[0, 0])
                _log.info("  step %5d/%d  t=%12.1f  |dH|/H = %.3e",
                          k, num_steps, state.t, drift)
    finally:
        if writer is not None:
            writer.close()
    return FomResult(trajectory=traj, invariants=invs, times=times)
