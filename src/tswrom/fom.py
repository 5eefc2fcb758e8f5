"""Full-order rotating thermal shallow water dynamics.

A full-order state is one packed float64 array z of shape (4N,), the blocks
h, u, v and s of N nodes each. The dynamics take the noncanonical
Hamiltonian form

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

Each implicit step is solved by newton below, the package's one Newton
loop, from the start that march, the package's one time loop, extrapolates
with the degree-8 polynomial through the last nine states, or from z^k when
the residual's midpoint height check refuses that start. Degree 8 is the
measured floor of the residuals per step: above it the start's rounding,
which grows like 2^(d+1) - 1 with the degree d, costs more than the closer
prediction saves. The full model's correction rule, krylov_correction,
runs restarted GMRES (gmres: classical Gram-Schmidt, Givens rotations) on a
finite-difference directional derivative of the residual to the
Eisenstat-Walker forcing term, clamped to [1e-8, 1e-2] and floored at
min(0.5, 0.5 tol / ||R||_max), so the last correction is not solved far
past the Newton tolerance tol. One residual object per step holds z^k and
evaluates the residual on (4, n, n) views with periodic slice-difference
stencils, writing into its own buffers.

J's coefficients also evaluate at a batch of states (4N, m): the DEIM
snapshots take F1..F3 from them, and so do the tests' oracles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import LinearOperator

from .errors import NumericError
from .grid import Grid, apply_dx, apply_dy, centered_x, centered_y

__all__ = [
    "Physics",
    "FomResult",
    "potential_vorticity",
    "grad_hamiltonian",
    "hamiltonian",
    "gmres",
    "krylov_correction",
    "newton",
    "march",
    "avf_step",
    "invariants",
    "integrate_fom",
]

_log = logging.getLogger(__name__)

# max-norm tolerance on the AVF residual and iteration limit of the implicit solve
_NEWTON_TOL = 1e-11
_NEWTON_MAXITER = 50

# integrate_fom's progress interval in steps
_LOG_EVERY = 50

# degree of march's extrapolated Newton start, the measured floor of the
# residuals per step (see march), and the weights of the degree-d start
_START_DEGREE = 8
_START_WEIGHTS = [np.array([(-1) ** j * math.comb(d + 1, j + 1) for j in range(d + 1)], float)
                  for d in range(_START_DEGREE + 1)]


@dataclass(frozen=True)
class Physics:
    """Coriolis parameter f and bottom topography b (length N)."""

    f: float
    b: np.ndarray


@dataclass
class FomResult:
    """Trajectory (4N, K+1) and per-step invariants (K+1, 4); state k is
    at time k dt."""

    trajectory: np.ndarray
    invariants: np.ndarray


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
        kind = "nonpositive" if hmin <= 0.0 else "non-finite"
        raise NumericError(f"{kind} {what} (min {hmin:.6e} at node {i * h.shape[1] + j})")


def _require_shape(z: np.ndarray, size: int, fits: str) -> None:
    """Refuse a state whose shape is not (size,), naming both shapes."""
    if np.shape(z) != (size,):
        raise ValueError(f"state shape {np.shape(z)} does not fit {fits}: expected ({size},)")


def _require_finite(z: np.ndarray, what: str, index: str = "node") -> None:
    """Name the block (h, u, v or s) and the index within it of the first
    non-finite entry of a packed state, full (index "node") or reduced."""
    if not np.isfinite(z).all():
        i = int(np.argmin(np.isfinite(z)))
        block, j = divmod(i, z.size // 4)
        raise NumericError(f"non-finite {what} {'huvs'[block]} ({z[i]}) at {index} {j}")


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


def _poisson_coefficients(mid, f, sc, out, tmp, scale=1.0):
    """out = scale (q, c2, c3) of J(mid) on (n, n[, m]) views:
    q = (v_x - u_y + f)/h, c2 = s_x/h, c3 = s_y/h, with the stencil scale
    sc = 1/(2dx) of both axes. Caller guarantees positive h; tmp is scratch
    of one field's shape."""
    h, u, v, s = mid
    q, c2, c3 = out
    centered_x(v, q, sc)
    centered_y(u, c3, sc)
    q -= c3
    q += f
    centered_x(s, c2, sc)
    centered_y(s, c3, sc)
    np.divide(scale, h, out=tmp)
    out *= tmp
    return out


def _apply_j(coef, g, out, sc, tmp):
    """out = J g on (4, n, n[, m]) blocks, J given by its coefficients
    coef = (q, c2, c3), (3, n, n) and shared by all m columns, and the
    stencil scale sc of both axes. Coefficients and a scale that carry a
    common factor give that multiple of J g. tmp is scratch of one block's
    shape."""
    if coef.ndim < g.ndim:
        coef = coef[..., None]
    q, c2, c3 = coef
    gh, gu, gv, gs = g
    oh, ou, ov, os_ = out
    centered_x(gu, oh, sc)
    centered_y(gv, tmp, sc)
    oh += tmp
    centered_x(gh, ou, sc)
    np.multiply(q, gv, out=tmp)
    ou -= tmp
    np.multiply(c2, gs, out=tmp)
    ou -= tmp
    centered_y(gh, ov, sc)
    np.multiply(q, gu, out=tmp)
    ov += tmp
    np.multiply(c3, gs, out=tmp)
    ov -= tmp
    np.multiply(c2, gu, out=os_)
    np.multiply(c3, gv, out=tmp)
    os_ += tmp
    return out


def _coefficients(z: np.ndarray, f: float, grid: Grid, what: str = "height") -> np.ndarray:
    """(q, c2, c3) of J(z) as (3, n, n[, m]) for a packed state (4N,) or
    batch (4N, m); raises on nonpositive height, naming it what."""
    z4 = _blocks(z, grid.n)
    _require_positive(z4[0], what)
    return _poisson_coefficients(z4, f, 0.5 / grid.dx, np.empty((3,) + z4.shape[1:]),
                                 np.empty(z4.shape[1:]))


class _AvfResidual:
    """AVF residual of one step from z_old,

        R(z) = z - z_old + dt J(m) gbar,   m = (z_old + z)/2,
        gbar = grad H(m) + Q(z - z_old)/12,

    evaluated on (4, n, n) views into buffers this object owns. dt is folded
    into the coefficients and stencil scale of J. Every call checks the
    midpoint height."""

    def __init__(self, z_old: np.ndarray, dt: float, physics: Physics, grid: Grid):
        n = grid.n
        self.z_old = z_old
        self.n = n
        self.dt = dt
        self.f = physics.f
        self.b = physics.b.reshape(n, n)
        self.sc = 0.5 / grid.dx
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
        _poisson_coefficients(mid4, self.f, self.sc, self._coef, tmp[0], dt)
        _chord_gradient(mid4, _blocks(dz, n), self.b, self._grad, tmp)
        out = np.empty(z.shape)
        # dz/dt = -J grad H, so the AVF update is z = z_old - dt J(m) gbar
        _apply_j(self._coef, self._grad, _blocks(out, n), dt * self.sc, tmp[0])
        out += dz
        return out


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------

def potential_vorticity(z: np.ndarray, physics: Physics, grid: Grid) -> np.ndarray:
    """q = (v_x - u_y + f) / h of a packed state (4N,); raises NumericError
    on nonpositive h."""
    return _coefficients(z, physics.f, grid)[0].reshape(-1)


def grad_hamiltonian(z: np.ndarray, physics: Physics) -> np.ndarray:
    """Gradient of the discrete energy w.r.t. a packed state z, blocks (h, u, v, s).

    The energy itself carries a factor dx dy per cell; the gradient returned
    here is of the plain nodal sum, matching how J consumes it.
    """
    N = z.size // 4
    out = np.empty(z.shape)
    _chord_gradient(z.reshape(4, N), None, physics.b, out.reshape(4, N), np.empty((2, N)))
    return out


def hamiltonian(z: np.ndarray, physics: Physics, grid: Grid) -> float:
    h, u, v, s = z.reshape(4, -1)
    density = 0.5 * h * h * s + h * s * physics.b + 0.5 * h * (u * u + v * v)
    return float(np.sum(density) * grid.cell_area)


def invariants(z: np.ndarray, physics: Physics, grid: Grid) -> np.ndarray:
    """Discrete energy, mass, total vorticity and total buoyancy of a packed
    state, as (4,)."""
    h, u, v, s = z.reshape(4, -1)
    area = grid.cell_area
    energy = hamiltonian(z, physics, grid)
    mass = np.sum(h) * area
    vort = (np.sum(apply_dx(grid, v)) - np.sum(apply_dy(grid, u)) + physics.f * grid.N) * area
    buoy = np.sum(h * s) * area
    return np.array([energy, mass, vort, buoy])


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
            # h @ V[:1] takes numpy's slow matmul path; the scalar product
            # gives the same bits
            w -= h[0] * V[0] if j == 0 else h @ V[: j + 1]
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


# Every Krylov correction is one GMRES(_GMRES_RESTART) solve of at most
# _GMRES_MAXITER cycles.
_GMRES_RESTART = 50
_GMRES_MAXITER = 40


def krylov_correction(residual, scale: float, tol: float):
    """Jacobian-free Newton-Krylov correction rule for newton: gmres on
    J dz = -R to the relative tolerance eta, the Eisenstat-Walker term
    0.9 (||R_k|| / ||R_{k-1}||)^2 (1e-3 at first) clamped to [1e-8, 1e-2],
    then raised to min(0.5, 0.5 tol / ||R_k||), all in the max-norm (Kelley
    1995, 6.3). J w is the forward difference of residual along w at step
    sqrt(eps) scale / ||w||_2. info is gmres's: 0, or the matvecs spent.
    """
    sqrt_eps = math.sqrt(np.finfo(np.float64).eps)

    def correct(z, res, rnorm, rnorm_prev):
        if rnorm_prev is None:
            eta = 1e-3
        else:
            eta = min(1e-2, max(1e-8, 0.9 * (rnorm / rnorm_prev) ** 2))
        eta = max(eta, min(0.5, 0.5 * tol / rnorm))
        z_pert = np.empty_like(z)

        def jacvec(w):
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
        return gmres(op, -res, rtol=eta, restart=_GMRES_RESTART, maxiter=_GMRES_MAXITER)

    return correct


def newton(residual, z: np.ndarray, tol: float, max_iter: int, label: str, correct,
           fallback: np.ndarray | None = None) -> np.ndarray:
    """Solve residual(z) = 0 by Newton corrections from z; returns a new array.

    residual maps a flat vector to a new array, which the loop and correct
    may overwrite. correct(z, res, rnorm, rnorm_prev) returns (dz, info) at
    z, with res = residual(z), rnorm = max |res| and rnorm_prev the max |R|
    before the last correction (None before the first); info is 0 unless an
    inner solve did not converge. A z whose shape differs from fallback's
    raises ValueError before any residual. When residual refuses z with
    NumericError, the loop starts from fallback, and a refused fallback
    raises. It stops once max |R| <= tol, and raises NumericError naming
    label at once on a non-finite max |R|, when a correction with nonzero
    info leaves max |R| at or above 0.9 times its value before (Kelley 2003,
    nsoli's failure exits), and after max_iter corrections without
    convergence.
    """
    if fallback is not None and np.shape(z) != fallback.shape:
        raise ValueError(f"start shape {np.shape(z)} != state shape {fallback.shape}")
    try:
        res = residual(z)
    except NumericError:
        if fallback is None:
            raise
        z = fallback
        res = residual(z)
    z = z.copy()
    rnorm = float(np.max(np.abs(res)))
    rnorm_prev = None
    for it in range(max_iter + 1):
        if not math.isfinite(rnorm):
            raise NumericError(f"{label}: non-finite residual (max |R| = {rnorm}) "
                               f"after {it} iterations")
        if rnorm <= tol:
            return z
        if it == max_iter:
            break
        dz, info = correct(z, res, rnorm, rnorm_prev)
        z = z + dz
        res = residual(z)
        rnorm_prev, rnorm = rnorm, float(np.max(np.abs(res)))
        if info and not rnorm < 0.9 * rnorm_prev:
            raise NumericError(
                f"{label} stalled at iteration {it + 1}: GMRES did not converge in "
                f"{info} matvecs and max |R| went {rnorm_prev:.3e} -> {rnorm:.3e}")
    raise NumericError(f"{label} stalled after {max_iter} iterations; "
                       f"last residual {rnorm:.3e} > tol {tol:.3e}")


# ---------------------------------------------------------------------------
# time loop
# ---------------------------------------------------------------------------

def march(step, z0: np.ndarray, num_steps: int):
    """Yield z^0 = z0 and then z^{k+1} = step(z^k, start) for num_steps steps.

    start is the Newton start of the step: None on the first step, where the
    step starts from its input, and on every later one the polynomial
    through the last d + 1 states evaluated one step ahead (Hairer & Wanner,
    Solving ODEs II, IV.8),

        start = sum_{j=0..d} (-1)^j C(d+1, j+1) z^{k-j},   d = min(k, 8),

    that is 2 z^1 - z^0 on the second step, 3 z^k - 3 z^{k-1} + z^{k-2} on
    the third and degree 8 from the ninth on. The weights' magnitudes sum to
    2^(d+1) - 1, the growth of the start's rounding: at the benchmark
    configurations (n = 64 and 100, r = 5, p = 35) both reduced models need
    2.02 residuals per step at d = 8, against 4.2 at d = 2 and 2.1-2.2 at
    d = 9, and the count rises further with d. A step starts from z^k
    instead when its residual's own height check refuses start. Besides z0,
    march holds only the last nine states. A NumericError of step k is
    raised again as "step k: ...". The states yielded are z0 and step's
    results themselves, not copies.
    """
    recent = [z0]
    yield z0
    for k in range(1, num_steps + 1):
        start = None if k == 1 else np.dot(_START_WEIGHTS[len(recent) - 1], recent)
        try:
            z_new = step(recent[0], start)
        except NumericError as exc:
            raise NumericError(f"step {k}: {exc}") from exc
        recent = [z_new, *recent[:_START_DEGREE]]
        yield z_new


# ---------------------------------------------------------------------------
# implicit AVF step
# ---------------------------------------------------------------------------

def avf_step(z: np.ndarray, dt: float, physics: Physics, grid: Grid, *,
             start: np.ndarray | None = None) -> np.ndarray:
    """One implicit AVF step of size dt from the packed state z (4N,);
    returns the new packed state and conserves the discrete energy.

    A z of another shape raises ValueError, and a non-finite entry of z
    NumericError naming its field and node, before any residual. Newton
    starts from start, a packed state such as march's, when given and the
    residual's midpoint height check passes there; otherwise it starts from
    z. A dt of exactly zero returns a copy of z (the residual vanishes
    at that start).
    """
    _require_shape(z, 4 * grid.N, f"grid N={grid.N}")
    _require_finite(z, "state")
    start, fallback = (z, None) if start is None else (np.asarray(start, dtype=np.float64), z)
    residual = _AvfResidual(z, dt, physics, grid)
    correct = krylov_correction(residual, max(1.0, float(np.linalg.norm(z))), _NEWTON_TOL)
    return newton(residual, start, _NEWTON_TOL, _NEWTON_MAXITER, "Newton-Krylov", correct,
                  fallback)


def integrate_fom(z0: np.ndarray, dt: float, num_steps: int, physics: Physics,
                  grid: Grid) -> FomResult:
    """March num_steps AVF steps from the packed state z0 (4N,) with march,
    recording the trajectory and the invariants.

    A z0 of another shape raises ValueError naming both shapes. A
    non-finite entry of z0 or a nonpositive height raises NumericError
    naming its field and node. Every _LOG_EVERY-th step and the last are
    logged with their energy drift at DEBUG level to the tswrom.fom logger,
    which bench.progress_to_stdout(logging.DEBUG) prints; while that level
    is off, no drift is computed.
    """
    z = np.array(z0, dtype=np.float64)
    _require_shape(z, 4 * grid.N, f"grid N={grid.N}")
    _require_finite(z, "initial")
    _require_positive(_blocks(z, grid.n)[0], "initial height")
    traj = np.empty((4 * grid.N, num_steps + 1))
    invs = np.empty((num_steps + 1, 4))

    def step(z, start):
        return avf_step(z, dt, physics, grid, start=start)

    debug = _log.isEnabledFor(logging.DEBUG)
    for k, z in enumerate(march(step, z, num_steps)):
        traj[:, k] = z
        invs[k] = invariants(z, physics, grid)
        if debug and k and (k % _LOG_EVERY == 0 or k == num_steps):
            drift = abs(invs[k, 0] - invs[0, 0]) / abs(invs[0, 0])
            _log.debug("  step %5d/%d  t=%12.1f  |dH|/H = %.3e", k, num_steps, k * dt, drift)
    return FomResult(trajectory=traj, invariants=invs)
