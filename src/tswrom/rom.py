"""Reduced-order models of the thermal shallow water system.

Both reduced models march the 4r coefficients z_r, blocked (h, u, v, s), of
the lift z = mean + V z_r with the AVF rule of the full model,

    z_r' = z_r - dt J_r(m) gbar_r,    m = (z_r + z_r') / 2,

and share one exact reduced energy gradient. grad H is quadratic in the
state, so g_r(z) = V^T grad H(lift z) is a quadratic polynomial of z_r,

    g_r(z) = c + L z + Q(z).

The constant c, the 4r-by-4r linear part L (from the means and the bottom)
and three r-by-r-by-r tensors sum_n V_h x V_u x V_u, sum_n V_h x V_v x V_v
and sum_n V_h x V_h x V_s, each serving two gradient blocks, are
precomputed. The chord mean gbar_r = g_r(m) + Q(dz)/12 is exact in closed
form, as in the full model. The two models differ in J_r:

* pod: the Galerkin model applies V^T J(lift m) V with the full model's
  kernels, so each evaluation costs O(N r) and needs no interpolation.
* pod-deim: the tensor model interpolates only J's rational coefficients
  F1..F3 (deim.py) by DEIM. With the r-by-p-by-r tensors
  K_1 = sum_n V_u x psi_1 x V_v, K_2 = sum_n V_u x psi_2 x V_s and
  K_3 = sum_n V_v x psi_3 x V_s, the samples f_j give the r-by-r blocks
  Q_j = K_j f_j, placed as -Q_j and +Q_j^T in their skew pairs next to the
  projected derivative blocks a1 = V_h^T Dx V_u, a2 = V_h^T Dy V_v and
  -a1^T, -a2^T. J_r is skew by construction, so the AVF step conserves the
  lifted energy up to the Newton tolerance, and an evaluation costs
  O(r^2 p + r^3), independent of the grid size N.

The samples P_j^T F_j(lift m) come from one affine map of m: a stacked
matrix of precomputed rows of the POD modes (and of Dx V, Dy V) plus an
offset, applied with one GEMM. A flop counter can be attached to rom_rhs
to prove that the online cost does not grow with N.

Both models solve the implicit 4r system with a chord Newton iteration. One
LU-factored dense finite-difference Jacobian is kept across the steps of an
integrate_rom run and rebuilt, at the current iterate, only when the
residual stops halving. The Galerkin residual lifts the old state once per
step; each evaluation then needs only the modes product of the increment.

The invariants of lift z_r are polynomials of z_r built from the same data:
mass and vorticity are affine, buoyancy is quadratic through V_h^T V_s, and
the energy is E(z) = E(0) + area z . (g_r(0) + 4 g_r(z/2) + g_r(z)) / 6,
Simpson's rule being exact for the quadratic g_r. integrate_rom evaluates
them for the whole trajectory at once and never lifts a state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator

from .deim import NUM_NONLIN, DeimSet
from .errors import ConfigError, NumericError
# perfbench/spans.py wraps rom.invariants by name, so it must stay bound here
from .fom import (Physics, State, _apply_j, _blocks, _coefficients, apply_poisson,
                  gmres, grad_hamiltonian, invariants)
from .grid import DiffOps, apply_dx, apply_dy
from .pod import PodBasis

__all__ = [
    "RomState",
    "RomOperators",
    "RomResult",
    "FlopCounter",
    "galerkin_operators",
    "precompute_rom",
    "rom_operators_from_parts",
    "rom_rhs",
    "rom_avf_step",
    "integrate_rom",
    "reduced_poisson_matrix",
]

METHODS = ("pod", "pod-deim")

# Reduced Newton: tolerance is scaled by max(1, ||z_r||_inf) because POD
# coefficients of geophysical fields reach O(1e3), putting an absolute
# 1e-12 below float64 resolution of the unknowns themselves.
_ROM_NEWTON_TOL = 1e-12
_ROM_NEWTON_MAXITER = 50


@dataclass
class RomState:
    """Reduced coefficients (4r,) blocked (h, u, v, s), plus time."""

    z_r: np.ndarray
    t: float = 0.0

    @property
    def r(self) -> int:
        return self.z_r.size // 4


@dataclass
class FlopCounter:
    """Tallies floating-point work of the online pod-deim path.

    core counts the reduced algebra (gradient polynomial, the Q_j blocks,
    the J_r product); sampling counts the P^T F evaluations. Both are
    derived from operand shapes at the call sites, counting only the
    nonzero blocks of the block-sparse operands, so any stray N-sized
    operation in the online path would show up here. One rom_rhs call at
    r=5, p=35 counts 7,335 core and 2,800 sampling flops.
    """

    core: int = 0
    sampling: int = 0

    def add_core(self, n: int) -> None:
        self.core += int(n)

    def add_sampling(self, n: int) -> None:
        self.sampling += int(n)


# ---------------------------------------------------------------------------
# offline precompute
# ---------------------------------------------------------------------------

def _three_way(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """t[i, j, k] = sum_n a[n, i] b[n, j] c[n, k], one GEMM per i, so the
    largest temporary is one (N, c columns) block."""
    out = np.empty((a.shape[1], b.shape[1], c.shape[1]))
    for i in range(a.shape[1]):
        np.matmul(b.T, a[:, i : i + 1] * c, out=out[i])
    return out


@dataclass
class _Gradient:
    """The exact reduced energy gradient g_r(z) = c + L z + Q(z) =
    V^T grad H(lift z), and the invariants of lift z as polynomials of z.

    t_uu[i, j, k] = sum_n V_h[n, i] V_u[n, j] V_u[n, k] gives the h block's
    (u u)/2 term and the u block's h u term, t_vv likewise for v, and
    t_hs[i, j, k] = sum_n V_h[n, i] V_h[n, j] V_s[n, k] the h block's s h
    term and the s block's h h / 2 term. Each is stored once, (r, r, r) in
    C order, and read through reshaped views.
    """

    c: np.ndarray       # (4r, 1)
    lin: np.ndarray     # L, (4r, 4r)
    t_uu: np.ndarray
    t_vv: np.ndarray
    t_hs: np.ndarray
    inv0: np.ndarray    # (4, 1) energy, mass, vorticity, buoyancy of the mean
    inv_lin: np.ndarray  # (3, 4r) affine parts of mass, vorticity, buoyancy
    b_hs: np.ndarray    # (r, r) area V_h^T V_s, buoyancy's quadratic part
    area: float

    def quadratic(self, x: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
        """Q(x) for reduced columns x (4r, m), reading each tensor once."""
        r = self.t_uu.shape[0]
        m = x.shape[1]
        a, u, v, s = x.reshape(4, r, m)
        # tu[i, j] = t_uu[i, j, k] u_k, tv likewise; by the symmetry of t_hs
        # in (i, j), w[j, k] = a_i t_hs[i, j, k] serves both of its blocks
        tu = (self.t_uu.reshape(r * r, r) @ u).reshape(r, r, m)
        tv = (self.t_vv.reshape(r * r, r) @ v).reshape(r, r, m)
        w = (a.T @ self.t_hs.reshape(r, r * r)).reshape(m, r, r)
        out = np.empty((4, r, m))
        out[0] = np.einsum("ijm,jm->im", tu, 0.5 * u)
        out[0] += np.einsum("ijm,jm->im", tv, 0.5 * v)
        out[0] += np.einsum("mik,km->im", w, s)
        out[1] = np.einsum("ijm,im->jm", tu, a)
        out[2] = np.einsum("ijm,im->jm", tv, a)
        out[3] = np.einsum("mjk,jm->km", w, a)
        out[3] *= 0.5
        if counter is not None:
            counter.add_core((3 * 2 * r**3 + 6 * 2 * r**2 + 5 * r) * m)
        return out.reshape(4 * r, m)

    def _affine(self, x: np.ndarray, counter: FlopCounter | None) -> np.ndarray:
        out = self.lin @ x
        out += self.c
        if counter is not None:
            # the 9 nonzero (r, r) blocks of L and the constant
            r = self.t_uu.shape[0]
            counter.add_core((9 * 2 * r * r + 4 * r) * x.shape[1])
        return out

    def gradient(self, x: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
        """g_r(x) for reduced columns x (4r, m)."""
        out = self._affine(x, counter)
        out += self.quadratic(x, counter)
        if counter is not None:
            counter.add_core(x.size)
        return out

    def chord_mean(self, mid: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """int_0^1 g_r(z_old + xi dz) dxi = g_r(mid) + Q(dz)/12 for columns
        (4r, m), mid = z_old + dz/2; Q(dz/sqrt(12)) = Q(dz)/12 lets one
        quadratic evaluation serve both."""
        m = mid.shape[1]
        q = self.quadratic(np.concatenate([mid, dz * (1.0 / math.sqrt(12.0))], axis=1))
        out = self._affine(mid, None)
        out += q[:, :m]
        out += q[:, m:]
        return out

    def invariants(self, z: np.ndarray) -> np.ndarray:
        """Energy, mass, vorticity and buoyancy of lift z for reduced columns
        z (4r, K), as a (K, 4) array."""
        r = self.t_uu.shape[0]
        K = z.shape[1]
        g = self.gradient(np.concatenate([0.5 * z, z], axis=1))
        g[:, :K] *= 4.0
        g[:, :K] += g[:, K:]
        g[:, :K] += self.c
        out = np.empty((4, K))
        out[0] = np.einsum("ik,ik->k", z, g[:, :K])
        out[0] *= self.area / 6.0
        out[1:] = self.inv_lin @ z
        out[3] += np.einsum("ik,ik->k", z[:r], self.b_hs @ z[3 * r :])
        out += self.inv0
        return out.T


def _gradient_data(basis: PodBasis, physics: Physics, ops: DiffOps) -> _Gradient:
    """The exact reduced gradient and the polynomial invariants of a basis."""
    vh, vu, vv, vs = basis.modes
    mh, mu, mv, ms = basis.means
    r = basis.r
    area = ops.grid.cell_area
    hb = (mh + physics.b)[:, None]
    mean = State(z=basis.mean_z)

    lin = np.zeros((4, r, 4, r))
    lin[0, :, 0] = vh.T @ (ms[:, None] * vh)
    lin[0, :, 1] = vh.T @ (mu[:, None] * vu)
    lin[0, :, 2] = vh.T @ (mv[:, None] * vv)
    lin[0, :, 3] = vh.T @ (hb * vs)
    lin[1, :, 1] = vu.T @ (mh[:, None] * vu)
    lin[2, :, 2] = vv.T @ (mh[:, None] * vv)
    for k in (1, 2, 3):
        lin[k, :, 0] = lin[0, :, k].T

    inv_lin = np.zeros((3, 4, r))
    inv_lin[0, 0] = vh.sum(axis=0)
    inv_lin[1, 1] = -apply_dy(ops, vu).sum(axis=0)
    inv_lin[1, 2] = apply_dx(ops, vv).sum(axis=0)
    inv_lin[2, 0] = vh.T @ ms
    inv_lin[2, 3] = vs.T @ mh
    return _Gradient(
        c=basis.project_modes(grad_hamiltonian(mean, physics)),
        lin=lin.reshape(4 * r, 4 * r),
        t_uu=_three_way(vh, vu, vu),
        t_vv=_three_way(vh, vv, vv),
        t_hs=_three_way(vh, vh, vs),
        inv0=invariants(mean, physics, ops.grid, ops).as_array()[:, None],
        inv_lin=area * inv_lin.reshape(3, 4 * r),
        b_hs=area * (vh.T @ vs),
        area=area,
    )


# Sampled primitives of the lifted state, one block of p rows each, in the
# order of _Sampler.rows: the heights of F1..F3 at their points, then the
# numerators at the same points.
_SAMPLED = ("h1", "h2", "h3", "curl1", "sx2", "sy3")


@dataclass
class _Sampler:
    """P_j^T F_j(lift(z_r)) for F1..F3 from one affine map of z_r.

    Block k of rows/offset (p rows) gives the primitive _SAMPLED[k] at the
    points of its F_j as offset[k] + rows[k] z_r, so one GEMM yields them
    all. For the derivative-bearing primitives the stencil is folded in
    offline, e.g. (Dx s)[idx] = (Dx mean_s)[idx] + (Dx V_s)[idx, :] s_r, and
    curl1 is (Dx v - Dy u)[idx] at the points of F1.
    """

    f: float
    rows: np.ndarray    # (len(_SAMPLED) p, 4r)
    offset: np.ndarray  # (len(_SAMPLED) p, 1)
    nnz: int            # entries of rows outside its all-zero (p, r) blocks

    def sample(self, z_cols: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
        """The sampled F1, F2, F3 for reduced columns (4r, m) -> (3, p, m)."""
        m = z_cols.shape[1]
        p = self.rows.shape[0] // len(_SAMPLED)
        prim = self.rows @ z_cols
        prim += self.offset
        height, num = prim.reshape(2, NUM_NONLIN, p, m)
        hmin = height.min()
        if not hmin > 0.0:
            raise NumericError(f"nonpositive sampled height in reduced model (min {hmin:.6e})")
        num[0] += self.f
        if counter is not None:
            # the GEMM's nonzero blocks (the zero blocks add nothing), the 6p
            # offset adds, f and the 3p divisions
            counter.add_sampling(2 * self.nnz * m + 10 * p * m)
        return num / height


@dataclass
class RomOperators:
    """Everything the online phase needs, all independent of N except refs.

    grad is the exact reduced gradient both models use. a1, a2 are the
    projected derivative blocks (r x r) and k1..k3 the K_j tensors, stored
    (p, r*r) with row k the (r, r) block of sample k; with the sampler they
    make the tensor model's J_r. The basis/deim/physics/diffops references
    serve the Galerkin model, rebuilding and serialization. A DEIM-free
    instance (from galerkin_operators) leaves a1..sampler unset and can only
    drive the pod method.
    """

    basis: PodBasis
    deim: DeimSet | None
    physics: Physics
    diffops: DiffOps
    grad: _Gradient = field(repr=False)
    a1: np.ndarray = None
    a2: np.ndarray = None
    k1: np.ndarray = None
    k2: np.ndarray = None
    k3: np.ndarray = None
    sampler: _Sampler = field(repr=False, default=None)

    @property
    def r(self) -> int:
        return self.basis.r

    @property
    def p(self) -> int:
        if self.deim is None:
            raise ConfigError("DEIM-free operator set has no sample count p")
        return self.deim.p

    def matrices(self) -> dict[str, np.ndarray]:
        """The serialized operator set in declared order."""
        if self.a1 is None:
            raise ConfigError("operator matrices were never precomputed (pod-only set)")
        return {"a1": self.a1, "a2": self.a2, "k1": self.k1, "k2": self.k2, "k3": self.k3}


def _build_sampler(basis: PodBasis, deim: DeimSet, physics: Physics, ops: DiffOps) -> _Sampler:
    vh, vu, vv, vs = basis.modes
    mh, mu, mv, ms = basis.means
    dx, dy = partial(apply_dx, ops), partial(apply_dy, ops)
    r = basis.r
    # primitive -> {block of z_r: (modes, mean)}, the affine lift of its field
    fields = {
        "h": {0: (vh, mh)},
        "curl": {1: (-dy(vu), -dy(mu)), 2: (dx(vv), dx(mv))},
        "sx": {3: (dx(vs), dx(ms))}, "sy": {3: (dy(vs), dy(ms))},
    }
    rows, offset, nnz = [], [], 0
    for name in _SAMPLED:
        idx = deim[int(name[-1])].indices
        block = np.zeros((idx.size, 4 * r))
        const = np.zeros(idx.size)
        for k, (modes, mean) in fields[name[:-1]].items():
            block[:, k * r : (k + 1) * r] = modes[idx]
            const += mean[idx]
            nnz += idx.size * r
        rows.append(block)
        offset.append(const)
    return _Sampler(f=physics.f, rows=np.vstack(rows), offset=np.concatenate(offset)[:, None],
                    nnz=nnz)


def _check_grid(basis: PodBasis, ops: DiffOps) -> None:
    if basis.N != ops.grid.N:
        raise ConfigError(f"basis N={basis.N} does not match grid N={ops.grid.N}")


def galerkin_operators(basis: PodBasis, physics: Physics, ops: DiffOps) -> RomOperators:
    """Operator container for the DEIM-free Galerkin model (pod method only)."""
    _check_grid(basis, ops)
    return RomOperators(basis=basis, deim=None, physics=physics, diffops=ops,
                        grad=_gradient_data(basis, physics, ops))


def precompute_rom(basis: PodBasis, deim: DeimSet, physics: Physics, ops: DiffOps) -> RomOperators:
    """Assemble all N-independent reduced operators (offline, O(N r^2 (r + p)) work)."""
    _check_grid(basis, ops)
    if deim[1].phi.shape[0] != basis.N:
        raise ConfigError("DEIM operators were built on a different grid")
    vh, vu, vv, vs = basis.modes
    r, p = basis.r, deim.p
    matrices = {
        "a1": vh.T @ apply_dx(ops, vu),
        "a2": vh.T @ apply_dy(ops, vv),
    }
    for j, (va, vb) in enumerate(((vu, vv), (vu, vs), (vv, vs)), start=1):
        matrices[f"k{j}"] = _three_way(deim[j].psi, va, vb).reshape(p, r * r)
    return rom_operators_from_parts(matrices, basis, deim, physics, ops)


def rom_operators_from_parts(matrices: dict[str, np.ndarray], basis: PodBasis,
                             deim: DeimSet, physics: Physics, ops: DiffOps) -> RomOperators:
    """Rebuild a RomOperators from deserialized matrices plus its ingredients.

    The sampler and the gradient data are rebuilt from the basis, the
    interpolation points and the physics, so only a1, a2 and the K_j
    tensors come from the file; shapes are validated against the basis size
    r and sample count p."""
    r, p = basis.r, deim.p
    expected = {"a1": (r, r), "a2": (r, r), "k1": (p, r * r), "k2": (p, r * r),
                "k3": (p, r * r)}
    for name, shape in expected.items():
        if name not in matrices:
            raise ConfigError(f"missing reduced operator {name}")
        if matrices[name].shape != shape:
            raise ConfigError(
                f"reduced operator {name} has shape {matrices[name].shape}, "
                f"expected {shape} for r={r}, p={p}")
    return RomOperators(
        basis=basis, deim=deim, physics=physics, diffops=ops,
        grad=_gradient_data(basis, physics, ops),
        **{name: matrices[name] for name in expected},
        sampler=_build_sampler(basis, deim, physics, ops),
    )


# ---------------------------------------------------------------------------
# online evaluation
# ---------------------------------------------------------------------------

# (row block, column block) of -Q_j in J_r; +Q_j^T sits at the mirror place
_SKEW_PAIRS = ((1, 2), (1, 3), (2, 3))


def _reduced_poisson(ops: RomOperators, f: np.ndarray,
                     counter: FlopCounter | None = None) -> np.ndarray:
    """J_r(f) for sampled coefficients f (3, p, m) as (m, 4r, 4r): skew by
    construction, each block set next to its negated transpose."""
    r = ops.r
    m = f.shape[2]
    jr = np.zeros((m, 4, r, 4, r))
    jr[:, 0, :, 1] = ops.a1
    jr[:, 0, :, 2] = ops.a2
    jr[:, 1, :, 0] = -ops.a1.T
    jr[:, 2, :, 0] = -ops.a2.T
    for fj, kj, (a, b) in zip(f, (ops.k1, ops.k2, ops.k3), _SKEW_PAIRS):
        q = (fj.T @ kj).reshape(m, r, r)
        jr[:, a, :, b] = -q
        jr[:, b, :, a] = q.transpose(0, 2, 1)
    if counter is not None:
        counter.add_core(3 * 2 * ops.k1.size * m)
    return jr.reshape(m, 4 * r, 4 * r)


def _apply_reduced_poisson(ops: RomOperators, f: np.ndarray, g: np.ndarray,
                           counter: FlopCounter | None = None) -> np.ndarray:
    """J_r(f) g for reduced columns g (4r, m)."""
    out = np.matmul(_reduced_poisson(ops, f, counter), g.T[:, :, None])[:, :, 0].T
    if counter is not None:
        # the 10 nonzero (r, r) blocks of J_r
        counter.add_core(10 * 2 * ops.r**2 * g.shape[1])
    return out


def rom_rhs(ops: RomOperators, z_r: np.ndarray,
            counter: FlopCounter | None = None) -> np.ndarray:
    """Tensor-form reduced time derivative -J_r g_r at a reduced state (4r,)
    or columns (4r, m).

    Everything is sampled or precomputed: the cost is O(r^2 p + r^3),
    independent of the grid size N.
    """
    if ops.sampler is None:
        raise ConfigError("tensor operators not available; build with precompute_rom")
    z_r = np.asarray(z_r, dtype=np.float64)
    single = z_r.ndim == 1
    zc = z_r[:, None] if single else z_r
    f = ops.sampler.sample(zc, counter)
    out = _apply_reduced_poisson(ops, f, ops.grad.gradient(zc, counter), counter)
    out *= -1.0
    if counter is not None:
        counter.add_core(out.size)
    return out[:, 0] if single else out


# ---------------------------------------------------------------------------
# implicit reduced stepping
# ---------------------------------------------------------------------------

def _deim_residual(ops, z_old, dt):
    """Implicit AVF residual dz + dt J_r(f(m)) gbar_r of the tensor model
    for the step from z_old, as a function of candidate new states (4r, m)."""

    def residual(z_new_cols):
        dz = z_new_cols - z_old[:, None]
        mid = 0.5 * dz
        mid += z_old[:, None]
        out = _apply_reduced_poisson(ops, ops.sampler.sample(mid),
                                     ops.grad.chord_mean(mid, dz))
        out *= dt
        out += dz
        return out

    return residual


def _pod_residual(ops, z_old, dt):
    """Implicit AVF residual dz + dt V^T J(lift m) V gbar_r of the Galerkin
    model for the step from z_old, as a function of candidate new states
    (4r, m). J runs on the full model's kernels, one J per column.

    The lift is affine, so the midpoint is lift(z_old) + V dz / 2: z_old is
    lifted once here, and each evaluation needs one modes-only product."""
    basis, grid = ops.basis, ops.diffops.grid
    f, n = ops.physics.f, grid.n
    sx, sy = dt * 0.5 / grid.dx, dt * 0.5 / grid.dy
    base = basis.lift_array(z_old)[:, None]

    def residual(z_new_cols):
        dz = z_new_cols - z_old[:, None]
        mid_r = 0.5 * dz
        mid_r += z_old[:, None]
        mid = basis.apply_modes(dz)
        mid *= 0.5
        mid += base
        coef = _coefficients(mid, f, grid, dt, "midpoint height")
        g = _blocks(basis.apply_modes(ops.grad.chord_mean(mid_r, dz)), n)
        jg = np.empty(g.shape)
        _apply_j(coef, g, jg, sx, sy, np.empty(g.shape[1:]))
        out = basis.project_modes(jg.reshape(mid.shape))
        out += dz
        return out

    return residual


class _ChordJacobian:
    """LU factors of the dense reduced Newton Jacobian, or None until built.

    integrate_rom creates one per run and hands it to every step, so one
    factorization serves as many steps as it keeps converging; a stand-alone
    rom_avf_step call gets a fresh one."""

    def __init__(self) -> None:
        self.lu = None

    def factor(self, jac: np.ndarray) -> None:
        # lu_factor only warns on an exactly zero pivot and lu_solve would
        # then return inf, so the pivots are checked here instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(jac, check_finite=False)
        pivots = np.abs(np.diag(lu))
        if not np.all((pivots > 0.0) & np.isfinite(pivots)):
            raise NumericError(
                f"singular reduced Newton Jacobian: zero or non-finite pivot "
                f"(smallest |pivot| {pivots.min():.3e})")
        self.lu = (lu, piv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return lu_solve(self.lu, rhs, check_finite=False)


def _rom_newton_dense(residual, z_old, tol_eff, max_iter, chord):
    # Chord iteration: one batched residual evaluation builds the whole 4r
    # Jacobian, which is factored and kept in chord. The implicit residual
    # changes little from one step to the next, so the same factors serve
    # iteration after iteration and step after step; they are rebuilt at the
    # current iterate only when the residual stops halving.
    sqrt_eps = math.sqrt(np.finfo(np.float64).eps)
    z = z_old.copy()
    res = residual(z[:, None])[:, 0]
    rnorm = float(np.max(np.abs(res)))
    for _ in range(max_iter):
        if rnorm <= tol_eff:
            return z
        if chord.lu is None:
            eps = sqrt_eps * np.maximum(1.0, np.abs(z))
            resb = residual(z[:, None] + np.diag(eps))
            chord.factor((resb - res[:, None]) / eps[None, :])
        z = z + chord.solve(-res)
        res = residual(z[:, None])[:, 0]
        rnorm_new = float(np.max(np.abs(res)))
        if rnorm_new > 0.5 * rnorm:
            chord.lu = None
        rnorm = rnorm_new
    if rnorm <= tol_eff:
        return z
    raise NumericError(
        f"reduced Newton stalled after {max_iter} iterations; "
        f"last residual {rnorm:.3e} > tol {tol_eff:.3e}"
    )


def _rom_newton_krylov(residual, z_old, tol_eff, max_iter):
    # matrix-free variant for large r, where the O(r) columns of a dense
    # finite-difference Jacobian would dominate everything else
    sqrt_eps = math.sqrt(np.finfo(np.float64).eps)
    scale = max(1.0, float(np.linalg.norm(z_old)))
    z = z_old.copy()
    res = residual(z[:, None])[:, 0]
    rnorm_prev = None
    for _ in range(max_iter):
        rnorm = float(np.max(np.abs(res)))
        if rnorm <= tol_eff:
            return z
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
            pert = residual((z + eps * w)[:, None])[:, 0]
            return (pert - res) / eps

        op = LinearOperator((z.size, z.size), matvec=jacvec, dtype=np.float64)
        dz, _ = gmres(op, -res, rtol=eta, restart=50, maxiter=40)
        z = z + dz
        res = residual(z[:, None])[:, 0]
    if float(np.max(np.abs(res))) <= tol_eff:
        return z
    raise NumericError(
        f"reduced Newton-Krylov stalled after {max_iter} iterations; "
        f"last residual {float(np.max(np.abs(res))):.3e} > tol {tol_eff:.3e}"
    )


def rom_avf_step(ops: RomOperators, z_r: np.ndarray, dt: float,
                 method: str = "pod-deim", tol: float = _ROM_NEWTON_TOL,
                 max_iter: int = _ROM_NEWTON_MAXITER,
                 solver: str = "dense", *, _chord: _ChordJacobian | None = None) -> np.ndarray:
    """One reduced AVF step: J_r at the midpoint applied to the closed-form
    chord mean of the exact reduced gradient. The implicit 4r system is
    solved by chord Newton with a factored dense finite-difference Jacobian
    (default, best for small r) or matrix-free Newton-Krylov
    (solver="krylov", for large r such as full-basis verification runs).

    A stand-alone call builds a fresh Jacobian. integrate_rom passes its
    factorization through the private _chord argument instead, so one
    factorization is kept across steps and rebuilt only when the residual
    stops halving. The Galerkin model lifts the old state once per step."""
    if method not in METHODS:
        raise ConfigError(f"unknown reduced model {method!r}, expected one of {METHODS}")
    if method == "pod-deim" and ops.sampler is None:
        raise ConfigError("tensor operators not available; build with precompute_rom")
    if solver not in ("dense", "krylov"):
        raise ConfigError(f"unknown reduced Newton solver {solver!r}")
    z_old = np.asarray(z_r, dtype=np.float64)
    tol_eff = tol * max(1.0, float(np.max(np.abs(z_old))))
    residual = (_deim_residual if method == "pod-deim" else _pod_residual)(ops, z_old, dt)
    if solver == "krylov":
        return _rom_newton_krylov(residual, z_old, tol_eff, max_iter)
    chord = _ChordJacobian() if _chord is None else _chord
    return _rom_newton_dense(residual, z_old, tol_eff, max_iter, chord)


@dataclass
class RomResult:
    """Reduced trajectory (4r, K+1), invariants of its lift (K+1, 4), times."""

    reduced: np.ndarray
    invariants: np.ndarray
    times: np.ndarray
    method: str


def integrate_rom(ops: RomOperators, initial: RomState, dt: float, num_steps: int,
                  method: str = "pod-deim", solver: str = "dense") -> RomResult:
    """March the reduced model and record the invariants of the lifted
    states, evaluated as polynomials of the reduced coefficients."""
    if method not in METHODS:
        raise ConfigError(f"unknown reduced model {method!r}, expected one of {METHODS}")
    red = np.empty((initial.z_r.size, num_steps + 1))
    times = initial.t + dt * np.arange(num_steps + 1)

    z = np.asarray(initial.z_r, dtype=np.float64).copy()
    red[:, 0] = z
    chord = _ChordJacobian()
    for k in range(1, num_steps + 1):
        z = rom_avf_step(ops, z, dt, method=method, solver=solver, _chord=chord)
        red[:, k] = z
    return RomResult(reduced=red, invariants=ops.grad.invariants(red), times=times,
                     method=method)


# ---------------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------------

def reduced_poisson_matrix(basis: PodBasis, state: State, physics: Physics,
                           ops: DiffOps) -> np.ndarray:
    """Dense reduced Poisson matrix V^T J(state) V (4r x 4r), for checks."""
    N, r = basis.N, basis.r
    vblk = np.zeros((4 * N, 4 * r))
    for i in range(4):
        vblk[i * N : (i + 1) * N, i * r : (i + 1) * r] = basis.modes[i]
    jv = apply_poisson(state, physics, ops, vblk)
    return vblk.T @ jv
