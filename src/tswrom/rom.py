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
form, as in the full model.

Both models also share one reduced Poisson operator J_r = V^T J(lift m) V
and one AVF residual. J_r holds the projected derivative blocks
a1 = V_h^T Dx V_u, a2 = V_h^T Dy V_v and -a1^T, -a2^T, and three r-by-r
blocks Q_j that weight J's rational coefficients F1..F3 (deim.py) between
the modes of (u, v), (u, s) and (v, s), placed as -Q_j and +Q_j^T. J_r is
skew by construction, so the AVF step conserves the lifted energy up to the
Newton tolerance. The models differ only in how the Q_j are obtained:

* pod: the Galerkin model evaluates F_j at all N nodes of the lifted
  midpoint and applies Q_j = V_a^T diag(F_j) V_b without forming it: O(N r)
  per column, no interpolation.
* pod-deim: the tensor model interpolates F_j by DEIM. With the p-by-r-by-r
  tensors K_1 = sum_n psi_1 x V_u x V_v, K_2 = sum_n psi_2 x V_u x V_s and
  K_3 = sum_n psi_3 x V_v x V_s, stacked as one (3, p, r^2) array, the
  samples f_j give Q_j = K_j f_j, and an evaluation costs O(r^2 p + r^3),
  independent of the grid size N.

The samples P_j^T F_j(lift m) come from one affine map of m: a stacked
matrix of precomputed rows of the POD modes (and of Dx V, Dy V) plus an
offset, applied with one GEMM. A flop counter can be attached to rom_rhs
to prove that the online cost does not grow with N.

Both models solve the implicit 4r system with fom.newton and a chord rule:
one LU-factored dense finite-difference Jacobian is kept across the steps
of an integrate_rom run and rebuilt, at the current iterate, only when the
residual stops halving. The chord iteration converges linearly, so a close
start saves iterations: integrate_rom starts the second step from
2 z^1 - z^0 and every later one from 3 z^k - 3 z^{k-1} + z^{k-2}, or from
z^k when the residual's own height check (at all N nodes for pod, at the
DEIM points for pod-deim) refuses that start. A NaN or infinite residual
stops the iteration at once.

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
from scipy.linalg import LinAlgWarning, lu_factor
from scipy.linalg.lapack import dgetrs

from .deim import NUM_NONLIN, DeimSet
from .errors import ConfigError, NumericError
# perfbench/spans.py wraps rom.invariants by name, so it must stay bound here
from .fom import (Physics, _coefficients, grad_hamiltonian, invariants, krylov_correction,
                  newton)
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
]

METHODS = ("pod", "pod-deim")

# Reduced Newton: tolerance is scaled by max(1, ||z_r||_inf) because POD
# coefficients of geophysical fields reach O(1e3), putting an absolute
# 1e-12 below float64 resolution of the unknowns themselves.
_ROM_NEWTON_TOL = 1e-12
_ROM_NEWTON_MAXITER = 50

# (row block, column block) of -Q_j in J_r; +Q_j^T sits at the mirror place.
# Q_j weights F_j between the modes of these two blocks.
_SKEW_PAIRS = ((1, 2), (1, 3), (2, 3))


@dataclass
class RomState:
    """Reduced coefficients (4r,) blocked (h, u, v, s), plus time."""

    z_r: np.ndarray
    t: float = 0.0


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


# weights of the u, v and s blocks in Q(x)'s h block
_HALF_HALF_ONE = np.array([0.5, 0.5, 1.0])[:, None]


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
        a, u, v, _ = x.reshape(4, r, m)
        # per column, t[0, i, j] = t_uu[i, j, k] u_k and t[1] likewise for v;
        # by the symmetry of t_hs in (i, j), t[2, j, k] = a_i t_hs[i, j, k]
        # serves both of its blocks
        t = np.empty((m, 3, r * r))
        np.matmul(u.T, self.t_uu.reshape(r * r, r).T, out=t[:, 0])
        np.matmul(v.T, self.t_vv.reshape(r * r, r).T, out=t[:, 1])
        np.matmul(a.T, self.t_hs.reshape(r, r * r), out=t[:, 2])
        t = t.reshape(m, 3, r, r)
        # rows (m, 4, r): the u, v and s blocks are a^T t, the h block is
        # t_0 u / 2 + t_1 v / 2 + t_2 s
        out = np.empty((m, 4, r))
        np.matmul(a.T[:, None, None, :], t, out=out[:, 1:, None, :])
        out[:, 3] *= 0.5
        uvs = x[r:].T.reshape(m, 3, r) * _HALF_HALF_ONE
        np.matmul(t.transpose(0, 2, 1, 3).reshape(m, r, 3 * r), uvs.reshape(m, 3 * r, 1),
                  out=out[:, 0, :, None])
        if counter is not None:
            counter.add_core((3 * 2 * r**3 + 6 * 2 * r**2 + 5 * r) * m)
        return out.reshape(m, 4 * r).T

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
        c=basis.project_modes(grad_hamiltonian(basis.mean_z, physics)),
        lin=lin.reshape(4 * r, 4 * r),
        t_uu=_three_way(vh, vu, vu),
        t_vv=_three_way(vh, vv, vv),
        t_hs=_three_way(vh, vh, vs),
        inv0=invariants(basis.mean_z, physics, ops)[:, None],
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

    Both models use grad, the exact reduced gradient, and a1, a2, the
    projected derivative blocks (r x r) of J_r. k holds the K_j tensors,
    (3, p, r*r) with k[j - 1, i] the (r, r) block of sample i of F_j; with
    the sampler they give the tensor model's Q_j. The basis/deim/physics/diffops
    references serve the Galerkin model, rebuilding and serialization. A
    DEIM-free instance (from galerkin_operators) leaves k and sampler unset and
    can only drive the pod method. j0 is the constant part of J_r, a1, a2,
    -a1^T and -a2^T placed in a (4r, 4r) array, built once per operator set.
    """

    basis: PodBasis
    deim: DeimSet | None
    physics: Physics
    diffops: DiffOps
    grad: _Gradient = field(repr=False)
    a1: np.ndarray
    a2: np.ndarray
    k: np.ndarray = None
    sampler: _Sampler = field(repr=False, default=None)
    j0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        r = self.r
        j0 = np.zeros((4, r, 4, r))
        j0[0, :, 1] = self.a1
        j0[0, :, 2] = self.a2
        j0[1, :, 0] = -self.a1.T
        j0[2, :, 0] = -self.a2.T
        self.j0 = j0.reshape(4 * r, 4 * r)

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
        if self.k is None:
            raise ConfigError("operator matrices were never precomputed (pod-only set)")
        return {"a1": self.a1, "a2": self.a2, "k": self.k}


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
        idx = deim.indices[int(name[-1]) - 1]
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


def _derivative_blocks(basis: PodBasis, ops: DiffOps) -> dict[str, np.ndarray]:
    """a1 = V_h^T Dx V_u and a2 = V_h^T Dy V_v, the state-independent blocks of J_r."""
    vh, vu, vv, _ = basis.modes
    return {"a1": vh.T @ apply_dx(ops, vu), "a2": vh.T @ apply_dy(ops, vv)}


def galerkin_operators(basis: PodBasis, physics: Physics, ops: DiffOps) -> RomOperators:
    """Operator container for the DEIM-free Galerkin model (pod method only)."""
    _check_grid(basis, ops)
    return RomOperators(basis=basis, deim=None, physics=physics, diffops=ops,
                        grad=_gradient_data(basis, physics, ops),
                        **_derivative_blocks(basis, ops))


def precompute_rom(basis: PodBasis, deim: DeimSet, physics: Physics, ops: DiffOps) -> RomOperators:
    """Assemble all N-independent reduced operators (offline, O(N r^2 (r + p)) work)."""
    _check_grid(basis, ops)
    if deim.psi.shape[1] != basis.N:
        raise ConfigError("DEIM operators were built on a different grid")
    matrices = _derivative_blocks(basis, ops)
    matrices["k"] = np.stack([_three_way(psi, basis.modes[a], basis.modes[b])
                              for psi, (a, b) in zip(deim.psi, _SKEW_PAIRS)]
                             ).reshape(NUM_NONLIN, deim.p, basis.r**2)
    return rom_operators_from_parts(matrices, basis, deim, physics, ops)


def rom_operators_from_parts(matrices: dict[str, np.ndarray], basis: PodBasis,
                             deim: DeimSet, physics: Physics, ops: DiffOps) -> RomOperators:
    """Rebuild a RomOperators from deserialized matrices plus its ingredients.

    The sampler and the gradient data are rebuilt from the basis, the
    interpolation points and the physics, so only a1, a2 and the stacked
    K_j tensors k come from the file; shapes are validated against the basis
    size r and sample count p."""
    r, p = basis.r, deim.p
    expected = {"a1": (r, r), "a2": (r, r), "k": (NUM_NONLIN, p, r * r)}
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

def _reduced_poisson(ops: RomOperators, q) -> np.ndarray:
    """J_r for coefficient blocks q (3, m, r, r), Q_1..Q_3, as (m, 4r, 4r):
    the constant part j0 with each Q_j set next to its negated transpose,
    skew by construction."""
    r = ops.r
    m = q[0].shape[0]
    jr = np.empty((m, 4 * r, 4 * r))
    jr[:] = ops.j0
    blocks = jr.reshape(m, 4, r, 4, r)
    for qj, (a, b) in zip(q, _SKEW_PAIRS):
        np.negative(qj, out=blocks[:, a, :, b])
        blocks[:, b, :, a] = qj.transpose(0, 2, 1)
    return jr


def _apply_reduced_poisson(ops: RomOperators, mid: np.ndarray, g: np.ndarray,
                           counter: FlopCounter | None = None) -> np.ndarray:
    """Tensor model: J_r(mid) g for reduced columns mid, g (4r, m), with
    Q_j = K_j f_j from the DEIM samples f_j of F1..F3 at mid."""
    if ops.sampler is None:
        raise ConfigError("tensor operators not available; build with precompute_rom")
    r, m = ops.r, mid.shape[1]
    f = ops.sampler.sample(mid, counter)
    q = np.matmul(f.transpose(0, 2, 1), ops.k).reshape(NUM_NONLIN, m, r, r)
    out = np.matmul(_reduced_poisson(ops, q), g.T[:, :, None])[:, :, 0].T
    if counter is not None:
        # the Q_j and the 10 nonzero (r, r) blocks of J_r
        counter.add_core((2 * ops.k.size + 10 * 2 * r**2) * m)
    return out


def _galerkin_poisson(ops: RomOperators, z_old: np.ndarray):
    """Galerkin model: J_r(m) g = V^T J(lift m) V g for steps from z_old, as a
    function of reduced midpoints mid, increments dz and columns g (4r, m).
    The derivative blocks are J_r's constant part j0; Q_j = V_a^T diag(F_j)
    V_b, F_j exact at all N nodes of lift m, is applied unformed as V_a^T
    (F_j V_b g_b) and V_b^T (F_j V_a g_a): O(N r) per column. lift m =
    lift(z_old) + V dz / 2, so z_old is lifted once and each call needs V dz
    only."""
    basis, grid, f = ops.basis, ops.diffops.grid, ops.physics.f
    N, r = basis.N, basis.r
    base = basis.lift_array(z_old)[:, None]
    modes_t = basis.modes[1:].transpose(0, 2, 1)

    def apply(mid: np.ndarray, dz: np.ndarray, g: np.ndarray) -> np.ndarray:
        m = g.shape[1]
        lifted = basis.apply_modes(dz)
        lifted *= 0.5
        lifted += base
        coef = _coefficients(lifted, f, grid, 1.0, "midpoint height").reshape(3, N, m)
        # blocks 1..3 (u, v, s) of V g, and of J's coupling terms on the grid
        vg = basis.modes[1:] @ g.reshape(4, r, m)[1:]
        w = np.zeros((3, N, m))
        for fj, (a, b) in zip(coef, _SKEW_PAIRS):
            w[a - 1] -= fj * vg[b - 1]
            w[b - 1] += fj * vg[a - 1]
        out = ops.j0 @ g
        out[r:] += (modes_t @ w).reshape(3 * r, m)
        return out

    return apply


def rom_rhs(ops: RomOperators, z_r: np.ndarray,
            counter: FlopCounter | None = None) -> np.ndarray:
    """Tensor-form reduced time derivative -J_r g_r at a reduced state (4r,)
    or columns (4r, m).

    Everything is sampled or precomputed: the cost is O(r^2 p + r^3),
    independent of the grid size N.
    """
    z_r = np.asarray(z_r, dtype=np.float64)
    single = z_r.ndim == 1
    zc = z_r[:, None] if single else z_r
    out = _apply_reduced_poisson(ops, zc, ops.grad.gradient(zc, counter), counter)
    out *= -1.0
    if counter is not None:
        counter.add_core(out.size)
    return out[:, 0] if single else out


# ---------------------------------------------------------------------------
# implicit reduced stepping
# ---------------------------------------------------------------------------

def _avf_residual(ops: RomOperators, z_old: np.ndarray, dt: float, method: str):
    """Implicit AVF residual dz + dt J_r(m) gbar_r of either reduced model for
    the step from z_old, as a function of candidate new states (4r, m). The
    method chooses only how J_r's coefficient blocks Q_j are obtained."""
    poisson = (_galerkin_poisson(ops, z_old) if method == "pod"
               else lambda mid, dz, g: _apply_reduced_poisson(ops, mid, g))

    def residual(z_new_cols):
        dz = z_new_cols - z_old[:, None]
        mid = 0.5 * dz
        mid += z_old[:, None]
        out = poisson(mid, dz, ops.grad.chord_mean(mid, dz))
        out *= dt
        out += dz
        return out

    return residual


class _ChordJacobian:
    """LU factors of the dense reduced Newton Jacobian, or None until built,
    and the chord correction rule of fom.newton that uses them.

    integrate_rom creates one per run and hands it to every step, so one
    factorization serves as many steps as it keeps converging; a stand-alone
    rom_avf_step call gets a fresh one."""

    def __init__(self) -> None:
        self.lu = None

    def correct(self, residual, z, res, rnorm, rnorm_prev):
        """The correction -J^{-1} R(z), info 0, with the held factors,
        rebuilt first at z from one batched call of residual on columns
        (4r, m) when none are held or the last correction did not halve
        max |R|."""
        if self.lu is None or (rnorm_prev is not None and rnorm > 0.5 * rnorm_prev):
            eps = math.sqrt(np.finfo(np.float64).eps) * np.maximum(1.0, np.abs(z))
            resb = residual(z[:, None] + np.diag(eps))
            self.factor((resb - res[:, None]) / eps[None, :])
        return self.solve(-res), 0

    def factor(self, jac: np.ndarray) -> None:
        # lu_factor only warns on an exactly zero pivot and getrs would then
        # return inf, so the pivots are checked here instead
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
        # LAPACK's getrs directly: scipy's lu_solve wrapper costs ten times
        # the solve of a 4r system
        x, info = dgetrs(*self.lu, rhs)
        if info != 0:
            raise NumericError(f"reduced Newton solve failed: getrs info {info}")
        return x


def rom_avf_step(ops: RomOperators, z_r: np.ndarray, dt: float,
                 method: str = "pod-deim", solver: str = "dense", *,
                 _chord: _ChordJacobian | None = None,
                 _start: np.ndarray | None = None) -> np.ndarray:
    """One reduced AVF step: J_r at the midpoint applied to the closed-form
    chord mean of the exact reduced gradient, solved by fom.newton with the
    chord rule of a factored dense finite-difference Jacobian (default, best
    for small r) or with fom.krylov_correction (solver="krylov", for large r
    such as full-basis verification runs).

    A stand-alone call builds a fresh Jacobian and starts Newton from z_r.
    integrate_rom passes its factorization through the private _chord
    argument instead, so one factorization is kept across steps and rebuilt
    only when the residual stops halving, and an extrapolated start through
    _start. Newton starts from z_r instead when the model's own height check
    refuses _start."""
    if method not in METHODS:
        raise ConfigError(f"unknown reduced model {method!r}, expected one of {METHODS}")
    if solver not in ("dense", "krylov"):
        raise ConfigError(f"unknown reduced Newton solver {solver!r}")
    z_old = np.asarray(z_r, dtype=np.float64)
    tol_eff = _ROM_NEWTON_TOL * max(1.0, float(np.max(np.abs(z_old))))
    residual = _avf_residual(ops, z_old, dt, method)

    def flat(z):
        return residual(z[:, None])[:, 0]

    if solver == "krylov":
        correct = krylov_correction(flat, max(1.0, float(np.linalg.norm(z_old))), tol_eff)
    else:
        correct = partial((_ChordJacobian() if _chord is None else _chord).correct, residual)
    start, fallback = (z_old, None) if _start is None else (_start, z_old)
    return newton(flat, start, tol_eff, _ROM_NEWTON_MAXITER, "reduced Newton", correct,
                  fallback)


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
    states, evaluated as polynomials of the reduced coefficients.

    Newton starts the first step from z^0, the second from the linear
    extrapolation 2 z^1 - z^0 and every later one from the quadratic
    extrapolation 3 z^k - 3 z^{k-1} + z^{k-2}, with rom_avf_step's
    fallback to z^k. A NumericError of step k is raised again as
    "step k: ..."."""
    if method not in METHODS:
        raise ConfigError(f"unknown reduced model {method!r}, expected one of {METHODS}")
    red = np.empty((initial.z_r.size, num_steps + 1))
    times = initial.t + dt * np.arange(num_steps + 1)

    z = np.asarray(initial.z_r, dtype=np.float64).copy()
    red[:, 0] = z
    chord = _ChordJacobian()
    start = None
    for k in range(1, num_steps + 1):
        if k == 2:
            start = 2.0 * z - red[:, 0]
        elif k > 2:
            start = 3.0 * (z - red[:, k - 2]) + red[:, k - 3]
        try:
            z = rom_avf_step(ops, z, dt, method=method, solver=solver, _chord=chord,
                             _start=start)
        except NumericError as exc:
            raise NumericError(f"step {k}: {exc}") from exc
        red[:, k] = z
    return RomResult(reduced=red, invariants=ops.grad.invariants(red), times=times,
                     method=method)

