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
  midpoint, with no interpolation. Its residual applies
  Q_j = V_a^T diag(F_j) V_b to one column without forming it, O(N r); its
  Jacobian forms Q_j, O(N r^2) once per build.
* pod-deim: the tensor model interpolates F_j by DEIM. With the p-by-r-by-r
  tensors K_1 = sum_n psi_1 x V_u x V_v, K_2 = sum_n psi_2 x V_u x V_s and
  K_3 = sum_n psi_3 x V_v x V_s, stacked as one (3, p, r^2) array, the
  samples f_j give Q_j = K_j f_j, and an evaluation costs O(r^2 p + r^3),
  independent of the grid size N.

The samples P_j^T F_j(lift m) come from one affine map of m: a stacked
matrix of precomputed rows of the POD modes (and of Dx V, Dy V) plus an
offset, applied with one GEMM. RomOperators derives the gradient data, J_r's
constant part and the sampler from the basis, the physics, the grid and the
DEIM points whenever a set is built; only the K_j tensors are precomputed by
precompute_rom and stored in romops.bin. A flop counter passed to rom_rhs is
charged the call's flops, which depend on r and p only.

Both models solve the implicit 4r system with fom.newton and one chord
rule (Kelley 1995): the exact Jacobian of the AVF residual, in closed form
from the same data (_avf_residual), is LU-factored, kept across the steps
of an integrate_rom run and rebuilt, at the current iterate, only when the
residual stops halving. The chord iteration converges linearly, so a close
start saves iterations: integrate_rom marches with fom.march, whose
degree-8 extrapolation through the last nine states each step takes unless
the residual's own height check (at all N nodes for pod, at the DEIM points
for pod-deim) refuses it. From that start one chord correction mostly
reaches the tolerance: at the production configuration both models spend
2.02 residuals per step, against 4.22 from a quadratic extrapolation. A
non-finite state or residual stops the iteration at once.

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
from .fom import (Physics, _coefficients, _require_finite, _require_shape, grad_hamiltonian,
                  invariants, march, newton)
from .grid import Grid, apply_dx, apply_dy
from .pod import PodBasis

__all__ = [
    "RomState",
    "RomOperators",
    "RomResult",
    "FlopCounter",
    "precompute_rom",
    "rom_operators_from_parts",
    "rom_rhs",
    "rom_avf_step",
    "integrate_rom",
]

METHODS = ("pod", "pod-deim")
# each method's tag in artifact names and kinds and in report keys
TAGS = {method: method.replace("-", "_") for method in METHODS}

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
    """Reduced coefficients (4r,) blocked (h, u, v, s). Nothing reads t; it
    stays for callers that build RomState(z_r=..., t=0.0)."""

    z_r: np.ndarray
    t: float = 0.0


@dataclass
class FlopCounter:
    """Tallies floating-point work of the online pod-deim path.

    core counts the reduced algebra (gradient polynomial, the Q_j blocks,
    the J_r product); sampling counts the P^T F evaluations. rom_rhs adds
    both in one place, from r, p, k.size and the sampler's nonzero count,
    counting only the nonzero blocks of the block-sparse operands. One
    rom_rhs call at r=5, p=35 counts 7,335 core and 2,800 sampling flops.
    The formula reads no N-sized operand; that the whole online loop stays
    independent of N is checked by the allocation peaks of acceptance
    criterion 8.
    """

    core: int = 0
    sampling: int = 0


# ---------------------------------------------------------------------------
# offline precompute
# ---------------------------------------------------------------------------

def _three_way(a: np.ndarray, b: np.ndarray, c: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """t[i, j, k] = sum_n a[n, i] b[n, j] c[n, k], one GEMM per i, so the
    largest temporary is one (N, c columns) block. Written into out, a
    C-order array of t's shape, when given."""
    if out is None:
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

    def quadratic(self, x: np.ndarray) -> np.ndarray:
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
        return out.reshape(m, 4 * r).T

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """H(x) = dQ/dx at a reduced state x (4r,): the symmetric (4r, 4r)
        matrix with H(x) x = 2 Q(x), from six contractions of the tensors
        with one block of x each."""
        r = self.t_uu.shape[0]
        a, u, v, s = x.reshape(4, r)
        out = np.zeros((4, r, 4, r))
        out[0, :, 0] = (self.t_hs.reshape(r * r, r) @ s).reshape(r, r)
        out[0, :, 1] = (self.t_uu.reshape(r * r, r) @ u).reshape(r, r)
        out[0, :, 2] = (self.t_vv.reshape(r * r, r) @ v).reshape(r, r)
        for i, k, t in ((0, 3, self.t_hs), (1, 1, self.t_uu), (2, 2, self.t_vv)):
            out[i, :, k] = (a @ t.reshape(r, r * r)).reshape(r, r)
        for k in (1, 2, 3):
            out[k, :, 0] = out[0, :, k].T
        return out.reshape(4 * r, 4 * r)

    def _affine(self, x: np.ndarray) -> np.ndarray:
        out = self.lin @ x
        out += self.c
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """g_r(x) for reduced columns x (4r, m)."""
        out = self._affine(x)
        out += self.quadratic(x)
        return out

    def chord_mean(self, mid: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """int_0^1 g_r(z_old + xi dz) dxi = g_r(mid) + Q(dz)/12 for columns
        (4r, m), mid = z_old + dz/2; Q(dz/sqrt(12)) = Q(dz)/12 lets one
        quadratic evaluation serve both."""
        m = mid.shape[1]
        q = self.quadratic(np.concatenate([mid, dz * (1.0 / math.sqrt(12.0))], axis=1))
        out = self._affine(mid)
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


def _gradient_data(basis: PodBasis, physics: Physics, grid: Grid) -> _Gradient:
    """The exact reduced gradient and the polynomial invariants of a basis."""
    vh, vu, vv, vs = basis.modes
    mh, mu, mv, ms = basis.means
    r = basis.r
    area = grid.cell_area
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
    inv_lin[1, 1] = -apply_dy(grid, vu).sum(axis=0)
    inv_lin[1, 2] = apply_dx(grid, vv).sum(axis=0)
    inv_lin[2, 0] = vh.T @ ms
    inv_lin[2, 3] = vs.T @ mh
    return _Gradient(
        c=basis.project_modes(grad_hamiltonian(basis.mean_z, physics)),
        lin=lin.reshape(4 * r, 4 * r),
        t_uu=_three_way(vh, vu, vu),
        t_vv=_three_way(vh, vv, vv),
        t_hs=_three_way(vh, vh, vs),
        inv0=invariants(basis.mean_z, physics, grid)[:, None],
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
    offset: np.ndarray  # (len(_SAMPLED) p,)
    nnz: int            # entries of rows outside its all-zero (p, r) blocks

    def sample(self, z: np.ndarray) -> np.ndarray:
        """The sampled F1, F2, F3 at a reduced state z (4r,), as (3, p)."""
        prim = self.rows @ z
        prim += self.offset
        height, num = prim.reshape(2, NUM_NONLIN, -1)
        hmin = height.min()
        if not hmin > 0.0:
            kind = "nonpositive" if hmin <= 0.0 else "non-finite"
            raise NumericError(f"{kind} sampled height in reduced model (min {hmin:.6e})")
        num[0] += self.f
        return num / height

    def derivative(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sampled F1, F2, F3 at a reduced state z (4r,), (3, p), and
        their derivative in z, (3, p, 4r): F = num / height with num and
        height affine in z, so dF/dz = (num' - F height') / height."""
        f = self.sample(z)
        height_rows, num_rows = self.rows.reshape(2, NUM_NONLIN, f.shape[1], -1)
        height = height_rows @ z + self.offset[: f.size].reshape(f.shape)
        return f, (num_rows - f[:, :, None] * height_rows) / height[:, :, None]


@dataclass
class RomOperators:
    """Everything the online phase needs, all independent of N except the
    references it is built from.

    Only k is computed elsewhere (by precompute_rom, or read back from
    romops.bin): the K_j tensors, (3, p, r*r) with k[j - 1, i] the (r, r)
    block of sample i of F_j. The rest is derived here from the basis, the
    physics, the grid and the DEIM points: grad, the exact reduced gradient
    of both models; j0, the constant part of J_r, that is a1 = V_h^T Dx V_u,
    a2 = V_h^T Dy V_v, -a1^T and -a2^T placed in a (4r, 4r) array; and, with
    deim, the sampler that gives the tensor model's Q_j with k. A set
    without deim and k drives only the Galerkin (pod) model, which also
    reads the basis, physics and grid online.
    """

    basis: PodBasis
    physics: Physics
    grid: Grid
    deim: DeimSet | None = None
    k: np.ndarray | None = None
    grad: _Gradient = field(init=False, repr=False)
    j0: np.ndarray = field(init=False, repr=False)
    sampler: _Sampler | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        basis, grid, r = self.basis, self.grid, self.basis.r
        if basis.N != grid.N:
            raise ConfigError(f"basis N={basis.N} does not match grid N={grid.N}")
        shape = None if self.k is None else self.k.shape
        expected = None if self.deim is None else (NUM_NONLIN, self.deim.p, r * r)
        if shape != expected:
            raise ConfigError(f"reduced operator k has shape {shape}, expected {expected} "
                              f"for r={r}")
        vh, vu, vv, _ = basis.modes
        a1, a2 = vh.T @ apply_dx(grid, vu), vh.T @ apply_dy(grid, vv)
        j0 = np.zeros((4, r, 4, r))
        j0[0, :, 1] = a1
        j0[0, :, 2] = a2
        j0[1, :, 0] = -a1.T
        j0[2, :, 0] = -a2.T
        self.j0 = j0.reshape(4 * r, 4 * r)
        self.grad = _gradient_data(basis, self.physics, grid)
        self.sampler = (None if self.deim is None
                        else _build_sampler(basis, self.deim.indices, self.physics, grid))

    @property
    def r(self) -> int:
        return self.basis.r


def _build_sampler(basis: PodBasis, indices: np.ndarray, physics: Physics,
                   grid: Grid) -> _Sampler:
    """The sampler of F1..F3 at the nodes indices[j - 1] of each F_j, (3, p)."""
    vh, vu, vv, vs = basis.modes
    mh, mu, mv, ms = basis.means
    dx, dy = partial(apply_dx, grid), partial(apply_dy, grid)
    r = basis.r
    # primitive -> {block of z_r: (modes, mean)}, the affine lift of its field
    fields = {
        "h": {0: (vh, mh)},
        "curl": {1: (-dy(vu), -dy(mu)), 2: (dx(vv), dx(mv))},
        "sx": {3: (dx(vs), dx(ms))}, "sy": {3: (dy(vs), dy(ms))},
    }
    p = indices.shape[1]
    # blocks are written into the one result, not stacked from copies: the
    # Galerkin Jacobian's sampler of every node is (6N, 4r)
    rows = np.zeros((len(_SAMPLED) * p, 4 * r))
    offset = np.zeros(len(_SAMPLED) * p)
    nnz = 0
    for i, name in enumerate(_SAMPLED):
        idx = indices[int(name[-1]) - 1]
        block, const = rows[i * p : (i + 1) * p], offset[i * p : (i + 1) * p]
        for k, (modes, mean) in fields[name[:-1]].items():
            block[:, k * r : (k + 1) * r] = modes[idx]
            const += mean[idx]
            nnz += p * r
    return _Sampler(f=physics.f, rows=rows, offset=offset, nnz=nnz)


def precompute_rom(basis: PodBasis, deim: DeimSet, physics: Physics, grid: Grid) -> RomOperators:
    """The tensor model's operator set: the K_j tensors k (offline,
    O(N p r^2) work), with everything else derived by RomOperators. Each
    K_j is written in place into the one (3, p, r, r) result."""
    if deim.psi.shape[1] != basis.N:
        raise ConfigError("DEIM operators were built on a different grid")
    r = basis.r
    k = np.empty((NUM_NONLIN, deim.p, r, r))
    for kj, psi, (a, b) in zip(k, deim.psi, _SKEW_PAIRS):
        _three_way(psi, basis.modes[a], basis.modes[b], out=kj)
    return RomOperators(basis, physics, grid, deim, k.reshape(NUM_NONLIN, deim.p, r * r))


def rom_operators_from_parts(matrices: dict[str, np.ndarray], basis: PodBasis,
                             deim: DeimSet, physics: Physics, grid: Grid) -> RomOperators:
    """Rebuild a RomOperators from deserialized matrices plus its ingredients.

    Only matrices["k"] is read, and RomOperators checks its shape against
    the basis size r and the sample count p."""
    if "k" not in matrices:
        raise ConfigError("missing reduced operator k")
    return RomOperators(basis, physics, grid, deim, matrices["k"])


# ---------------------------------------------------------------------------
# online evaluation
# ---------------------------------------------------------------------------

def _reduced_poisson(ops: RomOperators, q) -> np.ndarray:
    """J_r (4r, 4r) for coefficient blocks q, Q_1..Q_3 of shape (r, r): the
    constant part j0 with each Q_j set next to its negated transpose, skew
    by construction."""
    r = ops.r
    jr = ops.j0.copy()
    blocks = jr.reshape(4, r, 4, r)
    for qj, (a, b) in zip(q, _SKEW_PAIRS):
        np.negative(qj, out=blocks[a, :, b])
        blocks[b, :, a] = qj.T
    return jr


def _tensor_blocks(ops: RomOperators, f: np.ndarray) -> np.ndarray:
    """Tensor model: Q_j = K_j f_j (3, r, r) from the DEIM samples f (3, p)
    of F1..F3."""
    return np.matmul(f[:, None, :], ops.k).reshape(NUM_NONLIN, ops.r, ops.r)


def _apply_reduced_poisson(ops: RomOperators, mid: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Tensor model: J_r(mid) g for one midpoint mid and one column g, both
    (4r, 1), with Q_j = K_j f_j from the DEIM samples f_j of F1..F3 at mid."""
    if ops.sampler is None:
        raise ConfigError("tensor operators not available; build with precompute_rom")
    return _reduced_poisson(ops, _tensor_blocks(ops, ops.sampler.sample(mid[:, 0]))) @ g


def _galerkin_poisson(ops: RomOperators, mid: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Galerkin model: J_r(mid) g = V^T J(lift mid) V g for one midpoint mid
    and one column g, both (4r, 1). The derivative blocks are J_r's constant
    part j0; Q_j = V_a^T diag(F_j) V_b, F_j exact at all N nodes of lift mid,
    is applied unformed as V_a^T (F_j V_b g_b) and V_b^T (F_j V_a g_a):
    O(N r)."""
    basis = ops.basis
    N, r = basis.N, basis.r
    f1, f2, f3 = _coefficients(basis.lift_array(mid), ops.physics.f, ops.grid,
                               "midpoint height").reshape(3, N, 1)
    # blocks u, v, s of V g, and J's coupling terms on the grid, the u block
    # with its sign flipped: -w_u = F1 V_v g_v + F2 V_s g_s
    vu, vv, vs = basis.modes[1:] @ g.reshape(4, r, 1)[1:]
    w, prod = np.empty((3, N, 1)), np.empty((N, 1))
    np.multiply(f1, vv, out=w[0])
    w[0] += np.multiply(f2, vs, out=prod)
    np.multiply(f1, vu, out=w[1])
    w[1] -= np.multiply(f3, vs, out=prod)
    np.multiply(f2, vu, out=w[2])
    w[2] += np.multiply(f3, vv, out=prod)
    proj = basis.modes[1:].transpose(0, 2, 1) @ w
    out = ops.j0 @ g
    out[r : 2 * r] -= proj[0]
    out[2 * r :] += proj[1:].reshape(2 * r, 1)
    return out


def rom_rhs(ops: RomOperators, z_r: np.ndarray,
            counter: FlopCounter | None = None) -> np.ndarray:
    """Tensor-form reduced time derivative -J_r g_r at a reduced state (4r,);
    a state of any other shape raises ValueError.

    Everything is sampled or precomputed: the cost is O(r^2 p + r^3),
    independent of the grid size N. A counter is charged the flops.
    """
    z = np.asarray(z_r, dtype=np.float64)
    _require_shape(z, 4 * ops.r, f"r={ops.r}")
    out = _apply_reduced_poisson(ops, z[:, None], ops.grad.gradient(z[:, None]))
    out *= -1.0
    if counter is not None:
        r = ops.r
        # c + L z (the 9 nonzero (r, r) blocks of L and the constant), Q(z)
        # (three r^3 and six r^2 contractions, the scalings and adds) and
        # their sum; the Q_j = K_j f_j, the 10 nonzero (r, r) blocks of J_r
        # and the sign
        counter.core += (9 * 2 * r * r + 4 * r + 3 * 2 * r**3 + 6 * 2 * r**2 + 5 * r + 4 * r
                         + 2 * ops.k.size + 10 * 2 * r * r + 4 * r)
        # the sampling GEMM's nonzero blocks, the 6p offset adds, f and the
        # 3p divisions
        counter.sampling += 2 * ops.sampler.nnz + 10 * ops.deim.p
    return out[:, 0]


# ---------------------------------------------------------------------------
# implicit reduced stepping
# ---------------------------------------------------------------------------

def _avf_residual(ops: RomOperators, z_old: np.ndarray, dt: float, method: str):
    """Implicit AVF residual R(z) = dz + dt J_r(m) gbar_r of either reduced
    model for the step from z_old, and its exact Jacobian, as functions of a
    candidate new state z (4r,):

        dR/dz = I + dt (J_r(m) G + D / 2),    G = (L + H(m + dz/6)) / 2.

    G is d gbar_r / dz, with H = dQ/dx. D = d(J_r(m) gbar_r)/dm at fixed
    gbar_r: for each pair (a, b) of _SKEW_PAIRS, D_a -= (K_j gbar_b) dF_j and
    D_b += (K_j^T gbar_a) dF_j, with dF_j the derivative of the samples f_j
    of F_j. The Galerkin model is the tensor model with every node sampled
    and K_j[n] = V_a[n] x V_b[n], so its Jacobian builds that all-node
    sampler, (6N, 4r). The method chooses only how J_r's blocks Q_j are
    obtained. The residual applies J_r(m) to one column (the Galerkin product
    unformed, skew to round-off); the Jacobian forms J_r(m), exactly skew,
    with _reduced_poisson from the f_j that the sampler's derivative returns:
    Q_j = K_j f_j, or V_a^T diag(F_j) V_b in O(N r^2) once per build."""
    grad, r = ops.grad, ops.r
    poisson = _galerkin_poisson if method == "pod" else _apply_reduced_poisson

    def split(z):
        dz = (z - z_old)[:, None]
        return dz, z_old[:, None] + 0.5 * dz

    def residual(z):
        dz, mid = split(z)
        return dz[:, 0] + dt * poisson(ops, mid, grad.chord_mean(mid, dz))[:, 0]

    def jacobian(z):
        dz, mid = split(z)
        gbar = grad.chord_mean(mid, dz).reshape(4, r)
        # Q_j, and rows i of K_j gbar_b and K_j^T gbar_a for each pair
        if method == "pod":
            basis, modes = ops.basis, ops.basis.modes
            nodes = np.broadcast_to(np.arange(basis.N), (NUM_NONLIN, basis.N))
            f, df = _build_sampler(basis, nodes, ops.physics, ops.grid).derivative(mid[:, 0])
            q = [modes[a].T @ (fj[:, None] * modes[b]) for fj, (a, b) in zip(f, _SKEW_PAIRS)]
            weights = [(modes[a] * (modes[b] @ gbar[b])[:, None],
                        modes[b] * (modes[a] @ gbar[a])[:, None]) for a, b in _SKEW_PAIRS]
        else:
            p = ops.deim.p
            f, df = ops.sampler.derivative(mid[:, 0])
            q = _tensor_blocks(ops, f)
            weights = [((kj.reshape(p * r, r) @ gbar[b]).reshape(p, r),
                        gbar[a] @ kj.reshape(p, r, r)) for kj, (a, b) in zip(ops.k, _SKEW_PAIRS)]
        jac = _reduced_poisson(ops, q) @ (0.5 * (grad.lin + grad.hessian((mid + dz / 6.0)[:, 0])))
        d = np.zeros((4, r, 4 * r))
        for (kb, ka), dfj, (a, b) in zip(weights, df, _SKEW_PAIRS):
            d[a] -= kb.T @ dfj
            d[b] += ka.T @ dfj
        return np.eye(4 * r) + dt * (jac + 0.5 * d.reshape(4 * r, 4 * r))

    return residual, jacobian


class _ChordJacobian:
    """LU factors of the exact reduced Newton Jacobian, or None until built,
    and the chord correction rule of fom.newton that uses them.

    integrate_rom creates one per run and hands it to every step, so one
    factorization serves as many steps as it keeps converging; a stand-alone
    rom_avf_step call gets a fresh one."""

    def __init__(self) -> None:
        self.lu = None

    def correct(self, jacobian, z, res, rnorm, rnorm_prev):
        """The correction -J^{-1} R(z), info 0, with the held factors,
        rebuilt first from jacobian(z) when none are held or the last
        correction did not halve max |R|."""
        if self.lu is None or (rnorm_prev is not None and rnorm > 0.5 * rnorm_prev):
            self.factor(jacobian(z))
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
                 method: str = "pod-deim", *, start: np.ndarray | None = None,
                 _chord: _ChordJacobian | None = None) -> np.ndarray:
    """One reduced AVF step: J_r at the midpoint applied to the closed-form
    chord mean of the exact reduced gradient, solved by fom.newton with the
    chord rule of the residual's exact Jacobian, LU-factored.

    A z_r not of shape (4r,) raises ValueError, and a non-finite entry
    NumericError naming its block and coefficient, before any residual. Newton
    starts from start, such as fom.march's, when given and the model's own
    height check passes there; otherwise from z_r. A stand-alone call builds a
    fresh Jacobian; integrate_rom passes its factorization through the private
    _chord argument instead, so one factorization is kept across steps and
    rebuilt only when the residual stops halving."""
    if method not in METHODS:
        raise ConfigError(f"unknown reduced model {method!r}, expected one of {METHODS}")
    z_old = np.asarray(z_r, dtype=np.float64)
    _require_shape(z_old, 4 * ops.r, f"r={ops.r}")
    _require_finite(z_old, "reduced state", "coefficient")
    tol_eff = _ROM_NEWTON_TOL * max(1.0, float(np.max(np.abs(z_old))))
    residual, jacobian = _avf_residual(ops, z_old, dt, method)
    correct = partial((_ChordJacobian() if _chord is None else _chord).correct, jacobian)
    start, fallback = (z_old, None) if start is None else (start, z_old)
    return newton(residual, start, tol_eff, _ROM_NEWTON_MAXITER, "reduced Newton", correct,
                  fallback)


@dataclass
class RomResult:
    """Reduced trajectory (4r, K+1) and invariants of its lift (K+1, 4);
    state k is at time k dt."""

    reduced: np.ndarray
    invariants: np.ndarray
    method: str


def integrate_rom(ops: RomOperators, initial: RomState, dt: float, num_steps: int,
                  method: str = "pod-deim") -> RomResult:
    """March the reduced model with fom.march and record the invariants of
    the lifted states, evaluated as polynomials of the reduced coefficients.
    One chord Jacobian serves all steps of the run. An initial state not of
    shape (4r,) raises ValueError."""
    if method not in METHODS:
        raise ConfigError(f"unknown reduced model {method!r}, expected one of {METHODS}")
    z0 = np.asarray(initial.z_r, dtype=np.float64)
    _require_shape(z0, 4 * ops.r, f"r={ops.r}")
    chord = _ChordJacobian()

    def step(z, start):
        return rom_avf_step(ops, z, dt, method=method, start=start, _chord=chord)

    red = np.stack(list(march(step, z0, num_steps)), axis=1)
    return RomResult(reduced=red, invariants=ops.grad.invariants(red), method=method)

