"""Reduced-order models of the thermal shallow water system.

Two reduced models share one AVF time stepper:

* pod: plain Galerkin projection. Every right-hand side evaluation lifts to
  the full grid, evaluates the nonlinearities there, and projects back, so a
  step costs O(N) but needs no trained interpolation.
* pod-deim: the tensor-accelerated model. The Hadamard products between
  Poisson-side fields (F1..F3) and gradient-side fields (F4..F7) are
  precomputed against the DEIM bases into six r-by-p^2 matricized tensors

      G_i = V_a^T G (Psi_x kron V_b V_b^T Psi_y),

  where G is the face-splitting product with G(a kron b) = a o b. Row m of
  the N-by-p^2 intermediate is the Kronecker product of row m of Psi_x and
  row m of V_b V_b^T Psi_y, so the tensors are accumulated from streamed row
  blocks and the N-by-p^2 matrix never exists. Online, each tensor is viewed
  as (r*p, p) and applied with two small matmuls: O(r p^2) per evaluation,
  no p^2-length temporaries beyond the (r*p,) contraction buffer.

The online nonlinearity samples P_j^T F_j(lifted state) come from one
affine map of z_r: a stacked matrix of precomputed rows of the POD modes (and
of Dx V, Dy V for the derivative-bearing fields) plus an offset, applied
with one GEMM, so a pod-deim step does no work proportional to N; a flop
counter can be attached to prove it.

The AVF analog evaluates the Poisson-side samples at the step midpoint and
chord-averages the gradient-side samples with a 2-point Gauss rule, exact
for these quadratic fields. Both reduced models solve the 4r-dimensional
implicit system with a chord Newton iteration. One LU-factored dense
finite-difference Jacobian is kept across the steps of an integrate_rom run
and rebuilt, at the current iterate, only when the residual stops halving.
The Galerkin residual lifts the old state once per step; each evaluation
then needs only the modes product of the increment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator

from .deim import NUM_NONLIN, DeimSet, _eval_grad_side, _eval_poisson_side
from .errors import ConfigError, NumericError
from .fom import Physics, State, apply_poisson, gmres, invariants
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
    "rom_rhs_pod_only",
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

# 2-point Gauss-Legendre nodes on [0, 1]; exact for the quadratic chord
# integrand of the gradient-side fields.
_GAUSS_NODES = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))

# Streamed row-block budget for tensor assembly (bytes per buffer).
_STREAM_BYTES = 64 << 20


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

    core counts the reduced algebra (tensor contractions, r/p matmuls);
    sampling counts the P^T F evaluations. Both are derived from actual
    operand shapes at the call sites, so any stray N-sized operation in the
    online path would show up here.
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

def _stream_tensor(V: np.ndarray, psi: np.ndarray, D: np.ndarray) -> np.ndarray:
    """G = V^T C with C(m, :) = kron(psi(m, :), D(m, :)), streamed over rows.

    Memory never exceeds one row-block buffer of ~_STREAM_BYTES, keeping the
    high-water mark at O(N p + r p^2) instead of O(N p^2).
    """
    N, r = V.shape
    p = psi.shape[1]
    out = np.zeros((r, p * p))
    rows = max(1, min(N, _STREAM_BYTES // (p * p * 8)))
    buf = np.empty((rows, p * p))
    for lo in range(0, N, rows):
        hi = min(N, lo + rows)
        blk = buf[: hi - lo].reshape(hi - lo, p, p)
        np.multiply(psi[lo:hi, :, None], D[lo:hi, None, :], out=blk)
        out += V[lo:hi].T @ buf[: hi - lo]
    return out


# Sampled primitives of the lifted state, one block of p rows each, in the
# order of _Sampler.rows: the point set of each F_j gets what F_j needs.
_SAMPLED = ("h1", "curl1", "h2", "sx2", "h3", "sy3",
            "h4", "u4", "v4", "s4", "h5", "u5", "h6", "v6", "h7")


@dataclass
class _Sampler:
    """P_j^T F_j(lift(z_r)) for all seven j from one affine map of z_r.

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
    b4: np.ndarray      # bottom at the points of F4 and F7, (p, 1)
    b7: np.ndarray

    def sample(self, z_cols: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
        """All seven sampled nonlinearities for reduced columns (4r, m) -> (7, p, m)."""
        m = z_cols.shape[1]
        p = self.b4.shape[0]
        prim = self.rows @ z_cols
        prim += self.offset
        h1, curl1, h2, sx2, h3, sy3, h4, u4, v4, s4, h5, u5, h6, v6, h7 = (
            prim.reshape(len(_SAMPLED), p, m))
        hmin = min(h1.min(), h2.min(), h3.min())
        if not hmin > 0.0:
            raise NumericError(f"nonpositive sampled height in reduced model (min {hmin:.6e})")
        out = np.empty((NUM_NONLIN, p, m))
        np.add(curl1, self.f, out=out[0])
        out[0] /= h1
        np.divide(sx2, h2, out=out[1])
        np.divide(sy3, h3, out=out[2])
        out[3] = 0.5 * (u4 * u4 + v4 * v4) + s4 * (h4 + self.b4)
        np.multiply(h5, u5, out=out[4])
        np.multiply(h6, v6, out=out[5])
        out[6] = h7 * (0.5 * h7 + self.b7)
        if counter is not None:
            # the GEMM's nonzero blocks (the zero blocks add nothing) and
            # ~30 pointwise ops on (p, m) blocks: 15 offset adds, 16 field ops
            counter.add_sampling(2 * self.nnz * m + 30 * p * m)
        return out


@dataclass
class RomOperators:
    """Everything the online phase needs, all independent of N except refs.

    a1..a4 are the projected derivative operators (r x r); l_* the r x p
    linear-in-samples maps; g1..g6 the matricized quadratic tensors (r, p^2).
    The basis/deim/physics/diffops references serve lifting, diagnostics and
    serialization, not the per-step arithmetic. A DEIM-free instance (from
    galerkin_operators) leaves everything past diffops unset and can only
    drive the pod method.
    """

    basis: PodBasis
    deim: DeimSet | None
    physics: Physics
    diffops: DiffOps
    a1: np.ndarray = None
    a2: np.ndarray = None
    a3: np.ndarray = None
    a4: np.ndarray = None
    l_h5: np.ndarray = None
    l_h6: np.ndarray = None
    l_u4: np.ndarray = None
    l_v4: np.ndarray = None
    g1: np.ndarray = None
    g2: np.ndarray = None
    g3: np.ndarray = None
    g4: np.ndarray = None
    g5: np.ndarray = None
    g6: np.ndarray = None
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
        return {
            "a1": self.a1, "a2": self.a2, "a3": self.a3, "a4": self.a4,
            "l_h5": self.l_h5, "l_h6": self.l_h6, "l_u4": self.l_u4, "l_v4": self.l_v4,
            "g1": self.g1, "g2": self.g2, "g3": self.g3,
            "g4": self.g4, "g5": self.g5, "g6": self.g6,
        }


def _build_sampler(basis: PodBasis, deim: DeimSet, physics: Physics, ops: DiffOps) -> _Sampler:
    vh, vu, vv, vs = basis.modes
    mh, mu, mv, ms = basis.means
    dx, dy = partial(apply_dx, ops), partial(apply_dy, ops)
    r = basis.r
    # primitive -> {block of z_r: (modes, mean)}, the affine lift of its field
    fields = {
        "h": {0: (vh, mh)}, "u": {1: (vu, mu)}, "v": {2: (vv, mv)}, "s": {3: (vs, ms)},
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
                    nnz=nnz, b4=physics.b[deim[4].indices][:, None],
                    b7=physics.b[deim[7].indices][:, None])


def galerkin_operators(basis: PodBasis, physics: Physics, ops: DiffOps) -> RomOperators:
    """Operator container for the DEIM-free Galerkin model (pod method only)."""
    if basis.N != ops.grid.N:
        raise ConfigError(f"basis N={basis.N} does not match grid N={ops.grid.N}")
    return RomOperators(basis=basis, deim=None, physics=physics, diffops=ops)


def precompute_rom(basis: PodBasis, deim: DeimSet, physics: Physics, ops: DiffOps) -> RomOperators:
    """Assemble all N-independent reduced operators (offline, O(N r p) work)."""
    if basis.N != ops.grid.N:
        raise ConfigError(f"basis N={basis.N} does not match grid N={ops.grid.N}")
    if deim[1].phi.shape[0] != basis.N:
        raise ConfigError("DEIM operators were built on a different grid")
    vh, vu, vv, vs = basis.modes
    dx, dy = partial(apply_dx, ops), partial(apply_dy, ops)
    psi = [deim[j].psi for j in range(1, NUM_NONLIN + 1)]

    a1 = vh.T @ dx(vu)
    a2 = vh.T @ dy(vv)
    a3 = vu.T @ dx(vh)
    a4 = vv.T @ dy(vh)

    # V_w^T Psi_j projections shared by the linear maps and the D factors.
    bu5 = vu.T @ psi[4]
    bv6 = vv.T @ psi[5]
    bh4 = vh.T @ psi[3]
    bs7 = vs.T @ psi[6]

    d5 = vu @ bu5
    d6 = vv @ bv6
    d7 = vs @ bs7

    return RomOperators(
        basis=basis, deim=deim, physics=physics, diffops=ops,
        a1=a1, a2=a2, a3=a3, a4=a4,
        l_h5=a1 @ bu5, l_h6=a2 @ bv6, l_u4=a3 @ bh4, l_v4=a4 @ bh4,
        g1=_stream_tensor(vu, psi[0], d6),
        g2=_stream_tensor(vu, psi[1], d7),
        g3=_stream_tensor(vv, psi[0], d5),
        g4=_stream_tensor(vv, psi[2], d7),
        g5=_stream_tensor(vs, psi[1], d5),
        g6=_stream_tensor(vs, psi[2], d6),
        sampler=_build_sampler(basis, deim, physics, ops),
    )


def rom_operators_from_parts(matrices: dict[str, np.ndarray], basis: PodBasis,
                             deim: DeimSet, physics: Physics, ops: DiffOps) -> RomOperators:
    """Rebuild a RomOperators from deserialized matrices plus its ingredients.

    The sampler rows are cheap to recompute, so only the expensive tensor and
    projection matrices come from the file; shapes are validated against the
    basis size r and sample count p."""
    r, p = basis.r, deim.p
    expected = {}
    for name in ("a1", "a2", "a3", "a4"):
        expected[name] = (r, r)
    for name in ("l_h5", "l_h6", "l_u4", "l_v4"):
        expected[name] = (r, p)
    for name in ("g1", "g2", "g3", "g4", "g5", "g6"):
        expected[name] = (r, p * p)
    for name, shape in expected.items():
        if name not in matrices:
            raise ConfigError(f"missing reduced operator {name}")
        if matrices[name].shape != shape:
            raise ConfigError(
                f"reduced operator {name} has shape {matrices[name].shape}, "
                f"expected {shape} for r={r}, p={p}")
    return RomOperators(
        basis=basis, deim=deim, physics=physics, diffops=ops,
        **{name: matrices[name] for name in expected},
        sampler=_build_sampler(basis, deim, physics, ops),
    )


# ---------------------------------------------------------------------------
# online evaluation
# ---------------------------------------------------------------------------

def _quad(gmat: np.ndarray, a: np.ndarray, b: np.ndarray,
          counter: FlopCounter | None) -> np.ndarray:
    """Apply a matricized tensor: G (a kron b), batched over columns.

    gmat has shape (r, p^2); a and b are (p, m). Cost 2 r p^2 m + 2 r p m,
    with only an (r p, m) temporary.
    """
    p, m = b.shape
    r = gmat.shape[0]
    tmp = (gmat.reshape(r * p, p) @ b).reshape(r, p, m)
    out = np.einsum("ipm,pm->im", tmp, a)
    if counter is not None:
        counter.add_core(2 * r * p * p * m + 2 * r * p * m)
    return out


def _assemble_delta(ops: RomOperators, fj: np.ndarray, fg: np.ndarray,
                    counter: FlopCounter | None) -> np.ndarray:
    """Signed reduced vector field. fj holds the Poisson-side samples
    (F1, F2, F3), fg the gradient-side samples (F4..F7); shapes (3|4, p, m)."""
    f1, f2, f3 = fj[0], fj[1], fj[2]
    f4, f5, f6, f7 = fg[0], fg[1], fg[2], fg[3]
    m = f1.shape[1]
    r, p = ops.l_h5.shape

    def lin(L, x):
        if counter is not None:
            counter.add_core(2 * r * p * m)
        return L @ x

    dh = lin(ops.l_h5, f5) + lin(ops.l_h6, f6)
    du = lin(ops.l_u4, f4) - _quad(ops.g1, f1, f6, counter) - _quad(ops.g2, f2, f7, counter)
    dv = lin(ops.l_v4, f4) + _quad(ops.g3, f1, f5, counter) - _quad(ops.g4, f3, f7, counter)
    ds = _quad(ops.g5, f2, f5, counter) + _quad(ops.g6, f3, f6, counter)
    if counter is not None:
        counter.add_core(7 * r * m)
    return -np.concatenate([dh, du, dv, ds])


def rom_rhs(ops: RomOperators, z_r: np.ndarray,
            counter: FlopCounter | None = None) -> np.ndarray:
    """Tensor-form reduced time derivative at a reduced state (4r,).

    Everything is sampled or precomputed: the cost is O(p r + r p^2),
    independent of the grid size N.
    """
    if ops.sampler is None:
        raise ConfigError("tensor operators not available; build with precompute_rom")
    z_r = np.asarray(z_r, dtype=np.float64)
    single = z_r.ndim == 1
    zc = z_r[:, None] if single else z_r
    f = ops.sampler.sample(zc, counter)
    out = _assemble_delta(ops, f[:3], f[3:], counter)
    return out[:, 0] if single else out


def _pod_galerkin_delta(basis: PodBasis, physics: Physics, dops: DiffOps,
                        fj: np.ndarray, fg: np.ndarray) -> np.ndarray:
    """Signed Galerkin field from full-grid nonlinearities.

    fj carries (F1, F2, F3), fg carries (F4..F7); shapes (3|4, N, m)."""
    vh, vu, vv, vs = basis.modes
    dx, dy = partial(apply_dx, dops), partial(apply_dy, dops)
    f1, f2, f3 = fj[0], fj[1], fj[2]
    t4 = vh @ (vh.T @ fg[0])
    t5 = vu @ (vu.T @ fg[1])
    t6 = vv @ (vv.T @ fg[2])
    t7 = vs @ (vs.T @ fg[3])
    dh = vh.T @ (dx(t5) + dy(t6))
    du = vu.T @ (dx(t4) - f1 * t6 - f2 * t7)
    dv = vv.T @ (dy(t4) + f1 * t5 - f3 * t7)
    ds = vs.T @ (f2 * t5 + f3 * t6)
    return -np.concatenate([dh, du, dv, ds])


def rom_rhs_pod_only(basis: PodBasis, z_r: np.ndarray, physics: Physics,
                     ops: DiffOps) -> np.ndarray:
    """DEIM-free Galerkin reduced time derivative (full-order cost)."""
    z_r = np.asarray(z_r, dtype=np.float64)
    single = z_r.ndim == 1
    zc = z_r[:, None] if single else z_r
    lifted = basis.lift_array(zc)
    fj = _eval_poisson_side(lifted, physics, ops)
    fg = _eval_grad_side(lifted, physics)
    out = _pod_galerkin_delta(basis, physics, ops, fj, fg)
    return out[:, 0] if single else out


# ---------------------------------------------------------------------------
# implicit reduced stepping
# ---------------------------------------------------------------------------

def _deim_residual(ops, z_old, dt):
    """Implicit AVF residual of the tensor model for the step from z_old, as
    a function of candidate new states (4r, m)."""
    x1, x2 = _GAUSS_NODES

    def residual(z_new_cols):
        dz = z_new_cols - z_old[:, None]
        m = z_new_cols.shape[1]
        # one batched sampler pass over [chord(x1) | chord(x2) | midpoint]
        states = np.empty((z_old.size, 3 * m))
        states[:, :m] = z_old[:, None] + x1 * dz
        states[:, m : 2 * m] = z_old[:, None] + x2 * dz
        states[:, 2 * m :] = z_old[:, None] + 0.5 * dz
        f = ops.sampler.sample(states, None)
        fbar = 0.5 * (f[3:, :, :m] + f[3:, :, m : 2 * m])
        fmid = f[:3, :, 2 * m :]
        return dz - dt * _assemble_delta(ops, fmid, fbar, None)

    return residual


def _pod_residual(ops, z_old, dt):
    """Implicit AVF residual of the Galerkin model for the step from z_old,
    as a function of candidate new states (4r, m).

    The lift is affine, so the Gauss chord states and the midpoint are
    lift(z_old) + xi V dz: z_old is lifted once here, and each evaluation
    needs one modes-only product."""
    x1, x2 = _GAUSS_NODES
    basis, physics, dops = ops.basis, ops.physics, ops.diffops
    base = basis.lift_array(z_old)[:, None]

    def residual(z_new_cols):
        dz = z_new_cols - z_old[:, None]
        m = z_new_cols.shape[1]
        vdz = basis.apply_modes(dz)
        chords = np.empty((base.shape[0], 2 * m))
        chords[:, :m] = base + x1 * vdz
        chords[:, m:] = base + x2 * vdz
        fg = _eval_grad_side(chords, physics)
        fbar = 0.5 * (fg[:, :, :m] + fg[:, :, m:])
        fmid = _eval_poisson_side(base + 0.5 * vdz, physics, dops)
        return dz - dt * _pod_galerkin_delta(basis, physics, dops, fmid, fbar)

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
    """One reduced AVF step: Poisson samples at the midpoint, gradient
    samples chord-averaged by 2-point Gauss. The implicit 4r system is
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
    """Reduced trajectory (4r, K+1), lifted invariants (K+1, 4), times."""

    reduced: np.ndarray
    invariants: np.ndarray
    times: np.ndarray
    method: str


def integrate_rom(ops: RomOperators, initial: RomState, dt: float, num_steps: int,
                  method: str = "pod-deim", solver: str = "dense") -> RomResult:
    """March the reduced model, recording lifted-state invariants each step."""
    if method not in METHODS:
        raise ConfigError(f"unknown reduced model {method!r}, expected one of {METHODS}")
    grid = ops.diffops.grid
    nred = initial.z_r.size
    red = np.empty((nred, num_steps + 1))
    invs = np.empty((num_steps + 1, 4))
    times = initial.t + dt * np.arange(num_steps + 1)

    z = np.asarray(initial.z_r, dtype=np.float64).copy()
    red[:, 0] = z
    lifted = State(z=ops.basis.lift_array(z), t=float(times[0]))
    invs[0] = invariants(lifted, ops.physics, grid, ops.diffops).as_array()
    chord = _ChordJacobian()
    for k in range(1, num_steps + 1):
        z = rom_avf_step(ops, z, dt, method=method, solver=solver, _chord=chord)
        red[:, k] = z
        lifted = State(z=ops.basis.lift_array(z), t=float(times[k]))
        invs[k] = invariants(lifted, ops.physics, grid, ops.diffops).as_array()
    return RomResult(reduced=red, invariants=invs, times=times, method=method)


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
