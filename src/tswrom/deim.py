"""Discrete empirical interpolation of the shallow water nonlinearities.

Seven nonlinear fields appear in the Poisson operator and the energy
gradient of the reduced model:

    F1 = (v_x - u_y + f) / h        potential vorticity
    F2 = s_x / h                    scaled buoyancy x gradient
    F3 = s_y / h                    scaled buoyancy y gradient
    F4 = (u^2 + v^2)/2 + s h + b s  energy gradient w.r.t. h
    F5 = h u                        energy gradient w.r.t. u
    F6 = h v                        energy gradient w.r.t. v
    F7 = h^2/2 + b h                energy gradient w.r.t. s

Each gets its own interpolation basis Phi_j from an SVD of its snapshot
matrix (evaluated on POD reconstructions by default), a shared number of
interpolation points p (max of the per-j energy ranks, or an override), and
point sets chosen by Q-DEIM: the first p column pivots of a pivoted QR of
Phi_j^T. The oblique reconstruction factor Psi_j = Phi_j (P_j^T Phi_j)^{-1}
is formed with an LU solve, never an explicit inverse, and satisfies the
interpolation property P_j^T Psi_j = I.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, NumericError
from .fom import Physics, State
from .grid import DiffOps, apply_dx, apply_dy
from .pod import PodBasis, SnapshotSet, truncate_rank

__all__ = [
    "NUM_NONLIN",
    "NonlinSnapshots",
    "DeimOperator",
    "DeimSet",
    "nonlinearity",
    "collect_nonlin_snapshots",
    "qdeim_select",
    "build_deim",
    "deim_apply",
]

NUM_NONLIN = 7

# Condition number of P^T Phi above which the selection is suspect.
_COND_WARN = 1e8


def _eval_poisson_side(zcols: np.ndarray, physics: Physics, ops: DiffOps) -> np.ndarray:
    """F1, F2, F3 on packed states (4N,) or (4N, m) -> (3, N[, m])."""
    N = zcols.shape[0] // 4
    h = zcols[:N]
    u = zcols[N : 2 * N]
    v = zcols[2 * N : 3 * N]
    s = zcols[3 * N :]
    hmin = h.min()
    if not hmin > 0.0:
        raise NumericError(f"nonpositive height in nonlinearity evaluation (min {hmin:.6e})")
    out = np.empty((3,) + h.shape)
    out[0] = (apply_dx(ops, v) - apply_dy(ops, u) + physics.f) / h
    out[1] = apply_dx(ops, s) / h
    out[2] = apply_dy(ops, s) / h
    return out


def _eval_grad_side(zcols: np.ndarray, physics: Physics) -> np.ndarray:
    """F4..F7 (the energy-gradient blocks) -> (4, N[, m]); pointwise only."""
    N = zcols.shape[0] // 4
    h = zcols[:N]
    u = zcols[N : 2 * N]
    v = zcols[2 * N : 3 * N]
    s = zcols[3 * N :]
    b = physics.b if zcols.ndim == 1 else physics.b[:, None]
    out = np.empty((4,) + h.shape)
    out[0] = 0.5 * (u * u + v * v) + s * h + b * s
    out[1] = h * u
    out[2] = h * v
    out[3] = 0.5 * h * h + b * h
    return out


def _eval_all(zcols: np.ndarray, physics: Physics, ops: DiffOps) -> np.ndarray:
    """All seven nonlinearities on packed states (4N,) or (4N, m) -> (7, N[, m])."""
    return np.concatenate(
        [_eval_poisson_side(zcols, physics, ops), _eval_grad_side(zcols, physics)]
    )


def nonlinearity(j: int, state: State, physics: Physics, ops: DiffOps) -> np.ndarray:
    """Evaluate nonlinearity j (1-based, 1..7) on a full state."""
    if not 1 <= j <= NUM_NONLIN:
        raise ConfigError(f"nonlinearity index must be 1..{NUM_NONLIN}, got {j}")
    return _eval_all(state.z, physics, ops)[j - 1]


@dataclass
class NonlinSnapshots:
    """Snapshot matrices of the seven nonlinearities, shape (7, N, K)."""

    values: np.ndarray
    projected: bool

    @property
    def N(self) -> int:
        return self.values.shape[1]

    @property
    def num_snapshots(self) -> int:
        return self.values.shape[2]


def collect_nonlin_snapshots(snapshots: SnapshotSet, basis: PodBasis,
                             physics: Physics, ops: DiffOps,
                             projected: bool = True) -> NonlinSnapshots:
    """Evaluate the seven nonlinearities along the stored snapshots.

    With projected=True (the default) the states are first reconstructed
    through the POD basis, z -> mean + V V^T (z - mean), so the
    interpolation bases are trained on exactly the states the reduced model
    will visit. projected=False evaluates on the raw snapshots instead.
    """
    full = snapshots.deviations + snapshots.means[:, :, None]
    zcols = full.reshape(4 * snapshots.N, snapshots.num_snapshots)
    if projected:
        zcols = basis.lift_array(basis.restrict_array(zcols))
    return NonlinSnapshots(values=_eval_all(zcols, physics, ops), projected=projected)


@dataclass
class DeimOperator:
    """Interpolation data for one nonlinearity.

    indices are the p selected grid nodes in pivot order; phi is the
    interpolation basis (N, p); psi = phi (phi[indices])^{-1} the oblique
    factor, so that F ~= psi @ F[indices].
    """

    j: int
    indices: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    @property
    def p(self) -> int:
        return self.indices.size


@dataclass
class DeimSet:
    """The seven DeimOperator with their shared point count p."""

    operators: tuple
    singular_values: np.ndarray
    ranks: tuple
    kappa: float

    @property
    def p(self) -> int:
        return self.operators[0].p

    def __iter__(self):
        return iter(self.operators)

    def __getitem__(self, j: int) -> DeimOperator:
        """1-based access matching the F_j numbering."""
        return self.operators[j - 1]


def qdeim_select(phi: np.ndarray, p: int | None = None) -> np.ndarray:
    """Interpolation points as the first p column pivots of QR(phi^T).

    Returns indices in pivot order. Raises NumericError if the pivoted
    triangle signals rank deficiency over the requested points.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 2:
        raise ConfigError(f"interpolation basis must be 2-D, got shape {phi.shape}")
    if p is None:
        p = phi.shape[1]
    if not 1 <= p <= min(phi.shape):
        raise ConfigError(f"cannot select {p} points from a {phi.shape} basis")
    _, rfac, piv = scipy.linalg.qr(phi.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rfac)[:p])
    if diag.min() <= max(phi.shape) * np.finfo(np.float64).eps * diag.max():
        raise NumericError(
            f"rank-deficient interpolation basis: pivot {int(np.argmin(diag))} "
            f"has |R_kk| = {diag.min():.3e}"
        )
    return np.asarray(piv[:p], dtype=np.int64)


def build_deim(nonlin: NonlinSnapshots, kappa: float,
               p_override: int | None = None) -> DeimSet:
    """SVD each nonlinearity, share p = max of the energy ranks, select points.

    Parameters
    ----------
    nonlin : NonlinSnapshots
    kappa : float
        Energy threshold fed to truncate_rank per nonlinearity.
    p_override : int, optional
        Pin the shared number of interpolation points.
    """
    svals = []
    umats = []
    ranks = []
    for jm1 in range(NUM_NONLIN):
        u, sig, _ = np.linalg.svd(nonlin.values[jm1], full_matrices=False)
        umats.append(u)
        svals.append(sig)
        ranks.append(truncate_rank(sig, kappa) if sig[0] > 0 else 1)
    avail = umats[0].shape[1]
    p = max(ranks) if p_override is None else int(p_override)
    if not 1 <= p <= avail:
        raise ConfigError(f"interpolation count p={p} outside [1, {avail}]")

    operators = []
    for jm1 in range(NUM_NONLIN):
        phi = umats[jm1][:, :p]
        idx = qdeim_select(phi, p)
        square = phi[idx, :]
        cond = np.linalg.cond(square)
        if cond > _COND_WARN:
            warnings.warn(
                f"DEIM selection for F{jm1 + 1} is ill-conditioned "
                f"(cond(P^T Phi) = {cond:.2e})",
                stacklevel=2,
            )
        # psi = phi (P^T phi)^{-1} via LU solve on the transposed system.
        psi = scipy.linalg.lu_solve(scipy.linalg.lu_factor(square.T), phi.T).T
        operators.append(DeimOperator(j=jm1 + 1, indices=idx, phi=phi, psi=np.ascontiguousarray(psi)))
    return DeimSet(
        operators=tuple(operators),
        singular_values=np.stack(svals),
        ranks=tuple(ranks),
        kappa=float(kappa),
    )


def deim_apply(op: DeimOperator, state: State, physics: Physics, ops: DiffOps) -> np.ndarray:
    """Sampled nonlinearity P_j^T F_j(state), touching only selected nodes.

    The derivative-bearing fields (j = 1, 2, 3) are formed from the sparse
    stencil rows of the selected nodes, so the cost is O(p), not O(N).
    """
    idx = op.indices
    N = state.N
    h = state.z[idx]
    if not h.min() > 0.0:
        raise NumericError(f"nonpositive sampled height for F{op.j}")
    j = op.j
    if j == 1:
        dxv = ops.dx_op[idx, :] @ state.v
        dyu = ops.dy_op[idx, :] @ state.u
        return (dxv - dyu + physics.f) / h
    if j == 2:
        return (ops.dx_op[idx, :] @ state.s) / h
    if j == 3:
        return (ops.dy_op[idx, :] @ state.s) / h
    u = state.z[N + idx]
    v = state.z[2 * N + idx]
    s = state.z[3 * N + idx]
    b = physics.b[idx]
    if j == 4:
        return 0.5 * (u * u + v * v) + s * h + b * s
    if j == 5:
        return h * u
    if j == 6:
        return h * v
    if j == 7:
        return 0.5 * h * h + b * h
    raise ConfigError(f"operator carries invalid nonlinearity index {j}")
