"""Discrete empirical interpolation of the Poisson operator's coefficients.

Three nonlinear fields are the state-dependent coefficients of J:

    F1 = (v_x - u_y + f) / h        potential vorticity
    F2 = s_x / h                    scaled buoyancy x gradient
    F3 = s_y / h                    scaled buoyancy y gradient

They are rational in the state, so the tensor model interpolates them. The
energy gradient is a quadratic polynomial of the state and needs no
interpolation: the reduced models evaluate it exactly (see rom.py).

Each F_j gets its own interpolation basis Phi_j, the p leading left singular
vectors of its snapshot matrix (evaluated on POD reconstructions by default),
from the QR-based thin SVD of pod.py, which forms only those p vectors. The
three share the number of interpolation points p (max of the per-j energy
ranks, or an override), known before the first QR, so each Phi_j is formed
right after its QR and one field's QR factors are held at a time. Point
sets are chosen by Q-DEIM: the first p column pivots of a pivoted QR of
Phi_j^T. The oblique reconstruction factor Psi_j = Phi_j (P_j^T Phi_j)^{-1}
is formed with an LU solve, never an explicit inverse, and satisfies the
interpolation property P_j^T Psi_j = I.
Phi_j is not kept: DeimSet stacks the points and the Psi_j of F1..F3, like
the POD basis stacks its four variables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, NumericError
from .fom import Physics, _coefficients
from .grid import Grid
from .pod import PodBasis, SnapshotSet, _shared_rank

__all__ = [
    "NUM_NONLIN",
    "DeimSet",
    "collect_nonlin_snapshots",
    "qdeim_select",
    "build_deim",
]

NUM_NONLIN = 3

# Condition number of P^T Phi above which the selection is suspect.
_COND_WARN = 1e8

# Snapshot columns collect_nonlin_snapshots forms and evaluates at a time:
# one field of a chunk at N = 10^4 is 1.3 MB, about a core's L2 cache.
_CHUNK = 16


def collect_nonlin_snapshots(snapshots: SnapshotSet, basis: PodBasis,
                             physics: Physics, grid: Grid,
                             projected: bool = True) -> np.ndarray:
    """Evaluate the three nonlinearities along the stored snapshots ->
    (3, N, K), row j - 1 for F_j, the view of a state-major (K, 3, N) array.

    With projected=True (the default) the states are first reconstructed
    through the POD basis, z -> mean + V V^T (z - mean), so the
    interpolation bases are trained on exactly the states the reduced model
    will visit. projected=False evaluates on the raw snapshots instead.

    The projected states are lifted from V^T of the deviations directly, so
    the full snapshots are never formed; V^T of the mean difference is added
    only for a basis built on other means than these snapshots'. States are
    formed and evaluated _CHUNK columns at a time, so besides the result
    only one chunk of states and of fields is held.
    """
    dev = snapshots.deviations.reshape(4 * snapshots.N, snapshots.num_snapshots)
    if projected:
        coef = basis.project_modes(dev)
        offset = (snapshots.means - basis.means).reshape(-1)
        if np.any(offset):
            coef += basis.project_modes(offset)
    out = np.empty((snapshots.num_snapshots, NUM_NONLIN, snapshots.N)).transpose(1, 2, 0)
    for c in range(0, snapshots.num_snapshots, _CHUNK):
        cols = slice(c, c + _CHUNK)
        zcols = (basis.lift_array(coef[:, cols]) if projected
                 else dev[:, cols] + snapshots.means.reshape(-1, 1))
        out[:, :, cols] = _coefficients(zcols, physics.f, grid).reshape(
            NUM_NONLIN, grid.N, -1)
    return out


@dataclass
class DeimSet:
    """Interpolation data of F1..F3, row j - 1 for F_j: indices (3, p) are
    the selected grid nodes in pivot order and psi (3, N, p) the oblique
    factors, so that F_j ~= psi[j - 1] @ F_j[indices[j - 1]]."""

    indices: np.ndarray
    psi: np.ndarray
    singular_values: np.ndarray
    ranks: tuple
    kappa: float

    @property
    def p(self) -> int:
        return self.indices.shape[1]


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


def build_deim(nonlin: np.ndarray, kappa: float,
               p_override: int | None = None) -> DeimSet:
    """SVD each nonlinearity, share p = max of the energy ranks, select points.

    Parameters
    ----------
    nonlin : (3, N, K) array
        The snapshots of collect_nonlin_snapshots.
    kappa : float
        Energy threshold fed to truncate_rank per nonlinearity.
    p_override : int, optional
        Pin the shared number of interpolation points.
    """
    phis, svals, ranks, p = _shared_rank(nonlin, kappa, p_override, "interpolation count p")
    indices = np.empty((NUM_NONLIN, p), dtype=np.int64)
    psi = np.empty((NUM_NONLIN, nonlin.shape[1], p))
    for jm1, phi in enumerate(phis):
        indices[jm1] = qdeim_select(phi, p)
        square = phi[indices[jm1], :]
        cond = np.linalg.cond(square)
        if cond > _COND_WARN:
            warnings.warn(
                f"DEIM selection for F{jm1 + 1} is ill-conditioned "
                f"(cond(P^T Phi) = {cond:.2e})",
                stacklevel=2,
            )
        # psi = phi (P^T phi)^{-1} via LU solve on the transposed system.
        psi[jm1] = scipy.linalg.lu_solve(scipy.linalg.lu_factor(square.T), phi.T).T
    return DeimSet(indices=indices, psi=psi, singular_values=svals, ranks=ranks,
                   kappa=float(kappa))
