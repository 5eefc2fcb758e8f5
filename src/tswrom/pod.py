"""Proper orthogonal decomposition of shallow water trajectories.

Each prognostic variable (h, u, v, s) gets its own mean and its own
orthonormal basis from a thin SVD of the mean-subtracted snapshot matrix, but
all four share a single reduced dimension r so the packed reduced state keeps
the (h, u, v, s) block layout of the full model. The shared r is the maximum
of the per-variable energy-criterion ranks (or an explicit override).

By default each basis is led by the variable's normalized mean field, with
the singular vectors filling the remaining columns. The reduced dynamics
sees the flux fields only through the projector V Vᵀ, and the flux means are
by far their largest components: a span built purely from mean-subtracted
snapshots is (nearly) orthogonal to the mean direction, so it filters
leading-order forces out of the reduced vector field at any rank. Keeping
the mean direction in the span removes that error while leaving the skew
structure — and therefore exact energy conservation — untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fom import State

__all__ = [
    "SnapshotSet",
    "PodBasis",
    "collect_snapshots",
    "truncate_rank",
    "build_pod_basis",
    "lift",
    "restrict",
]

VARIABLES = ("h", "u", "v", "s")


@dataclass
class SnapshotSet:
    """Mean-subtracted snapshot matrices for the four variables.

    Attributes
    ----------
    deviations : ndarray of shape (4, N, K)
        Columns are w^k - mean for the stored snapshots k = 1..K.
    means : ndarray of shape (4, N)
        Per-variable temporal means over the same K snapshots.
    """

    deviations: np.ndarray
    means: np.ndarray

    @property
    def N(self) -> int:
        return self.deviations.shape[1]

    @property
    def num_snapshots(self) -> int:
        return self.deviations.shape[2]


@dataclass
class PodBasis:
    """Per-variable POD bases with a common reduced dimension.

    Attributes
    ----------
    means : ndarray of shape (4, N)
    modes : ndarray of shape (4, N, r)
        Orthonormal columns, variable order (h, u, v, s).
    singular_values : ndarray of shape (4, min(N, K))
        Full spectra, kept for decay diagnostics.
    ranks : tuple of int
        The four per-variable energy-criterion ranks before taking the max.
    kappa : float
        Energy threshold the ranks were computed with.
    """

    means: np.ndarray
    modes: np.ndarray
    singular_values: np.ndarray
    ranks: tuple[int, int, int, int]
    kappa: float

    @property
    def N(self) -> int:
        return self.modes.shape[1]

    @property
    def r(self) -> int:
        return self.modes.shape[2]

    @property
    def mean_z(self) -> np.ndarray:
        """Packed mean state of length 4N."""
        return self.means.reshape(-1)

    def apply_modes(self, z_r: np.ndarray) -> np.ndarray:
        """Blockwise modes product V z_r, the lift without the means:
        reduced coefficients (4r,) or (4r, m) to packed arrays (4N, m)."""
        return (self.modes @ z_r.reshape(4, self.r, -1)).reshape(4 * self.N, -1)

    def project_modes(self, w: np.ndarray) -> np.ndarray:
        """Blockwise V^T w, the adjoint of apply_modes: packed arrays (4N,)
        or (4N, m) to reduced columns (4r, m)."""
        return (self.modes.transpose(0, 2, 1) @ w.reshape(4, self.N, -1)).reshape(4 * self.r, -1)

    def lift_array(self, z_r: np.ndarray) -> np.ndarray:
        """Map reduced coefficients (4r,) or (4r, m) to packed full states."""
        out = self.apply_modes(z_r)
        out += self.mean_z[:, None]
        return out[:, 0] if z_r.ndim == 1 else out

    def restrict_array(self, z: np.ndarray) -> np.ndarray:
        """Map packed full states (4N,) or (4N, m) to reduced coefficients."""
        r, N = self.r, self.N
        single = z.ndim == 1
        zf = z[:, None] if single else z
        out = np.empty((4 * r, zf.shape[1]))
        for i in range(4):
            out[i * r : (i + 1) * r] = self.modes[i].T @ (zf[i * N : (i + 1) * N] - self.means[i][:, None])
        return out[:, 0] if single else out


def collect_snapshots(states) -> SnapshotSet:
    """Build mean-subtracted snapshot matrices from stored states.

    Parameters
    ----------
    states : ndarray of shape (4N, K) or sequence of State
        The K stored snapshots z^1..z^K (the initial state is not a
        snapshot and must not be included).

    Returns
    -------
    SnapshotSet
        Means over the K columns (divided by K) and the deviations.
    """
    if isinstance(states, np.ndarray):
        z = np.asarray(states, dtype=np.float64)
    else:
        cols = [st.z if isinstance(st, State) else np.asarray(st) for st in states]
        if not cols:
            raise ConfigError("empty trajectory: no snapshots to collect")
        z = np.stack(cols, axis=1)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ConfigError(f"snapshot array must be (4N, K) with K >= 1, got shape {z.shape}")
    if z.shape[0] % 4:
        raise ConfigError(f"packed snapshot length {z.shape[0]} is not divisible by 4")
    N = z.shape[0] // 4
    blocks = z.reshape(4, N, z.shape[1])
    means = blocks.mean(axis=2)
    return SnapshotSet(deviations=blocks - means[:, :, None], means=means)


def truncate_rank(singular_values: np.ndarray, kappa: float) -> int:
    """Smallest r capturing all but a kappa fraction of the squared spectrum.

    r is the smallest integer with sum_{j<=r} sigma_j^2 / sum sigma_j^2
    exceeding 1 - kappa. Singular values at numerical-zero level (below
    len(sigma) * eps * sigma_1) are treated as exact zeros, so kappa = 0
    keeps precisely the modes with nonzero singular value.
    """
    if not 0.0 <= kappa < 1.0:
        raise ConfigError(f"energy threshold must lie in [0, 1), got {kappa}")
    sig = np.asarray(singular_values, dtype=np.float64)
    if sig.size == 0 or sig[0] <= 0.0:
        raise ConfigError("cannot truncate an all-zero singular spectrum")
    if np.any(np.diff(sig) > 0):
        raise ConfigError("singular values must be nonincreasing")
    sig = sig.copy()
    sig[sig < sig.size * np.finfo(np.float64).eps * sig[0]] = 0.0
    energy = np.cumsum(sig * sig)
    total = energy[-1]  # same accumulation as the tails, so the last tail is 0.0
    tail = total - energy
    keep = np.nonzero(tail <= kappa * total)[0]
    return int(keep[0]) + 1


def _mean_led_modes(mean: np.ndarray, umat: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal columns led by the mean direction, completed by SVD modes.

    Gram-Schmidt down the priority list (normalized mean first, then the
    left singular vectors in order) keeps the first r independent
    directions, so a mean parallel to the leading mode costs nothing and a
    zero mean reduces to the plain SVD basis.
    """
    N, avail = umat.shape
    out = np.empty((N, r))
    count = 0
    mean_norm = np.linalg.norm(mean)
    candidates = [] if mean_norm == 0.0 else [mean / mean_norm]
    candidates.extend(umat[:, j] for j in range(avail))
    for cand in candidates:
        w = cand.copy()
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            if count:
                w -= out[:, :count] @ (out[:, :count].T @ w)
        norm = np.linalg.norm(w)
        if norm > 1e-10:
            out[:, count] = w / norm
            count += 1
            if count == r:
                return out
    raise ConfigError(
        f"snapshots support only {count} independent directions, need r={r}")


def build_pod_basis(snapshots: SnapshotSet, kappa: float,
                    r_override: int | None = None,
                    mean_mode: bool = True) -> PodBasis:
    """Thin SVD per variable; common r = max of the per-variable ranks.

    Parameters
    ----------
    snapshots : SnapshotSet
    kappa : float
        Energy threshold for truncate_rank.
    r_override : int, optional
        Pin the common reduced dimension instead of using the criterion
        (the criterion ranks are still computed and stored for reporting).
    mean_mode : bool
        When True (the default), each variable's basis starts with its
        normalized mean field and the leading singular vectors fill the
        remaining r - 1 columns. The reduced vector field evaluates the
        flux fields through V Vᵀ, and the flux means dominate those
        fields; a span orthogonal to the mean direction drops
        leading-order forces regardless of rank, so reduced runs track
        the full model only with the mean direction included. When
        False, the bases are the plain leading left singular vectors —
        the optimal compression of the deviations — which is the right
        tool for analyzing snapshot compressibility but not for reduced
        dynamics.
    """
    svals = []
    umats = []
    ranks = []
    for i in range(4):
        u, sig, _ = np.linalg.svd(snapshots.deviations[i], full_matrices=False)
        umats.append(u)
        svals.append(sig)
        ranks.append(truncate_rank(sig, kappa) if sig[0] > 0 else 1)
    avail = umats[0].shape[1]
    limit = min(snapshots.N, avail + 1) if mean_mode else avail
    r = max(ranks) if r_override is None else int(r_override)
    if not 1 <= r <= limit:
        raise ConfigError(f"reduced dimension r={r} outside [1, {limit}]")
    if mean_mode:
        modes = np.stack(
            [_mean_led_modes(snapshots.means[i], umats[i], r) for i in range(4)])
    else:
        modes = np.stack([u[:, :r] for u in umats])
    return PodBasis(
        means=snapshots.means.copy(),
        modes=modes,
        singular_values=np.stack(svals),
        ranks=tuple(ranks),
        kappa=float(kappa),
    )


def restrict(basis: PodBasis, state: State) -> np.ndarray:
    """Project a full state onto the reduced coordinates, blocks (h, u, v, s)."""
    if state.N != basis.N:
        raise ConfigError(f"state N={state.N} does not match basis N={basis.N}")
    return basis.restrict_array(state.z)


def lift(basis: PodBasis, z_r: np.ndarray, t: float = 0.0) -> State:
    """Reconstruct a full State from reduced coefficients: w = mean + V w_r."""
    z_r = np.asarray(z_r, dtype=np.float64)
    if z_r.shape != (4 * basis.r,):
        raise ConfigError(f"reduced state must have shape ({4 * basis.r},), got {z_r.shape}")
    return State(z=basis.lift_array(z_r), t=t)
