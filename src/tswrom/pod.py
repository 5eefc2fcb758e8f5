"""Proper orthogonal decomposition of shallow water trajectories.

Each prognostic variable (h, u, v, s) gets its own mean and its own
orthonormal basis from a thin SVD of the mean-subtracted snapshot matrix, but
all four share a single reduced dimension r so the packed reduced state keeps
the (h, u, v, s) block layout of the full model. The shared r is the maximum
of the per-variable energy-criterion ranks (or an explicit override).

The thin SVD is QR based (Chan's R-SVD, as LAPACK's gesdd does for tall
matrices): all singular values come from the small triangular factor, and
only the left singular vectors the basis keeps are ever formed. The
interpolation bases of deim.py come from the same routine.

Each basis is led by the variable's normalized mean field, with the
singular vectors filling the remaining columns. The reduced dynamics sees
the flux fields only through the projector V Vᵀ, and the flux means are
by far their largest components: a span built purely from mean-subtracted
snapshots is (nearly) orthogonal to the mean direction, so it filters
leading-order forces out of the reduced vector field at any rank. Keeping
the mean direction in the span removes that error while leaving the skew
structure — and therefore exact energy conservation — untouched.

The depth basis is led by the constant field 1/sqrt(N) before its mean.
A reduced step changes the mass 1^T h by -dt 1^T V_h V_h^T (D_x V_u g_u +
D_y V_v g_v), g the reduced chord gradient, in both reduced models: J's
depth rows hold only the difference operators. With the constant field in
span(V_h), 1^T V_h V_h^T = 1^T, and the change vanishes because 1^T D_x =
1^T D_y = 0. So both reduced models conserve mass to rounding (Carlberg,
Choi & Sargsyan, "Conservative model reduction for finite-volume models",
J. Comput. Phys. 371, 2018), which also keeps them alive well past the
training window. The price is one singular vector of the depth basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, NumericError

__all__ = [
    "SnapshotSet",
    "PodBasis",
    "collect_snapshots",
    "truncate_rank",
    "build_pod_basis",
    "restrict",
]

VARIABLES = ("h", "u", "v", "s")


@dataclass
class SnapshotSet:
    """Mean-subtracted snapshot matrices for the four variables.

    Attributes
    ----------
    deviations : ndarray of shape (4, N, K)
        Columns w^k - mean, k = 1..K: the view of a C-order (K, 4, N) array.
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
    stack : ndarray of shape (4, r + 1, N), C order
        Mode-major [V | mean]^T per variable, variable order (h, u, v, s):
        rows 0..r-1 are the orthonormal modes and row r is the mean. Every
        projection V^T w reads one contiguous row per mode, and a lift
        mean + V z is the one product [V | mean] [z; 1]. basis.bin stores
        this array as it is.
    singular_values : ndarray of shape (4, min(N, K))
        Full spectra, kept for decay diagnostics.
    ranks : tuple of int
        The four per-variable energy-criterion ranks before taking the max.
    kappa : float
        Energy threshold the ranks were computed with.
    """

    stack: np.ndarray
    singular_values: np.ndarray
    ranks: tuple[int, int, int, int]
    kappa: float

    @property
    def modes(self) -> np.ndarray:
        """The modes V as a (4, N, r) view of stack."""
        return self.stack[:, :-1].transpose(0, 2, 1)

    @property
    def means(self) -> np.ndarray:
        """The means as a (4, N) view of stack."""
        return self.stack[:, -1]

    @property
    def N(self) -> int:
        return self.stack.shape[2]

    @property
    def r(self) -> int:
        return self.stack.shape[1] - 1

    @property
    def mean_z(self) -> np.ndarray:
        """Packed mean state of length 4N."""
        return self.means.reshape(-1)

    def project_modes(self, w: np.ndarray) -> np.ndarray:
        """Blockwise V^T w: packed arrays (4N,) or (4N, m) to reduced
        columns (4r, m)."""
        return (self.stack[:, :-1] @ w.reshape(4, self.N, -1)).reshape(4 * self.r, -1)

    def lift_array(self, z_r: np.ndarray) -> np.ndarray:
        """Map reduced coefficients (4r,) or (4r, m) to packed full states
        mean + V z_r, (4N,) or (4N, m) as the view of a state-major (m, 4, N)
        array, by one product [z_r; 1]^T [V | mean]^T batched over variables."""
        cols = z_r.reshape(4, self.r, -1)
        aug = np.ones((4, cols.shape[2], self.r + 1))
        aug[:, :, : self.r] = cols.transpose(0, 2, 1)
        res = np.empty((cols.shape[2], 4, self.N))
        np.matmul(aug, self.stack, out=res.transpose(1, 0, 2))
        out = res.reshape(len(res), 4 * self.N).T
        return out[:, 0] if z_r.ndim == 1 else out


def collect_snapshots(states: np.ndarray) -> SnapshotSet:
    """Mean-subtracted snapshot matrices of the stored states (4N, K), the
    snapshots z^1..z^K (the initial state is not a snapshot).

    The means over the K states and the deviations are computed on the
    (K, 4, N) rows of a C-order view of states, a copy unless states is
    state-major, so their bits do not depend on its layout.
    """
    z = np.asarray(states, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ConfigError(f"snapshot array must be (4N, K) with K >= 1, got shape {z.shape}")
    if z.shape[0] % 4:
        raise ConfigError(f"packed snapshot length {z.shape[0]} is not divisible by 4")
    rows = np.ascontiguousarray(z.T).reshape(z.shape[1], 4, -1)
    means = rows.mean(axis=0)
    return SnapshotSet(deviations=(rows - means).transpose(1, 2, 0), means=means)


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


def _thin_svd(a: np.ndarray):
    """All singular values of a (m, n), and a function forming its k
    leading left singular vectors as an (m, k) array.

    Householder QR a = Q R, then the SVD R = U_R S W^T of the small factor,
    so the left singular vectors are Q U_R. The spectrum needs only R; the k
    leading vectors are the stored reflectors applied to k columns of U_R,
    so neither Q nor the other min(m, n) - k vectors are formed. The values
    and vectors are np.linalg.svd's to rounding, but each vector's sign is
    fixed so that its largest-magnitude entry is positive: a rounding-level
    change of a does not flip a vector, as LAPACK's own choice may. A
    non-finite entry raises LinAlgError from the SVD of R, as from
    np.linalg.svd.
    """
    m = a.shape[0]
    (qr, tau), rfac = scipy.linalg.qr(a, mode="raw", check_finite=False)
    u_r, sig, _ = np.linalg.svd(rfac, full_matrices=False)
    reflectors = qr[:, : tau.size]

    def leading(k: int) -> np.ndarray:
        c = np.zeros((m, k), order="F")
        c[: u_r.shape[0]] = u_r[:, :k]
        dormqr = scipy.linalg.lapack.dormqr
        lwork = int(dormqr("L", "N", reflectors, tau, c, -1)[1][0])
        out, _, info = dormqr("L", "N", reflectors, tau, c, lwork, overwrite_c=1)
        if info:
            raise NumericError(f"applying the QR reflectors failed (dormqr info={info})")
        peaks = out[np.argmax(np.abs(out), axis=0), np.arange(k)]
        out[:, peaks < 0.0] *= -1.0
        return out

    return sig, leading


def _shared_rank(blocks, kappa: float, override: int | None, what: str, spare: int = 0):
    """The leading-vector functions (see _thin_svd) and spectra of the
    (N, K) blocks, their energy ranks (1 for an all-zero block) and the rank
    they share: the largest, or override, in [1, min(N, min(N, K) + spare)].
    The shared rank needs every spectrum, so no singular vector is formed
    here; the caller forms only the leading ones it keeps."""
    svds = [_thin_svd(block) for block in blocks]
    svals = np.stack([sig for sig, _ in svds])
    ranks = tuple(truncate_rank(sig, kappa) if sig[0] > 0 else 1 for sig in svals)
    rank = max(ranks) if override is None else int(override)
    limit = min(blocks[0].shape[0], svals.shape[1] + spare)
    if not 1 <= rank <= limit:
        raise ConfigError(f"{what}={rank} outside [1, {limit}]")
    return [leading for _, leading in svds], svals, ranks, rank


def _led_modes(leads, umat: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal columns led by the directions leads, completed by SVD
    modes.

    Gram-Schmidt down the priority list (the nonzero leads normalized, in
    order, then the left singular vectors in order) keeps the first r
    independent directions, so a lead in the span of earlier ones costs
    nothing and zero leads reduce to the plain SVD basis.
    """
    N, avail = umat.shape
    out = np.empty((N, r))
    count = 0
    candidates = [lead / np.linalg.norm(lead) for lead in leads if np.any(lead)]
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
                    r_override: int | None = None) -> PodBasis:
    """Mean-led bases from a thin SVD per variable; common r = max of the
    per-variable ranks.

    Each variable's basis starts with its normalized mean field and the
    leading singular vectors fill the remaining columns; the depth basis
    starts with the constant field 1/sqrt(N) before its mean (the module
    docstring says why both directions must be in the span).

    Parameters
    ----------
    snapshots : SnapshotSet
    kappa : float
        Energy threshold for truncate_rank.
    r_override : int, optional
        Pin the common reduced dimension instead of using the criterion
        (the criterion ranks are still computed and stored for reporting).
    """
    # every variable's mean is a spare column beyond the K singular vectors,
    # so the shared rank may exceed K by one; the depth basis's constant is
    # a second spare, but only there
    leading, svals, ranks, r = _shared_rank(snapshots.deviations, kappa, r_override,
                                            "reduced dimension r", spare=1)
    # min(r, K) singular vectors always suffice: for r <= K they alone are r
    # independent directions, and for r > K every one of them is formed.
    k = min(r, svals.shape[1])
    stack = np.empty((4, r + 1, snapshots.N))
    for i, (mean, lead) in enumerate(zip(snapshots.means, leading)):
        leads = [np.ones(snapshots.N), mean] if i == 0 else [mean]
        stack[i, :r] = _led_modes(leads, lead(k), r).T
        stack[i, r] = mean
    return PodBasis(stack=stack, singular_values=svals, ranks=ranks, kappa=float(kappa))


def restrict(basis: PodBasis, z: np.ndarray) -> np.ndarray:
    """Map packed full states (4N,) or (4N, m) to reduced coefficients
    (4r,) or (4r, m), V^T (z - mean), blocks (h, u, v, s)."""
    if z.shape[0] != 4 * basis.N:
        raise ConfigError(f"state N={z.shape[0] // 4} does not match basis N={basis.N}")
    dev = z.reshape(z.shape[0], -1) - basis.mean_z[:, None]
    return basis.project_modes(dev).reshape((4 * basis.r,) + z.shape[1:])

