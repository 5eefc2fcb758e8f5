"""Shared builders for the test suite.

Random states are band-limited trigonometric fields, so they are exactly
periodic on the grid and smooth enough that finite-difference cross-checks
are meaningful. Everything O(1)-scaled: structural identities (skewness,
gradient consistency, dual evaluation routes) are checked away from the
geophysical magnitudes, where float64 cancellation would mask real defects.

The module also holds the reference implementations the tests compare the
program against: CSR difference matrices, J's coefficient fields, the POD
lift of reduced coefficients, POD and DEIM bases from full SVDs, dense full
and reduced Poisson matrices, a 2-point Gauss AVF residual, a dense-Jacobian
Newton step, the plain Galerkin and sampled right-hand sides and the einsum
form of the reduced gradient's quadratic part. apply_poisson, rhs and
avf_gradient evaluate J g, -J grad H and the chord-mean gradient on whole
states through the program's own kernels, for the checks that compare
those kernels with dense matrices and quadratures.
"""

import json
import math
import struct
import zipfile

import numpy as np
import scipy.sparse as sp

from tswrom.deim import qdeim_select
from tswrom.errors import NumericError
from tswrom.fom import (_NEWTON_MAXITER, _NEWTON_TOL, Physics, _apply_j, _AvfResidual, _blocks,
                        _chord_gradient, _coefficients, grad_hamiltonian)
from tswrom.grid import build_grid
from tswrom.pod import PodBasis, _mean_led_modes, truncate_rank

SEED = 20260815


def small_setup(n=8, length=2.0 * np.pi):
    """An n-by-n grid on [0, length)^2."""
    return build_grid(n, length)


def smooth_field(grid, rng, amplitude=1.0, modes=3):
    """Random band-limited doubly periodic field, O(amplitude)."""
    xx, yy = grid.meshcoords()
    k = 2.0 * np.pi / grid.length
    out = np.zeros(grid.N)
    for _ in range(modes):
        ax, ay = rng.integers(1, 4, size=2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
        out += rng.normal() * np.cos(ax * k * xx + px) * np.cos(ay * k * yy + py)
    return amplitude * out / modes


def random_state(grid, rng, depth=2.0):
    """Positive-depth O(1) packed state (4N,) with smooth random fields."""
    h = depth + smooth_field(grid, rng, 0.6)
    u = smooth_field(grid, rng, 1.0)
    v = smooth_field(grid, rng, 1.0)
    s = 3.0 + smooth_field(grid, rng, 0.8)
    return np.concatenate([h, u, v, s])


def random_physics(grid, rng, flat=False):
    """O(1) physics; a gentle bottom profile unless flat is requested."""
    b = np.zeros(grid.N) if flat else 0.3 + smooth_field(grid, rng, 0.2)
    return Physics(f=0.83, g=1.37, b=b)


# 2-point Gauss-Legendre nodes on [0, 1]: exact for the quadratic chord
# integrand of grad H.
GAUSS_NODES = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def plain_grad_h(z, b):
    """grad H of a packed state (4N,), written out block by block."""
    h, u, v, s = np.split(z, 4)
    return np.concatenate([0.5 * (u * u + v * v) + s * h + b * s,
                           h * u, h * v, 0.5 * h * h + b * h])


def gauss_avf_gradient(z_old, z_new, b):
    """Reference chord mean of grad H by 2-point Gauss-Legendre."""
    dz = z_new - z_old
    x1, x2 = GAUSS_NODES
    return 0.5 * (plain_grad_h(z_old + x1 * dz, b) + plain_grad_h(z_old + x2 * dz, b))


def csr_diff_ops(grid):
    """Reference CSR matrices (Dx, Dy) of the centered periodic differences,
    assembled as (1/2dx) C kron I and (1/2dy) I kron C from the circulant
    stencil C (+1 at (i, i+1 mod n), -1 at (i, i-1 mod n))."""
    n = grid.n
    idx = np.arange(n)
    stencil = sp.csr_matrix((np.r_[np.ones(n), -np.ones(n)],
                             (np.r_[idx, idx], np.r_[(idx + 1) % n, (idx - 1) % n])),
                            shape=(n, n))
    eye = sp.identity(n, format="csr")
    return ((sp.kron(stencil, eye) / (2.0 * grid.dx)).tocsr(),
            (sp.kron(eye, stencil) / (2.0 * grid.dx)).tocsr())


def plain_coefficients(z, physics, grid):
    """Reference coefficients (F1, F2, F3) = ((v_x - u_y + f)/h, s_x/h, s_y/h)
    of J at a packed state (4N,), with CSR stencils."""
    h, u, v, s = np.split(z, 4)
    dx, dy = csr_diff_ops(grid)
    return (dx @ v - dy @ u + physics.f) / h, (dx @ s) / h, (dy @ s) / h


def nonlinearity(j, z, physics, grid):
    """Reference nonlinearity F_j (j = 1..3) at a packed full state."""
    return plain_coefficients(z, physics, grid)[j - 1]


def lift(basis, z_r):
    """Reference packed full state mean + V z_r of reduced coefficients
    (4r,), block by block."""
    r = basis.r
    return np.concatenate([basis.means[i] + basis.modes[i] @ z_r[i * r : (i + 1) * r]
                           for i in range(4)])


def svd_pod_basis(snapshots, kappa, r_override=None):
    """Reference build_pod_basis from full np.linalg.svd factors."""
    usv = [np.linalg.svd(dev, full_matrices=False) for dev in snapshots.deviations]
    ranks = tuple(truncate_rank(sig, kappa) for _, sig, _ in usv)
    r = max(ranks) if r_override is None else r_override
    modes = np.stack([_mean_led_modes(mean, u, r)
                      for mean, (u, _, _) in zip(snapshots.means, usv)])
    return PodBasis(means=snapshots.means.copy(), modes=modes,
                    singular_values=np.stack([sig for _, sig, _ in usv]),
                    ranks=ranks, kappa=kappa)


def svd_deim(nonlin, kappa, p_override=None):
    """Reference build_deim from full np.linalg.svd factors of the (3, N, K)
    snapshots: the spectra (3, K), indices (3, p), phi and psi (3, N, p),
    psi = phi (P^T phi)^{-1} by a dense solve."""
    usv = [np.linalg.svd(values, full_matrices=False) for values in nonlin]
    spectra = np.stack([sig for _, sig, _ in usv])
    p = max(truncate_rank(sig, kappa) for sig in spectra) if p_override is None else p_override
    phi = np.stack([u[:, :p] for u, _, _ in usv])
    indices = np.stack([qdeim_select(phi_j, p) for phi_j in phi])
    psi = np.stack([np.linalg.solve(phi_j[idx].T, phi_j.T).T for phi_j, idx in zip(phi, indices)])
    return spectra, indices, phi, psi


def plain_apply_j(mid, g, physics, grid):
    """Reference J(mid) g for packed (4N,) vectors, with CSR stencils."""
    dx, dy = csr_diff_ops(grid)
    q, c2, c3 = plain_coefficients(mid, physics, grid)
    gh, gu, gv, gs = np.split(g, 4)
    return np.concatenate([dx @ gu + dy @ gv,
                           dx @ gh - q * gv - c2 * gs,
                           dy @ gh + q * gu - c3 * gs,
                           c2 * gu + c3 * gv])


def gauss_avf_residual(z_new, z_old, dt, physics, grid):
    """Reference AVF residual z_new - z_old + dt J(mid) gbar, with CSR
    stencils and the Gauss chord mean."""
    gbar = gauss_avf_gradient(z_old, z_new, physics.b)
    return z_new - z_old + dt * plain_apply_j(0.5 * (z_old + z_new), gbar, physics, grid)


def rom_rhs_pod_only(basis, z_r, physics, grid):
    """Reference Galerkin reduced time derivative -V^T J(w) V V^T grad H(w)
    at the lift w of reduced coefficients z_r (4r,), with CSR stencils."""
    N = basis.N
    lifted = basis.lift_array(z_r)
    g = plain_grad_h(lifted, physics.b)
    gproj = np.concatenate(
        [basis.modes[i] @ (basis.modes[i].T @ g[i * N : (i + 1) * N]) for i in range(4)])
    jg = plain_apply_j(lifted, gproj, physics, grid)
    return -np.concatenate([basis.modes[i].T @ jg[i * N : (i + 1) * N] for i in range(4)])


def einsum_quadratic(grad, x):
    """Reference quadratic part Q(x) of a reduced gradient for columns x
    (4r, m), one einsum over the tensors per term: V_h^T ((u u + v v)/2 + h s),
    V_u^T (h u), V_v^T (h v) and V_s^T (h h)/2 in reduced form."""
    r = grad.t_uu.shape[0]
    a, u, v, s = x.reshape(4, r, -1)
    return np.concatenate([
        0.5 * np.einsum("ijk,jm,km->im", grad.t_uu, u, u)
        + 0.5 * np.einsum("ijk,jm,km->im", grad.t_vv, v, v)
        + np.einsum("ijk,jm,km->im", grad.t_hs, a, s),
        np.einsum("ijk,im,km->jm", grad.t_uu, a, u),
        np.einsum("ijk,im,km->jm", grad.t_vv, a, v),
        0.5 * np.einsum("ijk,im,jm->km", grad.t_hs, a, a),
    ])


def deim_apply(dset, j, z, physics, grid):
    """Reference sampled coefficient P_j^T F_j(z), j = 1..3, of a packed
    state at the points of F_j in a DeimSet, from the CSR stencil rows of
    the selected nodes only."""
    idx = dset.indices[j - 1]
    h, u, v, s = np.split(z, 4)
    h = h[idx]
    if not h.min() > 0.0:
        raise NumericError(f"nonpositive sampled height for F{j}")
    dx, dy = csr_diff_ops(grid)
    if j == 1:
        return (dx[idx, :] @ v - dy[idx, :] @ u + physics.f) / h
    if j == 2:
        return (dx[idx, :] @ s) / h
    return (dy[idx, :] @ s) / h


def apply_poisson(z, physics, grid, g, scale=1.0):
    """scale J(z) g for a packed state z and a packed g of shape (4N,) or
    (4N, m), through the program's coefficient and stencil kernels."""
    n = grid.n
    coef = _coefficients(z, physics.f, grid, scale)
    g = np.ascontiguousarray(g, dtype=np.float64)
    out = np.empty(g.shape)
    _apply_j(coef, _blocks(g, n), _blocks(out, n), scale * 0.5 / grid.dx,
             np.empty((n, n) + g.shape[1:]))
    return out


def rhs(z, physics, grid):
    """Time derivative -J(z) grad H(z), packed (h, u, v, s)."""
    return apply_poisson(z, physics, grid, grad_hamiltonian(z, physics), -1.0)


def avf_gradient(z_old, z_new, physics):
    """Chord-averaged energy gradient int_0^1 grad H(z_old + xi dz) dxi of two
    packed states, in the program's closed form grad H(m) + Q(dz)/12."""
    N = z_old.size // 4
    dz = z_new - z_old
    out = np.empty(dz.shape)
    _chord_gradient((z_old + 0.5 * dz).reshape(4, N), dz.reshape(4, N), physics.b,
                    out.reshape(4, N), np.empty((2, N)))
    return out


def dense_poisson_matrix(z, physics, grid):
    """J(z) assembled densely (4N x 4N) as J applied to the identity."""
    return apply_poisson(z, physics, grid, np.eye(z.size))


def reduced_poisson_matrix(basis, z, physics, grid):
    """Dense reduced Poisson matrix V^T J(z) V (4r x 4r)."""
    N, r = basis.N, basis.r
    vblk = np.zeros((4 * N, 4 * r))
    for i in range(4):
        vblk[i * N : (i + 1) * N, i * r : (i + 1) * r] = basis.modes[i]
    return vblk.T @ apply_poisson(z, physics, grid, vblk)


def central_difference_jacobian(residual, z, step):
    """Oracle dR/dz of a residual on flat states by central differences, one
    column per unknown, column i at step[i]."""
    cols = [(residual(z + e) - residual(z - e)) / (2.0 * h) for e, h in zip(np.diag(step), step)]
    return np.stack(cols, axis=1)


def dense_newton_avf_step(z_old, dt, physics, grid):
    """Reference AVF step: Newton on the full finite-difference Jacobian of
    the fused residual, one column per unknown, to the full model's Newton
    tolerance. Only sensible for n <= 8."""
    residual = _AvfResidual(z_old, dt, physics, grid)
    sqrt_eps = math.sqrt(np.finfo(np.float64).eps)
    z = z_old.copy()
    for _ in range(_NEWTON_MAXITER):
        res = residual(z)
        if float(np.max(np.abs(res))) <= _NEWTON_TOL:
            return z
        eps = sqrt_eps * np.maximum(1.0, np.abs(z))
        jac = np.empty((z.size, z.size))
        for i in range(z.size):
            z_pert = z.copy()
            z_pert[i] += eps[i]
            jac[:, i] = (residual(z_pert) - res) / eps[i]
        z = z + np.linalg.solve(jac, -res)
    if float(np.max(np.abs(residual(z)))) <= _NEWTON_TOL:
        return z
    raise NumericError(f"dense Newton stalled after {_NEWTON_MAXITER} iterations")


def flip_member_byte(path, member):
    """Flip one bit in the middle of the stored bytes of a container member."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(f"{member}.npy")
    raw = bytearray(path.read_bytes())
    at = info.header_offset
    name_len, extra_len = struct.unpack("<HH", raw[at + 26 : at + 30])
    raw[at + 30 + name_len + extra_len + info.file_size // 2] ^= 0x10
    path.write_bytes(bytes(raw))


def rewrite_container(path, meta=None, drop=(), meta_member=None, **arrays):
    """Write a container again with some meta entries replaced or dropped,
    or the whole meta member replaced, and some members replaced."""
    with np.load(path) as npz:
        members = {name: npz[name] for name in npz.files}
    entries = {**json.loads(str(members["meta"])), **(meta or {})}
    for key in drop:
        del entries[key]
    members["meta"] = np.array(meta_member or json.dumps(entries))
    members.update(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **members)
