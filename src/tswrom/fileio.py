"""Binary and text artifacts exchanged between pipeline stages.

All binary files are little-endian, float64 payloads, column-major matrix
storage, and start with a 4-byte magic plus a u32 format version so readers
can reject foreign or stale files before touching the payload:

    snapshots.bin  "RTSW"  header (n, N, K, dt, layout), then K+1 packed
                           states of length 4N in (h, u, v, s) order
    basis.bin      "PODB"  header (n, N, r), then per variable: mean (N)
                           and modes (N x r)
    deim.bin       "DEIM"  header (N, p), then per interpolated coefficient
                           F_j of J, j = 1..3: indices (u64 p), phi (N x p),
                           psi (N x p)
    romops.bin     "ROMT"  header (r, p), then a1, a2 (r x r) and the
                           tensors K_1..K_3 (p x r^2, row k the r x r block
                           of interpolation point k) in that order

Version 2 files carry three interpolated fields and the K_j tensors; the
exact reduced energy gradient and the invariant polynomials are rebuilt from
the basis and the physics on load, so no file stores them. Readers reject
any other version with FormatError.

CSV artifacts are plain comma-separated text with a header row.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

__all__ = [
    "SnapshotWriter",
    "write_snapshots",
    "read_snapshots",
    "read_initial_snapshot",
    "write_basis",
    "read_basis",
    "write_deim",
    "read_deim",
    "write_romops",
    "read_romops",
    "write_invariants_csv",
    "read_invariants_csv",
    "write_spectra_csv",
    "write_errors_csv",
    "write_fields_csv",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_report_json",
]

FORMAT_VERSION = 2
_SNAP_LAYOUT = 1  # packed (h, u, v, s) float64 records

_MAGIC_SNAP = b"RTSW"
_MAGIC_BASIS = b"PODB"
_MAGIC_DEIM = b"DEIM"
_MAGIC_ROMOPS = b"ROMT"

_SNAP_HEADER = struct.Struct("<4sIIIIdI")  # magic, version, n, N, K, dt, layout
_BASIS_HEADER = struct.Struct("<4sIIII")   # magic, version, n, N, r
_DEIM_HEADER = struct.Struct("<4sIII")     # magic, version, N, p
_ROMOPS_HEADER = struct.Struct("<4sIII")   # magic, version, r, p


def _read_exact(fh, nbytes: int, what: str) -> bytes:
    buf = fh.read(nbytes)
    if len(buf) != nbytes:
        raise FormatError(f"truncated file while reading {what}")
    return buf


def _check_header(magic: bytes, expect: bytes, version: int, path) -> None:
    if magic != expect:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {expect!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")


def _write_fortran(fh, mat: np.ndarray) -> None:
    # column-major on disk == C-order bytes of the transpose
    np.ascontiguousarray(mat.T, dtype="<f8").tofile(fh)


def _read_fortran(fh, rows: int, cols: int, path, what: str) -> np.ndarray:
    arr = np.fromfile(fh, dtype="<f8", count=rows * cols)
    if arr.size != rows * cols:
        raise FormatError(f"{path}: truncated {what} ({arr.size} of {rows * cols} values)")
    return np.ascontiguousarray(arr.reshape(cols, rows).T)


def _read_vector(fh, count: int, path, what: str) -> np.ndarray:
    arr = np.fromfile(fh, dtype="<f8", count=count)
    if arr.size != count:
        raise FormatError(f"{path}: truncated {what}")
    return arr


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

class SnapshotWriter:
    """Streams packed states to a snapshot file as they are produced."""

    def __init__(self, path, n: int, num_steps: int, dt: float):
        self.path = Path(path)
        self.n = int(n)
        self.N = self.n * self.n
        self.expected = num_steps + 1
        self.count = 0
        self._fh = open(self.path, "wb")
        self._fh.write(_SNAP_HEADER.pack(
            _MAGIC_SNAP, FORMAT_VERSION, self.n, self.N, int(num_steps),
            float(dt), _SNAP_LAYOUT,
        ))

    def append(self, z: np.ndarray) -> None:
        z = np.asarray(z)
        if z.shape != (4 * self.N,):
            raise ValueError(f"snapshot record must have shape ({4 * self.N},), got {z.shape}")
        np.ascontiguousarray(z, dtype="<f8").tofile(self._fh)
        self.count += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_snapshots(path, trajectory: np.ndarray, n: int, dt: float) -> None:
    """Write a full trajectory (4N, K+1) in one call."""
    with SnapshotWriter(path, n=n, num_steps=trajectory.shape[1] - 1, dt=dt) as w:
        for k in range(trajectory.shape[1]):
            w.append(trajectory[:, k])


def _read_snapshot_records(path, count: int | None):
    """Check a snapshot file's header and size, then read its first count
    records (all K+1 when count is None) -> (records (count, 4N), n, dt, K)."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic, version, n, N, K, dt, layout = _SNAP_HEADER.unpack(
            _read_exact(fh, _SNAP_HEADER.size, "snapshot header"))
        _check_header(magic, _MAGIC_SNAP, version, path)
        if layout != _SNAP_LAYOUT:
            raise FormatError(f"{path}: unknown record layout {layout}")
        if N != n * n:
            raise FormatError(f"{path}: header N={N} inconsistent with n={n}")
        payload = os.fstat(fh.fileno()).st_size - _SNAP_HEADER.size
        if payload != 8 * 4 * N * (K + 1):
            raise FormatError(f"{path}: expected {K + 1} records of {32 * N} bytes, "
                              f"found {payload} bytes after the header")
        count = K + 1 if count is None else count
        data = np.fromfile(fh, dtype="<f8", count=4 * N * count)
    return data.reshape(count, 4 * N), n, dt, K


def read_snapshots(path):
    """Read a snapshot file -> (trajectory (4N, K+1), n, dt)."""
    records, n, dt, _ = _read_snapshot_records(path, None)
    return records.T.copy(), n, dt


def read_initial_snapshot(path):
    """Read only the first state of a snapshot file -> (z0 (4N,), n, dt, K),
    after the same header and length checks as read_snapshots."""
    records, n, dt, K = _read_snapshot_records(path, 1)
    return records[0], n, dt, K


# ---------------------------------------------------------------------------
# POD basis
# ---------------------------------------------------------------------------

def write_basis(path, basis, n: int) -> None:
    from .pod import PodBasis  # noqa: F401  (type only)

    with open(path, "wb") as fh:
        fh.write(_BASIS_HEADER.pack(_MAGIC_BASIS, FORMAT_VERSION, int(n), basis.N, basis.r))
        for i in range(4):
            np.ascontiguousarray(basis.means[i], dtype="<f8").tofile(fh)
            _write_fortran(fh, basis.modes[i])


def read_basis(path):
    from .pod import PodBasis

    path = Path(path)
    with open(path, "rb") as fh:
        magic, version, n, N, r = _BASIS_HEADER.unpack(
            _read_exact(fh, _BASIS_HEADER.size, "basis header"))
        _check_header(magic, _MAGIC_BASIS, version, path)
        if N != n * n:
            raise FormatError(f"{path}: header N={N} inconsistent with n={n}")
        means = np.empty((4, N))
        modes = np.empty((4, N, r))
        for i in range(4):
            means[i] = _read_vector(fh, N, path, "basis mean")
            modes[i] = _read_fortran(fh, N, r, path, "basis modes")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after basis payload")
    # spectra/ranks live in the CSV sidecars, not the binary
    return PodBasis(means=means, modes=modes, singular_values=None,
                    ranks=None, kappa=float("nan"))


# ---------------------------------------------------------------------------
# DEIM operators
# ---------------------------------------------------------------------------

def write_deim(path, deim) -> None:
    with open(path, "wb") as fh:
        fh.write(_DEIM_HEADER.pack(_MAGIC_DEIM, FORMAT_VERSION,
                                   deim[1].phi.shape[0], deim.p))
        for op in deim:
            np.ascontiguousarray(op.indices, dtype="<u8").tofile(fh)
            _write_fortran(fh, op.phi)
            _write_fortran(fh, op.psi)


def read_deim(path):
    from .deim import NUM_NONLIN, DeimOperator, DeimSet

    path = Path(path)
    with open(path, "rb") as fh:
        magic, version, N, p = _DEIM_HEADER.unpack(
            _read_exact(fh, _DEIM_HEADER.size, "deim header"))
        _check_header(magic, _MAGIC_DEIM, version, path)
        operators = []
        for j in range(1, NUM_NONLIN + 1):
            idx = np.fromfile(fh, dtype="<u8", count=p)
            if idx.size != p:
                raise FormatError(f"{path}: truncated index set for F{j}")
            if idx.max(initial=0) >= N:
                raise FormatError(f"{path}: interpolation index out of range for F{j}")
            phi = _read_fortran(fh, N, p, path, f"phi for F{j}")
            psi = _read_fortran(fh, N, p, path, f"psi for F{j}")
            operators.append(DeimOperator(j=j, indices=idx.astype(np.int64),
                                          phi=phi, psi=psi))
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after deim payload")
    return DeimSet(operators=tuple(operators), singular_values=None,
                   ranks=None, kappa=float("nan"))


# ---------------------------------------------------------------------------
# reduced operators
# ---------------------------------------------------------------------------

_ROMOPS_ORDER = ("a1", "a2", "k1", "k2", "k3")


def _romops_shapes(r: int, p: int) -> dict[str, tuple[int, int]]:
    return {name: (r, r) if name.startswith("a") else (p, r * r) for name in _ROMOPS_ORDER}


def write_romops(path, romops) -> None:
    mats = romops.matrices()
    with open(path, "wb") as fh:
        fh.write(_ROMOPS_HEADER.pack(_MAGIC_ROMOPS, FORMAT_VERSION, romops.r, romops.p))
        for name in _ROMOPS_ORDER:
            _write_fortran(fh, mats[name])


def read_romops(path):
    """Read the precomputed operator matrices -> (dict name->matrix, r, p)."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic, version, r, p = _ROMOPS_HEADER.unpack(
            _read_exact(fh, _ROMOPS_HEADER.size, "romops header"))
        _check_header(magic, _MAGIC_ROMOPS, version, path)
        mats = {}
        for name, shape in _romops_shapes(r, p).items():
            mats[name] = _read_fortran(fh, shape[0], shape[1], path, name)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after romops payload")
    return mats, r, p


# ---------------------------------------------------------------------------
# CSV / JSON artifacts
# ---------------------------------------------------------------------------

def write_invariants_csv(path, times: np.ndarray, invariants: np.ndarray) -> None:
    """Columns step, time, H, M, Q, B; one row per stored state."""
    with open(path, "w") as fh:
        fh.write("step,time,H,M,Q,B\n")
        for k in range(len(times)):
            H, M, Q, B = invariants[k]
            fh.write(f"{k},{times[k]:.17g},{H:.17g},{M:.17g},{Q:.17g},{B:.17g}\n")


def read_invariants_csv(path):
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    data = np.atleast_2d(data)
    if data.shape[1] != 6:
        raise FormatError(f"{path}: expected 6 columns (step,time,H,M,Q,B)")
    return data[:, 1], data[:, 2:]


def write_spectra_csv(path, names, spectra) -> None:
    """Long-format singular value table: name, mode index (1-based), sigma."""
    with open(path, "w") as fh:
        fh.write("name,index,sigma\n")
        for name, sig in zip(names, spectra):
            for i, val in enumerate(sig, start=1):
                fh.write(f"{name},{i},{val:.17g}\n")


def write_errors_csv(path, rows) -> None:
    """Long-format metric table: rows of (metric, method, name, value)."""
    with open(path, "w") as fh:
        fh.write("metric,method,name,value\n")
        for metric, method, name, value in rows:
            fh.write(f"{metric},{method},{name},{value:.17g}\n")


def write_fields_csv(path, grid, fields: dict[str, np.ndarray]) -> None:
    """Point cloud dump: x, y then one column per named field (N rows)."""
    xx, yy = grid.meshcoords()
    with open(path, "w") as fh:
        fh.write("x,y," + ",".join(fields) + "\n")
        np.savetxt(fh, np.column_stack([xx, yy, *fields.values()]), delimiter=",", fmt="%.17g")


def write_matrix_csv(path, header: str, mat: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, mat, delimiter=",", fmt="%.17g")


def read_matrix_csv(path) -> np.ndarray:
    return np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1))


def write_report_json(path, values: dict) -> None:
    with open(path, "w") as fh:
        json.dump(values, fh, indent=2, sort_keys=True)
        fh.write("\n")
