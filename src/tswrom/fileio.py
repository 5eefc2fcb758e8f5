"""Binary and text artifacts exchanged between pipeline stages.

Each binary artifact is an uncompressed zip of .npy members as np.savez
writes it, its arrays stored bit for bit. Its `meta` member is a JSON object
with the kind, FORMAT_VERSION = 7 (1 and 2 were raw formats), scalars and
`inputs`, the fingerprints of the artifacts the file was derived from.
State k of every trajectory is at time k dt.

    snapshots.bin  trajectory (K+1, 4N), the packed states in time order,
                   read back as the (4N, K+1) view without a copy; z0 (4N,);
                   invariants (K+1, 4); meta n, dt, num_steps and the
                   length, coriolis and gravity of the run
    basis.bin      stack (4, r + 1, N), PodBasis's mode-major [V | mean]^T,
                   read back without a copy; singular_values (4, K); meta
                   ranks, kappa
    deim.bin       indices (3, p) and psi (3, N, p), row j - 1 for F_j;
                   singular_values (3, K); meta ranks, kappa
    romops.bin     k (3, p, r^2), k[j - 1, i] the r x r block of
                   interpolation point i of F_j; the rest of the operator
                   set is rebuilt from basis.bin and deim.bin on load
    rom_pod.bin, rom_pod_deim.bin
                   reduced (4r, K+1) and invariants (K+1, 4) of one reduced
                   solve; kind rom_pod or rom_pod_deim

A read fails with FormatError on a bad member CRC-32, a missing member or
meta entry, members whose shapes disagree with each other (or with the
grid's N or the basis r where the reader is given them), bytes after the
zip's end record, or another kind or version.

The text artifacts are report.json, run_meta.json and comma-separated
tables with a header row: the invariant logs fom_invariants.csv and
rom_invariants_*.csv (plain text for plotting, and what perfbench's
cli-disk check reads with np.loadtxt) and the field dumps fields_*.csv. No
other copy of a container member is written: the singular values stay in
basis.bin and deim.bin. Every file, binary or text, is written as
<name>.part and renamed into place when complete.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .deim import NUM_NONLIN, DeimSet
from .errors import ConfigError, FormatError
from .fom import FomResult
from .pod import PodBasis
from .rom import TAGS, RomResult

__all__ = ["SnapshotWriter", "read_snapshots", "read_initial_snapshot", "write_basis",
           "read_basis", "write_deim", "read_deim", "write_romops", "read_romops",
           "write_rom", "read_rom", "write_invariants_csv", "write_fields_csv", "write_json"]

FORMAT_VERSION = 7
# the meta entries each kind must carry besides kind, version and inputs
_META_KEYS = {"snapshots": ("n", "dt", "num_steps", "length", "coriolis", "gravity"),
              "basis": ("ranks", "kappa"), "deim": ("ranks", "kappa")}


def _meta_member(kind: str, meta: dict) -> np.ndarray:
    return np.array(json.dumps({"kind": kind, "version": FORMAT_VERSION, **meta}))


@contextmanager
def _replacing(path, mode: str = "w"):
    """A file writing path.part, renamed onto path when the block completes;
    on an exception path keeps what it held and path.part is deleted."""
    part = Path(f"{path}.part")
    try:
        with open(part, mode) as fh:
            yield fh
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def _save(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a container of this kind to path through path.part."""
    with _replacing(path, "wb") as fh:
        np.savez(fh, meta=_meta_member(kind, meta), **arrays)


def _load(path, kind: str, names) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta object and the named arrays of a container of this kind."""
    try:
        with open(path, "rb") as fh:
            # no zip comment is written, so the 22-byte end record ends the file
            fh.seek(max(fh.seek(0, os.SEEK_END) - 22, 0))
            if fh.read(4) != b"PK\x05\x06":
                raise zipfile.BadZipFile("the file does not end with a zip end record")
            # np.load's reader for zip files, which takes no other kind of file
            with np.lib.npyio.NpzFile(fh, allow_pickle=False) as npz:
                meta = json.loads(str(npz["meta"]))
                if not isinstance(meta, dict):
                    raise FormatError(f"{path}: its meta member is not a JSON object")
                if meta.get("kind") != kind:
                    raise FormatError(f"{path}: a {meta.get('kind')} file, not a {kind} file")
                if meta.get("version") != FORMAT_VERSION:
                    raise FormatError(f"{path}: unsupported format version {meta.get('version')}")
                keys = ("inputs", *_META_KEYS.get(kind, ()))
                if not meta.keys() >= set(keys):
                    raise FormatError(f"{path}: meta lacks one of {', '.join(keys)}")
                return meta, {name: npz[name] for name in names}
    except (zipfile.BadZipFile, KeyError, ValueError, EOFError) as exc:
        raise FormatError(f"{path}: not a readable {kind} file ({exc})") from exc


def lineage(path, kind: str) -> tuple[str, dict[str, str]]:
    """A container's fingerprint, the member CRC-32s its zip's central
    directory lists (read without the payload; equal for identical runs),
    and the fingerprints of the inputs its meta records."""
    meta, _ = _load(path, kind, ())
    with zipfile.ZipFile(path) as zf:
        return "-".join(f"{info.CRC:08x}" for info in zf.infolist()), meta["inputs"]


class SnapshotWriter:
    """Writes a snapshot file record by record, z0 and the invariants at close.

    The file appears only when all num_steps + 1 records were appended and the
    writer closes without an exception; otherwise close deletes what was written.
    """

    def __init__(self, path, n: int, num_steps: int, dt: float, length: float,
                 coriolis: float, gravity: float):
        self.path = Path(path)
        self.shape = (int(num_steps) + 1, 4 * int(n) ** 2)
        self.meta = {"n": int(n), "dt": float(dt), "num_steps": int(num_steps),
                     "length": float(length), "coriolis": float(coriolis),
                     "gravity": float(gravity), "inputs": {}}
        self.count = 0
        self._z0 = None
        self._invariants = np.empty((self.shape[0], 4))
        self._zip = zipfile.ZipFile(self.path.with_name(self.path.name + ".part"), "w")
        self._records = self._zip.open("trajectory.npy", "w", force_zip64=True)
        np.lib.format.write_array_header_1_0(
            self._records, {"descr": "<f8", "fortran_order": False, "shape": self.shape})

    def append(self, z: np.ndarray, invariants: np.ndarray) -> None:
        z = np.ascontiguousarray(z, dtype="<f8")
        if z.shape != self.shape[1:]:
            raise ValueError(f"snapshot record must have shape ({self.shape[1]},), got {z.shape}")
        if self.count == self.shape[0]:
            raise ValueError(f"all {self.shape[0]} snapshot records were already appended")
        self._records.write(z)
        self._invariants[self.count] = invariants
        if self.count == 0:
            self._z0 = z.copy()
        self.count += 1

    def _finish(self, complete: bool) -> None:
        if self._zip is None:
            return
        zf, self._zip = self._zip, None
        try:
            self._records.close()
            if complete:
                for key, arr in (("z0", self._z0), ("invariants", self._invariants),
                                 ("meta", _meta_member("snapshots", self.meta))):
                    with zf.open(f"{key}.npy", "w") as fh:
                        np.lib.format.write_array(fh, arr, allow_pickle=False)
                zf.close()
                os.replace(zf.filename, self.path)
        finally:
            zf.close()
            Path(zf.filename).unlink(missing_ok=True)

    def close(self) -> None:
        self._finish(self.count == self.shape[0])

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        self._finish(exc_type is None and self.count == self.shape[0])


def read_snapshots(path):
    """Read a snapshot file -> (FomResult, meta); the trajectory (4N, K+1)
    is the transposed view of the stored records, as integrate_fom's."""
    meta, arrays = _load(path, "snapshots", ("trajectory", "invariants"))
    traj, invs = arrays["trajectory"], arrays["invariants"]
    if traj.shape != (meta["num_steps"] + 1, 4 * meta["n"] ** 2):
        raise FormatError(f"{path}: a {traj.shape} trajectory disagrees with meta n and num_steps")
    if invs.shape != (traj.shape[0], 4):
        raise FormatError(f"{path}: invariants {invs.shape} are not ({traj.shape[0]}, 4)")
    return FomResult(traj.T, invs), meta


def read_initial_snapshot(path):
    """Read only the first state of a snapshot file -> (z0 (4N,), meta)."""
    meta, arrays = _load(path, "snapshots", ("z0",))
    z0 = arrays["z0"]
    if z0.shape != (4 * meta["n"] ** 2,):
        raise FormatError(f"{path}: z0 {z0.shape} disagrees with meta n={meta['n']}")
    return z0, meta


def write_basis(path, basis, inputs: dict[str, str]) -> None:
    _save(path, "basis", {"ranks": basis.ranks, "kappa": basis.kappa, "inputs": inputs},
          {"stack": basis.stack, "singular_values": basis.singular_values})


def read_basis(path, N: int | None = None):
    """Read a basis file -> PodBasis; with N, a stack of another N is
    malformed too."""
    meta, arrays = _load(path, "basis", ("stack", "singular_values"))
    stack, svals = arrays["stack"], arrays["singular_values"]
    if not (stack.ndim == 3 and len(stack) == 4 and stack.shape[1] >= 2
            and svals.ndim == 2 and len(svals) == 4):
        raise FormatError(f"{path}: stack {stack.shape} and singular_values {svals.shape} are "
                          f"not (4, r + 1, N) with r >= 1 and (4, K)")
    if N is not None and stack.shape[2] != N:
        raise FormatError(f"{path}: stack {stack.shape} is not (4, r + 1, N) for the grid's N={N}")
    return PodBasis(**arrays, ranks=tuple(meta["ranks"]), kappa=meta["kappa"])


def write_deim(path, deim, inputs: dict[str, str]) -> None:
    _save(path, "deim", {"ranks": deim.ranks, "kappa": deim.kappa, "inputs": inputs},
          {"indices": deim.indices, "psi": deim.psi, "singular_values": deim.singular_values})


def read_deim(path):
    meta, arrays = _load(path, "deim", ("indices", "psi", "singular_values"))
    indices, psi = arrays["indices"], arrays["psi"]
    if not (indices.ndim == 2 == psi.ndim - 1 and len(indices) == NUM_NONLIN
            and psi.shape[::2] == indices.shape):
        raise FormatError(f"{path}: psi {psi.shape} and indices {indices.shape} are not "
                          f"(3, N, p) and (3, p) for one p")
    if indices.size and not 0 <= indices.min() <= indices.max() < psi.shape[1]:
        raise FormatError(f"{path}: interpolation index out of range")
    return DeimSet(**arrays, ranks=tuple(meta["ranks"]), kappa=meta["kappa"])


def write_romops(path, romops, inputs: dict[str, str]) -> None:
    if romops.k is None:
        raise ConfigError("a DEIM-free operator set has no tensors k to write")
    _save(path, "romops", {"inputs": inputs}, {"k": romops.k})


def read_romops(path):
    """Read the precomputed operator matrices -> ({"k": k}, r, p)."""
    _, mats = _load(path, "romops", ("k",))
    k = mats["k"]
    if k.ndim != 3:
        raise FormatError(f"{path}: k {k.shape} is not (3, p, r^2)")
    return mats, math.isqrt(k.shape[2]), k.shape[1]


def write_rom(path, result, inputs: dict[str, str]) -> None:
    """Write one reduced solve, a RomResult, as kind rom_{pod,pod_deim}."""
    _save(path, "rom_" + TAGS[result.method], {"inputs": inputs},
          {"reduced": result.reduced, "invariants": result.invariants})


def read_rom(path, method: str, r: int | None = None):
    """Read the reduced solve of this method (pod or pod-deim) -> RomResult;
    with r, the basis size, a reduced array of another row count than 4r is
    malformed too."""
    _, arrays = _load(path, "rom_" + TAGS[method], ("reduced", "invariants"))
    reduced, invs = arrays["reduced"], arrays["invariants"]
    if not (reduced.ndim == 2 and len(reduced) > 0 and len(reduced) % 4 == 0
            and invs.shape == (reduced.shape[1], 4)):
        raise FormatError(f"{path}: reduced {reduced.shape} and invariants {invs.shape} are "
                          f"not (4r, K+1) and (K+1, 4) for one K")
    if r is not None and len(reduced) != 4 * r:
        raise FormatError(f"{path}: reduced {reduced.shape} is not (4r, K+1) for the basis r={r}")
    return RomResult(**arrays, method=method)


# CSV / JSON artifacts

def write_invariants_csv(path, dt: float, invariants: np.ndarray) -> None:
    """Columns step, time k dt, H, M, Q, B; one row per stored state."""
    with _replacing(path) as fh:
        fh.write("step,time,H,M,Q,B\n")
        for k, (H, M, Q, B) in enumerate(invariants):
            fh.write(f"{k},{k * dt:.17g},{H:.17g},{M:.17g},{Q:.17g},{B:.17g}\n")


def write_fields_csv(path, grid, fields: dict[str, np.ndarray]) -> None:
    """Point cloud dump: x, y then one column per named field (N rows)."""
    xx, yy = grid.meshcoords()
    table = np.column_stack([xx, yy, *fields.values()])
    # np.savetxt's bytes (fmt "%.17g", delimiter ","), formatted in one
    # operation instead of one per row
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with _replacing(path) as fh:
        fh.write("x,y," + ",".join(fields) + "\n")
        fh.write(row * table.shape[0] % tuple(table.ravel().tolist()))


def write_json(path, values: dict) -> None:
    """report.json and run_meta.json: an indented object, keys sorted."""
    with _replacing(path) as fh:
        json.dump(values, fh, indent=2, sort_keys=True)
        fh.write("\n")
