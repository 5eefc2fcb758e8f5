"""Binary artifact round-trips, corruption detection, CSV/JSON tables."""

import json
import struct

import numpy as np
import pytest

from tswrom.errors import FormatError
from tswrom.fileio import (FORMAT_VERSION, SnapshotWriter, read_basis, read_deim,
                           read_invariants_csv, read_matrix_csv, read_romops,
                           read_snapshots, write_basis, write_deim,
                           write_errors_csv, write_fields_csv,
                           write_invariants_csv, write_matrix_csv,
                           write_report_json, write_romops, write_snapshots,
                           write_spectra_csv)


def _random_traj(rng, n=4, cols=5):
    return rng.normal(size=(4 * n * n, cols))


def test_snapshot_roundtrip(rng, tmp_path):
    traj = _random_traj(rng)
    path = tmp_path / "snap.bin"
    write_snapshots(path, traj, n=4, dt=0.5)
    back, n, dt = read_snapshots(path)
    assert n == 4 and dt == 0.5
    np.testing.assert_array_equal(back, traj)


def test_snapshot_writer_streams_identically(rng, tmp_path):
    traj = _random_traj(rng)
    bulk = tmp_path / "bulk.bin"
    streamed = tmp_path / "streamed.bin"
    write_snapshots(bulk, traj, n=4, dt=2.0)
    with SnapshotWriter(streamed, n=4, num_steps=traj.shape[1] - 1, dt=2.0) as w:
        for k in range(traj.shape[1]):
            w.append(traj[:, k])
    assert bulk.read_bytes() == streamed.read_bytes()


def test_snapshot_writer_rejects_wrong_record(tmp_path):
    with SnapshotWriter(tmp_path / "x.bin", n=4, num_steps=1, dt=1.0) as w:
        with pytest.raises(ValueError):
            w.append(np.zeros(63))


def test_snapshot_corruption_detected(rng, tmp_path):
    traj = _random_traj(rng)
    path = tmp_path / "snap.bin"
    write_snapshots(path, traj, n=4, dt=0.5)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError):
        read_snapshots(bad_magic)

    bad_version = tmp_path / "bad_version.bin"
    bad_version.write_bytes(bytes(raw[:4]) + struct.pack("<I", 99) + bytes(raw[8:]))
    with pytest.raises(FormatError):
        read_snapshots(bad_version)

    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(bytes(raw[:-16]))
    with pytest.raises(FormatError):
        read_snapshots(truncated)

    header_only = tmp_path / "header.bin"
    header_only.write_bytes(bytes(raw[:10]))
    with pytest.raises(FormatError):
        read_snapshots(header_only)


def test_basis_roundtrip(mini_pipeline, tmp_path):
    basis = mini_pipeline.basis
    path = tmp_path / "basis.bin"
    write_basis(path, basis, n=mini_pipeline.grid.n)
    loaded = read_basis(path)
    np.testing.assert_array_equal(loaded.means, basis.means)
    np.testing.assert_array_equal(loaded.modes, basis.modes)
    assert loaded.singular_values is None  # spectra live in the CSV sidecar
    assert np.isnan(loaded.kappa)

    with open(path, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(FormatError):
        read_basis(path)


def test_deim_roundtrip(mini_pipeline, tmp_path):
    dset = mini_pipeline.deim
    path = tmp_path / "deim.bin"
    write_deim(path, dset)
    loaded = read_deim(path)
    assert loaded.p == dset.p
    for orig, back in zip(dset, loaded):
        assert back.j == orig.j
        np.testing.assert_array_equal(back.indices, orig.indices)
        np.testing.assert_array_equal(back.phi, orig.phi)
        np.testing.assert_array_equal(back.psi, orig.psi)

    # an out-of-range interpolation index must be rejected up front
    raw = bytearray(path.read_bytes())
    header = struct.calcsize("<4sIII")
    raw[header : header + 8] = struct.pack("<Q", 10**9)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_deim(path)


def test_romops_roundtrip(mini_pipeline, tmp_path):
    romops = mini_pipeline.romops
    path = tmp_path / "romops.bin"
    write_romops(path, romops)
    mats, r, p = read_romops(path)
    assert r == romops.r and p == romops.p
    for name, mat in romops.matrices().items():
        np.testing.assert_array_equal(mats[name], mat)

    with open(path, "ab") as fh:
        fh.write(b"\0" * 8)
    with pytest.raises(FormatError):
        read_romops(path)


def test_version_1_files_rejected(mini_pipeline, rng, tmp_path):
    # version 1 deim.bin and romops.bin carried seven fields and the old
    # tensors; no reader may take any version-1 file for a current one
    writers = {
        "snap.bin": (lambda path: write_snapshots(path, _random_traj(rng), n=4, dt=0.5),
                     read_snapshots),
        "basis.bin": (lambda path: write_basis(path, mini_pipeline.basis,
                                               n=mini_pipeline.grid.n), read_basis),
        "deim.bin": (lambda path: write_deim(path, mini_pipeline.deim), read_deim),
        "romops.bin": (lambda path: write_romops(path, mini_pipeline.romops), read_romops),
    }
    for name, (write, read) in writers.items():
        path = tmp_path / name
        write(path)
        raw = bytearray(path.read_bytes())
        assert struct.unpack("<I", bytes(raw[4:8])) == (FORMAT_VERSION,)
        raw[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported format version 1"):
            read(path)


def test_invariants_csv_roundtrip(rng, tmp_path):
    times = np.linspace(0.0, 97.2, 5)
    invs = rng.normal(size=(5, 4)) * np.array([1e10, 1e9, 1e9, 1e10])
    path = tmp_path / "invariants.csv"
    write_invariants_csv(path, times, invs)
    times_back, invs_back = read_invariants_csv(path)
    # %.17g is a lossless float64 round trip
    np.testing.assert_array_equal(times_back, times)
    np.testing.assert_array_equal(invs_back, invs)
    assert path.read_text().splitlines()[0] == "step,time,H,M,Q,B"


def test_matrix_csv_roundtrip(rng, tmp_path):
    mat = rng.normal(size=(3, 7))
    path = tmp_path / "mat.csv"
    write_matrix_csv(path, "c0,c1,c2,c3,c4,c5,c6", mat)
    np.testing.assert_array_equal(read_matrix_csv(path), mat)


def test_report_json_roundtrip(tmp_path):
    report = {"n": 24, "dt": 486.0, "l2_pod_h": 1.25e-3}
    path = tmp_path / "report.json"
    write_report_json(path, report)
    assert json.loads(path.read_text()) == report


def test_fields_csv_structure(mini_pipeline):
    # the pipeline already dumped field tables; check shape and header
    path = mini_pipeline.outdir / "fields_fom_0000.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,h,u,v,s,q"
    assert len(lines) == 1 + mini_pipeline.grid.N
    first = [float(tok) for tok in lines[1].split(",")]
    assert len(first) == 7


def test_spectra_and_errors_csv(rng, tmp_path):
    spectra = [np.array([3.0, 1.0]), np.array([2.0, 0.5])]
    spath = tmp_path / "spectra.csv"
    write_spectra_csv(spath, ["h", "u"], spectra)
    lines = spath.read_text().splitlines()
    assert lines[0] == "name,index,sigma"
    assert lines[1] == "h,1,3"
    assert len(lines) == 5

    epath = tmp_path / "errors.csv"
    write_errors_csv(epath, [("l2", "pod", "h", 1.5e-2)])
    lines = epath.read_text().splitlines()
    assert lines[0] == "metric,method,name,value"
    assert lines[1].startswith("l2,pod,h,")
