"""Binary container round-trips, corruption detection, CSV/JSON tables."""

import dataclasses
import json
import re
import struct
import zipfile

import numpy as np
import pytest

from helpers import flip_member_byte, rewrite_container

from tswrom.errors import FormatError
from tswrom.fileio import (SnapshotWriter, lineage, read_basis, read_deim,
                           read_initial_snapshot, read_rom, read_romops, read_snapshots,
                           write_basis, write_deim, write_fields_csv, write_invariants_csv,
                           write_json, write_rom, write_romops)
from tswrom.grid import apply_dx, apply_dy, build_grid
from tswrom.pod import PodBasis, restrict
from tswrom.rom import rom_operators_from_parts, rom_rhs


def _config(num_steps, n=4, dt=0.5):
    """A run configuration to record; fileio reads only its n and num_steps."""
    return {"n": n, "num_steps": num_steps, "dt": dt, "coriolis": 6.147e-5}


def _random_traj(rng, n=4, cols=5):
    return rng.normal(size=(4 * n * n, cols))


def _append_bytes(path, extra=b"\0" * 8):
    with open(path, "ab") as fh:
        fh.write(extra)


def _invariants(traj):
    return np.arange(4.0 * traj.shape[1]).reshape(-1, 4) / 3.0


def _write_snapshots(path, traj, n, dt):
    invs = _invariants(traj)
    with SnapshotWriter(path, _config(traj.shape[1] - 1, n, dt)) as w:
        for k in range(traj.shape[1]):
            w.append(traj[:, k], invs[k])


def test_snapshot_roundtrip(rng, tmp_path):
    traj = _random_traj(rng)
    path = tmp_path / "snap.bin"
    _write_snapshots(path, traj, n=4, dt=0.5)
    full, meta = read_snapshots(path)
    assert meta["config"] == _config(traj.shape[1] - 1)
    assert meta["inputs"] == {}
    np.testing.assert_array_equal(full.trajectory, traj)
    # the trajectory is the transposed view of the loaded records, not a copy
    assert full.trajectory.T.flags.c_contiguous and full.trajectory.base.flags.owndata
    np.testing.assert_array_equal(full.invariants, _invariants(traj))
    z0, meta_z0 = read_initial_snapshot(path)
    assert meta_z0 == meta
    np.testing.assert_array_equal(z0, traj[:, 0])
    assert [p.name for p in tmp_path.iterdir()] == ["snap.bin"]


def test_snapshot_writer_streams_identically(rng, tmp_path):
    # the streamed trajectory member is byte for byte np.save of the records
    traj = _random_traj(rng)
    path = tmp_path / "snap.bin"
    _write_snapshots(path, traj, n=4, dt=2.0)
    bulk = tmp_path / "bulk.npy"
    np.save(bulk, np.ascontiguousarray(traj.T))
    with zipfile.ZipFile(path) as zf:
        assert zf.read("trajectory.npy") == bulk.read_bytes()


def test_snapshot_writer_rejects_wrong_record(tmp_path):
    path = tmp_path / "x.bin"
    with SnapshotWriter(path, _config(1)) as w:
        with pytest.raises(ValueError):
            w.append(np.zeros(63), np.ones(4))
        w.append(np.zeros(64), np.ones(4))
        w.append(np.zeros(64), np.ones(4))
        with pytest.raises(ValueError):
            w.append(np.zeros(64), np.ones(4))
    assert read_snapshots(path)[0].trajectory.shape == (64, 2)


def test_snapshot_writer_keeps_only_complete_files(rng, tmp_path):
    traj = _random_traj(rng)
    path = tmp_path / "snap.bin"
    # closed one record short
    w = SnapshotWriter(path, _config(traj.shape[1] - 1))
    for k in range(traj.shape[1] - 1):
        w.append(traj[:, k], np.ones(4))
    w.close()
    assert list(tmp_path.iterdir()) == []
    # left by an exception after every record was appended
    with pytest.raises(RuntimeError):
        with SnapshotWriter(path, _config(traj.shape[1] - 1)) as w:
            for k in range(traj.shape[1]):
                w.append(traj[:, k], np.ones(4))
            raise RuntimeError("solver failed")
    assert list(tmp_path.iterdir()) == []
    # a failed rewrite leaves the earlier complete file as it was
    _write_snapshots(path, traj, n=4, dt=0.5)
    before = path.read_bytes()
    with SnapshotWriter(path, _config(traj.shape[1] - 1)) as w:
        w.append(traj[:, 0], np.ones(4))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["snap.bin"]


def test_snapshot_corruption_detected(rng, tmp_path):
    traj = _random_traj(rng)
    path = tmp_path / "snap.bin"
    _write_snapshots(path, traj, n=4, dt=0.5)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    bad_version = tmp_path / "bad_version.bin"
    bad_version.write_bytes(raw)
    rewrite_container(bad_version, meta={"version": 99})
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(raw[:-16])
    header_only = tmp_path / "header.bin"
    header_only.write_bytes(raw[:10])
    flipped = tmp_path / "flipped.bin"
    flipped.write_bytes(raw)
    flip_member_byte(flipped, "trajectory")
    appended = tmp_path / "appended.bin"
    appended.write_bytes(raw)
    _append_bytes(appended)
    for bad in (bad_magic, bad_version, truncated, header_only, flipped, appended):
        with pytest.raises(FormatError):
            read_snapshots(bad)

    # a meta that is not an object, lacks an entry or disagrees with the records
    not_object = tmp_path / "not_object.bin"
    not_object.write_bytes(raw)
    rewrite_container(not_object, meta_member='["snapshots", 3]')
    with pytest.raises(FormatError, match="not a JSON object"):
        read_snapshots(not_object)
    for key in ("config", "inputs"):
        missing = tmp_path / f"no_{key}.bin"
        missing.write_bytes(raw)
        rewrite_container(missing, drop=(key,))
        with pytest.raises(FormatError, match="meta lacks"):
            read_snapshots(missing)
        with pytest.raises(FormatError, match="meta lacks"):
            read_initial_snapshot(missing)
    # a config without the integers the shapes are checked against
    for config in ({"dt": 0.5, "num_steps": traj.shape[1] - 1}, {**_config(4), "n": "4"}, []):
        shapeless = tmp_path / "shapeless.bin"
        shapeless.write_bytes(raw)
        rewrite_container(shapeless, meta={"config": config})
        for read in (read_snapshots, read_initial_snapshot):
            with pytest.raises(FormatError, match="config records no integer n and num_steps"):
                read(shapeless)
    for config in (_config(traj.shape[1] - 1, n=2), _config(traj.shape[1])):
        mismatch = tmp_path / "mismatch.bin"
        mismatch.write_bytes(raw)
        rewrite_container(mismatch, meta={"config": config})
        with pytest.raises(FormatError, match=r"trajectory \(\d+, \d+\) disagrees"):
            read_snapshots(mismatch)

    flip_member_byte(path, "z0")
    with pytest.raises(FormatError, match="Bad CRC-32"):
        read_initial_snapshot(path)


def test_basis_roundtrip(mini_pipeline, tmp_path):
    basis = mini_pipeline.basis
    path = tmp_path / "basis.bin"
    inputs = {"snapshots.bin": "0a1b2c3d"}
    write_basis(path, basis, inputs)
    loaded = read_basis(path)
    assert lineage(path, "basis")[1] == inputs
    np.testing.assert_array_equal(loaded.stack, basis.stack)
    np.testing.assert_array_equal(loaded.singular_values, basis.singular_values)
    assert loaded.ranks == basis.ranks and loaded.kappa == basis.kappa

    raw = path.read_bytes()
    flip_member_byte(path, "stack")
    with pytest.raises(FormatError, match="Bad CRC-32"):
        read_basis(path)
    path.write_bytes(raw)
    _append_bytes(path)
    with pytest.raises(FormatError, match="zip end record"):
        read_basis(path)


def _mode_major(basis):
    """The stack is one C-order (4, r + 1, N) array, and modes and means are
    its views [:r] and [r], so each mode and each mean is one contiguous row."""
    stack = basis.stack
    return (stack.shape == (4, basis.r + 1, basis.N) and stack.flags.c_contiguous
            and basis.modes.__array_interface__
            == stack[:, : basis.r].transpose(0, 2, 1).__array_interface__
            and basis.means.__array_interface__ == stack[:, basis.r].__array_interface__)


def test_basis_stack_is_mode_major_in_memory_and_on_disk(mini_pipeline, tmp_path):
    # every way to get a basis holds the modes and the means as one C-order
    # (4, r + 1, N) stack, and basis.bin stores that stack as it is
    basis = mini_pipeline.basis
    assert _mode_major(basis)
    copy = dataclasses.replace(basis)
    assert _mode_major(copy) and np.shares_memory(copy.modes, basis.modes)
    assert np.shares_memory(copy.means, basis.means)
    path = tmp_path / "basis.bin"
    write_basis(path, basis, {})
    assert _mode_major(read_basis(path))
    # fixed values give the member CRC-32s of the stack's C-order bytes
    stack = np.arange(72.0).reshape(4, 3, 6) / 16
    fixed = PodBasis(stack=stack, singular_values=np.arange(12.0)[::-1].reshape(4, 3),
                     ranks=(1, 2, 2, 1), kappa=1e-3)
    assert _mode_major(fixed) and fixed.r == 2 and fixed.N == 6
    np.testing.assert_array_equal(fixed.modes[1, :, 0], stack[1, 0])
    np.testing.assert_array_equal(fixed.means[2], stack[2, 2])
    write_basis(path, fixed, {"snapshots.bin": "0a1b2c3d"})
    # the first CRC-32 is the meta member's, which holds FORMAT_VERSION
    assert lineage(path, "basis")[0] == "eca6b572-99c67376-fab6e096"
    with zipfile.ZipFile(path) as zf:
        assert zf.namelist() == ["meta.npy", "stack.npy", "singular_values.npy"]
        assert zf.read("stack.npy")[-stack.nbytes:] == stack.tobytes()
    np.testing.assert_array_equal(read_basis(path).stack, stack)


def test_deim_roundtrip(mini_pipeline, tmp_path):
    dset = mini_pipeline.deim
    path = tmp_path / "deim.bin"
    write_deim(path, dset, {})
    loaded = read_deim(path)
    assert loaded.p == dset.p
    np.testing.assert_array_equal(loaded.indices, dset.indices)
    np.testing.assert_array_equal(loaded.psi, dset.psi)
    np.testing.assert_array_equal(loaded.singular_values, dset.singular_values)
    assert loaded.ranks == dset.ranks and loaded.kappa == dset.kappa

    raw = path.read_bytes()
    flip_member_byte(path, "psi")
    with pytest.raises(FormatError, match="Bad CRC-32"):
        read_deim(path)
    path.write_bytes(raw)
    _append_bytes(path)
    with pytest.raises(FormatError, match="zip end record"):
        read_deim(path)
    path.write_bytes(raw)

    # an out-of-range interpolation index must be rejected up front
    indices = dset.indices.copy()
    indices[0, 0] = 10**9
    rewrite_container(path, indices=indices)
    with pytest.raises(FormatError, match="index out of range"):
        read_deim(path)


def test_deim_psi_of_another_point_count_rejected(mini_pipeline, tmp_path):
    dset = mini_pipeline.deim
    path = tmp_path / "deim.bin"
    for arrays in ({"psi": dset.psi[:, :, :-1]}, {"indices": dset.indices[:, :-1]},
                   {"indices": dset.indices[:2], "psi": dset.psi[:2]}):
        write_deim(path, dset, {})
        rewrite_container(path, **arrays)
        with pytest.raises(FormatError, match=r"are not \(3, N, p\) and \(3, p\)"):
            read_deim(path)


def test_romops_roundtrip(mini_pipeline, tmp_path):
    romops = mini_pipeline.romops
    path = tmp_path / "romops.bin"
    write_romops(path, romops, {})
    mats, r, p = read_romops(path)
    assert r == romops.r and p == romops.deim.p
    assert list(mats) == ["k"]
    np.testing.assert_array_equal(mats["k"], romops.k)

    raw = path.read_bytes()
    flip_member_byte(path, "k")
    with pytest.raises(FormatError, match="Bad CRC-32"):
        read_romops(path)
    path.write_bytes(raw)
    _append_bytes(path)
    with pytest.raises(FormatError, match="zip end record"):
        read_romops(path)
    # another rank, another first dimension than 3, or a last one that is
    # not r^2 for some r >= 1
    p, r = romops.deim.p, romops.r
    for shape in ((3, 4), (), (2, p, r * r), (3, p, r * r - 1), (3, p, 0)):
        path.write_bytes(raw)
        rewrite_container(path, k=np.zeros(shape))
        with pytest.raises(FormatError,
                           match=re.escape(f"k {shape} is not (3, p, r^2) with r >= 1")):
            read_romops(path)


def test_romops_with_stored_derivative_blocks_still_loads(mini_pipeline, tmp_path):
    # romops.bin once held a1 = V_h^T Dx V_u and a2 = V_h^T Dy V_v next to
    # k; such a file still loads, a1 and a2 unread, to the fresh set's rhs
    romops, basis, dset = mini_pipeline.romops, mini_pipeline.basis, mini_pipeline.deim
    grid = mini_pipeline.grid
    vh, vu, vv, _ = basis.modes
    path = tmp_path / "romops.bin"
    write_romops(path, romops, {})
    rewrite_container(path, a1=vh.T @ apply_dx(grid, vu), a2=vh.T @ apply_dy(grid, vv))
    mats, r, p = read_romops(path)
    assert (r, p) == (basis.r, dset.p)
    ops = rom_operators_from_parts(mats, basis, dset, mini_pipeline.physics, grid)
    z_r = restrict(basis, mini_pipeline.fom.trajectory[:, 4])
    np.testing.assert_array_equal(rom_rhs(ops, z_r), rom_rhs(romops, z_r))


def test_version_1_files_rejected(mini_pipeline, rng, tmp_path):
    # versions 1 and 2 were raw formats; neither, nor a container that
    # declares an older version or another kind, may pass for a current file
    writers = {
        "snap.bin": (lambda path: _write_snapshots(path, _random_traj(rng), n=4, dt=0.5),
                     read_snapshots, b"RTSW"),
        "basis.bin": (lambda path: write_basis(path, mini_pipeline.basis, {}), read_basis,
                      b"PODB"),
        "deim.bin": (lambda path: write_deim(path, mini_pipeline.deim, {}), read_deim, b"DEIM"),
        "romops.bin": (lambda path: write_romops(path, mini_pipeline.romops, {}), read_romops,
                       b"ROMT"),
    }
    for name, (write, read, magic) in writers.items():
        path = tmp_path / name
        write(path)
        rewrite_container(path, meta={"version": 1})
        with pytest.raises(FormatError, match="unsupported format version 1"):
            read(path)
        path.write_bytes(magic + struct.pack("<III", 2, 4, 16) + bytes(256))
        with pytest.raises(FormatError):
            read(path)
    write_basis(tmp_path / "deim.bin", mini_pipeline.basis, {})
    with pytest.raises(FormatError, match="a basis file, not a deim file"):
        read_deim(tmp_path / "deim.bin")


def test_invariants_csv_roundtrip(rng, tmp_path):
    invs = rng.normal(size=(5, 4)) * np.array([1e10, 1e9, 1e9, 1e10])
    path = tmp_path / "invariants.csv"
    write_invariants_csv(path, 24.3, invs)
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    # %.17g is a lossless float64 round trip
    np.testing.assert_array_equal(back[:, 0], np.arange(5))
    np.testing.assert_array_equal(back[:, 1], 24.3 * np.arange(5))
    np.testing.assert_array_equal(back[:, 2:], invs)
    assert path.read_text().splitlines()[0] == "step,time,H,M,Q,B"


def test_rom_roundtrip(mini_pipeline, tmp_path):
    for result in (mini_pipeline.rom_pod, mini_pipeline.rom_deim):
        path = tmp_path / "rom.bin"
        inputs = {"basis.bin": "0a1b2c3d-4e5f6071"}
        write_rom(path, result, inputs)
        loaded = read_rom(path, result.method)
        assert loaded.method == result.method
        for key in ("reduced", "invariants"):
            np.testing.assert_array_equal(getattr(loaded, key), getattr(result, key))
        tag = result.method.replace("-", "_")
        assert lineage(path, f"rom_{tag}")[1] == inputs
        other = "pod" if result.method == "pod-deim" else "pod-deim"
        with pytest.raises(FormatError, match=f"a rom_{tag} file, not a rom_"):
            read_rom(path, other)
        flip_member_byte(path, "reduced")
        with pytest.raises(FormatError, match="Bad CRC-32"):
            read_rom(path, result.method)


def test_lineage_fingerprint_is_the_member_crcs(mini_pipeline, tmp_path):
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    write_basis(first, mini_pipeline.basis, {})
    write_basis(second, mini_pipeline.basis, {})
    fingerprint = lineage(first, "basis")[0]
    # identical writes give identical files and fingerprints
    assert first.read_bytes() == second.read_bytes()
    assert lineage(second, "basis")[0] == fingerprint
    with zipfile.ZipFile(first) as zf:
        assert fingerprint == "-".join(f"{info.CRC:08x}" for info in zf.infolist())
    # the fingerprint is read from the zip directory, not from the payload
    flip_member_byte(second, "stack")
    assert lineage(second, "basis")[0] == fingerprint
    # other contents or other recorded inputs give another fingerprint
    write_basis(second, mini_pipeline.basis, {"snapshots.bin": "0a1b2c3d"})
    assert lineage(second, "basis")[0] != fingerprint
    with pytest.raises(FormatError, match="a basis file, not a deim file"):
        lineage(first, "deim")
    first.write_bytes(first.read_bytes()[:-100])
    with pytest.raises(FormatError, match="not a readable basis file"):
        lineage(first, "basis")


def test_report_json_roundtrip(tmp_path):
    report = {"n": 24, "dt": 486.0, "l2_pod_h": 1.25e-3}
    path = tmp_path / "report.json"
    write_json(path, report)
    assert json.loads(path.read_text()) == report


def test_text_artifacts_are_replaced_whole(tmp_path):
    # a write that fails midway leaves the earlier file as it was and no
    # .part file behind
    meta, table = tmp_path / "run_meta.json", tmp_path / "fom_invariants.csv"
    write_json(meta, {"wall_fom_s": 1.5})
    write_invariants_csv(table, 2.0, np.ones((3, 4)))
    before = {path: path.read_bytes() for path in (meta, table)}
    with pytest.raises(TypeError):
        write_json(meta, {"a": 1.0, "b": object()})
    bad = np.ones((3, 4), dtype=object)
    bad[2, 1] = "x"
    with pytest.raises(ValueError):
        write_invariants_csv(table, 2.0, bad)
    assert {path: path.read_bytes() for path in (meta, table)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [table.name, meta.name]


def test_fields_csv_structure(mini_pipeline):
    # the pipeline already dumped field tables; check shape and header
    path = mini_pipeline.outdir / "fields_fom_0000.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,h,u,v,s,q"
    assert len(lines) == 1 + mini_pipeline.grid.N
    first = [float(tok) for tok in lines[1].split(",")]
    assert len(first) == 7


def test_fields_csv_bytes_equal_savetxt(tmp_path):
    # the one-operation table format writes np.savetxt's exact bytes,
    # negative, huge, tiny, subnormal, signed-zero and non-finite values too
    grid = build_grid(3, 1.0)
    values = np.array([-1.5, 1e300, -2.5e-310, 0.1, -0.0, 123456789.12345679,
                       5e-324, -1e-300, np.nan])
    fields = {"h": values, "q": -values[::-1] * 3.0, "s": np.full(9, -np.inf)}
    path = tmp_path / "fields.csv"
    write_fields_csv(path, grid, fields)
    expected = tmp_path / "savetxt.csv"
    with open(expected, "w") as fh:
        fh.write("x,y,h,q,s\n")
        np.savetxt(fh, np.column_stack([*grid.meshcoords(), *fields.values()]),
                   delimiter=",", fmt="%.17g")
    assert path.read_bytes() == expected.read_bytes()
    # node 1 is (x_0, y_1): y runs fastest, and x comes first
    assert path.read_text().splitlines()[2].startswith("0,0.33333333333333331,")
