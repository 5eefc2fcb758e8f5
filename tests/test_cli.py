"""Command-line driver: the four-stage chain, config plumbing, exit codes."""

import json
import logging
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from helpers import flip_member_byte, rewrite_container

from tswrom import fileio
from tswrom.bench import Case, DoubleVortexConfig, _input_prints, stage_rom
from tswrom.cli import main
from tswrom.errors import ConfigError
from tswrom.fileio import read_initial_snapshot, read_snapshots
from tswrom.rom import RomOperators, rom_operators_from_parts

_SMALL = ["--set", "n=16", "--set", "num_steps=12"]

# the workspace after fom -> reduce -> rom (both methods)
_CHAIN_FILES = {"snapshots.bin", "fom_invariants.csv", "basis.bin", "deim.bin", "romops.bin",
                "rom_invariants_pod.csv", "rom_pod.bin", "rom_invariants_pod_deim.csv",
                "rom_pod_deim.bin", "run_meta.json"}


def _compare_files(num_steps):
    """What compare adds: the report and the field dumps at the first,
    middle and last step."""
    return {"report.json", *(f"fields_{tag}_{step:04d}.csv" for tag in ("fom", "pod", "pod_deim")
                             for step in (0, num_steps // 2, num_steps))}


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    """Workspace after fom -> reduce -> rom (both methods)."""
    out = tmp_path_factory.mktemp("chain")
    assert main(["fom", "--out", str(out), *_SMALL]) == 0
    assert main(["reduce", "--out", str(out),
                 "--set", "r_override=none", "--r", "3", "--p", "6"]) == 0
    assert main(["rom", "--out", str(out), "--method", "pod"]) == 0
    assert main(["rom", "--out", str(out), "--method", "pod-deim"]) == 0
    return out


def test_chain_artifacts_and_meta(chain_dir):
    # exactly these files: a copy of data another artifact holds is not written
    assert {path.name for path in chain_dir.iterdir()} == _CHAIN_FILES
    meta = json.loads((chain_dir / "run_meta.json").read_text())
    assert meta["n"] == 16 and meta["num_steps"] == 12
    assert meta["r"] == 3 and meta["p"] == 6  # the explicit flags won
    for key in ("wall_fom_s", "wall_pod_offline_s", "wall_pod_deim_offline_s",
                "wall_pod_online_s", "wall_pod_deim_online_s"):
        assert meta[key] > 0.0, key


def test_compare_builds_report_and_tables(chain_dir, capsys):
    assert main(["compare", "--out", str(chain_dir)]) == 0
    printed = capsys.readouterr().out
    for needle in ("time-averaged relative l2 error",
                   "time-averaged relative invariant drift",
                   "wall clock [s]", "report written to"):
        assert needle in printed
    report = json.loads((chain_dir / "report.json").read_text())
    assert report["n"] == 16 and report["r"] == 3 and report["p"] == 6
    for key in ("l2_pod_h", "l2_pod_deim_s", "inv_fom_H", "inv_pod_Q",
                "inv_max_pod_deim_B", "speedup_pod", "speedup_pod_deim",
                "wall_fom_s"):
        assert key in report, key
    assert report["inv_fom_H"] <= 1e-11
    assert {path.name for path in chain_dir.iterdir()} == _CHAIN_FILES | _compare_files(12)


def test_fom_verbose_logs_progress(tmp_path, capsys):
    assert main(["fom", "--out", str(tmp_path), "--set", "n=16", "--set", "num_steps=2",
                 "--verbose"]) == 0
    assert "step     2/2" in capsys.readouterr().out
    assert main(["fom", "--out", str(tmp_path), "--set", "n=16", "--set", "num_steps=2"]) == 0
    assert "step " not in capsys.readouterr().out


def test_fom_verbose_prints_each_line_once_under_a_root_handler(tmp_path, capsys):
    class Collect(logging.Handler):
        def __init__(self):
            super().__init__()
            self.records = []

        def emit(self, record):
            self.records.append(record)

    root, collect = logging.getLogger(), Collect()
    root.addHandler(collect)
    try:
        assert main(["fom", "--out", str(tmp_path), "--set", "n=16", "--set", "num_steps=2",
                     "--verbose"]) == 0
        assert main(["reduce", "--out", str(tmp_path), "--r", "2", "--p", "2"]) == 0
    finally:
        root.removeHandler(collect)
    printed = capsys.readouterr().out
    assert printed.count("step     2/2") == 1
    assert printed.count("r = 2 ") == 1
    assert not [rec for rec in collect.records if rec.name.startswith("tswrom")]
    assert logging.getLogger("tswrom").propagate


def test_stages_refuse_physics_other_than_the_fom_run(tmp_path, capsys):
    out = tmp_path / "ws"
    ws = ["--out", str(out)]
    same = ["--set", "coriolis=1e-3"]
    assert main(["fom", *ws, "--n", "16", "--num-steps", "20", *same]) == 0
    _, meta = read_initial_snapshot(out / "snapshots.bin")
    assert meta["coriolis"] == 1e-3 and meta["gravity"] == 9.80616
    capsys.readouterr()
    # a stage without the flag would silently run with the default f
    assert main(["reduce", *ws, "--r", "3", "--p", "8"]) == 2
    assert "coriolis" in capsys.readouterr().err
    assert main(["reduce", *ws, "--r", "3", "--p", "8", "--set", "gravity=9.8", *same]) == 2
    assert "gravity" in capsys.readouterr().err
    # repeating the fom stage's values on every stage runs the chain
    assert main(["reduce", *ws, "--r", "3", "--p", "8", *same]) == 0
    for method in ("pod", "pod-deim"):
        assert main(["rom", *ws, "--method", method]) == 2
        assert main(["rom", *ws, "--method", method, *same]) == 0
    assert main(["compare", *ws]) == 2
    assert main(["compare", *ws, *same]) == 0
    # a snapshot file that records no physics is malformed
    rewrite_container(out / "snapshots.bin", drop=("coriolis",))
    capsys.readouterr()
    assert main(["compare", *ws, *same]) == 5
    assert "meta lacks one of" in capsys.readouterr().err


def test_stages_refuse_a_domain_length_other_than_the_fom_run(tmp_path, capsys):
    ws = ["--out", str(tmp_path)]
    length = ["--set", "length=4e6"]
    assert main(["fom", *ws, "--n", "16", "--num-steps", "20", *length]) == 0
    assert read_initial_snapshot(tmp_path / "snapshots.bin")[1]["length"] == 4e6
    capsys.readouterr()
    # the default length would build a grid spacing 25% too large
    assert main(["reduce", *ws]) == 2
    assert "length=5000000.0 differs from length=4000000.0" in capsys.readouterr().err
    assert main(["reduce", *ws, *length]) == 0


def test_rom_refuses_a_basis_of_an_earlier_fom_run(tmp_path, capsys):
    ws = ["--out", str(tmp_path)]
    assert main(["fom", *ws, *_SMALL]) == 0
    assert main(["reduce", *ws, "--r", "3", "--p", "6"]) == 0
    assert main(["fom", *ws, *_SMALL, "--dt", "300"]) == 0
    capsys.readouterr()
    # basis.bin and romops.bin were trained on the dt=486 run
    for method in ("pod", "pod-deim"):
        assert main(["rom", *ws, "--method", method]) == 2
        err = capsys.readouterr().err
        assert "basis.bin in" in err and "another snapshots.bin" in err
        assert "`tswrom reduce`" in err


def test_rom_refuses_offline_artifacts_copied_from_another_run(tmp_path, capsys):
    trained, other = tmp_path / "dt486", tmp_path / "dt300"
    small = ["--n", "8", "--num-steps", "3"]
    assert main(["fom", "--out", str(trained), *small, "--dt", "486"]) == 0
    assert main(["reduce", "--out", str(trained), "--r", "2", "--p", "2"]) == 0
    assert main(["fom", "--out", str(other), *small, "--dt", "300"]) == 0
    for name in ("basis.bin", "deim.bin", "romops.bin"):
        shutil.copyfile(trained / name, other / name)
    capsys.readouterr()
    for method in ("pod", "pod-deim"):
        assert main(["rom", "--out", str(other), "--method", method]) == 2
        assert "`tswrom reduce`" in capsys.readouterr().err
    assert not list(other.glob("rom_*"))


def test_compare_refuses_reduced_states_of_an_earlier_basis(tmp_path, capsys):
    ws = ["--out", str(tmp_path)]
    assert main(["fom", *ws, *_SMALL]) == 0
    assert main(["reduce", *ws, "--r", "3", "--p", "6"]) == 0
    for method in ("pod", "pod-deim"):
        assert main(["rom", *ws, "--method", method]) == 0
    basis = (tmp_path / "basis.bin").read_bytes()
    assert main(["reduce", *ws, "--r", "3", "--p", "5"]) == 0
    assert (tmp_path / "basis.bin").read_bytes() == basis
    capsys.readouterr()
    # the r=3 basis is the same, but rom_pod_deim.bin was marched on p=6
    assert main(["compare", *ws]) == 2
    err = capsys.readouterr().err
    assert "rom_pod_deim.bin in" in err and "another deim.bin" in err
    assert "`tswrom rom --method pod-deim`" in err
    # rerunning that one solve is enough
    assert main(["rom", *ws, "--method", "pod-deim"]) == 0
    assert main(["compare", *ws]) == 0


def test_compare_refuses_a_reduced_solve_of_another_workspace(chain_dir, tmp_path, capsys):
    other = tmp_path / "other"
    assert main(["fom", "--out", str(other), *_SMALL, "--dt", "300"]) == 0
    assert main(["reduce", "--out", str(other), "--r", "3", "--p", "6"]) == 0
    assert main(["rom", "--out", str(other), "--method", "pod-deim"]) == 0
    ws = tmp_path / "ws"
    shutil.copytree(chain_dir, ws)
    shutil.copyfile(other / "rom_pod_deim.bin", ws / "rom_pod_deim.bin")
    capsys.readouterr()
    assert main(["compare", "--out", str(ws)]) == 2
    err = capsys.readouterr().err
    assert "rom_pod_deim.bin in" in err and "`tswrom rom --method pod-deim`" in err


def test_compare_continues_a_run_pipeline_directory(mini_pipeline, tmp_path, capsys):
    out = tmp_path / "ws"
    shutil.copytree(mini_pipeline.outdir, out)
    assert main(["compare", "--out", str(out)]) == 0
    assert "report written to" in capsys.readouterr().out
    # the same arrays in the same memory layout give the same report, bit for bit
    assert json.loads((out / "report.json").read_text()) == mini_pipeline.report


def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# benchmark configuration\n"
        "n = 12          # grid\n"
        "dt = 100\n"
        "num_steps = 6\n")
    out = tmp_path / "ws"
    rc = main(["fom", "--out", str(out), "--config", str(cfg),
               "--set", "dt=200", "--set", "num_steps=4", "--dt", "300"])
    assert rc == 0
    capsys.readouterr()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["n"] == 12          # file value
    assert meta["num_steps"] == 4   # --set beats the file
    assert meta["dt"] == 300.0      # explicit flag beats --set
    _, meta = read_snapshots(out / "snapshots.bin")
    assert meta["n"] == 12 and meta["dt"] == 300.0


def test_unknown_config_key_exits_2(tmp_path, capsys):
    assert main(["fom", "--out", str(tmp_path), "--set", "bogus=1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_set_pair_exits_2(tmp_path, capsys):
    assert main(["fom", "--out", str(tmp_path), "--set", "n16"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path, capsys):
    assert main(["fom", "--out", str(tmp_path), "--set", "n=many"]) == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["coriolis", "dt", "length", "gravity", "mean_depth"])
def test_non_finite_config_value_exits_2(tmp_path, capsys, key, value):
    assert main(["fom", "--out", str(tmp_path), "--set", "n=4",
                 "--set", f"{key}={value}"]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("snapshots.bin*"))


@pytest.mark.parametrize("threads", ["0", "-1", "x"])
def test_threads_below_one_exits_2(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["fom", "--out", str(tmp_path), "--set", "n=4", "--threads", threads])
    assert exc.value.code == 2
    assert f"--threads: must be an integer of at least 1, got '{threads}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_missing_config_file_exits_4(tmp_path, capsys):
    rc = main(["fom", "--out", str(tmp_path), "--config", str(tmp_path / "nope.cfg")])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_corrupted_snapshots_exit_5(tmp_path, capsys):
    out = tmp_path / "ws"
    assert main(["fom", "--out", str(out), "--set", "n=8", "--set", "num_steps=1"]) == 0
    capsys.readouterr()
    snap = out / "snapshots.bin"
    snap.write_bytes(b"XXXX" + snap.read_bytes()[4:])
    assert main(["reduce", "--out", str(out)]) == 5
    assert "not a readable snapshots file" in capsys.readouterr().err


def test_rom_output_matches_a_solve_from_the_whole_trajectory(chain_dir, tmp_path):
    # rom reads only the first snapshot record; its states and invariants
    # are bit for bit those of a solve started from the fully read trajectory
    full, meta = read_snapshots(chain_dir / "snapshots.bin")
    traj = full.trajectory
    case = Case.build(DoubleVortexConfig(n=meta["n"], dt=meta["dt"], num_steps=meta["num_steps"]))
    for name in ("snapshots.bin", "basis.bin", "deim.bin", "romops.bin"):
        shutil.copyfile(chain_dir / name, tmp_path / name)
    basis = fileio.read_basis(chain_dir / "basis.bin")
    dset = fileio.read_deim(chain_dir / "deim.bin")
    mats, _, _ = fileio.read_romops(chain_dir / "romops.bin")
    for method, ops in (
            ("pod", RomOperators(basis, case.physics, case.grid)),
            ("pod-deim", rom_operators_from_parts(mats, basis, dset, case.physics,
                                                  case.grid))):
        stage_rom(case, ops, traj[:, 0], method, {}, tmp_path)
        tag = method.replace("-", "_")
        for name in (f"rom_{tag}.bin", f"rom_invariants_{tag}.csv"):
            assert (tmp_path / name).read_bytes() == (chain_dir / name).read_bytes(), name


def test_snapshots_short_by_one_record_make_rom_exit_5(tmp_path, capsys):
    out = tmp_path / "ws"
    assert main(["fom", "--out", str(out), "--set", "n=8", "--set", "num_steps=3"]) == 0
    assert main(["reduce", "--out", str(out)]) == 0
    snap = out / "snapshots.bin"
    snap.write_bytes(snap.read_bytes()[:-4 * 64 * 8])
    capsys.readouterr()
    for method in ("pod", "pod-deim"):
        assert main(["rom", "--out", str(out), "--method", method]) == 5
        assert "not a readable snapshots file" in capsys.readouterr().err


@pytest.fixture(scope="module")
def reduced_dir(tmp_path_factory):
    """Workspace after fom, reduce and both rom methods at n=8, 3 steps."""
    out = tmp_path_factory.mktemp("reduced")
    assert main(["fom", "--out", str(out), "--set", "n=8", "--set", "num_steps=3"]) == 0
    assert main(["reduce", "--out", str(out)]) == 0
    for method in ("pod", "pod-deim"):
        assert main(["rom", "--out", str(out), "--method", method]) == 0
    return out


# each binary artifact, a member of it, and the first stage that reads it
_READERS = {"snapshots.bin": ("trajectory", ["reduce"]),
            "basis.bin": ("stack", ["rom", "--method", "pod"]),
            "deim.bin": ("psi", ["rom", "--method", "pod-deim"]),
            "romops.bin": ("k", ["rom", "--method", "pod-deim"]),
            "rom_pod.bin": ("reduced", ["compare"]),
            "rom_pod_deim.bin": ("invariants", ["compare"])}


@pytest.mark.parametrize("name", sorted(_READERS))
def test_flipped_or_truncated_artifacts_exit_5(reduced_dir, tmp_path, capsys, name):
    member, stage = _READERS[name]
    for damage in ("flip", "truncate"):
        out = tmp_path / damage
        shutil.copytree(reduced_dir, out)
        path = out / name
        if damage == "flip":
            flip_member_byte(path, member)
        else:
            path.write_bytes(path.read_bytes()[:-100])
        capsys.readouterr()
        assert main([*stage, "--out", str(out)]) == 5, damage
        assert f"{name}: not a readable" in capsys.readouterr().err


_ROM_POD = ["rom", "--method", "pod"]

# an artifact, a member, a cut that leaves its shape disagreeing with the
# other members or the meta, and the stages to run after the cut
_MISSHAPEN = {"basis-stack-rows": ("basis.bin", "stack", lambda a: a[:3], [_ROM_POD]),
              "basis-no-mode": ("basis.bin", "stack", lambda a: a[:, -1:], [_ROM_POD]),
              "basis-spectra": ("basis.bin", "singular_values", np.ravel, [_ROM_POD]),
              "rom-columns": ("rom_pod.bin", "reduced", lambda a: a[:, :2], [["compare"]]),
              "basis-nodes": ("basis.bin", "stack", lambda a: a[..., :-1], [_ROM_POD]),
              "rom-rows": ("rom_pod_deim.bin", "reduced", lambda a: a[:-1], [["compare"]]),
              # 4 (r + 1) rows: a whole number of states, but not of the basis r
              "rom-basis-size": ("rom_pod.bin", "reduced", lambda a: np.vstack([a, a[:4]]),
                                 [["compare"]]),
              "snapshot-invariants": ("snapshots.bin", "invariants", lambda a: a[:-1],
                                      [["reduce"]]),
              "snapshot-z0": ("snapshots.bin", "z0", lambda a: a[:-1], [["reduce"], _ROM_POD])}


@pytest.mark.parametrize("case", sorted(_MISSHAPEN))
def test_misshapen_members_exit_5(reduced_dir, tmp_path, capsys, case):
    name, member, cut, stages = _MISSHAPEN[case]
    out = tmp_path / "ws"
    shutil.copytree(reduced_dir, out)
    with np.load(out / name) as npz:
        value = cut(npz[member])
    rewrite_container(out / name, **{member: value})
    for stage in stages[:-1]:
        assert main([*stage, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([*stages[-1], "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert f"{name}: " in err and member in err


def test_compare_refuses_a_basis_of_another_grid(reduced_dir, tmp_path, capsys):
    # basis.bin cut to N - 1 nodes, and the lineage of every artifact derived
    # from it recorded again, so only the shape is wrong
    out = tmp_path / "ws"
    shutil.copytree(reduced_dir, out)
    with np.load(out / "basis.bin") as npz:
        stack = npz["stack"][..., :-1]
    rewrite_container(out / "basis.bin", stack=stack)
    for name in ("deim.bin", "romops.bin", "rom_pod.bin", "rom_pod_deim.bin"):
        rewrite_container(out / name, meta={"inputs": _input_prints(out, name)})
    capsys.readouterr()
    assert main(["compare", "--out", str(out)]) == 5
    assert f"basis.bin: stack {stack.shape} is not" in capsys.readouterr().err


def test_foreign_or_raw_artifacts_exit_5(reduced_dir, tmp_path, capsys):
    out = tmp_path / "ws"
    shutil.copytree(reduced_dir, out)
    shutil.copyfile(out / "basis.bin", out / "deim.bin")
    assert main(["rom", "--out", str(out), "--method", "pod-deim"]) == 5
    assert "a basis file, not a deim file" in capsys.readouterr().err
    # files in the raw format of version 2
    for name, magic in (("snapshots.bin", b"RTSW"), ("basis.bin", b"PODB"),
                        ("deim.bin", b"DEIM"), ("romops.bin", b"ROMT")):
        shutil.copytree(reduced_dir, out, dirs_exist_ok=True)
        (out / name).write_bytes(magic + struct.pack("<III", 2, 8, 64) + bytes(512))
        assert main([*_READERS[name][1], "--out", str(out)]) == 5, name
        assert f"{name}: not a readable" in capsys.readouterr().err


def test_truncated_run_meta_exits_5(tmp_path, capsys):
    out = tmp_path / "ws"
    assert main(["fom", "--out", str(out), "--set", "n=8", "--set", "num_steps=3"]) == 0
    meta = out / "run_meta.json"
    meta.write_text(meta.read_text()[:20])
    capsys.readouterr()
    assert main(["reduce", "--out", str(out)]) == 5
    assert "run_meta.json: not valid JSON" in capsys.readouterr().err


def test_run_meta_that_is_not_an_object_exits_5_before_the_solve(tmp_path, capsys):
    (tmp_path / "run_meta.json").write_text("[]")
    assert main(["fom", "--out", str(tmp_path), "--set", "n=8", "--set", "num_steps=2"]) == 5
    assert "run_meta.json: not a JSON object of numbers" in capsys.readouterr().err
    assert not (tmp_path / "snapshots.bin").exists()


def test_run_meta_with_a_string_timing_exits_5(reduced_dir, tmp_path, capsys):
    out = tmp_path / "ws"
    shutil.copytree(reduced_dir, out)
    path = out / "run_meta.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "wall_fom_s": "fast"}))
    capsys.readouterr()
    assert main(["compare", "--out", str(out)]) == 5
    assert "run_meta.json: not a JSON object of numbers" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("key, value", [("wall_pod_online_s", 0.0),
                                        ("wall_pod_deim_online_s", float("nan"))])
def test_run_meta_with_a_zero_or_nan_wall_time_makes_compare_exit_5(chain_dir, tmp_path,
                                                                     capsys, key, value):
    # json.loads takes the NaN that json.dumps writes; neither a division by
    # zero nor a NaN speedup may come out of compare
    out = tmp_path / "ws"
    shutil.copytree(chain_dir, out)
    (out / "report.json").unlink(missing_ok=True)
    path = out / "run_meta.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    capsys.readouterr()
    assert main(["compare", "--out", str(out)]) == 5
    assert f"run_meta.json records {key}={value}" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_version_1_romops_exits_5(tmp_path, capsys):
    out = tmp_path / "ws"
    assert main(["fom", "--out", str(out), "--set", "n=8", "--set", "num_steps=3"]) == 0
    assert main(["reduce", "--out", str(out)]) == 0
    capsys.readouterr()
    rewrite_container(out / "romops.bin", meta={"version": 1})
    assert main(["rom", "--out", str(out), "--method", "pod-deim"]) == 5
    assert "unsupported format version 1" in capsys.readouterr().err


def test_deim_of_format_version_4_exits_5(reduced_dir, tmp_path, capsys):
    # version 4 stored the interpolation bases phi next to psi
    out = tmp_path / "ws"
    shutil.copytree(reduced_dir, out)
    with np.load(out / "deim.bin") as npz:
        psi = npz["psi"]
    rewrite_container(out / "deim.bin", meta={"version": 4}, phi=psi)
    capsys.readouterr()
    assert main(["rom", "--out", str(out), "--method", "pod-deim"]) == 5
    assert "unsupported format version 4" in capsys.readouterr().err


def test_basis_of_format_version_6_exits_5(reduced_dir, tmp_path, capsys):
    # version 6 led the depth basis with its mean, without the constant
    # field, so its reduced models did not conserve mass
    out = tmp_path / "ws"
    shutil.copytree(reduced_dir, out)
    rewrite_container(out / "basis.bin", meta={"version": 6})
    capsys.readouterr()
    assert main(["rom", "--out", str(out), "--method", "pod"]) == 5
    assert "unsupported format version 6" in capsys.readouterr().err


def test_romops_of_another_basis_size_exits_2(tmp_path, capsys):
    small, large = tmp_path / "r2", tmp_path / "r3"
    for out, r in ((small, "2"), (large, "3")):
        assert main(["fom", "--out", str(out), "--set", "n=8", "--set", "num_steps=3"]) == 0
        assert main(["reduce", "--out", str(out), "--r", r, "--p", "2"]) == 0
    shutil.copyfile(small / "romops.bin", large / "romops.bin")
    capsys.readouterr()
    assert main(["rom", "--out", str(large), "--method", "pod-deim"]) == 2
    assert "romops.bin in" in capsys.readouterr().err
    # the operator shapes are checked against the basis as well
    case = Case.build(DoubleVortexConfig(n=8, num_steps=3))
    mats, _, _ = fileio.read_romops(small / "romops.bin")
    with pytest.raises(ConfigError, match=r"reduced operator k has shape \(3, 2, 4\), "
                                          r"expected \(3, 2, 9\)"):
        rom_operators_from_parts(mats, fileio.read_basis(large / "basis.bin"),
                                 fileio.read_deim(large / "deim.bin"), case.physics,
                                 case.grid)


def test_absurd_time_step_exits_3(tmp_path, capsys):
    rc = main(["fom", "--out", str(tmp_path), "--set", "n=8",
               "--set", "num_steps=1", "--set", "dt=1e9"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error: step 1:" in err
    # the failed run leaves no snapshot file, partial or complete
    assert not list(tmp_path.glob("snapshots.bin*"))


def test_oversized_basis_request_exits_2(tmp_path, capsys):
    out = tmp_path / "ws"
    assert main(["fom", "--out", str(out), "--set", "n=8", "--set", "num_steps=3"]) == 0
    assert main(["reduce", "--out", str(out), "--r", "999"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_without_rom_exits_2(tmp_path, capsys):
    out = tmp_path / "ws"
    # a stage whose input is missing names the command that writes it
    assert main(["reduce", "--out", str(out)]) == 2
    assert "holds no snapshots.bin; run `tswrom fom` there" in capsys.readouterr().err
    assert not out.exists()
    assert main(["fom", "--out", str(out), "--set", "n=8", "--set", "num_steps=3"]) == 0
    assert main(["reduce", "--out", str(out), "--set", "projected_nonlin=false"]) == 0
    assert main(["compare", "--out", str(out)]) == 2
    assert "holds no rom_pod.bin; run `tswrom rom --method pod`" in capsys.readouterr().err


def test_parsing_arguments_loads_no_numerical_library():
    # --threads pins the BLAS pools before numpy and scipy load, so importing
    # the driver and parsing every subcommand's arguments must load neither,
    # and importing the package loads none of its modules
    code = "\n".join([
        "import sys",
        "import tswrom",
        "print(sorted(name for name in sys.modules if name.startswith('tswrom.')))",
        "from tswrom.cli import build_parser",
        "for argv in (['fom', '--n', '8', '--threads', '1'], ['reduce', '--r', '3'],",
        "             ['rom', '--method', 'pod'], ['compare', '--set', 'n=8']):",
        "    build_parser().parse_args([*argv, '--out', 'w'])",
        "print(sorted(name for name in ('numpy', 'scipy') if name in sys.modules))",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_single_threaded_reruns_are_bit_identical(tmp_path):
    def run_chain(out):
        commands = [
            ["fom", "--out", str(out), "--threads", "1",
             "--set", "n=12", "--set", "num_steps=8"],
            ["reduce", "--out", str(out), "--threads", "1", "--r", "3", "--p", "5"],
            ["rom", "--out", str(out), "--threads", "1", "--method", "pod"],
            ["rom", "--out", str(out), "--threads", "1", "--method", "pod-deim"],
            ["compare", "--out", str(out), "--threads", "1"],
        ]
        # the children import tswrom from where this process does
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for cmd in commands:
            proc = subprocess.run([sys.executable, "-m", "tswrom.cli", *cmd],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr

    first = tmp_path / "a"
    second = tmp_path / "b"
    run_chain(first)
    run_chain(second)
    names = {path.name for path in first.iterdir()}
    assert names == {path.name for path in second.iterdir()}
    assert names == _CHAIN_FILES | _compare_files(8)
    # every file but the two that hold wall times is the same byte for byte
    for name in names - {"run_meta.json", "report.json"}:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def untimed(out):
        report = json.loads((out / "report.json").read_text())
        return {k: v for k, v in report.items() if not k.startswith(("wall_", "speedup_"))}

    assert untimed(first) == untimed(second)
