"""Command-line driver: the four-stage chain, config plumbing, exit codes."""

import json
import logging
import struct
import subprocess
import sys

import numpy as np
import pytest

from tswrom.cli import main
from tswrom.fileio import read_snapshots

_SMALL = ["--set", "n=16", "--set", "num_steps=12"]


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
    for name in ("snapshots.bin", "fom_invariants.csv", "basis.bin", "deim.bin",
                 "romops.bin", "pod_spectra.csv", "deim_spectra.csv",
                 "rom_invariants_pod.csv", "rom_state_pod.csv",
                 "rom_invariants_pod_deim.csv", "rom_state_pod_deim.csv",
                 "run_meta.json"):
        assert (chain_dir / name).is_file(), name
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
    assert (chain_dir / "errors.csv").is_file()
    assert (chain_dir / "fields_pod_deim_0012.csv").is_file()


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
    finally:
        root.removeHandler(collect)
    assert capsys.readouterr().out.count("step     2/2") == 1
    assert not [rec for rec in collect.records if rec.name.startswith("tswrom")]
    assert logging.getLogger("tswrom").propagate


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
    _, n, dt = read_snapshots(out / "snapshots.bin")
    assert n == 12 and dt == 300.0


def test_unknown_config_key_exits_2(tmp_path, capsys):
    assert main(["fom", "--out", str(tmp_path), "--set", "bogus=1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_set_pair_exits_2(tmp_path, capsys):
    assert main(["fom", "--out", str(tmp_path), "--set", "n16"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path, capsys):
    assert main(["fom", "--out", str(tmp_path), "--set", "n=many"]) == 2
    assert "must be an integer" in capsys.readouterr().err


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
    assert "bad magic" in capsys.readouterr().err


def test_version_1_romops_exits_5(tmp_path, capsys):
    out = tmp_path / "ws"
    assert main(["fom", "--out", str(out), "--set", "n=8", "--set", "num_steps=3"]) == 0
    assert main(["reduce", "--out", str(out)]) == 0
    capsys.readouterr()
    ops = out / "romops.bin"
    raw = ops.read_bytes()
    ops.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    assert main(["rom", "--out", str(out), "--method", "pod-deim"]) == 5
    assert "unsupported format version 1" in capsys.readouterr().err


def test_absurd_time_step_exits_3(tmp_path, capsys):
    rc = main(["fom", "--out", str(tmp_path), "--set", "n=8",
               "--set", "num_steps=1", "--set", "dt=1e9"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_oversized_basis_request_exits_2(tmp_path, capsys):
    out = tmp_path / "ws"
    assert main(["fom", "--out", str(out), "--set", "n=8", "--set", "num_steps=3"]) == 0
    assert main(["reduce", "--out", str(out), "--r", "999"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_without_rom_exits_2(tmp_path, capsys):
    out = tmp_path / "ws"
    assert main(["fom", "--out", str(out), "--set", "n=8", "--set", "num_steps=3"]) == 0
    assert main(["reduce", "--out", str(out), "--set", "projected_nonlin=false"]) == 0
    assert main(["compare", "--out", str(out)]) == 2
    assert "rom_state_pod" in capsys.readouterr().err


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
        for cmd in commands:
            proc = subprocess.run([sys.executable, "-m", "tswrom.cli", *cmd],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr

    first = tmp_path / "a"
    second = tmp_path / "b"
    run_chain(first)
    run_chain(second)
    for name in ("snapshots.bin", "fom_invariants.csv", "rom_state_pod.csv",
                 "rom_state_pod_deim.csv", "errors.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
