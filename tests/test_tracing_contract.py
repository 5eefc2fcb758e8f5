"""The traced benchmark run wraps tswrom's names from outside: every name it
patches must exist, and every public fileio function must take the
artifact path first, since the tracer records os.path.getsize(args[0]).
It also reloads the cli-disk model from the workspace files and counts the
flops of one reduced right-hand side, and sees every step of both
integrators."""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

from tswrom import fileio, fom, rom
from tswrom.cli import main
from tswrom.pod import restrict

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load("spans").Tracer()


def test_tracer_installs_and_fileio_takes_paths_first():
    originals = {"fileio.read_basis": fileio.read_basis, "fom.LinearOperator": fom.LinearOperator,
                 "rom.invariants": rom.invariants,
                 "SnapshotWriter.append": fileio.SnapshotWriter.append}
    tracer = _tracer()
    # a name the tracer patches that is gone raises KeyError here
    tracer.install()
    try:
        assert fileio.read_basis is not originals["fileio.read_basis"]
        assert fom.LinearOperator is not originals["fom.LinearOperator"]
        assert rom.invariants is not originals["rom.invariants"]
        assert fileio.SnapshotWriter.append is not originals["SnapshotWriter.append"]
    finally:
        tracer.uninstall()
    assert fileio.read_basis is originals["fileio.read_basis"]
    assert fom.LinearOperator is originals["fom.LinearOperator"]
    assert rom.invariants is originals["rom.invariants"]
    assert fileio.SnapshotWriter.append is originals["SnapshotWriter.append"]

    for name in fileio.__all__:
        params = list(inspect.signature(getattr(fileio, name)).parameters)
        assert params[:1] == ["path"], name


def test_traced_run_reloads_the_cli_model(tmp_path, monkeypatch):
    # workloads.py imports its sibling checks.py
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    workloads = _load("workloads")
    work = tmp_path / "cli"
    assert main(["fom", "--out", str(work), "--set", "n=8", "--set", "num_steps=3"]) == 0
    assert main(["reduce", "--out", str(work)]) == 0
    cfg = dataclasses.replace(workloads.make_config("cli-disk", 0), n=8, num_steps=3)
    flops, _ = workloads.rhs_cost(*workloads._load_cli_model(work, cfg))
    assert flops > 0


def test_production_pass_runs_in_memory(tmp_path, monkeypatch):
    # the in-memory pass calls the stage functions with the program's own
    # state type; at n=8 the tensor errors miss criterion 3's references,
    # which are for n=100, and every other check passes
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    workloads = _load("workloads")
    run = workloads.Run(tmp_path)
    cfg = dataclasses.replace(workloads.make_config("production", 0), n=8, num_steps=40)
    workloads.production(run, cfg, 0)
    assert run.attempted > 0
    for failure in run.failures:
        operation, _, problems = failure.partition(": ")
        assert operation == "rom pod-deim", failure
        assert all(p.startswith("tensor l2_") for p in problems.split("; ")), failure


def test_traced_steps_are_recorded_through_the_time_loop(vortex16, mini_pipeline):
    # the integrators call avf_step and rom_avf_step from the step closures
    # they hand to fom.march; the tracer's by-name wrappers must still see
    # each step, nested in its integrator's span
    spans_module = _load("spans")
    tracer = spans_module.Tracer()
    z_r0 = restrict(mini_pipeline.basis, mini_pipeline.fom.trajectory[:, 0])
    tracer.install()
    try:
        fom.integrate_fom(vortex16.initial, vortex16.cfg.dt, 2, vortex16.physics,
                          vortex16.grid)
        for method in rom.METHODS:
            rom.integrate_rom(mini_pipeline.romops, rom.RomState(z_r=z_r0),
                              mini_pipeline.config.dt, 2, method=method)
    finally:
        tracer.uninstall()
    name, parent, attrs = spans_module.NAME, spans_module.PARENT, spans_module.ATTRS
    spans = tracer.spans

    def children(label, of):
        return [s for s in spans if s[name] == label and spans[s[parent]][name] == of]

    assert len(children("fom.avf_step", "fom.integrate_fom")) == 2
    steps = children("rom.step", "rom.integrate")
    assert [s[attrs]["method"] for s in steps] == ["pod", "pod", "pod-deim", "pod-deim"]
    assert [spans[s[parent]][attrs]["method"] for s in steps] == [s[attrs]["method"]
                                                                  for s in steps]
