"""The traced benchmark run wraps tswrom's names from outside: every name it
patches must exist, and every public fileio function must take the
artifact path first, since the tracer records os.path.getsize(args[0])."""

import importlib.util
import inspect
from pathlib import Path

from tswrom import fileio, fom, rom

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


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
