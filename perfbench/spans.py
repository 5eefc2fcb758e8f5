"""In-memory span recorder that wraps tswrom's module-level names from outside.

A span is [name, start, end, parent index, attrs]. Spans nest by call order
(the benchmark is single-threaded), so a layer's self time is its duration
minus the durations of its direct children. Nothing here touches the
program's source: `Tracer.install` rebinds module attributes and class
methods, `Tracer.uninstall` puts the originals back, and an untraced run
never installs anything.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, attrs: dict | None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs or None)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, attrs_of=None, after=None):
        """fn recorded as span `name`; attrs_of(args, kwargs) -> dict adds
        attributes, after(span, args, result) may add more once fn returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.spans[idx], args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from tswrom import bench, deim, fileio, fom, grid, pod, rom

        def method_attr(pos):
            def attrs_of(args, kwargs):
                method = kwargs.get("method", args[pos] if len(args) > pos else "pod-deim")
                return {"method": method}
            return attrs_of

        def plain(module, name, label):
            self.patch(module, name, self.wrap(getattr(module, name), f"{label}.{name}"))

        plain(grid, "build_diff_ops", "grid")
        for name in ("integrate_fom", "avf_step", "invariants", "gmres"):
            plain(fom, name, "fom")
        linear_operator = fom.LinearOperator

        def traced_linear_operator(*args, matvec, **kwargs):
            return linear_operator(*args, matvec=self.wrap(matvec, "fom.matvec"), **kwargs)

        self.patch(fom, "LinearOperator", traced_linear_operator)

        for name in ("collect_snapshots", "build_pod_basis"):
            plain(pod, name, "pod")
        self.patch(pod.PodBasis, "lift_array",
                   self.wrap(pod.PodBasis.lift_array, "pod.lift_array"))
        for name in ("collect_nonlin_snapshots", "build_deim"):
            plain(deim, name, "deim")
        plain(rom, "precompute_rom", "rom")
        plain(rom, "invariants", "rom")
        # integrate_rom(ops, initial, dt, num_steps, method=...)
        self.patch(rom, "integrate_rom",
                   self.wrap(rom.integrate_rom, "rom.integrate", method_attr(4)))
        # rom_avf_step(ops, z_r, dt, method=...)
        self.patch(rom, "rom_avf_step",
                   self.wrap(rom.rom_avf_step, "rom.step", method_attr(3)))
        for name in ("relative_l2_error", "invariant_errors"):
            plain(bench, name, "bench")

        def read_size(args, kwargs):
            return {"bytes": os.path.getsize(args[0])}

        def written_size(span, args, result):
            span[ATTRS] = {"bytes": os.path.getsize(args[0])}

        for name in fileio.__all__:
            if name == "SnapshotWriter":
                continue
            fn = getattr(fileio, name)
            if name.startswith("read_"):
                self.patch(fileio, name, self.wrap(fn, f"fileio.{name}", attrs_of=read_size))
            else:
                self.patch(fileio, name, self.wrap(fn, f"fileio.{name}", after=written_size))

        def record_bytes(span, args, result):
            span[ATTRS] = {"bytes": int(args[1].nbytes)}

        self.patch(fileio.SnapshotWriter, "append",
                   self.wrap(fileio.SnapshotWriter.append, "fileio.SnapshotWriter.append",
                             after=record_bytes))

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def dump(self, path) -> None:
        """Write all spans as JSON lines: name, start, end (s, relative to the
        first span), parent index (-1 for a root) and attributes."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values, q: int) -> float:
    """q-th percentile (statistics.quantiles, inclusive); 0 with < 2 samples."""
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    own = tracer.self_times()
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def durations(name, scale=1.0):
        return [dur(i) * scale for i in by_name[name]]

    def method(i):
        return (spans[i][ATTRS] or {}).get("method")

    def parent_is(i, name, method_name):
        p = spans[i][PARENT]
        return p >= 0 and spans[p][NAME] == name and method(p) == method_name

    fom_steps = max(1, len(by_name["fom.avf_step"]))
    m = {
        "grid.build_diff_ops_ms": _median(durations("grid.build_diff_ops", 1e3)),
        "fom.step_ms.p50": _median(durations("fom.avf_step", 1e3)),
        "fom.step_ms.p95": _percentile(durations("fom.avf_step", 1e3), 95),
        "fom.newton_iters_per_step": len(by_name["fom.gmres"]) / fom_steps,
        "fom.krylov_matvecs_per_step": len(by_name["fom.matvec"]) / fom_steps,
        "fom.matvec_ms": _median(durations("fom.matvec", 1e3)),
        "fom.gmres_self_s": sum(own[i] for i in by_name["fom.gmres"]),
        "fom.invariants_ms": _median(durations("fom.invariants", 1e3)),
    }
    for name in ("pod.collect_snapshots", "pod.build_pod_basis",
                 "deim.collect_nonlin_snapshots", "deim.build_deim", "rom.precompute_rom"):
        m[f"{name}_s"] = sum(durations(name))

    steps = {tag: [dur(i) * 1e3 for i in by_name["rom.step"] if method(i) == tag]
             for tag in ("pod", "pod-deim")}
    m["rom.deim_step_ms.p50"] = _median(steps["pod-deim"])
    m["rom.deim_step_ms.p99"] = _percentile(steps["pod-deim"], 99)
    m["rom.pod_step_ms.p50"] = _median(steps["pod"])
    m["rom.pod_step_ms.p95"] = _percentile(steps["pod"], 95)
    m["pod.lift_calls"] = sum(1 for i in by_name["pod.lift_array"]
                              if parent_is(i, "rom.step", "pod"))
    # integrate_rom lifts the state and evaluates the invariants once per
    # stored state; those lifts are the pod.lift_array children of the
    # tensor model's rom.integrate span, in order.
    lifts = [dur(i) for i in by_name["pod.lift_array"]
             if parent_is(i, "rom.integrate", "pod-deim")]
    invs = [dur(i) for i in by_name["rom.invariants"]
            if parent_is(i, "rom.integrate", "pod-deim")]
    m["rom.diag_ms"] = _median([(a + b) * 1e3 for a, b in zip(lifts, invs)])

    reads = [i for name in by_name if name.startswith("fileio.read_") for i in by_name[name]]
    writes = [i for name in by_name
              if name.startswith("fileio.write_") or name == "fileio.SnapshotWriter.append"
              for i in by_name[name]]
    m["fileio.read_s"] = sum(dur(i) for i in reads)
    m["fileio.write_s"] = sum(dur(i) for i in writes)
    m["fileio.bytes_read"] = sum(spans[i][ATTRS]["bytes"] for i in reads)
    m["fileio.bytes_written"] = sum(spans[i][ATTRS]["bytes"] for i in writes)
    m["fileio.snapshot_reads"] = len(by_name["fileio.read_snapshots"])
    m["cli.self_s"] = sum(own[i] for name in by_name if name.startswith("cli.")
                          for i in by_name[name])
    # per report: a pass computes the report several times
    reports = max(1, len(by_name["stage.report"]) + len(by_name["cli.compare"]))
    m["bench.metrics_s"] = sum(dur(i) for name in ("bench.relative_l2_error",
                                                   "bench.invariant_errors")
                               for i in by_name[name]) / reports
    return m
