"""Layer spans for the benchmark, recorded from outside the program.

The tracer wraps each layer's public callables at class or module level
(never on instances: ``Run`` pickles the whole simulation, and an
instance attribute holding a closure would break its checkpoints).  A
function is replaced everywhere it is looked up -- in its defining
module, in every ``repro`` module that imported it by name, and in
module-level dicts such as ``repro.core.scd.PROBABILITY_ALGORITHMS`` --
so ``repro.core.scd.compute_iwl`` and ``repro.policies.greedy.compute_iwl``
both record.  A target that no longer exists is skipped and reported in
:attr:`Tracer.missing`, so a refactor of the program degrades the layer
breakdown instead of breaking the benchmark.

Each call records one span ``(index, name, start, end, parent, n)`` in
memory; ``parent`` is the enclosing span on the same thread and ``n`` a
per-call count (jobs stored, bytes written, rounds dispatched).  The
spans are written out once, at the end.  A span's self time is its
duration minus the durations of its direct children, so on one thread
the self times of all layers plus the unattributed remainder add up to
the wall time.

Span names are ``layer:detail``; :func:`layer_metrics` folds them into
the per-layer metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from pathlib import Path

__all__ = ["Tracer", "install_layers", "layer_metrics", "LAYER_UNITS"]

#: Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "setup.service_s": "s",
    "dispatch.s": "s",
    "dispatch.calls": "count",
    "dispatch.round_p50_us": "us",
    "dispatch.round_p99_us": "us",
    "core.iwl.s": "s",
    "core.iwl.calls": "count",
    "core.prob.s": "s",
    "core.prob.calls": "count",
    "greedy.s": "s",
    "greedy.solves": "count",
    "presample.s": "s",
    "presample.calls": "count",
    "driver.self_s": "s",
    "store.s": "s",
    "store.calls": "count",
    "store.jobs": "count",
    "probes.s": "s",
    "ckpt.count": "count",
    "ckpt.bytes": "bytes",
    "ckpt.serialize_s": "s",
    "ckpt.write_s": "s",
    "telemetry.events": "count",
    "telemetry.s": "s",
    "wire.frames": "count",
    "wire.bytes": "bytes",
    "wire.send_s": "s",
    "service.coord_store_s": "s",
    "service.idle_s": "s",
    "service.stop_s": "s",
    "api.submit_s": "s",
    "api.result_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


class Tracer:
    """In-memory span recorder with install/uninstall of its wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self._counter = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped to record one ``name`` span per call.

        ``count(*args, **kwargs)`` -- evaluated before the timed call --
        gives the span's ``n``.
        """
        name_id = self.name_id(name)
        record = self.spans.append
        counter = self._counter
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            index = next(counter)
            n = count(*args, **kwargs) if count is not None else 0
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((index, name_id, start, end, parent, n))

        return traced

    def span(self, name: str):
        """Context manager recording one span around benchmark code."""
        return _Span(self, self.name_id(name))

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # Classes keep the raw descriptor (classmethod, function) for undo.
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def patch_function(self, name: str, target: str, count=None) -> None:
        """Wrap ``module:function`` wherever ``repro`` modules look it up."""
        original = _resolve(target)
        if original is None:
            self.missing.append(target)
            return
        traced = self.wrap(name, original, count)
        for module in [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "repro"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, traced)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = traced

    def patch_methods(self, layer: str, target: str, methods, count=None) -> None:
        """Wrap ``methods`` on ``module:Class`` and every subclass defining them."""
        root = _resolve(target)
        if root is None:
            self.missing.append(target)
            return
        seen = 0
        for cls in _subclasses(root):
            for method in methods:
                raw = cls.__dict__.get(method)
                if raw is None:
                    continue
                seen += 1
                name = f"{layer}:{method}"
                if isinstance(raw, classmethod):
                    self._set(cls, method, classmethod(self.wrap(name, raw.__func__, count)))
                elif isinstance(raw, staticmethod):
                    self._set(cls, method, staticmethod(self.wrap(name, raw.__func__, count)))
                else:
                    self._set(cls, method, self.wrap(name, raw, count))
        if not seen:
            self.missing.append(f"{target}.{'/'.join(methods)}")

    def patch_wire(self, target: str) -> None:
        """Frame spans for the socket transport.

        ``recv`` blocks until the peer speaks; only the part after the
        frame header arrived (payload read plus unpickling) is wire work,
        so the span starts there.  The header read is found through the
        channel's exact-read helper; heartbeat frames get their own span
        name so frame counts exclude them.
        """
        cls = _resolve(target)
        if cls is None or not {"send", "recv"} <= set(vars(cls)):
            self.missing.append(target)
            return
        local = self._local
        record = self.spans.append
        counter = self._counter
        stack_of = self._stack
        clock = time.perf_counter
        ids = {
            key: self.name_id(f"wire:{key}")
            for key in ("send", "recv", "heartbeat_send", "heartbeat_recv")
        }
        send, recv = cls.__dict__["send"], cls.__dict__["recv"]
        read_exact = cls.__dict__.get("_recv_exact")

        def is_heartbeat(message) -> bool:
            return isinstance(message, tuple) and message[:1] == ("heartbeat",)

        @functools.wraps(send)
        def traced_send(channel, obj):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            index = next(counter)
            start = clock()
            try:
                return send(channel, obj)
            finally:
                key = "heartbeat_send" if is_heartbeat(obj) else "send"
                record((index, ids[key], start, clock(), parent, 0))

        @functools.wraps(recv)
        def traced_recv(channel):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            index = next(counter)
            local.reads = []
            start = clock()
            message = recv(channel)
            end = clock()
            reads = local.reads
            if reads:
                start = reads[0][1]
            key = "heartbeat_recv" if is_heartbeat(message) else "recv"
            record((index, ids[key], start, end, parent, sum(c for c, _ in reads)))
            return message

        self._set(cls, "send", traced_send)
        self._set(cls, "recv", traced_recv)
        if read_exact is None:
            self.missing.append(f"{target}._recv_exact")
            return

        @functools.wraps(read_exact)
        def noted_read(channel, count):
            data = read_exact(channel, count)
            reads = getattr(local, "reads", None)
            if reads is not None:
                reads.append((count, clock()))
            return data

        self._set(cls, "_recv_exact", noted_read)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, in call order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart\tend\tparent\tn\n")
            for index, name_id, start, end, parent, n in sorted(self.spans):
                handle.write(
                    f"{index}\t{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\t{n}\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else -1
        self._index = next(self._tracer._counter)
        stack.append(self._index)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self._tracer._stack().pop()
        self._tracer.spans.append(
            (self._index, self._name_id, self._start, end, self._parent, 0)
        )


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _subclasses(root: type) -> list[type]:
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found


def _received_jobs(store, start_round, received_block, *args, **kwargs) -> int:
    return int(received_block.sum())


def _sized_jobs(store, start_round, job_servers, *args, **kwargs) -> int:
    return len(job_servers)


def _blob_bytes(store, round_index, blob, *args, **kwargs) -> int:
    return len(blob)


def _block_rounds(policy, batch_block, *args, **kwargs) -> int:
    return len(batch_block)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public callables of every layer the benchmark reports."""
    tracer.patch_methods(
        "dispatch",
        "repro.policies.base:Policy",
        ("begin_round", "dispatch", "dispatch_round", "end_round"),
    )
    tracer.patch_methods(
        "dispatch", "repro.policies.base:Policy", ("dispatch_rounds",), _block_rounds
    )
    tracer.patch_function("core.iwl:compute_iwl", "repro.core.iwl:compute_iwl")
    for solver in ("scd_probabilities", "scd_probabilities_loop", "scd_probabilities_quadratic"):
        tracer.patch_function(f"core.prob:{solver}", f"repro.core.probabilities:{solver}")
    tracer.patch_function("greedy:rows", "repro.policies.greedy:greedy_rows_for_batches")
    tracer.patch_function("greedy:solve", "repro.policies.greedy:greedy_batch_assign")
    tracer.patch_function("greedy:heap", "repro.policies.greedy:greedy_batch_assign_heap")
    for target in (
        "repro.sim.arrivals:ArrivalProcess",
        "repro.sim.service:ServiceProcess",
    ):
        tracer.patch_methods("presample", target, ("sample", "sample_many"))
    tracer.patch_methods("presample", "repro.sim.sized:JobSizeDistribution", ("sample",))
    tracer.patch_function("driver:unsized", "repro.sim.blockdriver:drive_unsized")
    tracer.patch_function("driver:sized", "repro.sim.blockdriver:drive_sized")
    tracer.patch_methods(
        "store", "repro.sim.batchstore:BatchQueueStore", ("process_block",), _received_jobs
    )
    tracer.patch_methods(
        "store", "repro.sim.batchstore:SizedBatchQueueStore", ("process_block",), _sized_jobs
    )
    tracer.patch_methods(
        "probes", "repro.sim.probes:ProbeSet", ("observe_block", "observe_responses")
    )
    tracer.patch_function("build:cell", "repro.experiments.executor:build_cell_simulation")
    tracer.patch_methods("runs", "repro.runs.orchestrator:Run", ("create", "execute"))
    tracer.patch_methods("ckpt", "repro.runs.orchestrator:CheckpointController", ("after_block",))
    tracer.patch_methods(
        "ckpt.write", "repro.runs.checkpoint:CheckpointStore", ("write",), _blob_bytes
    )
    tracer.patch_methods("telemetry", "repro.runs.telemetry:TelemetryWriter", ("emit",))
    tracer.patch_methods(
        "service.coord_store", "repro.service.jobs:JobManager", ("store_checkpoint",)
    )
    tracer.patch_methods(
        "service.coord", "repro.service.jobs:JobManager", ("submit", "next_cell", "record_result")
    )
    tracer.patch_wire("repro.service.wire:MessageChannel")


def _merged_length(intervals, windows) -> float:
    """Length of the union of ``intervals`` that falls inside ``windows``."""
    total = 0.0
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    for w_start, w_end in windows:
        for start, end in merged:
            lo, hi = max(start, w_start), min(end, w_end)
            if hi > lo:
                total += hi - lo
    return total


def layer_metrics(tracer: Tracer, windows: list[tuple[float, float]]) -> dict[str, float]:
    """Fold the recorded spans into the span-derived per-layer metrics.

    ``windows`` are the timed sections (start, end) the spans belong to;
    the unattributed share is the part of them no span covers.  Every
    ``*.s`` / ``*_s`` time is a self time, except that the ``api.*``
    client calls are inclusive and ``service.coord_store_s`` includes the
    coordinator's own checkpoint writes (``ckpt.write_s`` is the worker's).
    """
    names = tracer.names
    spans = {span[0]: span for span in tracer.spans}
    child_time: dict[int, float] = {}
    for _, _, start, end, parent, _ in spans.values():
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def layer_of(span) -> str:
        return names[span[1]].split(":", 1)[0]

    def enclosing_layers(span) -> set[str]:
        found, parent = set(), span[4]
        while parent in spans:
            found.add(layer_of(spans[parent]))
            parent = spans[parent][4]
        return found

    self_time: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, int] = {}
    outermost: dict[str, int] = {}
    dispatch_top = []
    for span in spans.values():
        index, name_id, start, end, _, n = span
        name, layer, up = names[name_id], layer_of(span), enclosing_layers(span)
        if layer == "ckpt.write" and "service.coord_store" in up:
            layer = "service.coord_store"  # the coordinator's copy of a checkpoint
        if layer not in up:
            outermost[layer] = outermost.get(layer, 0) + 1
            if layer == "dispatch":
                dispatch_top.append((start, end, name.split(":", 1)[1], n))
        if name == "greedy:solve" or (name == "greedy:heap" and "greedy" not in up):
            calls["greedy.solves"] = calls.get("greedy.solves", 0) + 1
        if name == "runs:execute":
            inclusive["runs.execute"] = inclusive.get("runs.execute", 0.0) + end - start
        key = name if layer == "wire" else layer
        self_time[layer] = self_time.get(layer, 0.0) + end - start - child_time.get(index, 0.0)
        inclusive[layer] = inclusive.get(layer, 0.0) + end - start
        calls[key] = calls.get(key, 0) + 1
        totals[key] = totals.get(key, 0) + n

    rounds = _round_latencies(dispatch_top)
    top_level = [(s[2], s[3]) for s in spans.values() if s[4] < 0]
    wall = sum(end - start for start, end in windows)
    covered = _merged_length(top_level, windows)
    return {
        "dispatch.s": self_time.get("dispatch", 0.0),
        "dispatch.calls": sum(1 for _, _, kind, _ in dispatch_top if kind.startswith("dispatch")),
        "dispatch.round_p50_us": _quantile(rounds, 0.50) * 1e6,
        "dispatch.round_p99_us": _quantile(rounds, 0.99) * 1e6,
        "core.iwl.s": self_time.get("core.iwl", 0.0),
        "core.iwl.calls": calls.get("core.iwl", 0),
        "core.prob.s": self_time.get("core.prob", 0.0),
        "core.prob.calls": calls.get("core.prob", 0),
        "greedy.s": self_time.get("greedy", 0.0),
        "greedy.solves": calls.get("greedy.solves", 0),
        "presample.s": self_time.get("presample", 0.0),
        "presample.calls": outermost.get("presample", 0),
        "driver.self_s": self_time.get("driver", 0.0),
        "store.s": self_time.get("store", 0.0),
        "store.calls": calls.get("store", 0),
        "store.jobs": totals.get("store", 0),
        "probes.s": self_time.get("probes", 0.0),
        "ckpt.count": calls.get("ckpt.write", 0),
        "ckpt.bytes": totals.get("ckpt.write", 0),
        "ckpt.serialize_s": self_time.get("ckpt", 0.0),
        "ckpt.write_s": self_time.get("ckpt.write", 0.0),
        "telemetry.events": calls.get("telemetry", 0),
        "telemetry.s": self_time.get("telemetry", 0.0),
        "wire.frames": calls.get("wire:send", 0),
        "wire.bytes": totals.get("wire:recv", 0),
        "wire.send_s": self_time.get("wire", 0.0),
        "service.coord_store_s": self_time.get("service.coord_store", 0.0),
        "api.submit_s": inclusive.get("api.submit", 0.0),
        "api.result_s": inclusive.get("api.result", 0.0),
        "trace.unattributed_frac": 1.0 - covered / wall if wall > 0 else 0.0,
        "runs.execute_s": inclusive.get("runs.execute", 0.0),
    }


def _round_latencies(top: list[tuple[float, float, str, int]]) -> list[float]:
    """Per-round decision latency from the outermost dispatch spans.

    ``begin_round`` opens a round; the round's ``dispatch`` /
    ``dispatch_round`` calls and its ``end_round`` join it.  A
    ``dispatch_rounds`` call decides ``n`` rounds at once and
    contributes ``n`` samples of its amortized per-round time.
    """
    samples: list[float] = []
    current: float | None = None
    for start, end, kind, n in sorted(top):
        duration = end - start
        if kind == "dispatch_rounds":
            if current is not None:
                samples.append(current)
                current = None
            samples.extend([duration / n] * n if n else [])
        elif kind == "begin_round":
            if current is not None:
                samples.append(current)
            current = duration
        elif kind == "end_round":
            samples.append((current or 0.0) + duration)
            current = None
        else:
            current = (current or 0.0) + duration
    if current is not None:
        samples.append(current)
    return samples


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
