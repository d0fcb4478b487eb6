"""Span tracing of the serving stack from outside it.

:func:`install` wraps the public boundary methods of each layer (the
classes in :data:`BOUNDARIES`) with a recorder that keeps one span per
call — name, wall start and end, parent span, and the task uuid when
the call carries a request — in memory while the recorder is active.
A layer's *self* time is its spans' durations minus the time covered
by their child spans, so the self times of all layers partition the
traced wall time. Nothing under ``src/`` changes: the wrappers are set
on the classes at run time, in the traced process only.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from collections import Counter
from time import perf_counter_ns

#: (module, class, methods, layer). Layer names are the repository's
#: modules; ``store`` is the durable medium under the journal, ``hub``
#: the telemetry hub, ``client`` the SDK the closed loop drives.
BOUNDARIES = (
    ("repro.durability.journal", "Journal", ("append", "snapshot_now"), "journal"),
    ("repro.durability.store", "FileDurableStore", ("append", "write_snapshot"), "store"),
    ("repro.gateway.gateway", "ServingGateway", ("serve", "offer", "on_tick", "on_settled"), "gateway"),
    ("repro.gateway.admission", "AdmissionController", ("admit", "release"), "admission"),
    (
        "repro.gateway.scheduler",
        "WeightedFairScheduler",
        ("enqueue", "dequeue", "dequeue_from", "dequeue_eligible", "requeue_front"),
        "scheduler",
    ),
    ("repro.auth.service", "AuthService", ("authorize",), "auth"),
    ("repro.core.runtime", "ServingRuntime", ("serve", "submit"), "runtime"),
    ("repro.messaging.queue", "TaskQueue", ("put", "claim_many", "ack", "nack", "expire_inflight"), "queue"),
    ("repro.core.telemetry", "Tracer", ("begin", "settle_member", "settle_request", "finish"), "tracer"),
    ("repro.core.telemetry", "TelemetryHub", ("snapshot",), "hub"),
    ("repro.core.obsloop", "ObservabilityLoop", ("scrape",), "obsloop"),
    ("repro.core.obsloop", "AlertEngine", ("evaluate",), "obsloop"),
    ("repro.core.fleet", "FleetController", ("observe", "reconcile"), "fleet"),
    ("repro.core.task_manager", "TaskManager", ("process",), "task_manager"),
    ("repro.core.executors", "ParslServableExecutor", ("invoke", "invoke_batch"), "executor"),
    ("repro.core.memo", "MemoCache", ("lookup", "store"), "memo"),
    (
        "repro.core.management",
        "ManagementService",
        ("run", "run_batch", "run_pipeline", "publish", "search", "describe"),
        "management",
    ),
    ("repro.core.repository", "ModelRepository", ("publish", "search"), "repository"),
    (
        "repro.core.client",
        "DLHubClient",
        ("run_detailed", "run_batch", "run_pipeline", "publish_servable", "search", "describe"),
        "client",
    ),
)
LAYERS = tuple(dict.fromkeys(layer for *_, layer in BOUNDARIES))


def _task_uuid(args) -> str | None:
    """The uuid of the request a call carries, if any (args after self)."""
    for arg in args[1:3]:
        uuid = getattr(arg, "task_uuid", None)
        if uuid is not None:
            return uuid
        if type(arg) is dict:
            uuid = arg.get("task_uuid")
            if uuid is not None:
                return uuid
    return None


class SpanRecorder:
    """In-memory span log plus per-layer self time, on while active."""

    def __init__(self) -> None:
        self.active = False
        #: ``[name, start_ns, end_ns, parent_index, task_uuid]``.
        self.spans: list[list] = []
        self.self_ns: Counter = Counter()
        #: Wall time while active, less the time handed to :meth:`exclude`.
        self.window_ns = 0
        #: Bytes handed to the durable store's ``append``.
        self.store_bytes = 0
        #: Virtual times of gateway offer and runtime submit, per task.
        self.offered_at: dict[str, float] = {}
        self.submitted_at: dict[str, float] = {}
        self._stack: list[list] = []
        self._t0 = 0

    def start(self) -> None:
        self.active = True
        self._t0 = perf_counter_ns()

    def stop(self) -> None:
        self.window_ns += perf_counter_ns() - self._t0
        self.active = False

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` of benchmark work (the speed probe) that ran
        inside the innermost open span out of its self time and out of
        the traced window."""
        if not self.active:
            return
        ns = int(seconds * 1e9)
        if self._stack:
            self._stack[-1][1] += ns
        self.window_ns -= ns

    def wrap(self, qualname: str, layer: str, fn):
        spans, stack, self_ns = self.spans, self._stack, self.self_ns
        note = self._notes().get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if note is not None:
                note(args)
            frame = [len(spans), 0]
            span = [qualname, 0, 0, stack[-1][0] if stack else -1, _task_uuid(args)]
            spans.append(span)
            stack.append(frame)
            start = span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = span[2] = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def _notes(self) -> dict:
        """Per-method pre-call hooks for the counts spans cannot carry."""

        def store_append(args) -> None:
            self.store_bytes += len(args[2]) + 1  # the line plus its newline

        def gateway_offer(args) -> None:
            self.offered_at[args[1].task_uuid] = args[0].runtime.clock.now()

        def runtime_submit(args) -> None:
            uuid = args[1].task_uuid
            if uuid in self.offered_at and uuid not in self.submitted_at:
                self.submitted_at[uuid] = args[0].clock.now()

        return {
            "FileDurableStore.append": store_append,
            "ServingGateway.offer": gateway_offer,
            "ServingRuntime.submit": runtime_submit,
        }

    # -- analysis ----------------------------------------------------------------
    def durations_us(self, qualname: str) -> list[float]:
        """Inclusive wall durations (µs) of every call to ``qualname``."""
        return [(s[2] - s[1]) / 1e3 for s in self.spans if s[0] == qualname]

    def tick_us(self) -> list[float]:
        """Wall time of each serve-loop iteration: the gap between
        successive ``expire_inflight`` calls made by one ``serve`` call
        (the loop calls it first thing every iteration)."""
        by_parent: dict[int, list[int]] = {}
        for span in self.spans:
            if span[0] == "TaskQueue.expire_inflight" and span[3] >= 0:
                if self.spans[span[3]][0] == "ServingRuntime.serve":
                    by_parent.setdefault(span[3], []).append(span[1])
        gaps = []
        for starts in by_parent.values():
            gaps += [(b - a) / 1e3 for a, b in zip(starts, starts[1:])]
        return gaps

    def lane_waits_s(self) -> list[float]:
        """Virtual gateway offer -> runtime submit, per admitted task."""
        return [
            self.submitted_at[uuid] - at
            for uuid, at in self.offered_at.items()
            if uuid in self.submitted_at
        ]

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip), times in ns."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for i, (name, start, end, parent, uuid) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "task_uuid": uuid},
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")


def install(recorder: SpanRecorder) -> None:
    """Wrap every boundary method with ``recorder`` (process-wide)."""
    for module_name, class_name, methods, layer in BOUNDARIES:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            qualname = f"{class_name}.{method}"
            setattr(cls, method, recorder.wrap(qualname, layer, getattr(cls, method)))
