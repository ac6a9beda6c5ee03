"""Spans and per-layer folds for the traced benchmark run.

The traced run installs wrappers from outside the program: public calls the
benchmark makes become *spans* (name, layer, start, end, parent, op id), and
high-frequency per-request methods are *folded* into per-layer call counts,
busy seconds and self seconds under the enclosing span, so memory stays
bounded however many requests a run replays.

A span's self time is its duration minus what its children (spans and folded
calls) cover.  Every wrapper only measures; arguments and return values pass
through untouched, so traced rows equal untraced rows (the benchmark checks
this).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List

from repro.backend.channel import Channel
from repro.cache.cache import Cache
from repro.cluster.cluster import ClusterSimulation
from repro.experiments.registry import POLICY_FACTORIES
from repro.obs.recorder import ObsRecorder
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.sketch.exact import ExactEWTracker
from repro.store.snapshot import SnapshotManager
from repro.store.wal import WriteAheadLog
from repro.tier.admission import SecondHitAdmission
from repro.tier.l1 import L1Tier
from repro.workload.poisson import PoissonZipfWorkload

#: Folded per-request methods: (class, method names, fold key).  The fold
#: key's prefix before the dot is the layer.
FOLDED = (
    (Cache, ("lookup",), "cache.lookup"),
    (ExactEWTracker, ("observe_read", "observe_write"), "sketch.observe"),
    (SecondHitAdmission, ("observe",), "sketch.observe"),
    (Channel, ("send",), "backend.send"),
    (L1Tier, ("serve", "offer"), "tier.serve"),
    (WriteAheadLog, ("append", "flush"), "store.append"),
    (SnapshotManager, ("take",), "store.snapshot"),
    (ObsRecorder, ("roll", "read_begin", "read_end", "write_begin", "write_end",
                   "event", "finish", "payload"), "obs.record"),
)

#: Public entry points wrapped as spans: (class, method, span name).
SPANNED_METHODS = (
    (Simulation, "run", "sim.run"),
    (VectorSimulation, "run", "vector.run"),
    (ClusterSimulation, "run", "sim.cluster_run"),
    (ClusterSimulation, "restore_from_store", "store.restore"),
)

#: Public functions the benchmark's workload module calls, wrapped as spans
#: in that module's namespace: (global name, span name).
SPANNED_FUNCTIONS = (
    ("run_cell", "experiments.run_cell"),
    ("compile_workload", "workload.compile"),
    ("replay_cluster_parallel", "parallel.replay"),
    ("replay_wal", "store.replay"),
)


def layer_of(key: str) -> str:
    """The layer a span or fold key belongs to (its module name)."""
    return key.split(".", 1)[0]


class Tracer:
    """Collects spans and folds; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._frames: List[List[float]] = []
        self._open: List[int] = []
        self._next_id = 0
        self._fold: Dict[str, List[float]] = {}
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # Spans and folds
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around the block; yields the span id.

        The outermost open span is the operation; every span inside it
        carries that operation's id.
        """
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        op = self._open[0] if self._open else span_id
        frame = [0.0]
        self._frames.append(frame)
        self._open.append(span_id)
        saved_fold, fold = self._fold, {}
        self._fold = fold
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            ended = time.perf_counter()
            self._frames.pop()
            self._open.pop()
            self._fold = saved_fold
            if self._frames:
                self._frames[-1][0] += ended - started
            self.spans.append({
                "id": span_id,
                "name": name,
                "parent": parent,
                "op": op,
                "start": started,
                "end": ended,
                "self_s": ended - started - frame[0],
                "folds": {
                    key: {"calls": int(calls), "busy_s": busy, "self_s": own}
                    for key, (calls, busy, own) in fold.items()
                },
            })

    def _folded(self, key: str, func: Callable) -> Callable:
        frames = self._frames
        perf = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            started = perf()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf() - started
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                entry = tracer._fold.get(key)
                if entry is None:
                    entry = tracer._fold[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]

        return wrapper

    def _timed_iterator(self, iterator: Iterator) -> Iterator:
        """Fold every ``next()`` of a request stream under ``workload.next``."""
        advance = self._folded("workload.next", iterator.__next__)
        while True:
            try:
                item = advance()
            except StopIteration:
                return
            yield item

    def _spanned(self, name: str, func: Callable) -> Callable:
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return func(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self, module: Any) -> None:
        """Wrap the layer methods, and the public calls ``module`` makes."""
        for cls, names, key in FOLDED:
            for name in names:
                self._patch(cls, name, self._folded(key, cls.__dict__[name]))
        for factory in set(POLICY_FACTORIES.values()):
            if "decide" in factory.__dict__:
                self._patch(factory, "decide", self._folded("core.decide",
                                                            factory.__dict__["decide"]))
        for cls, name, span_name in SPANNED_METHODS:
            self._patch(cls, name, self._spanned(span_name, cls.__dict__[name]))
        for name, span_name in SPANNED_FUNCTIONS:
            self._patch(module, name, self._spanned(span_name, module.__dict__[name]))
        iter_requests = PoissonZipfWorkload.__dict__["iter_requests"]
        timed = self._timed_iterator

        @functools.wraps(iter_requests)
        def traced_iter_requests(workload, duration):
            return timed(iter_requests(workload, duration))

        self._patch(PoissonZipfWorkload, "iter_requests", traced_iter_requests)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def layer_seconds(self, op_ids: List[int]) -> Dict[str, Dict[str, float]]:
        """Per fold/span key: calls, busy and self seconds over ``op_ids``.

        An operation span's own self time (simulator construction, row
        flattening, the benchmark's glue) is reported as ``harness``.
        """
        wanted = set(op_ids)
        totals: Dict[str, Dict[str, float]] = {}

        def add(key: str, calls: float, busy: float, own: float) -> None:
            entry = totals.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["busy_s"] += busy
            entry["self_s"] += own

        for span in self.spans:
            if span["op"] not in wanted:
                continue
            key = "harness.op" if span["id"] == span["op"] else span["name"]
            add(key, 1, span["end"] - span["start"], span["self_s"])
            for fold_key, fold in span["folds"].items():
                add(fold_key, fold["calls"], fold["busy_s"], fold["self_s"])
        return totals

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write every span (with its folds) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span["start"] for span in self.spans), default=0.0)
        spans = [
            dict(span, start=span["start"] - origin, end=span["end"] - origin)
            for span in sorted(self.spans, key=lambda span: span["id"])
        ]
        path.write_text(json.dumps({"meta": meta, "spans": spans}, indent=1) + "\n")
