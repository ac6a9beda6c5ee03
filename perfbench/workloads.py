"""The four benchmark workloads.

Each workload is built from a seed and a scale, and exposes one *pass*: the
list of timed operations a run repeats for as long as it measures.  Every
operation goes through the simulator's public API only (``ExperimentSpec`` /
``run_cell``, ``Simulation``, ``VectorSimulation``, ``compile_workload``,
``ClusterSimulation``, ``replay_cluster_parallel``, ``StoreConfig``,
``restore_from_store``, ``replay_wal``).  Every cell starts with empty
simulated caches.

Besides the operations, a workload supplies the output checks that feed
``error_rate`` and the simulated outcome metrics of its rows.  Checks return
``None`` when they pass and a one-line reason when they fail.
"""

from __future__ import annotations

import collections
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    ClusterSimulation,
    DataStore,
    ExperimentSpec,
    PoissonZipfWorkload,
    Simulation,
    StoreConfig,
    TierConfig,
    WorkloadSpec,
)
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.parallel import replay_cluster_parallel
from repro.cluster.vector import VectorClusterSimulation
from repro.experiments.registry import make_policy
from repro.experiments.runner import run_cell
from repro.sim.vector import VectorSimulation
from repro.sketch.hashing import stable_fingerprint
from repro.store.recovery import replay_wal
from repro.store.snapshot import canonical_datastore_bytes
from repro.workload.compiled import compile_workload

#: The paper's five evaluated policies, in the order every grid runs them.
PAPER_POLICIES = ("ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive")
#: The write-reactive trio the fleet workloads compare.
REACTIVE_POLICIES = ("invalidate", "update", "adaptive")
PAPER_BOUNDS = (0.1, 1.0)


@dataclass
class OpOutput:
    """What one timed operation produced.

    ``requests`` is the number of simulated requests the operation replayed
    (0 for compile and log-replay operations), ``row`` the result row the
    checks compare, and ``extras`` deterministic side counts (evictions,
    disk bytes) or sub-timings that are not part of the row.
    """

    requests: int
    row: Optional[Dict[str, Any]] = None
    extras: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Op:
    """One timed operation of a pass.

    ``prepare`` runs untimed before ``run`` (e.g. to create an empty store
    directory) and its return value is passed to ``run``.
    """

    name: str
    run: Callable[[Any], OpOutput]
    prepare: Optional[Callable[[], Any]] = None


Check = Tuple[str, Optional[str]]


def canonical(row: Any) -> str:
    """Byte-comparable encoding of a result row (floats compared exactly)."""
    return json.dumps(row, sort_keys=True, default=repr)


def compare_rows(name: str, left: Any, right: Any) -> Check:
    """A check that two rows are identical."""
    if canonical(left) == canonical(right):
        return (name, None)
    return (name, "rows differ")


def drain(iterator) -> int:
    """Consume an iterator and return how many items it yielded."""
    return sum(1 for _ in iterator)


def drain_seconds(iterator) -> float:
    """Host seconds to consume an iterator (generation measured alone)."""
    started = time.perf_counter()
    drain(iterator)
    return time.perf_counter() - started


def request_checks(outputs: Dict[str, OpOutput], generated: int) -> List[Check]:
    """Each operation replayed exactly the requests the workload generates."""
    return [
        (f"requests:{name}",
         None if out.requests == generated else f"{out.requests} != {generated}")
        for name, out in outputs.items()
    ]


def freshness_outcome(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """The simulated outcome metrics of one pass's result rows.

    ``adaptive_regret`` is adaptive C'_F over min(invalidate, update) minus
    one, per staleness bound, averaged over bounds; ``hit_ratio`` is weighted
    by reads.
    """
    by_cell = {(row["policy"], row["staleness_bound"]): row for row in rows}
    bounds = sorted({bound for policy, bound in by_cell if policy == "adaptive"})
    cost = "normalized_freshness_cost"
    adaptive = [by_cell[("adaptive", bound)][cost] for bound in bounds]
    regrets = [
        by_cell[("adaptive", bound)][cost]
        / min(by_cell[("invalidate", bound)][cost], by_cell[("update", bound)][cost])
        - 1.0
        for bound in bounds
    ]
    reads = sum(row["reads"] for row in rows)
    return {
        "adaptive_cost": statistics.fmean(adaptive),
        "adaptive_regret": statistics.fmean(regrets),
        "staleness_cost": statistics.fmean(row["normalized_staleness_cost"] for row in rows),
        "hit_ratio": sum(row["hits"] for row in rows) / reads,
    }


def row_counts(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """Deterministic per-layer counts summed over one pass's result rows."""
    total = collections.Counter()
    for row in rows:
        for name in (
            "reads", "writes", "hits", "invalidates_sent", "updates_sent",
            "updates_wasted", "polls", "messages_dropped", "backend_fetches",
            "coalesced_reads", "stale_serves", "l1_hits", "l1_admission_rejects",
            "l1_promotions", "l1_evictions",
        ):
            total[name] += row.get(name, 0)
    sent = total["invalidates_sent"] + total["updates_sent"]
    imbalances = [row["load_imbalance"] for row in rows if "load_imbalance" in row]
    return {
        "core.invalidates_sent": total["invalidates_sent"],
        "core.updates_sent": total["updates_sent"],
        "core.polls": total["polls"],
        "core.update_waste": (
            total["updates_wasted"] / total["updates_sent"] if total["updates_sent"] else 0.0
        ),
        "backend.messages_sent": sent,
        "cluster.fanout_per_write": sent / total["writes"] if total["writes"] else 0.0,
        "cluster.load_imbalance": statistics.fmean(imbalances) if imbalances else 0.0,
        "backend.messages_dropped": total["messages_dropped"],
        "tier.l1_hit_share": total["l1_hits"] / total["hits"] if total["hits"] else 0.0,
        "tier.l1_admission_rejects": total["l1_admission_rejects"],
        "tier.l1_promotions": total["l1_promotions"],
        "tier.l1_evictions": total["l1_evictions"],
        "concurrency.backend_fetches": total["backend_fetches"],
        "concurrency.stale_serves": total["stale_serves"],
        "concurrency.coalesce_ratio": (
            total["coalesced_reads"] / total["reads"] if total["reads"] else 0.0
        ),
    }


#: Virtual nodes per fleet node: ``ClusterSimulation``'s default.
VNODES = 64


def time_ring_routes(num_nodes: int, factor: int, keys: List[str]) -> float:
    """Seconds for ``ConsistentHashRing.route`` to place every key once.

    The replay binds the ring's route map, so the ring cannot be wrapped from
    outside; this times the same method in isolation on a fresh ring built
    like the fleet's (cold route cache, warm fingerprint memo).
    """
    ring = ConsistentHashRing(vnodes=VNODES)
    for index in range(num_nodes):
        ring.add_node(f"node-{index:03d}")
    route = ring.route
    started = time.perf_counter()
    for key in keys:
        route(key, factor)
    return time.perf_counter() - started


class Workload:
    """Base class: a seeded, scaled set of timed operations plus checks."""

    name = ""

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = int(seed)
        self.scale = float(scale)
        self.workdir = workdir

    def warm_up(self) -> None:
        """Fill process-wide memo tables and lazy imports before timing."""

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def check_pass(self, outputs: Dict[str, OpOutput]) -> List[Check]:
        """Output checks on one pass (beyond rows repeating across passes)."""
        return []

    def reference_checks(self) -> List[Check]:
        """Checks against reference engines on reduced-size copies."""
        return []

    def outcome_rows(self, outputs: Dict[str, OpOutput]) -> List[Dict[str, Any]]:
        """The rows the simulated outcome metrics are computed from."""
        return [out.row for out in outputs.values()]

    def layer_counts(self, outputs: Dict[str, OpOutput]) -> Dict[str, float]:
        """Deterministic per-layer counts of one pass."""
        return row_counts(self.outcome_rows(outputs))

    def extra_outcome(self, outputs: Dict[str, OpOutput]) -> Dict[str, Tuple[float, str]]:
        """Simulated figures printed beside the metrics: name -> (value, unit)."""
        return {}

    def isolated_layers(self) -> Dict[str, float]:
        """Layer timings taken in isolation (traced run only)."""
        return {}

    def close(self) -> None:
        """Remove whatever the workload wrote under its work directory."""
        shutil.rmtree(self.workdir, ignore_errors=True)


def _poisson_keys(workload: PoissonZipfWorkload) -> List[str]:
    return [workload.key_name(rank) for rank in range(workload.num_keys)]


def fingerprint_keys(workload: PoissonZipfWorkload) -> None:
    """Fill the process-wide fingerprint memo with every key of ``workload``."""
    for key in _poisson_keys(workload):
        stable_fingerprint(key)


class PaperSweep(Workload):
    """The paper's evaluation grid on the scalar streamed path, via run_cell."""

    name = "paper-sweep"
    params = dict(num_keys=1000, rate_per_key=10.0, read_ratio=0.9, zipf_exponent=1.3)

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.duration = 10.0 * scale
        self.spec = self._spec(self.duration)
        self.cells = self.spec.expand()

    def _spec(self, duration: float) -> ExperimentSpec:
        return ExperimentSpec(
            name=self.name,
            policies=PAPER_POLICIES,
            workloads=[WorkloadSpec.of("poisson", self.params)],
            staleness_bounds=PAPER_BOUNDS,
            duration=duration,
            base_seed=self.seed,
        )

    def warm_up(self) -> None:
        for cell in self._spec(0.2).expand():
            run_cell(cell)
        fingerprint_keys(PoissonZipfWorkload(**self.params))

    def ops(self) -> List[Op]:
        return [
            Op(f"cell:{cell.policy}@{cell.staleness_bound}", self._run_cell(cell))
            for cell in self.cells
        ]

    @staticmethod
    def _run_cell(cell) -> Callable[[Any], OpOutput]:
        def run(_: Any) -> OpOutput:
            row = run_cell(cell)
            return OpOutput(requests=row["reads"] + row["writes"], row=row)

        return run

    def _workload_of(self, cell) -> PoissonZipfWorkload:
        return PoissonZipfWorkload(seed=cell.seed, **dict(cell.workload_params))

    def check_pass(self, outputs: Dict[str, OpOutput]) -> List[Check]:
        # Every cell replays the same workload-anchored trace.
        return request_checks(
            outputs, drain(self._workload_of(self.cells[0]).iter_requests(self.duration))
        )

    def reference_checks(self) -> List[Check]:
        # The vector engine is built directly, not through run_cell, because
        # run_cell replays ineligible cells through the scalar loop unreported.
        duration = max(1.0, self.duration / 10.0)
        checks = []
        for cell in self._spec(duration).expand():
            scalar_row = run_cell(cell)
            vector = VectorSimulation(
                compile_workload(self._workload_of(cell), duration),
                policy=make_policy(cell.policy), staleness_bound=cell.staleness_bound,
                duration=duration, workload_name=cell.workload,
            )
            vector_row = vector.run().as_dict()
            name = f"{cell.policy}@{cell.staleness_bound}"
            checks.append(compare_rows(
                f"columnar-vs-scalar:{name}", vector_row,
                {key: scalar_row.get(key) for key in vector_row},
            ))
            if not vector.used_vector_path:
                checks.append((f"vector-path:{name}", "ran the scalar fallback"))
        return checks

    def isolated_layers(self) -> Dict[str, float]:
        stream = self._workload_of(self.cells[0]).iter_requests(self.duration)
        return {"workload.gen_s": drain_seconds(stream) * len(self.cells)}


class ColumnarSweep(Workload):
    """The paper grid on the vector engine plus a shard-parallel 4-node fleet."""

    name = "columnar-sweep"
    params = dict(num_keys=10_000, rate_per_key=10.0, read_ratio=0.9, zipf_exponent=1.3)
    fleet = dict(num_nodes=4, staleness_bound=1.0)
    workers = 2

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.duration = 1.5 * scale
        self.source = PoissonZipfWorkload(seed=self.seed, **self.params)
        self.trace = None

    def _fleet_kwargs(self, policy: str, duration: float) -> Dict[str, Any]:
        return dict(policy=policy, duration=duration, seed=self.seed, **self.fleet)

    def warm_up(self) -> None:
        small = PoissonZipfWorkload(seed=self.seed, **dict(self.params, num_keys=200))
        trace = compile_workload(small, 0.5)
        for policy in PAPER_POLICIES:
            VectorSimulation(trace, policy=make_policy(policy), staleness_bound=0.1,
                             duration=0.5).run()
        replay_cluster_parallel(trace, workers=self.workers,
                                **self._fleet_kwargs("invalidate", 0.5))
        fingerprint_keys(self.source)

    def ops(self) -> List[Op]:
        ops = [Op("compile", self._compile)]
        for bound in PAPER_BOUNDS:
            for policy in PAPER_POLICIES:
                ops.append(Op(f"vector:{policy}@{bound}", self._vector_cell(policy, bound)))
        for policy in REACTIVE_POLICIES:
            ops.append(Op(f"fleet-parallel:{policy}", self._parallel(policy)))
        return ops

    def _compile(self, _: Any) -> OpOutput:
        self.trace = None  # free the previous pass's columns before compiling
        self.trace = compile_workload(self.source, self.duration)
        return OpOutput(requests=0, extras={"compiled": len(self.trace)})

    def _vector_cell(self, policy: str, bound: float) -> Callable[[Any], OpOutput]:
        def run(_: Any) -> OpOutput:
            simulation = VectorSimulation(
                self.trace, policy=make_policy(policy), staleness_bound=bound,
                duration=self.duration, workload_name="poisson",
            )
            result = simulation.run()
            return OpOutput(
                requests=result.reads + result.writes,
                row=result.as_dict(),
                extras={"vector_path": simulation.used_vector_path,
                        "evictions": result.cache_stats.get("evictions", 0)},
            )

        return run

    def _parallel(self, policy: str) -> Callable[[Any], OpOutput]:
        def run(_: Any) -> OpOutput:
            timings: Dict[str, float] = {}
            result = replay_cluster_parallel(
                self.trace, workers=self.workers, timings=timings,
                **self._fleet_kwargs(policy, self.duration),
            )
            return OpOutput(
                requests=result.totals.reads + result.totals.writes,
                row=result.as_dict(),
                extras={"merge_s": timings["merge_seconds"]},
            )

        return run

    def check_pass(self, outputs: Dict[str, OpOutput]) -> List[Check]:
        replays = {name: out for name, out in outputs.items() if name != "compile"}
        checks = request_checks(replays, outputs["compile"].extras["compiled"])
        for name, out in replays.items():
            if name.startswith("vector:") and not out.extras["vector_path"]:
                checks.append((f"vector-path:{name}", "ran the scalar fallback"))
        return checks

    def reference_checks(self) -> List[Check]:
        duration = max(0.5, self.duration / 10.0)
        trace = compile_workload(self.source, duration)
        checks = []
        for bound in PAPER_BOUNDS:
            for policy in PAPER_POLICIES:
                shared = dict(staleness_bound=bound, duration=duration, workload_name="poisson")
                vector = VectorSimulation(trace, policy=make_policy(policy), **shared)
                vector_row = vector.run().as_dict()
                scalar_row = Simulation(
                    trace.iter_requests(), policy=make_policy(policy), **shared
                ).run().as_dict()
                checks.append(compare_rows(f"columnar-vs-scalar:{policy}@{bound}",
                                           vector_row, scalar_row))
                if not vector.used_vector_path:
                    checks.append((f"vector-path:{policy}@{bound}", "ran the scalar fallback"))
        for policy in REACTIVE_POLICIES:
            kwargs = self._fleet_kwargs(policy, duration)
            if not VectorClusterSimulation(trace, **kwargs).vector_eligible():
                checks.append((f"fleet-vector-path:{policy}", "fleet falls back to scalar"))
            one = replay_cluster_parallel(trace, workers=1, **kwargs).as_dict()
            two = replay_cluster_parallel(trace, workers=self.workers, **kwargs).as_dict()
            checks.append(compare_rows(f"workers-1-vs-2:{policy}", one, two))
        return checks

    def outcome_rows(self, outputs: Dict[str, OpOutput]) -> List[Dict[str, Any]]:
        return [out.row for name, out in outputs.items() if name.startswith("vector:")]

    def layer_counts(self, outputs: Dict[str, OpOutput]) -> Dict[str, float]:
        counts = row_counts(self.outcome_rows(outputs))
        counts["vector.fallbacks"] = sum(
            1 for name, out in outputs.items()
            if name.startswith("vector:") and not out.extras["vector_path"]
        )
        counts["cache.evictions"] = sum(
            out.extras.get("evictions", 0) for out in outputs.values()
        )
        counts["parallel.merge_s"] = sum(
            out.extras.get("merge_s", 0.0) for out in outputs.values()
        )
        counts["cluster.load_imbalance"] = row_counts(
            [out.row for name, out in outputs.items() if name.startswith("fleet-parallel:")]
        )["cluster.load_imbalance"]
        return counts

    def isolated_layers(self) -> Dict[str, float]:
        """Route timing, and the 1-worker vs 2-worker fleet speed-up."""
        if self.trace is None:
            self.trace = compile_workload(self.source, self.duration)
        layers = {
            "cluster.route_s": time_ring_routes(
                self.fleet["num_nodes"], 1, _poisson_keys(self.source)
            ),
        }
        seconds = {1: 0.0, self.workers: 0.0}
        rows: Dict[int, List[str]] = {1: [], self.workers: []}
        for policy in REACTIVE_POLICIES:
            for workers in seconds:
                started = time.perf_counter()
                result = replay_cluster_parallel(
                    self.trace, workers=workers, **self._fleet_kwargs(policy, self.duration)
                )
                seconds[workers] += time.perf_counter() - started
                rows[workers].append(canonical(result.as_dict()))
        if rows[1] != rows[self.workers]:
            raise RuntimeError("1-worker and 2-worker fleet rows differ")
        layers["parallel.speedup"] = seconds[1] / seconds[self.workers]
        return layers


class FleetTiered(Workload):
    """The full fleet path: ring, replicas, eviction, L1, fetch model, obs."""

    name = "fleet-tiered"
    params = dict(num_keys=5000, rate_per_key=2.0, read_ratio=0.9, zipf_exponent=1.1)
    fleet = dict(num_nodes=8, replication=2, cache_capacity=400, staleness_bound=1.0)
    # Deterministic service keeps the queueing, and with it the staleness
    # outcome, from swinging with the seed; the offered load is about 0.7.
    backend = dict(service_time="deterministic", mean=0.008, capacity=8,
                   policy="single-flight")

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.duration = 8.0 * scale
        self.source = PoissonZipfWorkload(seed=self.seed, **self.params)

    def _cluster(self, policy: str, duration: float) -> ClusterSimulation:
        # Imported here so the other workloads also run against commits that
        # predate the fetch model and telemetry (see ab.py).
        from repro.concurrency.config import ConcurrencyConfig
        from repro.obs.recorder import ObsConfig

        return ClusterSimulation(
            workload=self.source.iter_requests(duration),
            policy=policy,
            duration=duration,
            seed=self.seed,
            tier=TierConfig(l1_capacity=128, admission="second-hit"),
            concurrency=ConcurrencyConfig(seed=self.seed, **self.backend),
            obs=ObsConfig(window=1.0),
            workload_name="poisson",
            **self.fleet,
        )

    def warm_up(self) -> None:
        for policy in REACTIVE_POLICIES:
            self._cluster(policy, 0.2).run()
        fingerprint_keys(self.source)

    def ops(self) -> List[Op]:
        return [Op(f"fleet:{policy}", self._run(policy)) for policy in REACTIVE_POLICIES]

    def _run(self, policy: str) -> Callable[[Any], OpOutput]:
        def run(_: Any) -> OpOutput:
            result = self._cluster(policy, self.duration).run()
            row = result.as_dict()
            return OpOutput(
                requests=row["reads"] + row["writes"],
                row=row,
                extras={"evictions": result.totals.cache_stats.get("evictions", 0)},
            )

        return run

    def check_pass(self, outputs: Dict[str, OpOutput]) -> List[Check]:
        return request_checks(outputs, drain(self.source.iter_requests(self.duration)))

    def backend_utilization(self, outputs: Dict[str, OpOutput]) -> float:
        """Offered load on the simulated backend: fetches x mean / slot-seconds."""
        rows = self.outcome_rows(outputs)
        fetches = statistics.fmean(row["backend_fetches"] for row in rows)
        return fetches * self.backend["mean"] / (self.backend["capacity"] * self.duration)

    def extra_outcome(self, outputs: Dict[str, OpOutput]) -> Dict[str, Tuple[float, str]]:
        """The read tail of the fetch model and the backend's offered load."""
        p99 = statistics.median(row["read_latency_p99"] for row in self.outcome_rows(outputs))
        return {
            "sim_read_p99_s": (p99, "s"),
            "sim_backend_utilization": (self.backend_utilization(outputs), "ratio"),
        }

    def layer_counts(self, outputs: Dict[str, OpOutput]) -> Dict[str, float]:
        counts = row_counts(self.outcome_rows(outputs))
        counts["cache.evictions"] = sum(out.extras["evictions"] for out in outputs.values())
        counts["obs.payload_bytes"] = sum(
            len(canonical(out.row["obs"])) for out in outputs.values()
        )
        counts["concurrency.backend_utilization"] = self.backend_utilization(outputs)
        return counts

    def isolated_layers(self) -> Dict[str, float]:
        gen = drain_seconds(self.source.iter_requests(self.duration))
        return {
            "workload.gen_s": gen * len(REACTIVE_POLICIES),
            "cluster.route_s": time_ring_routes(
                self.fleet["num_nodes"], self.fleet["replication"],
                _poisson_keys(self.source),
            ),
        }


class DurableWrites(Workload):
    """Writes beside reads: WAL, snapshots, crash-and-resume, log replay."""

    name = "durable-writes"
    params = dict(num_keys=2000, rate_per_key=5.0, read_ratio=0.5, zipf_exponent=1.3)
    fleet = dict(num_nodes=3, replication=2, staleness_bound=1.0)

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.duration = 4.0 * scale
        self.snapshot_interval = self.duration / 4
        # The crash is taken at mid-run, on the second snapshot boundary
        # (summed the way the store schedules them).
        self.stop_at = self.snapshot_interval + self.snapshot_interval
        self.source = PoissonZipfWorkload(seed=self.seed, **self.params)
        self._live: Dict[str, Tuple[ClusterSimulation, StoreConfig]] = {}
        self._dirs = 0

    def _store(self, snapshot_interval: Optional[float] = None) -> StoreConfig:
        self._dirs += 1
        root = self.workdir / f"store-{self._dirs:05d}"
        shutil.rmtree(root, ignore_errors=True)
        return StoreConfig(root=str(root),
                           snapshot_interval=snapshot_interval or self.snapshot_interval,
                           compact=False, fsync=False)

    def _cluster(self, policy: str, store: StoreConfig, duration: float) -> ClusterSimulation:
        return ClusterSimulation(
            workload=self.source.iter_requests(duration),
            policy=policy,
            duration=duration,
            seed=self.seed,
            store=store,
            workload_name="poisson",
            **self.fleet,
        )

    def warm_up(self) -> None:
        for policy in REACTIVE_POLICIES:
            store = self._store(0.05)
            cluster = self._cluster(policy, store, 0.2)
            cluster.run(stop_at=0.1)
            resumed = self._cluster(policy, store, 0.2)
            resumed.restore_from_store()
            resumed.run()
            replay_wal(DataStore(), store.wal_path, 0)
            shutil.rmtree(store.root, ignore_errors=True)
        fingerprint_keys(self.source)

    def ops(self) -> List[Op]:
        ops = []
        for policy in REACTIVE_POLICIES:
            ops.append(Op(f"persist:{policy}", self._persist(policy), self._store))
            ops.append(Op(f"crash-resume:{policy}", self._crash_resume(policy), self._store))
            ops.append(Op(f"wal-replay:{policy}", self._replay(policy)))
        return ops

    def _persist(self, policy: str) -> Callable[[StoreConfig], OpOutput]:
        def run(store: StoreConfig) -> OpOutput:
            cluster = self._cluster(policy, store, self.duration)
            result = cluster.run()
            self._live[policy] = (cluster, store)
            row = result.as_dict()
            return OpOutput(requests=row["reads"] + row["writes"], row=row)

        return run

    def _crash_resume(self, policy: str) -> Callable[[StoreConfig], OpOutput]:
        def run(store: StoreConfig) -> OpOutput:
            self._cluster(policy, store, self.duration).run(stop_at=self.stop_at)
            resumed = self._cluster(policy, store, self.duration)
            started = time.perf_counter()
            resumed.restore_from_store()
            restore_s = time.perf_counter() - started
            row = resumed.run().as_dict()
            return OpOutput(requests=row["reads"] + row["writes"], row=row,
                            extras={"restore_s": restore_s, "root": store.root})

        return run

    def _replay(self, policy: str) -> Callable[[Any], OpOutput]:
        def run(_: Any) -> OpOutput:
            cluster, store = self._live[policy]
            replayed = DataStore()
            report = replay_wal(replayed, store.wal_path, 0)
            return OpOutput(
                requests=0,
                row={"writes_replayed": report.writes_replayed,
                     "torn_bytes": report.torn_bytes},
                extras={"replayed": replayed},
            )

        return run

    def check_pass(self, outputs: Dict[str, OpOutput]) -> List[Check]:
        checks = request_checks(
            {name: out for name, out in outputs.items() if not name.startswith("wal-replay:")},
            drain(self.source.iter_requests(self.duration)),
        )
        for policy in REACTIVE_POLICIES:
            persist = outputs[f"persist:{policy}"]
            resumed = outputs[f"crash-resume:{policy}"]
            if policy != "adaptive":
                # restore_from_store documents that adaptive estimators
                # restart cold, so only the other policies resume exactly.
                checks.append(compare_rows(f"resume-equals-uninterrupted:{policy}",
                                           persist.row, resumed.row))
            cluster, store = self._live.pop(policy)
            replayed = outputs[f"wal-replay:{policy}"].extras.pop("replayed")
            same = canonical_datastore_bytes(replayed) == canonical_datastore_bytes(
                cluster.datastore
            )
            checks.append((f"wal-replay-equals-live:{policy}",
                           None if same else "replayed datastore differs"))
            persist.extras["disk_bytes"] = sum(
                path.stat().st_size for path in Path(store.root).rglob("*") if path.is_file()
            )
            shutil.rmtree(store.root, ignore_errors=True)
            shutil.rmtree(resumed.extras["root"], ignore_errors=True)
        return checks

    def outcome_rows(self, outputs: Dict[str, OpOutput]) -> List[Dict[str, Any]]:
        return [out.row for name, out in outputs.items() if name.startswith("persist:")]

    def layer_counts(self, outputs: Dict[str, OpOutput]) -> Dict[str, float]:
        rows = self.outcome_rows(outputs)
        counts = row_counts(rows)
        stores = [row["store"] for row in rows]
        writes_logged = sum(store["writes_logged"] for store in stores)
        counts.update({
            "store.wal_appends": sum(store["wal_appends"] for store in stores),
            "store.wal_flushes": sum(store["wal_flushes"] for store in stores),
            "store.snapshots": sum(store["snapshots"] for store in stores),
            "store.disk_bytes": sum(
                out.extras.get("disk_bytes", 0) for out in outputs.values()
            ),
            "store.wal_bytes_per_write": (
                sum(store["wal_bytes_written"] for store in stores) / writes_logged
                if writes_logged else 0.0
            ),
            "store.restore_s": sum(
                out.extras.get("restore_s", 0.0) for out in outputs.values()
            ),
        })
        return counts

    def isolated_layers(self) -> Dict[str, float]:
        gen = drain_seconds(self.source.iter_requests(self.duration))
        return {
            # Per policy the persist run drains the stream once, the crashed
            # run its first half, and the resumed run all of it (skipping
            # the first half as it streams): 2.5 drains.
            "workload.gen_s": gen * 2.5 * len(REACTIVE_POLICIES),
            "cluster.route_s": time_ring_routes(
                self.fleet["num_nodes"], self.fleet["replication"],
                _poisson_keys(self.source),
            ),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (PaperSweep, ColumnarSweep, FleetTiered, DurableWrites)
}
