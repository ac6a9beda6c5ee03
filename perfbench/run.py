"""Benchmark of the cache-freshness simulator: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

The run imports the simulator from ``src/``, builds the workload from the
seed, warms it up, then repeats whole passes of the workload's timed
operations for about ``--seconds``.  It checks every output, prints one line
per metric, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with the layer wrappers of :mod:`tracing` installed,
reports the per-layer metrics, and writes the spans to
``perfbench/out/trace-<workload>-<seed>.json``.  See ``perfbench/BENCHMARK.md``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: End-to-end metrics (reported with ``--trace 0``): name -> unit.
END_TO_END = {
    "req_per_s": "req/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "adaptive_cost": "ratio",
    "adaptive_vs_best": "ratio",
    "staleness_cost": "ratio",
    "hit_ratio": "ratio",
}

#: Per-layer metrics (reported with ``--trace 1``): name -> unit.  Layer
#: times are given as shares of the traced operation time, which are defined
#: (possibly 0) on every workload; the absolute seconds are printed and
#: written to the trace file.
PER_LAYER = {
    "workload.gen_s": "s",
    "workload.requests": "count",
    "workload.share": "ratio",
    "sim.share": "ratio",
    "vector.share": "ratio",
    "vector.fallbacks": "count",
    "parallel.share": "ratio",
    "cache.lookups": "count",
    "cache.evictions": "count",
    "cache.share": "ratio",
    "core.decide_calls": "count",
    "core.invalidates_sent": "count",
    "core.updates_sent": "count",
    "core.polls": "count",
    "core.update_waste": "ratio",
    "core.share": "ratio",
    "sketch.share": "ratio",
    "backend.messages_sent": "count",
    "backend.messages_dropped": "count",
    "backend.share": "ratio",
    "cluster.load_imbalance": "ratio",
    "cluster.fanout_per_write": "ratio",
    "tier.l1_hit_share": "ratio",
    "tier.l1_admission_rejects": "count",
    "tier.l1_promotions": "count",
    "tier.l1_evictions": "count",
    "tier.share": "ratio",
    "concurrency.backend_fetches": "count",
    "concurrency.stale_serves": "count",
    "concurrency.coalesce_ratio": "ratio",
    "concurrency.backend_utilization": "ratio",
    "store.wal_appends": "count",
    "store.wal_flushes": "count",
    "store.snapshots": "count",
    "store.disk_bytes": "bytes",
    "store.wal_bytes_per_write": "bytes",
    "store.share": "ratio",
    "obs.payload_bytes": "bytes",
    "obs.share": "ratio",
    "experiments.share": "ratio",
    "harness.share": "ratio",
    "trace.overhead": "ratio",
}

#: Layers whose self time is split out of the traced operation time.
LAYERS = ("workload", "sim", "vector", "parallel", "cache", "core", "sketch",
          "backend", "tier", "store", "obs", "experiments", "harness")

#: Layer seconds printed by the traced run: name -> span/fold key and field.
LAYER_SECONDS = {
    "sim.self_s": ("sim", None),
    "vector.kernel_s": ("vector", None),
    "cache.lookup_s": ("cache.lookup", "busy_s"),
    "core.decide_s": ("core.decide", "busy_s"),
    "sketch.observe_s": ("sketch.observe", "busy_s"),
    "backend.send_s": ("backend.send", "busy_s"),
    "tier.serve_s": ("tier.serve", "busy_s"),
    "store.append_s": ("store.append", "busy_s"),
    "store.snapshot_s": ("store.snapshot", "busy_s"),
    "store.replay_s": ("store.replay", "busy_s"),
    "obs.record_s": ("obs.record", "busy_s"),
    "experiments.cell_overhead_s": ("experiments", None),
}


#: Median seconds of :func:`calibration_kernel` on the reference host (a
#: 2-vCPU Linux VM, Python 3.11, numpy 2.4).  Host times are reported at
#: that speed.
CALIBRATION_REF_S = 0.010
_CALIBRATION_ARRAY = numpy.random.default_rng(0).random(200_000)


def calibration_kernel() -> float:
    """A fixed slice of host work, independent of the simulator's code.

    Half interpreter work (string keys into a dict and back), half numpy
    work (sorting and summing a fixed array), like the simulator's scalar and
    columnar engines.  Timed around every operation, it tracks how fast the
    host runs at that moment, so the reported times can be scaled to the
    reference host.
    """
    table = {}
    for index in range(10_000):
        table["key-%06d" % index] = index
    total = 0
    for value in table.values():
        total += value
    return total + float(numpy.cumsum(numpy.sort(_CALIBRATION_ARRAY))[-1])


def calibrate(samples: int) -> List[float]:
    """Seconds of ``samples`` back-to-back runs of :func:`calibration_kernel`."""
    seconds = []
    for _ in range(samples):
        started = time.perf_counter()
        calibration_kernel()
        seconds.append(time.perf_counter() - started)
    return seconds


#: Operations on each side whose calibration samples join an operation's own
#: when its host slowdown is estimated.  One kernel run is noisy; the host's
#: speed drifts over seconds, so a few neighbouring operations are pooled.
CALIBRATION_WINDOW = 2


def import_simulator():
    """Put ``src/`` first on the path and import the simulator from it.

    Raises ImportError when ``src/repro`` is missing or the import resolves
    to a copy outside this checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"repro resolved to {location}, outside {SRC}")
    return repro


@dataclass
class OpRecord:
    """One timed operation: host seconds, and the host's slowdown around it.

    ``calibration`` holds the kernel seconds measured just before and just
    after the operation; ``slowdown`` is set once the pass is complete.
    """

    name: str
    seconds: float
    requests: int
    calibration: List[float]
    span: Optional[int] = None
    slowdown: float = 1.0

    @property
    def ref_seconds(self) -> float:
        """The operation's seconds at the reference host speed."""
        return self.seconds / self.slowdown


@dataclass
class PassResult:
    ops: List[OpRecord] = field(default_factory=list)
    outputs: Dict[str, Any] = field(default_factory=dict)
    failures: List[Tuple[str, str]] = field(default_factory=list)
    #: Operations and checks attempted (``failures`` lists those that failed).
    attempted: int = 0

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


def run_pass(workload, tracer=None) -> PassResult:
    """Run every timed operation of one pass, then the pass's output checks."""
    result = PassResult()
    for op in workload.ops():
        result.attempted += 1
        try:
            context = op.prepare() if op.prepare is not None else None
            gc.collect()
            before = calibrate(2)
            span = None
            started = time.perf_counter()
            if tracer is None:
                output = op.run(context)
            else:
                with tracer.span(f"op:{op.name}") as span:
                    output = op.run(context)
            seconds = time.perf_counter() - started
            calibration = before + calibrate(2)
        except Exception as exc:  # an operation that raises counts as failed
            result.failures.append((op.name, f"raised {exc!r}"))
            continue
        result.ops.append(OpRecord(op.name, seconds, output.requests, calibration, span))
        result.outputs[op.name] = output
    for index, record in enumerate(result.ops):
        window = result.ops[max(0, index - CALIBRATION_WINDOW):index + CALIBRATION_WINDOW + 1]
        record.slowdown = median(
            sample for neighbour in window for sample in neighbour.calibration
        ) / CALIBRATION_REF_S
    add_checks(result, lambda: workload.check_pass(result.outputs), "pass checks")
    return result


def add_checks(result: PassResult, produce, label: str) -> None:
    """Run a batch of checks and record how many ran and which failed."""
    try:
        checks = produce()
    except Exception as exc:  # a check that cannot run counts as failed
        result.attempted += 1
        result.failures.append((label, f"raised {exc!r}"))
        return
    result.attempted += len(checks)
    for name, problem in checks:
        if problem is not None:
            result.failures.append((name, problem))


def measure(workload, seconds: float, tracer=None) -> List[PassResult]:
    """Repeat whole passes while another pass still fits in ``seconds``."""
    passes: List[PassResult] = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        passes.append(run_pass(workload, tracer))
        last = time.perf_counter() - pass_started
        if time.perf_counter() - started + last > seconds:
            return passes


def compare_passes(reference: PassResult, passes: List[PassResult], label: str,
                   sink: PassResult) -> None:
    """Check that every pass produced the reference pass's rows."""
    from workloads import compare_rows

    for index, other in enumerate(passes):
        for name, output in other.outputs.items():
            if name not in reference.outputs:
                continue
            check_name, problem = compare_rows(
                f"{label}:{index}:{name}", reference.outputs[name].row, output.row
            )
            sink.attempted += 1
            if problem is not None:
                sink.failures.append((check_name, problem))


def setup_probes(args, count: int) -> List[Tuple[float, List[float]]]:
    """Set-up of ``count`` fresh processes (imports, build, warm-up).

    Each probe gives its host seconds and the calibration samples taken just
    before it started (in this process) and just after its set-up (in the
    probe), so it is scaled by the host's speed around its own set-up.
    """
    samples = []
    for _ in range(count):
        before = calibrate(4)
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", str(args.scale), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(completed.stdout.strip().splitlines()[-1])
        samples.append((probe["host_s"], before + probe["calibration"]))
    return samples


def reference_setup(host_s: float, calibration: List[float]) -> float:
    """Set-up seconds at the reference host speed."""
    return host_s / (median(calibration) / CALIBRATION_REF_S)


def median(values) -> float:
    return statistics.median(list(values))


def typical_ops(passes: List[PassResult], reference: bool = True) -> Dict[str, Tuple[int, float]]:
    """Each operation's requests and median seconds over the passes.

    Per-operation medians keep one slow moment of the host from moving the
    whole figure.  ``reference`` selects seconds at the reference host speed
    (the reported figures) or raw host seconds.
    """
    seconds: Dict[str, List[float]] = {}
    requests: Dict[str, int] = {}
    for one in passes:
        for op in one.ops:
            seconds.setdefault(op.name, []).append(op.ref_seconds if reference else op.seconds)
            requests[op.name] = op.requests
    return {name: (requests[name], median(values)) for name, values in seconds.items()}


def typical_rate(passes: List[PassResult], reference: bool = True) -> float:
    """Requests per second of a typical pass: every operation at its median."""
    ops = typical_ops(passes, reference).values()
    return sum(requests for requests, _ in ops) / sum(seconds for _, seconds in ops)


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def report_failures(failures) -> None:
    for name, problem in failures:
        print(f"FAILED {name}: {problem}", file=sys.stderr)


def end_to_end(args, workload, setup_own: Tuple[float, List[float]]) -> int:
    """The untraced run: end-to-end metrics."""
    from workloads import freshness_outcome

    passes = measure(workload, args.seconds)
    ops = [op for one in passes for op in one.ops]
    if not ops:
        report_failures([failure for one in passes for failure in one.failures])
        emit(False, sum(one.attempted for one in passes), len(passes[0].failures), {})
        return 1
    checks = PassResult()
    compare_passes(passes[0], passes[1:], "repeat", checks)
    add_checks(checks, workload.reference_checks, "reference checks")
    setup = [reference_setup(*probe) for probe in [setup_own] + setup_probes(
        args, args.setup_probes)]

    failures = [failure for one in passes for failure in one.failures] + checks.failures
    attempted = sum(one.attempted for one in passes) + checks.attempted
    outcome = freshness_outcome(workload.outcome_rows(passes[0].outputs)) if not failures else {}

    slowdowns = [op.slowdown for op in ops]
    print(f"# workload {workload.name} seed {args.seed}: {len(passes)} passes of "
          f"{[round(one.seconds, 2) for one in passes]} host s, {len(ops)} timed ops, "
          f"{attempted - len(ops)} checks; host slowdown vs reference median "
          f"{median(slowdowns):.3f} (range {min(slowdowns):.3f}-{max(slowdowns):.3f})")
    print(f"# setup samples at reference speed {[round(value, 3) for value in setup]}")
    metrics = {
        "req_per_s": (typical_rate(passes), "req/s"),
        "op_s_p50": (median(op.ref_seconds for op in ops), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    if outcome:
        metrics["adaptive_cost"] = (outcome["adaptive_cost"], "ratio")
        metrics["adaptive_vs_best"] = (1.0 + outcome["adaptive_regret"], "ratio")
        metrics["staleness_cost"] = (outcome["staleness_cost"], "ratio")
        metrics["hit_ratio"] = (outcome["hit_ratio"], "ratio")
    extra = {
        "error_rate": (len(failures) / attempted, "ratio"),
        "host_req_per_s": (typical_rate(passes, reference=False), "req/s"),
        "host_op_s_p50": (median(op.seconds for op in ops), "s"),
    }
    if outcome:
        extra["adaptive_regret"] = (outcome["adaptive_regret"], "ratio")
        extra.update(workload.extra_outcome(passes[0].outputs))
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name} {value!r} {unit}")
    report_failures(failures)
    emit(not failures, attempted, len(failures), metrics)
    return 0


def traced(args, workload, module) -> int:
    """The traced run: per-layer metrics, spans, and the tracing overhead."""
    from tracing import Tracer, layer_of

    plain = measure(workload, args.seconds / 2)
    tracer = Tracer()
    tracer.install(module)
    try:
        traced_passes = measure(workload, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    checks = PassResult()
    compare_passes(plain[0], plain[1:], "repeat", checks)
    compare_passes(plain[0], traced_passes, "traced-equals-untraced", checks)
    add_checks(checks, workload.reference_checks, "reference checks")
    isolated: Dict[str, float] = {}

    def isolated_layers():
        isolated.update(workload.isolated_layers())
        return [("isolated layers", None)]

    add_checks(checks, isolated_layers, "isolated layers")

    all_passes = plain + traced_passes
    failures = [failure for one in all_passes for failure in one.failures] + checks.failures
    attempted = sum(one.attempted for one in all_passes) + checks.attempted

    untraced_rps = typical_rate(plain)
    traced_rps = typical_rate(traced_passes)
    per_pass = []
    for one in traced_passes:
        totals = tracer.layer_seconds([op.span for op in one.ops])
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        for key, entry in totals.items():
            self_by_layer[layer_of(key)] += entry["self_s"]
        per_pass.append((one.seconds, totals, self_by_layer))

    def layer_median(fn) -> float:
        return median(fn(seconds, totals, self_by_layer)
                      for seconds, totals, self_by_layer in per_pass)

    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.share"] = layer_median(
            lambda seconds, totals, own, layer=layer: own[layer] / seconds)
    for name, (key, column) in LAYER_SECONDS.items():
        if column is None:
            values[name] = layer_median(lambda seconds, totals, own, key=key: own[key])
        else:
            values[name] = layer_median(
                lambda seconds, totals, own, key=key, column=column:
                totals.get(key, {}).get(column, 0.0))
    values["cache.lookups"] = layer_median(
        lambda seconds, totals, own: totals.get("cache.lookup", {}).get("calls", 0))
    values["core.decide_calls"] = layer_median(
        lambda seconds, totals, own: totals.get("core.decide", {}).get("calls", 0))
    requests = median(sum(op.requests for op in one.ops) for one in traced_passes)
    values["workload.requests"] = requests
    values["sim.ns_per_req"] = values["sim.self_s"] / requests * 1e9 if requests else 0.0
    values["workload.gen_s"] = layer_median(
        lambda seconds, totals, own: totals.get("workload.compile", {}).get("busy_s", 0.0))
    counts = workload.layer_counts(plain[0].outputs) if not failures else {}
    values.update(counts)
    values.update(isolated)
    values["trace.req_per_s"] = traced_rps
    values["untraced.req_per_s"] = untraced_rps
    values["trace.overhead"] = 1.0 - traced_rps / untraced_rps
    for name in PER_LAYER:
        values.setdefault(name, 0.0)

    path = OUT / f"trace-{workload.name}-{args.seed}.json"
    tracer.write(path, {"workload": workload.name, "seed": args.seed,
                        "passes_untraced": len(plain), "passes_traced": len(traced_passes),
                        "layers": values})
    print(f"# workload {workload.name} seed {args.seed}: {len(plain)} untraced + "
          f"{len(traced_passes)} traced passes; spans in {path}")
    for name in sorted(values):
        print(f"{name} {values[name]!r} {PER_LAYER.get(name, 's' if name.endswith('_s') else '')}")
    report_failures(failures)
    emit(not failures, attempted, len(failures),
         {name: (values[name], unit) for name, unit in PER_LAYER.items()})
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every simulated duration (the self-test uses 0.05)")
    parser.add_argument("--setup-probes", type=int, default=10,
                        help="fresh processes whose set-up time joins this run's own")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_simulator()
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
    try:
        workload.warm_up()
        setup_own = (time.perf_counter() - _STARTED, calibrate(4))
        if args.setup_probe:
            print(json.dumps({"host_s": setup_own[0], "calibration": setup_own[1]}))
            return 0
        if args.trace:
            return traced(args, workload, workloads)
        return end_to_end(args, workload, setup_own)
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
