"""Tiny-size self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload at 5% of its size and checks that:

* each run is correct and prints every metric named in ``BENCHMARK.json``
  (end-to-end with ``--trace 0``, per-layer with ``--trace 1``) with its
  unit, and nothing else;
* a forced vector fallback and an injected row mismatch each make the run
  report failed operations (``error_rate`` > 0);
* without the simulator sources the benchmark exits non-zero and prints no
  result.

Exits 0 when every check holds.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = ["--seed", "3", "--seconds", "0.1", "--scale", "0.05", "--setup-probes", "0"]


def run_in_process(workload: str, trace: int, extra=()) -> dict:
    """Run the benchmark in this process and return its final JSON line."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--trace", str(trace), *TINY, *extra])
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}")
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


def expect(condition: bool, message: str, problems: list) -> None:
    print(("ok      " if condition else "FAILED  ") + message)
    if not condition:
        problems.append(message)


def check_metrics(result: dict, declared: list, label: str, problems: list) -> None:
    units = {metric["name"]: metric["unit"] for metric in declared}
    reported = {name: value["unit"] for name, value in result["metrics"].items()}
    expect(reported == units, f"{label}: every declared metric with its unit", problems)
    expect(all(isinstance(value["value"], (int, float))
               for value in result["metrics"].values()),
           f"{label}: every value is a number", problems)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct, attempted {result['attempted']}, failed {result['failed']}",
           problems)


def main() -> int:
    problems: list = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in declared["workloads"]]
    run.import_simulator()
    import workloads

    expect(sorted(names) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json names every workload the benchmark defines", problems)
    expect([m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
           and [m["name"] for m in declared["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json lists the metrics the benchmark reports", problems)
    for name in names:
        check_metrics(run_in_process(name, 0), declared["end_to_end"], f"{name} untraced",
                      problems)
        check_metrics(run_in_process(name, 1), declared["per_layer"], f"{name} traced",
                      problems)
    check_metrics(run_in_process("paper-sweep", 0, ["--setup-probes", "1"]),
                  declared["end_to_end"], "paper-sweep with a set-up probe", problems)

    from repro.sim.simulation import Simulation
    from repro.sim.vector import VectorSimulation

    eligible = VectorSimulation.__dict__["vector_eligible"]
    VectorSimulation.vector_eligible = lambda self: False
    try:
        result = run_in_process("columnar-sweep", 0)
    finally:
        VectorSimulation.vector_eligible = eligible
    expect(result["failed"] > 0 and not result["correct"],
           f"forced vector fallback fails {result['failed']} of {result['attempted']}",
           problems)

    scalar_run = Simulation.__dict__["run"]

    def mismatching_run(self):
        result = scalar_run(self)
        result.hits += 1
        return result

    Simulation.run = mismatching_run
    try:
        result = run_in_process("paper-sweep", 0)
    finally:
        Simulation.run = scalar_run
    expect(result["failed"] > 0 and not result["correct"],
           f"injected row mismatch fails {result['failed']} of {result['attempted']}",
           problems)

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        completed = subprocess.run(
            [sys.executable, *declared["command"][1:], "--workload", names[0], *TINY],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(completed.returncode != 0 and '"correct"' not in completed.stdout,
           f"without src/ the benchmark exits {completed.returncode} and prints no result",
           problems)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
