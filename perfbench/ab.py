"""Interleaved A/B of this benchmark against a reference commit.

Run from the repository root (a git checkout)::

    python3 perfbench/ab.py --ref f25cef8 --workloads paper-sweep,columnar-sweep

The reference commit's ``src/`` is exported with ``git archive`` into a
directory under ``perfbench/out/`` (the repository's own git state is not
touched), and this benchmark's code is copied next to it, so both sides run
identical benchmark code.  Each of the ten pairs runs the reference and the
working tree on the same seed (100, 101, ...) for ``run_seconds`` of
``BENCHMARK.json``, alternating which side runs first.  The summary gives each
side's median and quartiles per end-to-end metric, the head/reference ratio
of medians, and how many pairs the head won; results are written as JSON.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT  # noqa: E402

#: Interleaved pairs per workload, and the seed of the first pair.
PAIRS = 10
FIRST_SEED = 100


def export_reference(ref: str, target: Path) -> None:
    """Write ``ref``'s ``src/`` plus this benchmark's code into ``target``."""
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", ref, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    shutil.copytree(HERE, target / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{root} {workload} seed {seed}: {completed.stderr[-500:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root} {workload} seed {seed}: incorrect run")
    return {name: value["value"] for name, value in result["metrics"].items()}


def summarize(values: list) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", required=True, help="reference commit")
    parser.add_argument("--workloads", default="paper-sweep,columnar-sweep")
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = declared["end_to_end"], declared["run_seconds"]
    reference = OUT / f"ab-ref-{args.ref}"
    export_reference(args.ref, reference)
    report = {"ref": args.ref, "pairs": PAIRS, "seconds": seconds, "workloads": {}}
    try:
        for workload in args.workloads.split(","):
            sides = {"ref": [], "head": []}
            for pair in range(PAIRS):
                seed = FIRST_SEED + pair
                order = [("ref", reference), ("head", ROOT)]
                if pair % 2:
                    order.reverse()
                for side, root in order:
                    sides[side].append(run_side(root, workload, seed, seconds))
                print(f"{workload} pair {pair} seed {seed}: " + ", ".join(
                    f"{side} req_per_s {sides[side][-1]['req_per_s']:.0f}"
                    for side in ("ref", "head")), flush=True)
            rows = {}
            for declared in metrics:
                metric = declared["name"]
                ref_values = [run[metric] for run in sides["ref"]]
                head_values = [run[metric] for run in sides["head"]]
                better = (lambda h, r: h < r) if declared["better"] == "lower" else (
                    lambda h, r: h > r)
                rows[metric] = {
                    "ref": summarize(ref_values),
                    "head": summarize(head_values),
                    "head_over_ref": statistics.median(head_values)
                    / statistics.median(ref_values),
                    "head_wins": sum(better(h, r) for h, r in zip(head_values, ref_values)),
                    "ties": sum(h == r for h, r in zip(head_values, ref_values)),
                    "ref_runs": ref_values,
                    "head_runs": head_values,
                }
                print(f"  {metric}: ref {rows[metric]['ref']['median']:.6g} "
                      f"[{rows[metric]['ref']['q1']:.6g}, {rows[metric]['ref']['q3']:.6g}] "
                      f"head {rows[metric]['head']['median']:.6g} "
                      f"[{rows[metric]['head']['q1']:.6g}, {rows[metric]['head']['q3']:.6g}] "
                      f"head/ref {rows[metric]['head_over_ref']:.4f} "
                      f"head wins {rows[metric]['head_wins']}/{PAIRS}", flush=True)
            report["workloads"][workload] = rows
    finally:
        shutil.rmtree(reference, ignore_errors=True)
    path = OUT / f"ab-{args.ref}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
