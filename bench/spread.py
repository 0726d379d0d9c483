"""Run-to-run spread of the end-to-end metrics, and the run record.

    python3 bench/spread.py --seeds 10
    python3 bench/spread.py --seeds 5 --workloads noisy
    python3 bench/spread.py --seeds 10 --record bench/baseline.json

Runs the benchmark once per seed (1..N) on each workload, each run its own
process, and prints for every end-to-end metric the median of the per-run
values and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of that median, next to a
third of the metric's bound. With ``--record`` it also makes one traced run
per workload and writes the environment (git commit, Python, numpy, BLAS and
its thread count, nproc, CPU model), the seeds, and the quartiles and sample
counts of every metric to the given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--record", type=Path, help="write the run record to this file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"seconds": seconds, "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in record["seeds"]]
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {args.seeds} runs, {failed} failed cases of {sum(r['attempted'] for r in runs)}")
        entry = {"failed": failed, "end_to_end": {}}
        for name, bound in bounds.items():
            q = quartiles([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = q
            flag = "" if q["spread"] < bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, q["spread"] / bound)
            print(f"  {name:14s} median {q['median']:10.5g}  spread {q['spread']:7.4f}  "
                  f"bound/3 {bound / 3:.4f}{flag}")
        if args.record:
            traced = run_once(workload, 1, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
    print(f"worst spread / bound (setup_s aside): {worst:.3f}")
    if args.record:
        sys.path.insert(0, str(BENCH))
        import run  # noqa: E402  (sets the BLAS thread count it records)

        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        record["environment"] = run.environment() | {
            "git_sha": sha.stdout.strip() or None,
            "cpu_model": cpu_model(),
        }
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
