"""pmod benchmark: closed-loop workloads with independent answer checks.

    python3 bench/run.py --workload algebra --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --selftest

Run from the root of a checkout; pmod is imported from ``src/`` of that
checkout. One client runs a fixed list of cases (one pass) over and over: the
next case starts only after the previous one has finished and been checked.
Whole passes run until the next one would end after ``--seconds``. Everything
runs in this process except the ``cli`` workload's ``pmod`` children, which
run one at a time.

``--trace 0`` prints the end-to-end metrics (see BENCHMARK.json), measured
with tracing off. ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics of the traced passes, plus the tracing overhead
(traced minus untraced median pass time). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full record of the run goes
to bench/results/.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads; children inherit the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, aggregate, case_layers  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
LAUNCH = BENCH / "launch.py"

WORKLOADS = ("algebra", "structure", "noisy", "cli")
SETUP_REPEATS = 5  # at least this many timed set-ups; the median is reported
CASE_BUDGET_S = 20.0  # a case that takes longer counts as failed

# Per-call time metrics: public function -> metric name.
OP_METRICS = {
    "boxtimes": "boxtimes_s",
    "dual_module": "dual_s",
    "duality_check": "duality_check_s",
    "decompose_full": "decompose_s",
    "equivalent": "equivalent_s",
    "classify_parts": "classify_s",
    "atomic_part": "atomic_s",
}


@dataclass
class Outcome:
    case: str
    op: str
    seconds: float
    errors: list[str]
    weakened: str | None = None  # an accepted but weaker answer (noisy inputs)


@dataclass
class Pass:
    seconds: float
    outcomes: list[Outcome]
    layers: dict[str, float] = field(default_factory=dict)
    spans: int = 0  # spans recorded during the pass (traced passes)


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# Set-up: import pmod afresh and build the inputs, several times.
# ---------------------------------------------------------------------------


def import_pmod():
    for name in [n for n in sys.modules if n == "pmod" or n.startswith("pmod.")]:
        del sys.modules[name]
    pm = importlib.import_module("pmod")
    importlib.import_module("pmod.fileio")
    importlib.import_module("pmod.cli")
    return pm


def setup(workload: str, seed: int, small: bool, scratch: Path):
    """One timed set-up: import pmod afresh and build the inputs (for cli,
    write the files). Returns (pmod package, cases, working directory, seconds)."""
    t0 = time.perf_counter()
    pm = import_pmod()
    if workload == "cli":
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        cases = workloads.cli(pm, seed, small, workdir)
    else:
        workdir = None
        cases = workloads.IN_PROCESS[workload](pm, seed, small)
    return pm, cases, workdir, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# One pass.
# ---------------------------------------------------------------------------


def run_case(case: workloads.Case, tracer: Tracer | None) -> Outcome:
    if tracer is not None:
        tracer.case = case.id
    t0 = time.perf_counter()
    try:
        out = case.run()
    except case.refusals as exc:
        dt = time.perf_counter() - t0
        return Outcome(case.id, case.op, dt, [], f"refused: {type(exc).__name__}")
    except Exception as exc:  # a raising case is a failed case; the pass goes on
        dt = time.perf_counter() - t0
        return Outcome(case.id, case.op, dt, [f"raised {type(exc).__name__}: {exc}"])
    dt = time.perf_counter() - t0
    try:
        errors = case.check(out)
    except Exception as exc:  # an answer the check cannot read is a wrong answer
        errors = [f"answer check raised {type(exc).__name__}: {exc}"]
    return Outcome(case.id, case.op, dt, errors, workloads.weakened(out))


class CliRunner:
    """Runs CliCases as `pmod` children and keeps each case's first stdout."""

    def __init__(self, workdir: Path, scratch: Path):
        self.workdir = workdir
        self.span_file = scratch / "spans.json"
        self.reference: dict[str, bytes] = {}
        self.startup_s = 0.0  # spawn to cli.main entry, summed over traced calls

    def __call__(self, case: workloads.CliCase, tracer: Tracer | None) -> Outcome:
        env = dict(os.environ)
        if tracer is not None:
            env["PMOD_BENCH_SPANS"] = str(self.span_file)
            env["PMOD_BENCH_CASE"] = case.id
            self.span_file.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(LAUNCH), *case.args], cwd=self.workdir, env=env,
                capture_output=True, timeout=CASE_BUDGET_S,
            )
        except subprocess.TimeoutExpired:
            dt = time.perf_counter() - t0
            return Outcome(case.id, "cli", dt, [f"killed after the {CASE_BUDGET_S:g} s case budget"])
        dt = time.perf_counter() - t0
        if tracer is not None and self.span_file.exists():
            spans = json.loads(self.span_file.read_text())
            if spans and spans[0][0] == "cli.main":
                self.startup_s += spans[0][1] - t0
            tracer.merge(spans)
        return Outcome(case.id, "cli", dt, self.check(case, proc))

    def check(self, case: workloads.CliCase, proc) -> list[str]:
        errors = []
        if proc.returncode != case.code:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            errors.append(f"exit code {proc.returncode}, expected {case.code} {tail}")
        ref = self.reference.setdefault(case.id, proc.stdout)
        if proc.stdout != ref:
            errors.append("stdout differs from the first pass")
        if case.save_as:
            (self.workdir / case.save_as).write_bytes(proc.stdout)
        return errors + case.check(proc.stdout.decode(errors="replace"))


def run_pass(cases, runner, tracer: Tracer | None) -> Pass:
    first = len(tracer.spans) if tracer else 0
    if isinstance(runner, CliRunner):
        runner.startup_s = 0.0
    t0 = time.perf_counter()
    outcomes = []
    for case in cases:
        outcome = runner(case, tracer)
        if outcome.seconds > CASE_BUDGET_S:
            outcome.errors.append(f"over the {CASE_BUDGET_S:g} s case budget")
        outcomes.append(outcome)
    p = Pass(time.perf_counter() - t0, outcomes)
    if tracer is not None:
        tracer.case = None
        p.layers = aggregate(tracer.spans, first)
        p.spans = len(tracer.spans) - first
        p.layers["cli.startup_s"] = runner.startup_s if isinstance(runner, CliRunner) else 0.0
    return p


def run_passes(cases, runner, seconds: float, between) -> list[Pass]:
    """Untraced whole passes until the next one would end after `seconds` (at
    least one), calling between() after each."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cases, runner, None))
        between()
        typical = statistics.median(p.seconds for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(workload: str, setup_times, passes: list[Pass]) -> dict[str, dict]:
    """Every untraced metric of the report; the result line takes those named
    in BENCHMARK.json."""
    cases = [o.seconds for p in passes for o in p.outcomes]
    q = np.percentile(cases, [50, 90])
    out = {
        "setup_s": summary(setup_times) | {"unit": "s"},
        "pass_s": summary([p.seconds for p in passes]) | {"unit": "s"},
        "peak_rss_mib": summary([peak_rss_mib(workload)]) | {"unit": "MiB"},
        "case_s.p50": {"median": float(q[0]), "n": len(cases), "unit": "s"},
        "case_s.p90": {"median": float(q[1]), "n": len(cases), "unit": "s"},
    }
    ops = sorted({o.op for p in passes for o in p.outcomes} & OP_METRICS.keys())
    for op in ops:
        per_pass = [sum(o.seconds for o in p.outcomes if o.op == op) for p in passes]
        out[OP_METRICS[op]] = summary(per_pass) | {"unit": "s"}
    if workload == "cli":
        out["cli_call_s.p50"] = out["case_s.p50"]
        out["cli_call_s.p90"] = out["case_s.p90"]
    return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy without dict-mode config
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def failures(passes: list[Pass]) -> list[tuple[str, list[str]]]:
    return [(o.case, o.errors) for p in passes for o in p.outcomes if o.errors]


def report(args, names: dict[str, str], metrics: dict[str, dict], passes: list[Pass], env: dict,
           extra: dict) -> int:
    """Prints every metric with unit, quartiles and sample count, writes the run
    record, and ends with the result line holding the metrics in `names`."""
    attempted = sum(len(p.outcomes) for p in passes)
    failed = failures(passes)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
        f"cases/pass={len(passes[0].outcomes)} blas_threads={env['blas_threads']} nproc={env['nproc']}"
    )
    print(f"{'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>5s}")
    for name, m in metrics.items():
        q1, q3 = m.get("q1", m["median"]), m.get("q3", m["median"])
        print(f"{name:44s} {m['unit']:6s} {m['median']:12.6g} {q1:12.6g} {q3:12.6g} {m['n']:5d}")
    weak = [(o.case, o.weakened) for p in passes for o in p.outcomes if o.weakened]
    print(f"failed_frac = {len(failed)}/{attempted} = {len(failed) / attempted:.4g}")
    print(f"weakened_frac = {len(weak)}/{attempted} = {len(weak) / attempted:.4g}")
    for case, errors in failed:
        print(f"FAILED {case}: {'; '.join(errors)}")
    for case, why in sorted(set(weak)):
        print(f"weakened {case}: {why}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "metrics": metrics, "attempted": attempted,
        "case_s": {
            o.case: statistics.median(q.outcomes[i].seconds for q in passes)
            for i, o in enumerate(passes[0].outcomes)
        },
        "pass_seconds": [p.seconds for p in passes],
        "failures": [{"case": c, "errors": e} for c, e in failed],
        "weakened": [{"case": c, "why": w} for c, w in weak], **extra,
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    line = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n]["median"], "unit": unit} for n, unit in names.items()},
    }
    print(json.dumps(line))
    return 0


def per_layer(untraced: list[Pass], traced: list[Pass], units: dict[str, str]) -> dict[str, dict]:
    out = {
        name: summary([p.layers[name] for p in traced]) | {"unit": units.get(name, "count")}
        for name in traced[0].layers
    }
    overhead = statistics.median(p.seconds for p in traced) - statistics.median(p.seconds for p in untraced)
    out["trace.overhead_s"] = {"median": overhead, "n": len(traced), "unit": "s"}
    return out


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def measure(args, spec: dict) -> int:
    """One run of one workload; prints the report and the result line."""
    units = {k: {m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer")}
    RESULTS.mkdir(exist_ok=True)
    (BENCH / ".tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=BENCH / ".tmp"))
    try:
        pm, cases, workdir, seconds = setup(args.workload, args.seed, False, scratch)
        runner = CliRunner(workdir, scratch) if args.workload == "cli" else run_case
        env = environment()
        if not args.trace:
            # Set-up is timed again after every pass, so its samples spread over
            # the run like the passes do; the cases keep the first set-up's inputs.
            setup_times = [seconds]

            def time_setup():
                setup_times.append(setup(args.workload, args.seed, False, scratch)[3])

            passes = run_passes(cases, runner, args.seconds, time_setup)
            while len(setup_times) < SETUP_REPEATS:
                time_setup()
            metrics = end_to_end(args.workload, setup_times, passes)
            return report(args, units["end_to_end"], metrics, passes, env, {"setup_seconds": setup_times})
        untraced, traced = [], []
        tracer = Tracer()
        start = time.perf_counter()
        while True:  # alternate untraced and traced passes, so drift cancels
            untraced.append(run_pass(cases, runner, None))
            tracer.install(pm)
            try:
                traced.append(run_pass(cases, runner, tracer))
            finally:
                tracer.uninstall()
            typical = statistics.median(u.seconds + t.seconds for u, t in zip(untraced, traced))
            if time.perf_counter() - start + typical > args.seconds:
                break
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.spans))
        metrics = per_layer(untraced, traced, units["per_layer"])
        last = len(tracer.spans) - traced[-1].spans
        extra = {"spans": spans_path.name, "case_layer_self_s": case_layers(tracer.spans, last)}
        return report(args, units["per_layer"], metrics, untraced + traced, env, extra)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="smoke passes and planted-error checks")
    args = parser.parse_args(argv)
    if not (SRC / "pmod" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no pmod sources under {SRC} (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        import selftest

        return selftest.main(sys.modules[__name__])
    if args.workload is None:
        parser.error("--workload is required")
    args.seed %= 2**64  # numpy seeds must be non-negative
    return measure(args, json.loads((ROOT / "BENCHMARK.json").read_text()))


if __name__ == "__main__":
    sys.exit(main())
