"""Self-test of the benchmark: smoke passes, then planted errors.

    python3 bench/run.py --selftest

Each workload runs one pass on its smallest inputs and must pass every
answer check. Then errors are planted in real answers (a flipped verdict, a
perturbed witness, a wrong summand multiset, one changed byte of CLI stdout)
and each must be recorded as a failure. Exit code 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np


def _case(cases, case_id: str):
    return next(c for c in cases if c.id == case_id)


def _planted(cases) -> list[tuple[str, object, object]]:
    """(label, case, corrupted answer) for the in-process planted errors."""
    twin = _case(cases, "equivalent:s7a:twin")
    phase = _case(cases, "equivalent:s7a:phase")
    dec = _case(cases, "decompose_full:s7a")
    atoms = _case(cases, "atomic_part:s7a")
    cls = _case(cases, "classify_parts:s7a")
    r_twin, r_phase, r_dec, r_atoms, r_cls = twin.run(), phase.run(), dec.run(), atoms.run(), cls.run()
    bump = np.zeros_like(r_twin.witness)
    bump[0, 1] = 1e-5
    s0 = r_dec.summands[0]
    return [
        ("flipped verdict True -> False", twin, dataclasses.replace(r_twin, verdict=False)),
        ("flipped verdict False -> True", phase,
         dataclasses.replace(r_phase, verdict=True, witness=np.eye(r_twin.witness.shape[0]))),
        ("perturbed witness", twin, dataclasses.replace(r_twin, witness=r_twin.witness + bump)),
        ("wrong summand multiset (one dropped)", dec, dataclasses.replace(r_dec, summands=r_dec.summands[1:])),
        ("wrong summand multiset (tag changed)", dec, dataclasses.replace(
            r_dec, summands=(dataclasses.replace(s0, tag="unknown", label=None), *r_dec.summands[1:]))),
        ("wrong atomic multiset (phase changed)", atoms, [
            dataclasses.replace(s, label=dataclasses.replace(s.label, phase=-s.label.phase)) if i == 0 else s
            for i, s in enumerate(r_atoms)]),
        ("wrong classify multiset (one atom dropped)", cls,
         dataclasses.replace(r_cls, atomic=r_cls.atomic[1:])),
    ]


def main(run) -> int:
    ok = True
    scratch_root = run.BENCH / ".tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        structure_cases = None
        cli_runner = cli_cases = None
        for workload in run.WORKLOADS:
            sub = scratch / workload
            sub.mkdir()
            _, cases, workdir, _ = run.setup(workload, 0, True, sub)
            runner = run.CliRunner(workdir, sub) if workload == "cli" else run.run_case
            p = run.run_pass(cases, runner, None)
            failed = run.failures([p])
            ok &= not failed
            print(f"smoke {workload:10s} {len(cases):3d} cases  {p.seconds:7.2f} s  "
                  f"{'ok' if not failed else 'FAILED'}")
            for case, errors in failed:
                print(f"    {case}: {'; '.join(errors)}")
            if workload == "structure":
                structure_cases = cases
            if workload == "cli":
                cli_runner, cli_cases = runner, cases

        planted = [(label, case.check(bad)) for label, case, bad in _planted(structure_cases)]
        case = _case(cli_cases, "decompose")
        first = cli_runner.reference[case.id]
        # The last digit sits inside a float of the isometry: the report stays
        # valid JSON with the same summands, so only the byte comparison sees it.
        i = max(first.rfind(d) for d in b"0123456789")
        changed = first[:i] + bytes([ord("0") + (first[i] - ord("0") + 1) % 10]) + first[i + 1:]
        proc = SimpleNamespace(returncode=0, stdout=changed, stderr=b"")
        planted.append(("one changed byte of CLI stdout", cli_runner.check(case, proc)))
        for label, errors in planted:
            ok &= bool(errors)
            print(f"planted {label:44s} {'detected' if errors else 'MISSED'}: {'; '.join(errors)[:100]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1

