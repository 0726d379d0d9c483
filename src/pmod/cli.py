"""Command-line front end.

Exit codes: 0 success, 1 domain errors (KernelOverlap, NotInvertible, a
failing validate, a prime-word list refused by the allocation cap
(TooLarge), ...) and memory exhaustion, 2 usage and parse errors (malformed
files, bad shapes, Pythagorean violations in inputs). Reports go to stdout, diagnostics
to stderr; identical argv (seeds included) produce byte-identical output.
Stdout closed early by its reader (``pmod ... | head``) is exit 1, no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import core, fileio
from . import linalg as la
from .errors import ParseError, PModError

if TYPE_CHECKING:
    from . import families, structure


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _tolerance(text: str) -> float:
    """--tol's type: a float other than NaN, which every comparison would fail."""
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if tol != tol:
        raise argparse.ArgumentTypeError(f"expected a number other than NaN, got {text!r}")
    return tol


def _load_module(path: str, tol: float) -> core.PModule:
    # Files are accepted at the parse gate even when --tol is stricter, so
    # inputs rounded to 10 digits keep working; operations still run at --tol.
    module, _ = fileio.parse_module_file(_read(path), max(tol, fileio.PARSE_TOL))
    return module


def _load_pair(args) -> tuple[core.PModule, core.PModule]:
    return _load_module(args.left, args.tol), _load_module(args.right, args.tol)


def _cmd_validate(args) -> core.ValidationReport:
    # Parse without the identity gate: reporting the residual is the point.
    module, _ = fileio.parse_module_file(_read(args.module), tol=float("inf"))
    return core.validate(module, args.tol)


def _cmd_fuse(args) -> core.PModule:
    return core.boxtimes(*_load_pair(args))


def _cmd_kfuse(args) -> core.PModule:
    return core.kawamura_tensor(*_load_pair(args))


def _cmd_dual(args) -> core.PModule:
    return core.dual_module(_load_module(args.module, args.tol), args.tol)


def _cmd_decompose(args) -> structure.DecompositionReport:
    from . import structure
    return structure.decompose_full(
        _load_module(args.module, args.tol), args.tol, seed=args.seed
    )


def _cmd_classify(args) -> structure.ClassifyReport:
    from . import structure
    return structure.classify_parts(
        _load_module(args.module, args.tol), args.tol, max_len=args.max_word_len
    )


def _cmd_equiv(args) -> structure.EquivalenceResult:
    from . import structure
    return structure.equivalent(*_load_pair(args), args.tol, seed=args.seed)


def _cmd_atomic(args) -> list:
    from . import structure
    return structure.atomic_part(
        _load_module(args.module, args.tol), max_len=args.max_word_len, rtol=args.tol
    )


def _cmd_gp_fuse(args) -> list:
    from . import families
    z = fileio.parse_gp_vector(args.z)
    zt = fileio.parse_gp_vector(args.zt)
    return families.gp_fuse(z, zt)


def _cmd_d2_fuse(args) -> families.D2FuseReport:
    from . import families
    return families.d2_fuse(*_load_pair(args), args.tol)


def _cmd_sample(args) -> tuple:
    from . import families
    module = families.random_module(
        args.dim, args.class_tag, seed=args.seed, zero_eigenvalues=args.zeros
    )
    return module, {"class_tag": args.class_tag, "seed": args.seed}


def _cmd_prime_words(args) -> list:
    from . import families
    return families.prime_words(args.length)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmod",
        description="Compute with Pythagorean pairs of complex matrices: "
        "fusion, duality, decomposition, classification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=la.DEFAULT_RTOL, help="numeric tolerance")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    # Positionals of the one-file and the two-file commands, after --tol and --format.
    one = argparse.ArgumentParser(add_help=False, parents=[common])
    one.add_argument("module")
    two = argparse.ArgumentParser(add_help=False, parents=[common])
    two.add_argument("left")
    two.add_argument("right")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, parent, handler, summary):
        p = sub.add_parser(name, parents=[parent], help=summary)
        p.set_defaults(handler=handler)
        return p

    command("validate", one, _cmd_validate, "check the Pythagorean identity")
    command("fuse", two, _cmd_fuse, "fusion product of two module files")
    command("kfuse", two, _cmd_kfuse, "arity-multiplying Kawamura product")
    command("dual", one, _cmd_dual, "coordinate dual module")
    p = command("decompose", one, _cmd_decompose, "decompose a full module")
    p.add_argument("--seed", type=int, required=True, help="seed for the probe and the commutant split")
    p = command("classify", one, _cmd_classify, "atomic/diffuse/residual split")
    p.add_argument("--max-word-len", type=int, default=None)
    p = command("equiv", two, _cmd_equiv, "unitary equivalence test")
    p.add_argument("--seed", type=int, required=True, help="seed for the probe")
    p = command("atomic", one, _cmd_atomic, "atomic summands with labels")
    p.add_argument("--max-word-len", type=int, default=None)
    p = command("gp-fuse", common, _cmd_gp_fuse, "closed-form GP fusion")
    p.add_argument("--z", required=True, help="GP vector JSON [[ [re,im],[re,im] ], ...]")
    p.add_argument("--zt", required=True, help="second GP vector JSON")
    command("d2-fuse", two, _cmd_d2_fuse, "closed-form D2 fusion")
    p = command("sample", common, _cmd_sample, "seeded class-M/N sampler")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--class-tag", choices=("M", "N"), default="N")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--zeros", type=int, default=0, help="zero eigenvalues (class M only)")
    p = command("prime-words", common, _cmd_prime_words, "canonical prime binary words")
    p.add_argument("length", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        report = args.handler(args)
    except (ParseError, PModError, ValueError, MemoryError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (PModError, MemoryError)) else 2
    if isinstance(report, tuple):  # (module, metadata)
        text = fileio.render_module(*report, args.format)
    else:
        text = fileio.render_report(report, args.format)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's exit flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return int(isinstance(report, core.ValidationReport) and not report.passed)


if __name__ == "__main__":
    raise SystemExit(main())
