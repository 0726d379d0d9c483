"""Command-line front end.

Exit codes: 0 success, 1 domain errors (KernelOverlap, NotInvertible, a
failing validate, a solve refused by its size cap (TooLarge), ...) and
memory exhaustion, 2 usage and parse errors (malformed files, bad shapes,
Pythagorean violations in inputs). Reports go to stdout, diagnostics
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


def _load_module(path: str, tol: float) -> core.PModule:
    # Files are accepted at the parse gate even when --tol is stricter, so
    # inputs rounded to 10 digits keep working; operations still run at --tol.
    module, _ = fileio.parse_module_file(_read(path), max(tol, fileio.PARSE_TOL))
    return module


def _cmd_validate(args) -> core.ValidationReport:
    # Parse without the identity gate: reporting the residual is the point.
    module, _ = fileio.parse_module_file(_read(args.module), tol=float("inf"))
    return core.validate(module, args.tol)


def _cmd_fuse(args) -> core.PModule:
    a = _load_module(args.left, args.tol)
    b = _load_module(args.right, args.tol)
    return core.boxtimes(a, b, args.tol)


def _cmd_kfuse(args) -> core.PModule:
    a = _load_module(args.left, args.tol)
    b = _load_module(args.right, args.tol)
    return core.kawamura_tensor(a, b)


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
    a = _load_module(args.left, args.tol)
    b = _load_module(args.right, args.tol)
    return structure.equivalent(a, b, args.tol, seed=args.seed)


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
    a = _load_module(args.left, args.tol)
    b = _load_module(args.right, args.tol)
    return families.d2_fuse(a, b, args.tol)


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
    common.add_argument("--tol", type=float, default=la.DEFAULT_RTOL, help="numeric tolerance")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check the Pythagorean identity")
    p.add_argument("module")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("fuse", parents=[common], help="fusion product of two module files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("kfuse", parents=[common], help="arity-multiplying Kawamura product")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_kfuse)

    p = sub.add_parser("dual", parents=[common], help="coordinate dual module")
    p.add_argument("module")
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("decompose", parents=[common], help="decompose a full module")
    p.add_argument("module")
    p.add_argument("--seed", type=int, required=True, help="seed for the probe and the commutant split")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("classify", parents=[common], help="atomic/diffuse/residual split")
    p.add_argument("module")
    p.add_argument("--max-word-len", type=int, default=None)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("equiv", parents=[common], help="unitary equivalence test")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--seed", type=int, required=True, help="seed for the probe")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("atomic", parents=[common], help="atomic summands with labels")
    p.add_argument("module")
    p.add_argument("--max-word-len", type=int, default=None)
    p.set_defaults(handler=_cmd_atomic)

    p = sub.add_parser("gp-fuse", parents=[common], help="closed-form GP fusion")
    p.add_argument("--z", required=True, help="GP vector JSON [[ [re,im],[re,im] ], ...]")
    p.add_argument("--zt", required=True, help="second GP vector JSON")
    p.set_defaults(handler=_cmd_gp_fuse)

    p = sub.add_parser("d2-fuse", parents=[common], help="closed-form D2 fusion")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_d2_fuse)

    p = sub.add_parser("sample", parents=[common], help="seeded class-M/N sampler")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--class-tag", choices=("M", "N"), default="N")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--zeros", type=int, default=0, help="zero eigenvalues (class M only)")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("prime-words", parents=[common], help="canonical prime binary words")
    p.add_argument("length", type=int)
    p.set_defaults(handler=_cmd_prime_words)
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
