"""Module files and report rendering.

Modules travel as JSON objects {"arity", "dim", "legs", "metadata"?} where
each leg is a dim x dim nested array of [re, im] pairs in row-major order.
All floats are rendered with 12 significant digits, keys sorted, so the same
object always renders to identical bytes and a render/parse roundtrip
preserves entries to 12 significant digits. The layout is json.dumps's with
indent=2, but matrices fill a template: a carrier-192 module file (5.6 MB)
renders in about 0.1 s and parses in about 0.07 s on a 2-core x86-64 machine.
"""

from __future__ import annotations

import json
from math import isfinite
from typing import TYPE_CHECKING

import numpy as np

from . import core
from .errors import ParseError, PythagoreanViolation, ShapeError

if TYPE_CHECKING:
    from . import families, structure


def _round12(x: float) -> float:
    return float(f"{x:.12g}") + 0.0 if isfinite(x) else x  # + 0.0 turns -0.0 into 0.0


def _pair(z: complex) -> list[float]:
    return [_round12(np.real(z)), _round12(np.imag(z))]


def _seq(items: list[str], pad: str | None, brackets: str = "[]") -> str:
    """A JSON array (or object) of rendered items; one line when pad is None."""
    if pad is None or not items:
        return brackets[0] + ", ".join(items) + brackets[1]
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


class _Matrix:
    """A complex matrix in a payload; _dumps writes it as nested [re, im] pairs.

    Each number is written once, as json.dumps writes _round12 of it: a .12g
    decimal with a point is its float's repr; integers, 1e12 <= |x| < 1e16,
    subnormals and non-finite values go through json.dumps."""

    def __init__(self, m: np.ndarray):
        a = np.asarray(m)
        self.shape, flat = a.shape, np.stack([a.real, a.imag], -1).ravel() + 0.0  # -0.0 -> 0.0
        self.values = tuple(
            s if "." in s and "e" not in s else "0.0" if s == "0" else json.dumps(float(s))
            for s in [f"{x:.12g}" for x in flat.tolist()]
        )


def _dumps(obj, pad: str | None = "") -> str:
    """json.dumps(obj, sort_keys=True) indented by 2 from indentation pad, with
    non-finite floats as null, or on one line when pad is None; a _Matrix
    fills one template with its entries."""
    inner = None if pad is None else pad + "  "
    if isinstance(obj, _Matrix):
        pair = _seq(["%s", "%s"], None if pad is None else inner + "  ")
        return _seq([_seq([pair] * obj.shape[1], inner)] * obj.shape[0], pad) % obj.values
    if isinstance(obj, dict):  # keys that are not strings are spelled as json.dumps does
        key = {k: json.dumps(k if isinstance(k, str) else json.dumps(k)) for k in obj}
        return _seq([f"{key[k]}: {_dumps(obj[k], inner)}" for k in sorted(obj)], pad, "{}")
    if isinstance(obj, (list, tuple)):
        return _seq([_dumps(v, inner) for v in obj], pad)
    if pad is not None and isinstance(obj, float) and not isfinite(obj):
        return "null"  # JSON has no Infinity or NaN; the one-line text layout keeps them
    return json.dumps(obj)


def _module_payload(m: core.PModule, metadata: dict | None = None) -> dict:
    payload = {"arity": m.arity, "dim": m.dim, "legs": [_Matrix(leg) for leg in m.legs]}
    return {**payload, "metadata": metadata} if metadata else payload


def serialize_module(m: core.PModule, metadata: dict | None = None) -> str:
    """Canonical module-file JSON (sorted keys, 12 significant digits)."""
    return _dumps(_module_payload(m, metadata))


def _parse_entry(value, where: str) -> complex:
    # On decoded JSON, bool is the only subclass of int or float.
    if type(value) is not list or len(value) != 2 or not {*map(type, value)} <= {int, float}:
        raise ShapeError(f"{where}: expected an [re, im] pair, got {value!r}")
    try:
        finite = isfinite(value[0]) and isfinite(value[1])
    except OverflowError:
        raise ShapeError(f"{where}: integer entry too large for a float") from None
    if not finite:
        raise ShapeError(f"{where}: entries must be finite")
    return complex(*value)


# Acceptance gate for files. pmod's 12-significant-digit files pass at every
# size. A file rounded to fewer digits passes while its rounding residual
# does; for dense legs that residual grows with the carrier and levels off
# near 1.6 * 10^(1 - digits): 10 digits pass up to carrier 256 at least,
# 9 digits up to about carrier 28, and 8 digits fail from carrier 4 on.
PARSE_TOL = 1e-8


def parse_module_file(text: str, tol: float = PARSE_TOL) -> tuple[core.PModule, dict]:
    """Parse a module file; returns (module, metadata).

    Raises ParseError for malformed JSON, ShapeError for inconsistent
    declarations, and PythagoreanViolation (with the residual) when the legs
    fail the defining identity at the given tolerance.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, int-digit limit
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    arity, dim, legs = obj.get("arity"), obj.get("dim"), obj.get("legs")
    if not isinstance(arity, int) or arity < 2:
        raise ShapeError(f"arity: expected an integer >= 2, got {arity!r}")
    if not isinstance(dim, int) or dim < 1:
        raise ShapeError(f"dim: expected a positive integer, got {dim!r}")
    if not isinstance(legs, list) or len(legs) != arity:
        raise ShapeError(
            f"legs: expected a list of {arity} matrices, got "
            f"{len(legs) if isinstance(legs, list) else type(legs).__name__}"
        )
    parsed = []
    for k, leg in enumerate(legs):
        if not isinstance(leg, list) or len(leg) != dim:
            raise ShapeError(f"legs[{k}]: expected {dim} rows")
        for i, row in enumerate(leg):
            if not isinstance(row, list) or len(row) != dim:
                raise ShapeError(f"legs[{k}][{i}]: expected {dim} entries")
            # _parse_entry's test; on failure it names the first bad entry.
            try:
                if all(
                    type(e) is list and len(e) == 2 and type(e[0]) in (int, float)
                    and type(e[1]) in (int, float) and isfinite(e[0]) and isfinite(e[1])
                    for e in row
                ):
                    continue
            except OverflowError:  # an integer beyond the float range
                pass
            for j, entry in enumerate(row):
                _parse_entry(entry, f"legs[{k}][{i}][{j}]")
        parsed.append(np.array(leg, dtype=float).view(np.complex128)[..., 0])
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ShapeError("metadata: expected an object")
    # Every check PModule makes (two or more square, equal, finite legs) has passed above.
    module = core.PModule(legs=tuple(parsed))
    report = core.validate(module, tol)
    if not report.passed:
        raise PythagoreanViolation(
            f"legs fail the Pythagorean identity (residual {report.residual:.6e} "
            f"> tol {tol:g})",
            residual=report.residual,
        )
    return module, metadata


def parse_gp_vector(text: str) -> families.GPVector:
    """GP vector JSON: [[ [re,im], [re,im] ], ...], one [a, b] pair per slot."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, int-digit limit
        raise ParseError(f"malformed GP vector JSON: {exc}") from exc
    if not isinstance(obj, list) or not obj:
        raise ShapeError("GP vector: expected a non-empty list of [a, b] entries")
    entries = []
    for i, item in enumerate(obj):
        if not isinstance(item, list) or len(item) != 2:
            raise ShapeError(f"GP vector entry {i}: expected [a, b]")
        a = _parse_entry(item[0], f"entry {i}.a")
        b = _parse_entry(item[1], f"entry {i}.b")
        entries.append((a, b))
    from . import families
    defect = families._sphere_defect(entries)
    if defect > 1e-8:
        raise PythagoreanViolation(
            f"GP vector entries leave the unit sphere (defect {defect:.3e})",
            residual=defect,
        )
    return families.GPVector(entries=tuple(entries))


def _atomic_payload(s: structure.AtomicSummand) -> dict:
    label = {"word": s.label.word, "phase": _pair(s.label.phase)}
    return {**label, "dimension": s.isometry.shape[1], "isometry": _Matrix(s.isometry)}


def report_payload(report) -> dict:
    """Canonical payload for every report type the CLI emits; matrices are
    _Matrix values, which _dumps writes as nested [re, im] pairs. The families
    and structure layers are imported only for reports no earlier type matches."""
    if isinstance(report, core.PModule):
        return _module_payload(report)
    if isinstance(report, core.ValidationReport):
        residual, tol = _round12(report.residual), _round12(report.tol)
        return {"type": "validation", "passed": report.passed, "residual": residual, "tol": tol}
    if isinstance(report, core.DualityReport):
        reals = ("quantum_dim", "zigzag_residual", "ev_residual", "coev_residual")
        payload = {name: _round12(getattr(report, name)) for name in reals}
        return {"type": "duality", "ev_factor": _pair(report.ev_factor), **payload}
    if isinstance(report, list) and report and all(isinstance(w, str) for w in report):
        return {"type": "prime-words", "count": len(report), "words": list(report)}
    from . import families  # already loaded by whatever built a families or structure report
    if isinstance(report, families.D2FuseReport):
        splits = [
            None if split is None else [{"a": _pair(s.a), "b": _pair(s.b)} for s in split]
            for split in report.scalar_splits
        ]
        blocks = [_module_payload(b) for b in report.blocks]
        return {"type": "d2-fusion", "blocks": blocks, "scalar_splits": splits}
    if isinstance(report, list) and report and isinstance(report[0], families.GPVector):
        vectors = [[[_pair(a), _pair(b)] for a, b in y.entries] for y in report]
        return {"type": "gp-fusion", "count": len(report), "vectors": vectors}
    from . import structure
    if isinstance(report, list) and (not report or isinstance(report[0], structure.AtomicSummand)):
        return {"type": "atomic-part", "summands": [_atomic_payload(s) for s in report]}
    if isinstance(report, structure.DecompositionReport):
        return {
            "type": "decomposition",
            "summands": [
                {
                    "dimension": s.dimension,
                    "tag": s.tag,
                    "label": None
                    if s.label is None
                    else {"word": s.label.word, "phase": _pair(s.label.phase)},
                    "isometry": _Matrix(s.isometry),
                }
                for s in report.summands
            ],
            "residual_dimension": report.residual_dimension,
            "p_dimension": report.p_dimension,
            "confidence": report.confidence,
            "seed": report.seed,
        }
    if isinstance(report, structure.ClassifyReport):
        return {
            "type": "classification",
            "diffuse_dim": report.diffuse_dim,
            "atomic_dim": report.atomic_dim,
            "residual_dim": report.residual_dim,
            "p_dimension": report.p_dimension,
            "confidence": report.confidence,
            "atomic": [_atomic_payload(s) for s in report.atomic],
        }
    if isinstance(report, structure.EquivalenceResult):
        verdict = "undecided" if report.verdict is None else report.verdict
        payload = {"type": "equivalence", "verdict": verdict, "reason": report.reason}
        if report.witness is not None:
            payload["witness"] = _Matrix(report.witness)
        return payload
    raise TypeError(f"no renderer for {type(report).__name__}")


def _text_lines(payload: dict, indent: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_text_lines(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}: ({len(value)})")
            for item in value:
                lines.extend(_text_lines(item, indent + "  "))
                lines.append(f"{indent}  -")
        else:
            lines.append(f"{indent}{key}: {_dumps(value, None)}")
    return lines


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _dumps(payload)
    if fmt == "text":
        return "\n".join(_text_lines(payload))
    raise ValueError(f"unknown format {fmt!r}")


def render_report(report, fmt: str = "text") -> str:
    """Render any report deterministically as stable JSON or readable text;
    a module renders as its module file."""
    return _render(report_payload(report), fmt)


def render_module(m: core.PModule, metadata: dict | None = None, fmt: str = "text") -> str:
    """Render a module (with optional metadata) in either report format."""
    return _render(_module_payload(m, metadata), fmt)
