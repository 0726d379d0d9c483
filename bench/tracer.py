"""Outside-in span tracer for the pmod benchmark.

The tracer replaces chosen module attributes of the pmod layers with timing
wrappers, so nothing under ``src/`` is edited. Calls made through a module
attribute (``la.kernel_basis(...)`` from ``structure``, ``kernel_basis(...)``
from inside ``linalg``, ``structure.decompose_full(...)`` from ``cli``) all
resolve to the wrapper, which records one span per call:
``[name, start, end, parent, case, extra]``. ``parent`` is the index of the
enclosing span (-1 at the top), ``case`` the benchmark case id, ``extra`` a
size count for a few boundaries. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# The wrapped boundaries, per layer (the package modules).
LAYERS = {
    "linalg": (
        "hermitian_eig", "psd_funcalc", "polar", "gram_schmidt", "complete_basis",
        "kernel_basis", "commutation_kernel", "commuting_hermitian_eig",
        "unitary_eig", "eig_general", "singular_extremes",
    ),
    "core": (
        "validate", "boxtimes", "star", "direct_sum", "dual_module", "duality_check",
        "kawamura_tensor", "conjugate", "word_operator", "in_class_m", "in_class_n",
    ),
    "structure": (
        "intertwiner_basis", "largest_invariant_in", "closure", "atomic_part",
        "complete_submodule", "classify_parts", "decompose_full", "equivalent",
    ),
    "fileio": (
        "parse_module_file", "serialize_module", "parse_gp_vector", "report_payload",
        "render_report", "render_module",
    ),
    "cli": ("main",),
}


def _system_entries(args, kwargs, out) -> int:
    # Rows x cols of the stacked (k*p*q) x (p*q) commutation system.
    pairs = args[0] if args else kwargs["pairs"]
    p, q = pairs[0][0].shape[0], pairs[0][1].shape[0]
    return len(pairs) * (p * q) ** 2


# Size counts recorded in a span's ``extra`` field.
EXTRA = {
    "linalg.hermitian_eig": lambda a, k, out: (a[0] if a else k["m"]).shape[0] ** 3,
    "linalg.commutation_kernel": _system_entries,
    "fileio.parse_module_file": lambda a, k, out: len((a[0] if a else k["text"]).encode()),
    "fileio.serialize_module": lambda a, k, out: len(out.encode()),
}


class Tracer:
    """Installs span-recording wrappers on the pmod layer modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.case: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self._stack, EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.case, 0]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            return out

        return traced

    def install(self, pm) -> None:
        for layer, names in LAYERS.items():
            module = getattr(pm, layer)
            for fname in names:
                fn = getattr(module, fname)
                self._saved.append((module, fname, fn))
                setattr(module, fname, self._wrap(f"{layer}.{fname}", fn))

    def uninstall(self) -> None:
        for module, fname, fn in reversed(self._saved):
            setattr(module, fname, fn)
        self._saved.clear()

    def merge(self, child_spans: list[list]) -> None:
        """Append spans recorded by a child process, re-indexing parents."""
        base = len(self.spans)
        for name, start, end, parent, case, extra in child_spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, case, extra])


def self_times(spans: list[list], first: int = 0) -> list[float]:
    """Self time of each span of spans[first:]."""
    own = [end - start for _, start, end, _, _, _ in spans[first:]]
    for _, start, end, parent, _, _ in spans[first:]:
        if parent >= first:
            own[parent - first] -= end - start
    return own


def case_layers(spans: list[list], first: int = 0) -> dict[str, dict[str, float]]:
    """Self time per case and layer over spans[first:]."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans[first:], self_times(spans, first)):
        out[span[4]][span[0].split(".")[0]] += own
    return {case: dict(layers) for case, layers in out.items()}


def aggregate(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of spans[first:] (one pass), by the names in BENCHMARK.json."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    extra: dict[str, int] = defaultdict(int)
    fallbacks = 0
    atomic_in_classify = 0
    for sid, own in enumerate(self_times(spans, first), first):
        name, _, _, parent, _, ext = spans[sid]
        calls[name] += 1
        self_s[name] += own
        extra[name] += ext
        if name == "linalg.kernel_basis" and parent >= first and spans[parent][0] == "linalg.commutation_kernel":
            fallbacks += 1
        if name == "structure.atomic_part":
            up = parent
            while up >= first and spans[up][0] != "structure.classify_parts":
                up = spans[up][3]
            atomic_in_classify += up >= first

    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        out[f"{layer}.self_s"] = sum(self_s[f"{layer}.{n}"] for n in names)
    for name in (
        "linalg.hermitian_eig", "linalg.commutation_kernel", "linalg.kernel_basis",
        "linalg.eig_general", "linalg.gram_schmidt", "core.boxtimes",
        "structure.atomic_part", "structure.equivalent", "structure.decompose_full",
    ):
        out[f"{name}.calls"] = calls[name]
    for name in (
        "linalg.hermitian_eig", "linalg.polar", "linalg.psd_funcalc",
        "linalg.commutation_kernel", "linalg.kernel_basis", "linalg.eig_general",
        "linalg.gram_schmidt", "core.boxtimes", "core.dual_module", "core.duality_check",
        "structure.atomic_part", "structure.complete_submodule", "structure.decompose_full",
        "fileio.parse_module_file", "fileio.serialize_module", "fileio.render_report",
        "cli.main",
    ):
        out[f"{name}.self_s"] = self_s[name]
    out["linalg.hermitian_eig.n3"] = extra["linalg.hermitian_eig"]
    out["linalg.commutation_kernel.system_entries"] = extra["linalg.commutation_kernel"]
    out["linalg.commutation_kernel.fallbacks"] = fallbacks
    out["fileio.parse_module_file.bytes"] = extra["fileio.parse_module_file"]
    out["fileio.serialize_module.bytes"] = extra["fileio.serialize_module"]
    classify = calls["structure.classify_parts"]
    out["structure.atomic_part.per_classify"] = atomic_in_classify / classify if classify else 0.0
    return out
