"""Pythagorean pairs of complex matrices.

Modules are tuples of square complex matrices (A, B, ...) with
sum_k legs[k]* legs[k] = I. The package provides the fusion product, duals
and duality checks, the scalar Lie group, the Kawamura arity-multiplying
product, structural analysis (atomic / diffuse / residual parts, full
decomposition, equivalence) and constructors with closed-form fusion rules
for the classified families, plus a JSON-file CLI (``pmod``).

Public names and submodules load on first use: ``pmod.boxtimes`` or ``from
pmod import boxtimes`` imports ``pmod.core`` (and what it imports), and
nothing imports the structure layer until a structural search is asked for.
"""

from . import _lazy

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    "core": (
        "DualityReport", "GroupCoords", "PModule", "ScalarModule", "ValidationReport",
        "boxtimes", "conjugate", "direct_sum", "dual_module", "duality_check",
        "flip_permutation", "in_class_m", "in_class_n", "kawamura_tensor", "scalar_boxtimes",
        "scalar_coords_iso", "scalar_coords_of", "scalar_inverse", "scalar_module", "star",
        "unit_module", "validate", "word_operator",
    ),
    "families": (
        "AtomicLabel", "D2FuseReport", "GPVector", "atomic_diffuse_fuse", "atomic_module",
        "d2_fuse", "gp_canonical", "gp_fuse", "gp_module", "prime_words", "random_module",
    ),
    "linalg": (
        "HermEig", "PolarPair", "commutation_kernel", "hermitian_eig", "kernel_basis", "kron",
        "polar", "psd_funcalc",
    ),
    "structure": (
        "AtomicSummand", "ClassifyReport", "CompletePart", "DecompositionReport",
        "EquivalenceResult", "atomic_part", "classify_parts", "complete_submodule",
        "decompose_full", "equivalent", "intertwiner_basis",
    ),
}
_HOME = {name: home for home, names in _HOMES.items() for name in names}
_SUBMODULES = ("cli", "core", "errors", "families", "fileio", "linalg", "structure")

__all__ = sorted(_HOME)

__getattr__, __dir__ = _lazy.hooks(__name__, _HOME, _SUBMODULES)
