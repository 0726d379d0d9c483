"""Constructors and closed-form fusion rules for the classified families.

GP modules are weighted cyclic shifts driven by a list of unit-sphere pairs.
Atomic modules are their 0/1-weight case: partial cyclic shifts along a prime
binary word, twisted by a unit phase on the last basis vector. D2 modules
are the diagonal / anti-diagonal 2x2 family. Each family comes with its
closed-form fusion rule; the generic product is cross-checked against these
in the tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import core
from . import linalg as la
from .errors import NotD2Shape, NotInvertible, NotPrime, TooLarge

_PHASE_TOL = 1e-6


def _least_rotation(word) -> int:
    """Start of the least rotation of a string or tuple (the first, on ties)."""
    return min(range(len(word)), key=lambda k: word[k:] + word[:k])


def canonical_rotation(word: str) -> str:
    k = _least_rotation(word)
    return word[k:] + word[:k]


def is_prime_word(word) -> bool:
    """True when the word (a string or tuple) is not a power of a strictly shorter word."""
    n = len(word)
    if n == 0:
        return False
    for p in range(1, n):
        if n % p == 0 and word == word[:p] * (n // p):
            return False
    return True


def lyndon_walk(max_len: int, grow, root):
    """Yield (word, state, is_lyndon) over binary prefixes of Lyndon words,
    depth first in lexicographic order, up to length max_len.

    A child digit may not be below the digit one period back; the period
    becomes the length when the digit is above it, and a word is Lyndon (the
    least rotation of a prime word) when its period equals its length
    (Fredricksen, Kessler & Maiorana; Duval 1983). ``grow(state, digit)``
    gives a child's state, or None to prune its subtree.
    """
    stack = [("", 1, root)]
    while stack:
        word, period, state = stack.pop()
        n = len(word)
        yield word, state, 0 < n == period
        if n < max_len:
            back = word[n - period] if n else "0"
            for digit in "10" if back == "0" else "1":  # "0" is popped first
                child = grow(state, digit)
                if child is not None:
                    stack.append((word + digit, period if digit == back else n + 1, child))


def prime_words(d: int) -> list[str]:
    """Canonical (lexicographically least rotation) prime binary words of length d.

    The words are counted first, from 2^k = sum over j | k of j L(j) (the
    necklace formula). When their strs and list slots would take more than
    linalg._SOLVE_CAP bytes, TooLarge is raised before the walk: length 28
    is listed, 29 refused. A length past the cap's bit length is refused
    uncounted: its over 2^(d-1) / d words of d letters alone pass the cap.
    """
    if d < 1:
        raise ValueError("word length must be positive")
    count: dict[int, int] = {}
    for k in range(1, min(d, la._SOLVE_CAP.bit_length()) + 1):
        count[k] = (2**k - sum(j * count[j] for j in count if k % j == 0)) // k
    if d not in count or count[d] * (sys.getsizeof("0" * d) + 8) > la._SOLVE_CAP:
        raise TooLarge(f"the prime words of length {d} would take more than the "
                       f"{la._SOLVE_CAP / 2**30:g} GiB allocation cap")
    walk = lyndon_walk(d, lambda state, digit: state, True)
    return [word for word, _, lyndon in walk if lyndon and len(word) == d]


@dataclass(frozen=True)
class AtomicLabel:
    """(prime binary word modulo rotation, unit phase) naming an atomic module.

    The word is stored as its lexicographically least rotation; the phase is
    the eigenvalue of the full word operator and is rotation-invariant.
    """

    word: str
    phase: complex = 1.0

    def __post_init__(self):
        if not self.word or set(self.word) - {"0", "1"}:
            raise ValueError(f"not a binary word: {self.word!r}")
        if not is_prime_word(self.word):
            raise NotPrime(f"word {self.word!r} is a power of a shorter word")
        if not abs(abs(self.phase) - 1.0) <= _PHASE_TOL:  # NaN fails too
            raise ValueError(f"phase must have unit modulus, got {self.phase!r}")
        object.__setattr__(self, "word", canonical_rotation(self.word))
        object.__setattr__(self, "phase", complex(self.phase))


def _weighted_shift(weights) -> core.PModule:
    """Legs e_k -> a_k e_{k+1} and e_k -> b_k e_{k+1} (indices mod d) for weights (a_k, b_k)."""
    d = len(weights)
    legs = np.zeros((2, d, d), dtype=np.complex128)
    k = np.arange(d)
    legs[:, (k + 1) % d, k] = np.array(weights, dtype=np.complex128).T
    return core.PModule(legs=tuple(legs))


def atomic_module(label: AtomicLabel) -> core.PModule:
    """Partial shift: the weighted shift with weights (1, 0) at digit 0 and
    (0, 1) at digit 1, the phase on the last position's nonzero weight."""
    weights = [(1.0, 0.0) if digit == "0" else (0.0, 1.0) for digit in label.word]
    weights[-1] = tuple(label.phase if w else w for w in weights[-1])
    return _weighted_shift(weights)


@dataclass(frozen=True)
class GPVector:
    """List of unit-sphere pairs (a_k, b_k) defining a weighted-shift module."""

    entries: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "entries",
            tuple((complex(a), complex(b)) for a, b in self.entries),
        )
        if not self.entries:
            raise ValueError("a GP vector needs at least one entry")
        defect = self.sphere_defect()
        if not defect <= 1e-6:
            raise ValueError(
                f"GP entries must satisfy |a|^2 + |b|^2 = 1 (defect {defect:.3e})"
            )

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def invertible(self) -> bool:
        return all(abs(a) > 1e-12 and abs(b) > 1e-12 for a, b in self.entries)

    def sphere_defect(self) -> float:
        return _sphere_defect(self.entries)


def _sphere_defect(entries) -> float:
    """max_k ||a_k|^2 + |b_k|^2 - 1|; inf when a square leaves the float range."""
    try:
        return max(abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) for a, b in entries)
    except OverflowError:
        return float("inf")


def gp_module(z: GPVector) -> core.PModule:
    """Weighted cyclic shift: first leg e_i -> a_i e_{i+1}, second e_i -> b_i e_{i+1}."""
    return _weighted_shift(z.entries)


def _entry_key(entry):
    a, b = entry
    return (
        round(a.real, 12),
        round(a.imag, 12),
        round(b.real, 12),
        round(b.imag, 12),
    )


def gp_canonical(z: GPVector) -> tuple[GPVector, bool]:
    """(least rotation under the entrywise total order, aperiodic flag)."""
    keys = tuple(map(_entry_key, z.entries))
    k = _least_rotation(keys)
    return GPVector(entries=z.entries[k:] + z.entries[:k]), is_prime_word(keys)


def gp_fuse(z: GPVector, zt: GPVector) -> list[GPVector]:
    """Closed-form fusion of two invertible GP vectors.

    Concatenate z up to length lcm, likewise zt, and for k = 0..hcf-1 take the
    entrywise scalar fusion of z-cycled with zt rotated left by k. Returns
    hcf(r, s) vectors of length lcm(r, s).
    """
    if not z.invertible or not zt.invertible:
        raise NotInvertible("gp_fuse needs invertible GP vectors")
    r, s = len(z), len(zt)
    l = math.lcm(r, s)
    h = math.gcd(r, s)
    out = []
    for k in range(h):
        entries = []
        for t in range(l):
            sa = core.ScalarModule(*z.entries[t % r])
            sb = core.ScalarModule(*zt.entries[(t + k) % s])
            fused = core.scalar_boxtimes(sa, sb)
            entries.append((fused.a, fused.b))
        out.append(GPVector(entries=tuple(entries)))
    return out


def atomic_diffuse_fuse(
    label: AtomicLabel, m_d: core.PModule, rtol: float = la.DEFAULT_RTOL
) -> list[AtomicLabel]:
    """Fusion of an atomic module with an invertible-leg module.

    The result is atomic with the same word; the phases are the input phase
    times the eigenvalues of V = V_{x_r} ... V_{x_1}, where V_A, V_B are the
    polar unitaries of the legs and x_k follows the word digits. One label
    per eigenvalue, with multiplicity, sorted by phase angle.
    """
    pa, pb = core._invertible_polars(m_d, "atomic_diffuse_fuse", rtol)
    v = core.word_operator(core.PModule._trusted((pa.unitary, pb.unitary)), label.word)
    phases, _ = la.unitary_eig(v)
    labels = [AtomicLabel(word=label.word, phase=phi * label.phase) for phi in phases]
    return sorted(labels, key=lambda lb: (np.angle(lb.phase), lb.phase.real))


@dataclass(frozen=True, eq=False)
class D2FuseReport:
    """Two 2x2 blocks of a D2 fusion, plus scalar splits where a block has
    equal diagonal entries (None for blocks that stay 2-dimensional)."""

    blocks: tuple
    scalar_splits: tuple = field(default=(None, None))


def _d2_entries(m: core.PModule, rtol: float):
    if m.arity != 2 or m.dim != 2:
        raise NotD2Shape("expected a two-leg 2x2 module")
    a, b = m.A, m.B
    off = max(abs(a[0, 1]), abs(a[1, 0]), abs(b[0, 0]), abs(b[1, 1]))
    if off > max(rtol, la.DEFAULT_RTOL):
        raise NotD2Shape("first leg must be diagonal and second anti-diagonal")
    a1, a2 = complex(a[0, 0]), complex(a[1, 1])
    b1, b2 = complex(b[1, 0]), complex(b[0, 1])
    if min(abs(a1), abs(a2), abs(b1), abs(b2)) <= max(rtol, la.DEFAULT_RTOL):
        raise NotD2Shape("all four scalar entries must be nonzero")
    return a1, a2, b1, b2


def _split_equal_diag(diag: complex, lower: complex, upper: complex):
    roots = np.sqrt(complex(lower * upper))
    betas = sorted([roots, -roots], key=lambda x: (round(x.real, 12), round(x.imag, 12)))
    return [core.ScalarModule(a=diag, b=beta) for beta in betas]


def d2_fuse(
    m: core.PModule, mt: core.PModule, rtol: float = la.DEFAULT_RTOL
) -> D2FuseReport:
    """Closed-form fusion of two D2 modules into two 2x2 blocks.

    Blocks live on span{e1 x e1, e2 x e2} and span{e1 x e2, e2 x e1} of the
    product carrier. A block with equal diagonal entries splits further into
    two scalar modules whose second coordinates are the square roots of the
    product of the block's anti-diagonal entries.
    """
    a1, a2, b1, b2 = _d2_entries(m, rtol)
    t1, t2, s1, s2 = _d2_entries(mt, rtol)

    def fused(ai, bi, tj, sj):
        k = 1.0 / math.sqrt(abs(ai * tj) ** 2 + abs(bi * sj) ** 2)
        return ai * tj * k, bi * sj * k

    a11, b11 = fused(a1, b1, t1, s1)
    a22, b22 = fused(a2, b2, t2, s2)
    a12, b12 = fused(a1, b1, t2, s2)
    a21, b21 = fused(a2, b2, t1, s1)
    block1 = core.PModule(
        legs=(np.diag([a11, a22]), np.array([[0.0, b22], [b11, 0.0]]))
    )
    block2 = core.PModule(
        legs=(np.diag([a12, a21]), np.array([[0.0, b21], [b12, 0.0]]))
    )
    splits = []
    for block in (block1, block2):
        d1, d2 = complex(block.A[0, 0]), complex(block.A[1, 1])
        if abs(d1 - d2) <= max(rtol, la.DEFAULT_RTOL):
            splits.append(_split_equal_diag(d1, complex(block.B[1, 0]), complex(block.B[0, 1])))
        else:
            splits.append(None)
    return D2FuseReport(blocks=(block1, block2), scalar_splits=tuple(splits))


def random_module(
    d: int,
    class_tag: str = "N",
    seed: int = 0,
    zero_eigenvalues: int = 0,
) -> core.PModule:
    """Seeded sampler for the normal-leg classes.

    The first leg is W diag(c) W* with a seeded unitary W and |c_i| in
    [0.05, 0.95]; the second is V sqrt(I - A*A) with an independent seeded
    unitary, hence invertible. class_tag "N" keeps the first leg invertible;
    "M" additionally allows forcing zero eigenvalues to hit the boundary of
    the class (zero_eigenvalues > 0 is rejected for "N").
    """
    if class_tag not in ("M", "N"):
        raise ValueError(f"unknown class tag {class_tag!r}")
    if d < 1:
        raise ValueError("dimension must be positive")
    if zero_eigenvalues and class_tag == "N":
        raise ValueError("class N requires an invertible first leg")
    if zero_eigenvalues < 0 or zero_eigenvalues >= d:
        raise ValueError("zero_eigenvalues must lie in [0, d)")
    rng = np.random.default_rng(seed)

    def seeded_unitary():
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return la.gram_schmidt(g)

    w = seeded_unitary()
    eps = 0.05
    moduli = eps + (1.0 - 2.0 * eps) * rng.random(d)
    phases = np.exp(2j * np.pi * rng.random(d))
    c = moduli * phases
    if zero_eigenvalues:
        c[:zero_eigenvalues] = 0.0
    a = (w * c) @ la.dagger(w)
    v = seeded_unitary()
    b = v @ la.psd_funcalc(np.eye(d, dtype=np.complex128) - la.dagger(a) @ a, "sqrt")
    return core.PModule(legs=(a, b))
