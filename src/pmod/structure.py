"""Structural analysis: intertwiners, decomposition, equivalence, parts.

The complete part of a module is the smallest leg-invariant subspace whose
orthocomplement contains no nonzero leg-invariant subspace; its dimension is
the module's intrinsic dimension (invariant under the induced-representation
functors). There is no closed-form algorithm for it, so the search below
combines exact ingredients: atomic carriers found through norm-preservation
kernels along the prefixes of Lyndon words no longer than d, eigenvector
closures refined to minimal invariant subspaces, and a forced-completion
loop whose stopping certificate (largest invariant subspace inside the
orthocomplement, computed by kernel iteration) is exact. The ``confidence``
field reports when the result is certified versus heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from . import families
from . import linalg as la
from .errors import NotFullSuspected, ShapeMismatch

# Leg-invariance acceptance for emitted isometries.
_INV_TOL = 1e-8

# Diffuse certificate: restricted legs all below this norm certify at once;
# otherwise word branches are pruned once their restricted operator norm
# drops to it, and survivors at exhausted budget make the verdict heuristic.
_DECAY_PRUNE = 1.0 - 1e-7
_DECAY_DEPTH = 400
_DECAY_BREADTH = 512


# ---------------------------------------------------------------------------
# Intertwiners and invariant-subspace primitives.
# ---------------------------------------------------------------------------


def intertwiner_basis(
    m: core.PModule, mt: core.PModule, rtol: float = la.DEFAULT_RTOL
) -> list[np.ndarray]:
    """Orthonormal basis of {X : X leg_k(m) = leg_k(mt) X for all k}.

    Plain module maps: adjoint relations are not imposed.
    """
    if m.arity != mt.arity:
        raise ShapeMismatch("intertwiners need equal arity")
    pairs = [(mt.legs[k], m.legs[k]) for k in range(m.arity)]
    return la.commutation_kernel(pairs, rtol)


def _star_intertwiners(m: core.PModule, mt: core.PModule, rtol: float) -> list[np.ndarray]:
    """Orthonormal basis of Hom(m, mt) = {X : X L_k = Lt_k X, X L_k* = Lt_k* X}.

    Maps intertwining the *-algebras the legs generate; End(m) is
    Hom(m, m), the adjoint-closed commutant.
    """
    pairs = [(mt.legs[k], m.legs[k]) for k in range(m.arity)]
    pairs += [(la.dagger(y), la.dagger(x)) for y, x in pairs]
    return la.commutation_kernel(pairs, rtol)


def _invariance_defect(m: core.PModule, q: np.ndarray) -> float:
    """max_k ||(I - q q*) L_k q||_F: how far span(q) is from leg-invariant."""
    proj_out = np.eye(m.dim, dtype=np.complex128) - q @ la.dagger(q)
    return max(la.frobenius(proj_out @ leg @ q) for leg in m.legs)


def _stay_inside(m: core.PModule, q: np.ndarray, rtol: float) -> np.ndarray:
    """One step of invariance refinement: {v in span(q) : legs v in span(q)}."""
    d = m.dim
    proj_out = np.eye(d, dtype=np.complex128) - q @ la.dagger(q)
    stacked = np.vstack([proj_out @ leg @ q for leg in m.legs])
    coef = la.kernel_basis(stacked, rtol, scale=1.0)
    return q @ coef


def largest_invariant_in(
    m: core.PModule, q: np.ndarray, rtol: float = la.DEFAULT_RTOL
) -> np.ndarray:
    """Largest leg-invariant subspace contained in span(q) (orthonormal basis).

    Exact up to tolerance: iterates v -> {v : legs v stay} until stable.
    """
    cur = q
    while cur.shape[1]:
        nxt = _stay_inside(m, cur, rtol)
        if nxt.shape[1] == cur.shape[1]:
            return cur
        cur = nxt
    return cur


def closure(m: core.PModule, vectors: np.ndarray) -> np.ndarray:
    """Smallest leg-invariant subspace containing the given vectors."""
    q = la.gram_schmidt(vectors)
    frontier = q
    while frontier.shape[1]:
        images = np.hstack([leg @ frontier for leg in m.legs])
        added = la.gram_schmidt(images, against=q)
        if added.shape[1] == 0:
            break
        q = np.column_stack([q, added])
        frontier = added
    return q


def _restricted_module(m: core.PModule, q: np.ndarray) -> core.PModule:
    qd = la.dagger(q)
    return core.PModule(legs=tuple(qd @ leg @ q for leg in m.legs))


def _minimal_invariant_from(m: core.PModule, seed: np.ndarray) -> np.ndarray:
    """Refine the closure of a seed vector to a minimal invariant subspace.

    Eigenvector closures of the legs restricted to the current closure are
    tried, in its own coordinates (so each stops once it fills it), for a
    strictly smaller invariant subspace until none is found.
    """
    cur = closure(m, seed)
    improved = True
    while improved and cur.shape[1] > 1:
        improved = False
        sub = _restricted_module(m, cur)
        for leg_r in sub.legs:
            try:
                _, vecs = la.eig_general(leg_r)
            except la.NoConvergence:
                continue
            for j in range(vecs.shape[1]):
                cand = closure(sub, vecs[:, j])
                if 0 < cand.shape[1] < cur.shape[1]:
                    cur = cur @ cand
                    improved = True
                    break
            if improved:
                break
    return cur


# ---------------------------------------------------------------------------
# Atomic part: norm-preservation tree over prime words.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AtomicSummand:
    label: families.AtomicLabel
    isometry: np.ndarray


def _norm_preserving_coefficients(pq: np.ndarray, rtol: float) -> np.ndarray:
    """Coefficients c with ||pq c|| = ||c||, i.e. kernel of I - (pq)*(pq)."""
    gram = la.dagger(pq) @ pq
    defect = np.eye(gram.shape[0], dtype=np.complex128) - gram
    return la.kernel_basis(defect, rtol, scale=1.0)


def atomic_part(
    m: core.PModule, max_len: int | None = None, rtol: float = la.DEFAULT_RTOL
) -> list[AtomicSummand]:
    """Atomic summands: carriers on which some periodic word acts isometrically.

    Walks the prefixes of Lyndon words (``families.lyndon_walk``) keeping,
    at each node, the subspace on which every prefix of the word preserves
    the norm, and its image under the prefix; a branch dies with that
    subspace. At Lyndon words (least rotations of prime words) the subspace
    is stabilized under the word operator, which acts on it unitarily; its
    eigenvectors generate the carriers, one summand per unit-modulus
    eigenvalue with multiplicity. An orbit spans at most d dimensions, so
    the walk stops at length min(max_len, d): a larger max_len changes
    nothing.
    """
    if m.arity != 2:
        raise core.ArityUnsupported("atomic_part is defined for two-leg modules")
    d = m.dim
    depth = d if max_len is None else min(max_len, d)
    claimed = np.zeros((d, 0), dtype=np.complex128)
    found: list[AtomicSummand] = []
    eye = np.eye(d, dtype=np.complex128)

    def grow(state, digit):
        # State (q, prefix @ q): the norm-preserved subspace and its image.
        q, pq = state
        child = m.legs[int(digit)] @ pq
        coef = _norm_preserving_coefficients(child, rtol)
        return (q @ coef, child @ coef) if coef.shape[1] else None

    for word, (stable, ps), lyndon in families.lyndon_walk(depth, grow, (eye, eye)):
        if not lyndon:
            continue
        while stable.shape[1]:
            # Keep directions whose image under the word operator stays
            # inside (the word acts invertibly on the limit subspace).
            resid = ps - stable @ (la.dagger(stable) @ ps)
            coef = la.kernel_basis(resid, rtol, scale=1.0)
            if coef.shape[1] == stable.shape[1]:
                break
            stable = stable @ coef
            # Recomputed from the word operator, so every pass rounds alike.
            ps = core.word_operator(m, word) @ stable
        if not stable.shape[1]:
            continue
        phases, vecs = la.unitary_eig(la.dagger(stable) @ ps, rtol)
        for j in range(vecs.shape[1]):
            eta = stable @ vecs[:, j]
            if np.linalg.norm(eta - claimed @ (la.dagger(claimed) @ eta)) < 0.5:
                continue  # carrier already claimed at this word
            orbit = [eta]
            for digit in word[:-1]:
                orbit.append(m.legs[int(digit)] @ orbit[-1])
            carrier = la.gram_schmidt(np.column_stack(orbit))
            if carrier.shape[1] != len(word) or _invariance_defect(m, carrier) > _INV_TOL:
                continue
            label = families.AtomicLabel(word=word, phase=complex(phases[j]))
            found.append(AtomicSummand(label=label, isometry=carrier))
            claimed = np.column_stack([claimed, la.gram_schmidt(carrier, against=claimed)])
    found.sort(key=lambda s: (len(s.label.word), s.label.word, np.angle(s.label.phase)))
    return found


# ---------------------------------------------------------------------------
# Complete part and classification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompletePart:
    isometry: np.ndarray
    p_dimension: int
    confidence: str  # "certified" | "heuristic"


def complete_submodule(
    m: core.PModule,
    max_len: int | None = None,
    rtol: float = la.DEFAULT_RTOL,
    use_class_shortcut: bool = True,
) -> CompletePart:
    """Smallest complete submodule (isometry, dimension, confidence).

    Modules with a normal first leg and invertible second leg are full, so
    the whole carrier is returned directly. Otherwise the candidate is grown
    from atomic carriers and minimal eigenvector closures, then forced to
    completeness: while the orthocomplement still contains an invariant
    subspace, a minimal invariant inside it is added. The final state always
    satisfies the exact completeness certificate; "certified" additionally
    requires the smallest-candidate evidence (class shortcut, whole carrier,
    or all pieces one-dimensional) and no remainder added whole because its
    minimal piece fell inside the candidate.
    """
    return _complete_and_atoms(m, max_len, rtol, use_class_shortcut)[0]


def _complete_and_atoms(
    m: core.PModule, max_len: int | None, rtol: float, use_class_shortcut: bool
) -> tuple[CompletePart, list[AtomicSummand] | None]:
    """complete_submodule's search, plus the atomic part it computed on the
    way (None when the class shortcut returned before computing it)."""
    if m.arity != 2:
        raise core.ArityUnsupported("complete_submodule is defined for two-leg modules")
    d = m.dim
    if use_class_shortcut and core.in_class_m(m, rtol):
        return CompletePart(np.eye(d, dtype=np.complex128), d, "certified"), None

    atoms = atomic_part(m, max_len, rtol)
    # Atomic carriers are exact; every other piece must be one-dimensional
    # for the final candidate to count as certified smallest.
    exact_dim = sum(s.isometry.shape[1] for s in atoms)
    pieces: list[np.ndarray] = []
    v = la.gram_schmidt(np.hstack([np.zeros((d, 0))] + [s.isometry for s in atoms]))

    # Seed minimal invariant subspaces from eigenvectors of short words.
    seeds: list[np.ndarray] = []
    for word in ("0", "1", "00", "01", "10", "11"):
        try:
            _, vecs = la.eig_general(core.word_operator(m, word))
        except la.NoConvergence:
            continue
        seeds.extend(vecs[:, j] for j in range(vecs.shape[1]))
    for seed in seeds:
        if np.linalg.norm(seed - v @ (la.dagger(v) @ seed)) < 1e-7:
            continue
        piece = _minimal_invariant_from(m, seed)
        pieces.append(piece)
        v = np.column_stack([v, la.gram_schmidt(piece, against=v)])

    # Forced completion: exact certificate drives the loop.
    stalled = False
    while True:
        comp = la.complete_basis(v, d)
        if comp.shape[1] == 0:
            break
        rem = largest_invariant_in(m, comp, rtol)
        if rem.shape[1] == 0:
            break
        try:
            _, vecs = la.eig_general(la.dagger(rem) @ m.A @ rem)
            seed = rem @ vecs[:, 0]
        except la.NoConvergence:
            seed = rem[:, 0]
        piece = _minimal_invariant_from(m, seed)
        added = la.gram_schmidt(piece, against=v)
        if added.shape[1] == 0:
            # The piece fell inside v; rem, in the complement, ends the loop.
            piece = added = rem
            stalled = True
        pieces.append(piece)
        v = np.column_stack([v, added])

    smallest = v.shape[1] in (d, exact_dim) or all(p.shape[1] == 1 for p in pieces)
    confidence = "certified" if smallest and not stalled else "heuristic"
    return CompletePart(isometry=v, p_dimension=v.shape[1], confidence=confidence), atoms


def _diffuse_certificate(m: core.PModule, q: np.ndarray) -> bool:
    """Certify that every word operator decays to zero on span(q).

    First tries the strict-contraction test on the restricted legs; otherwise
    walks the word tree pruning branches whose restricted operator norm fell
    below the unit threshold. True only when all branches die within budget.
    """
    if q.shape[1] == 0:
        return True
    legs_r = _restricted_module(m, q).legs
    norms = [la.spectral_norm(leg) for leg in legs_r]
    if max(norms) < _DECAY_PRUNE:
        return True
    level = [np.eye(q.shape[1], dtype=np.complex128)]
    for _ in range(_DECAY_DEPTH):
        nxt = []
        for w in level:
            for leg in legs_r:
                cand = leg @ w
                if la.spectral_norm(cand) > _DECAY_PRUNE:
                    nxt.append(cand)
        if not nxt:
            return True
        if len(nxt) > _DECAY_BREADTH:
            return False
        level = nxt
    return False


@dataclass(frozen=True, eq=False)
class ClassifyReport:
    diffuse_dim: int
    atomic_dim: int
    residual_dim: int
    p_dimension: int
    confidence: str
    atomic: tuple[AtomicSummand, ...]
    diffuse_isometry: np.ndarray


def classify_parts(
    m: core.PModule, rtol: float = la.DEFAULT_RTOL, max_len: int | None = None
) -> ClassifyReport:
    """Split the carrier into atomic, diffuse and residual dimensions.

    The diffuse candidate is the orthocomplement of the atomic span inside
    the complete part; it counts as certified diffuse when it is
    leg-invariant and passes the decay certificate.
    """
    comp, atoms = _complete_and_atoms(m, max_len, rtol, use_class_shortcut=True)
    if atoms is None:
        atoms = atomic_part(m, max_len, rtol)
    v = comp.isometry
    if atoms:
        c = np.hstack([s.isometry for s in atoms])
        coef = la.kernel_basis(la.dagger(c) @ v, rtol, scale=1.0)
        diffuse = v @ coef
    else:
        diffuse = v
    atomic_dim = sum(s.isometry.shape[1] for s in atoms)
    diffuse_dim = diffuse.shape[1]
    residual = m.dim - comp.p_dimension

    confidence = comp.confidence
    if diffuse_dim and (
        _invariance_defect(m, diffuse) > _INV_TOL or not _diffuse_certificate(m, diffuse)
    ):
        confidence = "heuristic"
    return ClassifyReport(
        diffuse_dim=diffuse_dim,
        atomic_dim=atomic_dim,
        residual_dim=residual,
        p_dimension=comp.p_dimension,
        confidence=confidence,
        atomic=tuple(atoms),
        diffuse_isometry=diffuse,
    )


# ---------------------------------------------------------------------------
# Full decomposition through the adjoint-closed commutant.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Summand:
    isometry: np.ndarray
    dimension: int
    tag: str  # "atomic" | "diffuse" | "unknown"
    label: families.AtomicLabel | None


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    summands: tuple[Summand, ...]
    residual_dimension: int
    p_dimension: int
    confidence: str
    seed: int


def _trace_key(m: core.PModule) -> tuple:
    """Traces of the leg words of length 1 and 2, tr L_i then tr L_j L_i
    (i outer), rounded to 6 digits.

    Unitary equivalence preserves every entry, so equivalent summands get
    equal keys.
    """
    ops = [*m.legs, *(lj @ li for li in m.legs for lj in m.legs)]
    traces = np.array([np.trace(op) for op in ops], dtype=np.complex128)
    return tuple((round(t.real, 6), round(t.imag, 6)) for t in traces)


def decompose_full(
    m: core.PModule, rtol: float = la.DEFAULT_RTOL, seed: int = 0
) -> DecompositionReport:
    """Orthogonal decomposition of a full module into irreducible summands.

    The adjoint-closed commutant is computed (legal for full modules, whose
    plain intertwiners intertwine adjoints too); spectral projections of a
    seeded random Hermitian commutant element split the carrier and the
    split recurses until the commutant is trivial. Every produced subspace
    is checked for leg-invariance; a failure raises NotFullSuspected, which
    is the symptom of a non-full input.
    """
    rng = np.random.default_rng(seed)
    d = m.dim
    eye = np.eye(d, dtype=np.complex128)
    certified = True

    def split(q: np.ndarray) -> list[tuple[np.ndarray, core.PModule]]:
        """Irreducible blocks of span(q), each with its restricted module."""
        nonlocal certified
        sub = _restricted_module(m, q)
        basis = _star_intertwiners(sub, sub, rtol)
        if len(basis) <= 1:
            return [(q, sub)]
        h = None
        for _ in range(3):
            coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            y = sum(c * x for c, x in zip(coeffs, basis))
            cand = (y + la.dagger(y)) / 2.0
            if la.frobenius(cand) < 1e-12:
                cand = (y - la.dagger(y)) / 2.0j
            eig = la.hermitian_eig(cand, rtol)
            runs = la.cluster_runs(eig.values)
            if len(runs) > 1:
                h = (eig, runs)
                break
        if h is None:
            certified = False
            return [(q, sub)]
        eig, runs = h
        out = []
        for start, stop in runs:
            qc = q @ eig.vectors[:, start:stop]
            inv = _invariance_defect(m, qc)
            if inv > _INV_TOL:
                raise NotFullSuspected(
                    f"commutant eigenspace is not leg-invariant (defect {inv:.3e}); "
                    "the module may not be full"
                )
            out.extend(split(qc))
        return out

    blocks = split(eye)
    blocks.sort(key=lambda block: (block[0].shape[1], _trace_key(block[1])))
    summands = []
    for q, sub in blocks:
        k = q.shape[1]
        tag = "unknown"
        label = None
        atoms = atomic_part(sub, rtol=rtol) if sub.arity == 2 else []
        if atoms and sum(s.isometry.shape[1] for s in atoms) == k:
            tag = "atomic"
            if len(atoms) == 1:
                label = atoms[0].label
        elif not atoms and _diffuse_certificate(sub, np.eye(k, dtype=np.complex128)):
            tag = "diffuse"
        summands.append(
            Summand(isometry=q, dimension=k, tag=tag, label=label)
        )
    return DecompositionReport(
        summands=tuple(summands),
        residual_dimension=0,
        p_dimension=d,
        confidence="certified" if certified else "heuristic",
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Equivalence.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EquivalenceResult:
    verdict: bool | None  # None = undecided
    witness: np.ndarray | None
    reason: str

    def __bool__(self) -> bool:
        return self.verdict is True


def _verify_witness(
    m: core.PModule, mt: core.PModule, u: np.ndarray, rtol: float
) -> bool:
    if la.frobenius(u @ la.dagger(u) - np.eye(u.shape[0])) > 1e-7:
        return False
    defect = max(
        la.frobenius(u @ m.legs[k] @ la.dagger(u) - mt.legs[k])
        for k in range(m.arity)
    )
    return defect <= max(1e-7, rtol * 10)


def equivalent(
    m: core.PModule,
    mt: core.PModule,
    rtol: float = la.DEFAULT_RTOL,
    seed: int = 0,
) -> EquivalenceResult:
    """Unitary-equivalence test with verdicts true / false / undecided.

    Unitary equivalence is equivalence of the *-representations the legs
    generate. With irreducible multiplicities n_i in m and n'_i in mt,
    dim Hom(m, mt) = sum n_i n'_i, dim End(m) = sum n_i^2 and dim End(mt) =
    sum n'_i^2, so by Cauchy-Schwarz m and mt are equivalent exactly when
    the three dimensions agree. Then a generic element of Hom(m, mt) is
    invertible and the unitary factor of its polar decomposition is a
    witness. "true" is returned only with that factor, for a seeded random
    element of one *-intertwiner solve, verified; an empty Hom, or one whose
    dimension differs from dim End(m) or dim End(mt), gives "false"; agreeing
    dimensions without a verified witness leave the verdict undecided.
    """
    if m.arity != mt.arity:
        return EquivalenceResult(False, None, "arity mismatch")
    if m.dim != mt.dim:
        return EquivalenceResult(False, None, "dimension mismatch")
    hom = _star_intertwiners(m, mt, rtol)
    if not hom:
        return EquivalenceResult(False, None, "no *-intertwiner")
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(len(hom)) + 1j * rng.standard_normal(len(hom))
    u = la.polar(sum(c * x for c, x in zip(coeffs, hom))).unitary
    if _verify_witness(m, mt, u, rtol):
        return EquivalenceResult(True, u, "polar factor of a *-intertwiner")
    ends = (len(_star_intertwiners(m, m, rtol)), len(_star_intertwiners(mt, mt, rtol)))
    if ends != (len(hom), len(hom)):
        return EquivalenceResult(
            False, None, f"dim Hom {len(hom)} differs from dim End {ends[0]}, {ends[1]}"
        )
    return EquivalenceResult(None, None, "commutant dimensions agree, witness failed")
