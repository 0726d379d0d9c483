"""Structural analysis: intertwiners, decomposition, equivalence, parts.

The complete part (the smallest leg-invariant subspace whose complement
holds no nonzero leg-invariant subspace; its dimension is the intrinsic
dimension) has no closed form, so its search combines atomic carriers, from
norm-preservation kernels along Lyndon-word prefixes no longer than d, with
a forced completion on spins (closures under the legs or their adjoints),
stopped by the complement of an adjoint spin and cut by Norton's test.
Decomposition and equivalence read *-invariant blocks off one seeded
probe's eigenbasis: components of its eigenvalue clusters under the rotated
legs' couplings, turned along a maximum spanning forest so that copies of
one irreducible separate and two modules' turned bases give the witness.
The ``confidence`` field reports certified versus heuristic results.
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

# K: a cut of the probe eigenbasis couplings certifies only at this margin.
_MARGIN = 1e3

# A spin keeps a residual direction whose singular value exceeds this.
_SPIN_CUT = 1e-7

# Diffuse certificate: word branches are pruned once their restricted
# operator norm drops to this, and survivors at exhausted budget make the
# verdict heuristic.
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


def _invariance_defect(m: core.PModule, q: np.ndarray) -> float:
    """max_k ||(I - q q*) L_k q||_F: how far span(q) is from leg-invariant."""
    return max(la.frobenius(x - q @ (la.dagger(q) @ x)) for x in (leg @ q for leg in m.legs))


def largest_invariant_in(m: core.PModule, q: np.ndarray) -> np.ndarray:
    """Largest leg-invariant subspace contained in span(q) (orthonormal basis).

    X inside span(q) is leg-invariant iff X^perp, which holds span(q)^perp,
    is invariant under the adjoints; so X is the orthocomplement of the
    spin of span(q)^perp under the adjoint legs.
    """
    outside = la.complete_basis(q, m.dim)
    adjoints = [la.dagger(leg) for leg in m.legs]
    return la.complete_basis(_spin(adjoints, outside, np.zeros((m.dim, 0))), m.dim)


def _spin(ops, start: np.ndarray, done: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the closure of span(start) under ops, grown
    orthogonally to span(done): each round maps the frontier through all ops
    in one stacked matmul, projects the images twice off the basis and keeps
    the left singular vectors clearing the absolute cut _SPIN_CUT (ops are
    contractions, the frontier orthonormal)."""
    d, n = start.shape[0], len(ops)
    stacked, q, frontier = np.vstack(ops), np.column_stack([done, start]), start
    while frontier.shape[1] and q.shape[1] < d:
        images = (stacked @ frontier).reshape(n, d, -1).transpose(1, 0, 2).reshape(d, -1)
        for _ in range(2):
            images = images - q @ (la.dagger(q) @ images)
        if la.frobenius(images) <= _SPIN_CUT:
            break
        u, sigma, _ = la.thin_svd(images)
        frontier = u[:, sigma > _SPIN_CUT]
        q = np.column_stack([q, frontier])
    return q[:, done.shape[1]:]


def closure(m: core.PModule, vectors: np.ndarray) -> np.ndarray:
    """Smallest leg-invariant subspace containing the given vectors."""
    return _spin(m.legs, la.gram_schmidt(vectors), np.zeros((m.dim, 0)))


def _restricted_module(m: core.PModule, q: np.ndarray) -> core.PModule:
    qd = la.dagger(q)
    return core.PModule._trusted(qd @ leg @ q for leg in m.legs)


def _minimal_invariant_from(m: core.PModule, seed: np.ndarray) -> np.ndarray:
    """A minimal leg-invariant subspace inside the closure W of a seed vector.

    Norton's test, with theta = c0 L0 + c1 L1 + c2 L0 L1 on W (real c from
    default_rng(0)) and an eigenvalue lam of it: a proper invariant U of W
    holds the kernel vector v of theta - lam (lam an eigenvalue on U), or
    U^perp holds the cokernel vector w (lam one on W/U). So a proper leg
    spin of v, or the complement in W of a proper adjoint spin of w, shrinks
    W; when both fill W and the kernel is one-dimensional (second smallest
    singular value above _SPIN_CUT), W is irreducible. After three draws on
    one W without a verdict, or on a LAPACK failure, W is returned as is.
    """
    rng = np.random.default_rng(0)
    cur, draws = closure(m, seed), 0
    while cur.shape[1] > 1 and draws < 3:
        k, (a, b) = cur.shape[1], _restricted_module(m, cur).legs
        c = rng.standard_normal(3)
        theta = c[0] * a + c[1] * b + c[2] * (a @ b)
        try:
            lam = np.linalg.eigvals(theta)[0]
            u, sigma, vh = la.thin_svd(theta - lam * np.eye(k))
        except (np.linalg.LinAlgError, la.NoConvergence):
            return cur
        empty = np.zeros((k, 0))
        inside = _spin((a, b), la.dagger(vh[-1:]), empty)
        if inside.shape[1] == k:
            outside = _spin((la.dagger(a), la.dagger(b)), u[:, -1:], empty)
            inside = la.complete_basis(outside, k)
        if 0 < inside.shape[1] < k:
            cur, draws = cur @ inside, 0
        elif sigma[-2] > _SPIN_CUT:
            return cur
        else:
            draws += 1
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
    the whole carrier is returned directly. Otherwise the candidate starts
    from the atomic carriers and is forced to completeness: while the
    orthocomplement holds an invariant subspace (``largest_invariant_in``,
    the complement of the candidate's adjoint spin), the minimal invariant
    subspace Norton's test finds in the closure of its first basis vector
    is added. The final state satisfies the completeness certificate at the
    spin cut; "certified" also requires the smallest-candidate evidence
    (class shortcut, whole carrier, or all pieces one-dimensional) and no
    remainder added whole because its minimal piece fell in the candidate.
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

    # Forced completion: the certificate drives the loop.
    stalled = False
    while True:
        comp = la.complete_basis(v, d)
        if comp.shape[1] == 0:
            break
        rem = largest_invariant_in(m, comp)
        if rem.shape[1] == 0:
            break
        piece = _minimal_invariant_from(m, rem[:, 0])
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

    Walks the word tree pruning branches whose restricted operator norm fell
    to the unit threshold (its first level tests the restricted legs
    themselves). True only when all branches die within budget.
    """
    if q.shape[1] == 0:
        return True
    legs_r = _restricted_module(m, q).legs
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
# Full decomposition from the probe's eigenbasis.
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
    (i outer, j >= i: tr L_i L_j = tr L_j L_i), rounded to 6 digits.

    Unitary equivalence preserves every entry, so equivalent summands get
    equal keys.
    """
    ops = [*m.legs, *(lj @ li for i, li in enumerate(m.legs) for lj in m.legs[i:])]
    traces = np.array([np.trace(op) for op in ops], dtype=np.complex128)
    return tuple((round(t.real, 6), round(t.imag, 6)) for t in traces)


def _probe(m: core.PModule, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(c, h): h = x + x*, x = sum_k c_k L_k + c' L_0 L_{n-1} (c' = c[-1])
    with c complex Gaussian from rng, a Hermitian element of the *-algebra
    the legs generate."""
    c = rng.standard_normal(m.arity + 1) + 1j * rng.standard_normal(m.arity + 1)
    x = sum(ck * leg for ck, leg in zip(c, m.legs)) + c[-1] * (m.legs[0] @ m.legs[-1])
    return c, x + la.dagger(x)


def _frame(m: core.PModule, eig: la.HermEig, forest: tuple | None = None) -> tuple:
    """(frame, forest, smin): h's eigenbasis V turned along a maximum spanning
    forest (runs, order, parent, edge, cut, margin) of its eigenvalue
    clusters, m's own unless given. Clusters couple by the largest entry of
    their block in any R_k = V* L_k V or R_k*. Prim's algorithm grows the
    tree (``order``: parents first); edges below the cut, the widest log-gap
    of its weights between the rounding floor d eps and the largest
    coupling, are dropped (parent -1), so each tree is a component,
    contiguous in ``order``; margin is the gap's ratio. A child cluster of
    its parent's size is turned by the polar factor of its block in edge[j],
    the R_k or R_k* where it is largest, making it positive (smin: its
    smallest singular value). Across copies of one irreducible the blocks
    become multiples of I, so copy i is column i of every cluster.
    """
    rot, n = _restricted_module(m, eig.vectors).legs, m.arity
    if forest is None:
        runs = la.cluster_runs(eig.values)
        c, starts = len(runs), [a for a, _ in runs]
        mags = np.maximum.reduceat(np.maximum.reduceat(np.abs(np.stack(rot)), starts, 1), starts, 2)
        w = np.maximum(mags.max(axis=0), mags.max(axis=0).T)
        parent, weight, order, reach = np.full(c, -1), np.zeros(c), [], w.copy()
        best, src = np.full(c, -1.0), np.full(c, -1)
        for _ in range(c):  # a cluster in the tree is out of reach: best and column -inf
            j = int(best.argmax())
            parent[j], weight[j], best[j], reach[:, j] = src[j], best[j], -np.inf, -np.inf
            order.append(j)
            closer = reach[j] > best
            best[closer], src[closer] = reach[j][closer], j
        edge = np.concatenate([mags[:, parent, range(c)], mags[:, range(c), parent]]).argmax(axis=0)
        lo = max(m.dim, 1) * np.finfo(float).eps  # rounding floor; the largest coupling caps the cut
        top = w.max(initial=lo)
        pts = np.clip(np.concatenate([[lo], np.sort(weight[order[1:]]), [top]]), lo, top)
        i = int(np.argmax(np.diff(np.log(pts))))
        cut = float(np.sqrt(pts[i] * pts[i + 1]))
        parent[weight < cut] = -1
        forest = (runs, order, parent, edge, cut, float(pts[i + 1] / pts[i]))
    runs, order, parent, edge = forest[:4]
    sizes = np.array([b - a for a, b in runs])
    kids = [j for j in order if parent[j] >= 0 and sizes[j] == sizes[parent[j]]]
    eye, smin = np.eye(sizes.max(initial=0), dtype=np.complex128), np.full(len(runs), np.inf)
    turns = [eye[:k, :k] for k in sizes]
    for k in {sizes[j] for j in kids}:  # one batched SVD per cluster size
        batch = [j for j in kids if sizes[j] == k]
        ends = [(slice(*runs[parent[j]]), slice(*runs[j]), edge[j]) for j in batch]
        blocks = [rot[e][a, b] if e < n else la.dagger(rot[e - n][b, a]) for a, b, e in ends]
        u, sigma, vh = np.linalg.svd(np.stack(blocks))
        smin[batch] = sigma[:, -1]
        for j, turn in zip(batch, np.conj(u @ vh).transpose(0, 2, 1)):
            turns[j] = turn
    for j in kids:
        turns[j] = turns[j] @ turns[parent[j]]
    parts = [eig.vectors[:, a:b] @ t for (a, b), t in zip(runs, turns)]
    return np.hstack([eig.vectors[:, :0], *parts]), forest, smin


def decompose_full(
    m: core.PModule, rtol: float = la.DEFAULT_RTOL, seed: int = 0
) -> DecompositionReport:
    """Orthogonal decomposition of a full module into irreducible summands.

    One block per tree of the seeded probe's ``_frame``, or r certified ones
    when its clusters all have size r, margin >= _MARGIN, smin clears the cut
    and no turned coupling between copies does: a copy's eigenvectors of h
    are simple and joined by couplings, so it has no proper *-invariant (so
    h-invariant) subspace. Fallbacks: any other tree, or the carrier if a
    block fails the leg-invariance gate, is split by spectral projections of
    seeded random Hermitian elements of the adjoint-closed commutant until
    it is trivial ("heuristic" if no draw has two distinct eigenvalues). A
    commutant eigenspace failing that gate raises NotFullSuspected, the
    symptom of a non-full input.
    """
    rng, d, certified = np.random.default_rng(seed), m.dim, True

    def split(q: np.ndarray) -> list[tuple[np.ndarray, core.PModule]]:
        """Irreducible blocks of span(q), each with its restricted module."""
        nonlocal certified
        sub = _restricted_module(m, q)
        # End(sub): the maps commuting with every restricted leg and its adjoint.
        basis = la.commutation_kernel([(x, x) for x in (*sub.legs, *map(la.dagger, sub.legs))], rtol)
        if len(basis) <= 1:
            return [(q, sub)]
        for _ in range(3):
            coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            y = sum(c * x for c, x in zip(coeffs, basis))
            cand = (y + la.dagger(y)) / 2.0
            if la.frobenius(cand) < 1e-12:
                cand = (y - la.dagger(y)) / 2.0j
            eig = la.hermitian_eig(cand, rtol)
            runs = la.cluster_runs(eig.values)
            if len(runs) > 1:
                break
        else:
            certified = False
            return [(q, sub)]
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

    eig = la.hermitian_eig(_probe(m, rng)[1], rtol)
    frame, (runs, order, parent, _, cut, margin), smin = _frame(m, eig)
    roots, found = [i for i, j in enumerate(order) if parent[j] < 0] + [len(order)], []
    for tree in (order[a:b] for a, b in zip(roots, roots[1:])):
        r = runs[tree[0]][1] - runs[tree[0]][0]
        cols = np.concatenate([np.arange(*runs[j]) for j in tree])
        ok = margin >= _MARGIN and cols.size == r * len(tree) and smin[tree].min() > cut
        if ok and r > 1:
            mix = np.abs(np.stack(_restricted_module(m, frame[:, cols]).legs)).max(axis=0)
            between = ~np.eye(r, dtype=bool)[None, :, None, :]
            ok = mix.reshape(len(tree), r, len(tree), r).max(where=between, initial=0.0) < cut
        copies = r if ok else 1
        found += [(frame[:, cols[i::copies]], ok) for i in range(copies)]
    if any(_invariance_defect(m, q) > _INV_TOL for q, _ in found):
        found = [(np.eye(d, dtype=np.complex128), False)]
    blocks = []
    for q, ok in found:
        blocks += [(q, _restricted_module(m, q))] if ok else split(q)
    blocks.sort(key=lambda block: (block[0].shape[1], _trace_key(block[1])))
    summands = []
    for q, sub in blocks:
        k = q.shape[1]
        tag, label = "unknown", None
        atoms = atomic_part(sub, rtol=rtol) if sub.arity == 2 else []
        if atoms and sum(s.isometry.shape[1] for s in atoms) == k:
            tag = "atomic"
            if len(atoms) == 1:
                label = atoms[0].label
        elif not atoms and _diffuse_certificate(sub, np.eye(k, dtype=np.complex128)):
            tag = "diffuse"
        summands.append(Summand(isometry=q, dimension=k, tag=tag, label=label))
    confidence = "certified" if certified else "heuristic"
    return DecompositionReport(tuple(summands), residual_dimension=0, p_dimension=d,
                               confidence=confidence, seed=seed)


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


def _witness_tol(rtol: float) -> float:
    """eta, the largest leg defect ||U L_k U* - L'_k||_F a witness may have."""
    return max(1e-7, 10 * rtol)


def _leg_defect(m: core.PModule, mt: core.PModule, u: np.ndarray) -> float:
    """max_k ||U L_k U* - L'_k||_F."""
    return max(la.frobenius(u @ x @ la.dagger(u) - y) for x, y in zip(m.legs, mt.legs))


def _verify_witness(m: core.PModule, mt: core.PModule, u: np.ndarray, rtol: float) -> bool:
    unitary = la.frobenius(u @ la.dagger(u) - np.eye(u.shape[0])) <= 1e-7
    return unitary and _leg_defect(m, mt, u) <= _witness_tol(rtol)


def equivalent(
    m: core.PModule, mt: core.PModule, rtol: float = la.DEFAULT_RTOL, seed: int = 0
) -> EquivalenceResult:
    """Unitary-equivalence test (of the *-representations the legs
    generate); a decided verdict carries a certificate.

    False: unequal arity or dimension, or a Weyl mismatch of the probes h,
    h' (``_probe``, same seeded c). A unitary U with ||U L_k U* - L'_k||_F
    <= eta (``_witness_tol``) moves no eigenvalue of h by more than c_n eta
    (1 + eta), c_n = 2 (sum_k |c_k| + 2 |c'|), legs being contractions; a
    mismatch above twice that (for the 1 + eta and eigh's rounding) is
    "false", its margin in the reason.
    True: ``_verify_witness`` accepts U = F' F*, F m's ``_frame`` and F' the
    eigenbasis of h' turned along m's forest (its clusters and leg choices). If U0
    maps m to mt, F' = U0 F D, D acting on multiplicities alone.
    None otherwise: no test finer than eta tells noise from a difference.
    The reason gives the coupling margin, for None also the leg defect.
    """
    if m.arity != mt.arity:
        return EquivalenceResult(False, None, "arity mismatch")
    if m.dim != mt.dim:
        return EquivalenceResult(False, None, "dimension mismatch")
    c, h = _probe(m, np.random.default_rng(seed))
    eig = la.hermitian_eig(h, rtol)
    eig_t = la.hermitian_eig(_probe(mt, np.random.default_rng(seed))[1], rtol)
    c_n = 2.0 * (np.abs(c[:-1]).sum() + 2.0 * abs(c[-1]))
    bound = 2.0 * c_n * _witness_tol(rtol)
    drift = float(np.max(np.abs(eig.values - eig_t.values), initial=0.0))
    if drift > bound:
        why = f"probe spectra differ by {drift:.3e}, {drift / bound:.3g} times the Weyl bound {bound:.3e}"
        return EquivalenceResult(False, None, why)
    frame, forest, _ = _frame(m, eig)
    u = _frame(mt, eig_t, forest)[0] @ la.dagger(frame)
    margin = f"coupling margin {forest[-1]:.3g}"
    if _verify_witness(m, mt, u, rtol):
        return EquivalenceResult(True, u, f"witness from the gauged probe eigenbasis ({margin})")
    why = (f"no verified witness: worst leg defect {_leg_defect(m, mt, u):.3e} "
           f"against eta {_witness_tol(rtol):.3e} ({margin})")
    return EquivalenceResult(None, None, why)
