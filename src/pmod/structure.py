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

# K: a cut of the probe eigenbasis couplings certifies only at this margin.
_MARGIN = 1e3

# Whether a leg or word image leaves a subspace: a spin keeps a residual
# direction, and a carrier passes the leg-invariance gate, at this cut.
_LEG_CUT = 1e-7

# Diffuse certificate: word branches are pruned once their restricted
# operator norm drops to this, and survivors at exhausted budget make the
# verdict heuristic.
_DECAY_PRUNE = 1.0 - _LEG_CUT
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
    """Largest leg-invariant subspace contained in span(q) (orthonormal basis)."""
    return _invariant_outside([la.dagger(leg) for leg in m.legs], la.complete_basis(q, m.dim))


def _invariant_outside(adjoints, v: np.ndarray) -> np.ndarray:
    """Largest leg-invariant subspace of span(v)^perp, v orthonormal. X there
    is leg-invariant iff X^perp, which holds span(v), is adjoint-invariant; so
    X is the orthocomplement of the spin of span(v) under the adjoint legs."""
    return la.complete_basis(_spin(adjoints, v), v.shape[0])


def _spin(ops, start: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the closure of span(start) under ops: each round
    maps the frontier through all ops in one stacked matmul, projects the
    images twice off the basis and keeps the left singular vectors clearing
    the absolute leg cut _LEG_CUT (ops are contractions, start orthonormal)."""
    d, n = start.shape[0], len(ops)
    stacked, q, frontier = np.vstack(ops), start, start
    while frontier.shape[1] and q.shape[1] < d:
        images = (stacked @ frontier).reshape(n, d, -1).transpose(1, 0, 2).reshape(d, -1)
        for _ in range(2):
            images = images - q @ (la.dagger(q) @ images)
        if la.frobenius(images) <= _LEG_CUT:
            break
        u, sigma, _ = la.thin_svd(images)
        frontier = u[:, sigma > _LEG_CUT]
        q = np.column_stack([q, frontier])
    return q


def closure(m: core.PModule, vectors: np.ndarray) -> np.ndarray:
    """Smallest leg-invariant subspace containing the given vectors."""
    return _spin(m.legs, la.gram_schmidt(vectors))


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
    singular value above the leg cut _LEG_CUT), W is irreducible. After
    three draws on one W without a verdict, or on a LAPACK failure, W is
    returned as is.
    """
    rng = np.random.default_rng(0)
    cur, draws = closure(m, seed), 0
    while cur.shape[1] > 1 and draws < 3:
        k, (a, b) = cur.shape[1], _restricted_module(m, cur).legs
        c = rng.standard_normal(3)
        theta = c[0] * a + c[1] * b + c[2] * (a @ b)
        try:
            lam = la._lapack(np.linalg.eigvals, theta)[0]
            u, sigma, vh = la.thin_svd(theta - lam * np.eye(k))
        except la.NoConvergence:
            return cur
        inside = _spin((a, b), la.dagger(vh[-1:]))
        if inside.shape[1] == k:
            inside = _invariant_outside((la.dagger(a), la.dagger(b)), u[:, -1:])
        if 0 < inside.shape[1] < k:
            cur, draws = cur @ inside, 0
        elif sigma[-2] > _LEG_CUT:
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
    """Coefficients c with ||pq c|| = ||c||: G = (pq)*(pq) <= I, so G's eigenvectors
    with eigenvalue within rtol of 1 (one eigh, which reads one triangle of G)."""
    if pq.shape[1] == 1:  # G is the squared norm
        return np.ones((1, int(abs(1.0 - np.vdot(pq, pq).real) <= rtol)), dtype=np.complex128)
    lam, vecs = la._lapack(np.linalg.eigh, la.dagger(pq) @ pq)
    return vecs[:, np.abs(1.0 - lam) <= rtol]


def _decays(m: core.PModule, rtol: float) -> bool:
    """s <= _DECAY_PRUNE and 1 - s^2 > rtol, s the largest leg norm (singular values
    only): then the atomic walk's root kernels are empty (no atom) and the diffuse
    certificate prunes every branch at its first level."""
    s = float(la._lapack(np.linalg.svd, np.stack(m.legs), compute_uv=False).max(initial=0.0))
    return s <= _DECAY_PRUNE and 1.0 - s * s > rtol


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
    nothing. Legs that decay (``_decays``) hold no atom: nothing is walked.
    """
    core._require_arity2(m, "atomic_part")
    return [] if _decays(m, rtol) else _atomic_walk(m, max_len, rtol)


def _atomic_walk(m: core.PModule, max_len: int | None, rtol: float) -> list[AtomicSummand]:
    """atomic_part past its decay test, for two-leg callers that ran it.

    Each cut is the leg cut _LEG_CUT: stabilization keeps the directions
    whose word image leaves the subspace by at most it, and a carrier's
    invariance defect must not exceed it. An eigenvalue off the unit circle
    (by more than families._PHASE_TOL, as at a large rtol) gives no atom.
    """
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
        if claimed.shape[1] == d:
            break  # every later carrier would already be claimed
        if not lyndon:
            continue
        while stable.shape[1]:
            # Keep directions whose image under the word operator stays
            # inside (the word acts invertibly on the limit subspace).
            resid = ps - stable @ (la.dagger(stable) @ ps)
            coef = la.kernel_basis(resid, _LEG_CUT, scale=1.0)
            if coef.shape[1] == stable.shape[1]:
                break
            stable = stable @ coef
            # Recomputed from the word operator, so every pass rounds alike.
            ps = core.word_operator(m, word) @ stable if coef.shape[1] else ps
        if not stable.shape[1]:
            continue
        phases, vecs = la.unitary_eig(la.dagger(stable) @ ps)
        for j in range(vecs.shape[1]):
            if not abs(abs(phases[j]) - 1.0) <= families._PHASE_TOL:  # NaN fails too
                continue  # the word does not act isometrically here: no atom
            eta = stable @ vecs[:, j]
            if np.linalg.norm(eta - claimed @ (la.dagger(claimed) @ eta)) < 0.5:
                continue  # carrier already claimed at this word
            orbit = [eta]
            for digit in word[:-1]:
                orbit.append(m.legs[int(digit)] @ orbit[-1])
            carrier = la.gram_schmidt(np.column_stack(orbit))
            if carrier.shape[1] != len(word) or _invariance_defect(m, carrier) > _LEG_CUT:
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
    m: core.PModule, max_len: int | None = None, rtol: float = la.DEFAULT_RTOL
) -> CompletePart:
    """Smallest complete submodule (isometry, dimension, confidence).

    Modules with a normal first leg and invertible second leg (class M) are
    full, so the whole carrier is returned with no search. Otherwise the
    candidate starts from the atomic carriers and is forced to completeness
    (``_completion``, which runs on any module): while the orthocomplement
    holds an invariant subspace (the complement of the candidate's spin
    under the adjoint legs), the minimal invariant subspace Norton's test
    finds in the closure of its first basis vector is added. The final state
    satisfies the completeness certificate at the spin cut; "certified" also
    requires the smallest-candidate evidence (class shortcut, whole carrier,
    or all pieces one-dimensional) and no remainder added whole because its
    minimal piece fell in the candidate.
    """
    core._require_arity2(m, "complete_submodule")
    if core.in_class_m(m, rtol):
        return CompletePart(np.eye(m.dim, dtype=np.complex128), m.dim, "certified")
    return _completion(m, atomic_part(m, max_len, rtol))


def _completion(m: core.PModule, atoms: list[AtomicSummand]) -> CompletePart:
    """complete_submodule's forced completion of the atomic carriers; each
    round spins the kept candidate v under the adjoint legs (``_invariant_outside``)."""
    d = m.dim
    # Atomic carriers are exact; every other piece must be one-dimensional
    # for the final candidate to count as certified smallest.
    exact_dim = sum(s.isometry.shape[1] for s in atoms)
    pieces: list[np.ndarray] = []
    v = la.gram_schmidt(np.hstack([np.zeros((d, 0))] + [s.isometry for s in atoms]))

    # Forced completion: the certificate drives the loop.
    adjoints = [la.dagger(leg) for leg in m.legs]
    stalled = False
    while v.shape[1] < d:
        rem = _invariant_outside(adjoints, v)
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
    return CompletePart(isometry=v, p_dimension=v.shape[1], confidence=confidence)


def _diffuse_certificate(m: core.PModule) -> bool:
    """Certify that every word operator of m decays to zero.

    Walks the word tree one length at a time, each length one stacked
    product with one batched singular-value call for its operator norms,
    pruning words whose norm fell to the unit threshold (the first length
    tests the legs themselves: ``_decays``). True when all words die within
    _DECAY_DEPTH; False past it or when more than _DECAY_BREADTH survive.
    """
    legs, level = np.stack(m.legs), np.eye(m.dim, dtype=np.complex128)[None]
    for _ in range(_DECAY_DEPTH):
        words = (legs[None] @ level[:, None]).reshape(-1, m.dim, m.dim)
        level = words[la._lapack(np.linalg.svd, words, compute_uv=False)[:, 0] > _DECAY_PRUNE]
        if not 0 < len(level) <= _DECAY_BREADTH:
            return not len(level)  # every word died, or too many survive
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

    The complete part is complete_submodule's, from one atomic walk. Legs
    that decay (``_decays``) hold no atom, and every restriction of them
    decays, so the complete part is diffuse, with no walk, certificate or
    gate. Otherwise the diffuse candidate, the orthocomplement of the
    atomic span in the complete part (overlaps cut at _LEG_CUT), is
    certified when it passes the decay certificate and, if it has fewer
    than d columns, the leg-invariance gate at _LEG_CUT.
    """
    core._require_arity2(m, "classify_parts")
    class_m, decays = core.in_class_m(m, rtol), _decays(m, rtol)
    atoms = [] if decays else _atomic_walk(m, max_len, rtol)
    comp = (CompletePart(np.eye(m.dim, dtype=np.complex128), m.dim, "certified") if class_m
            else _completion(m, atoms))
    v = comp.isometry
    if atoms:
        c = np.hstack([s.isometry for s in atoms])
        coef = la.kernel_basis(la.dagger(c) @ v, _LEG_CUT, scale=1.0)
        diffuse = v @ coef
    else:
        diffuse = v
    atomic_dim = sum(s.isometry.shape[1] for s in atoms)
    diffuse_dim = diffuse.shape[1]
    residual = m.dim - comp.p_dimension

    confidence = comp.confidence
    # A diffuse block of d columns is the unitary frame: the whole carrier, invariant.
    if diffuse_dim and not decays and (
        (diffuse_dim < m.dim and _invariance_defect(m, diffuse) > _LEG_CUT)
        or not _diffuse_certificate(_restricted_module(m, diffuse))
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
    pairs = [(lj * li.T).sum() for i, li in enumerate(m.legs) for lj in m.legs[i:]]
    traces = np.round(np.array([*map(np.trace, m.legs), *pairs], dtype=np.complex128), 6)
    return tuple(zip(traces.real.tolist(), traces.imag.tolist()))


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
    smallest singular value; for a simple cluster, one entry's conjugate
    phase). Across copies of one irreducible the blocks become multiples of
    I, so copy i is column i of every cluster. The edge blocks of one
    cluster size are read in one batched gather from V and L_k V, so given a
    forest the R_k are not formed.
    """
    v, n = eig.vectors, m.arity
    lv = np.stack(m.legs) @ v
    if forest is None:
        runs = la.cluster_runs(eig.values)
        c, starts = len(runs), [a for a, _ in runs]
        mags = np.maximum.reduceat(np.maximum.reduceat(np.abs(la.dagger(v) @ lv), starts, 1), starts, 2)
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
        lo = m.dim * np.finfo(float).eps  # rounding floor; the largest coupling caps the cut
        top = w.max(initial=lo)
        pts = np.clip(np.concatenate([[lo], np.sort(weight[order[1:]]), [top]]), lo, top)
        i = int(np.argmax(np.diff(np.log(pts))))
        cut = float(np.sqrt(pts[i] * pts[i + 1]))
        parent[weight < cut] = -1
        forest = (runs, order, parent, edge, cut, float(pts[i + 1] / pts[i]))
    runs, order, parent, edge = forest[:4]
    starts, sizes = np.array([(a, b - a) for a, b in runs], dtype=int).reshape(-1, 2).T
    kids = [j for j in order if parent[j] >= 0 and sizes[j] == sizes[parent[j]]]
    smin, phase, turns = np.full(len(runs), np.inf), np.ones(len(runs), dtype=np.complex128), {}
    for k in {sizes[j] for j in kids}:  # one batched turn per cluster size
        batch = np.array([j for j in kids if sizes[j] == k])
        e, up, down = edge[batch], starts[parent[batch]], starts[batch]
        # Edge blocks R_e[up, down], or R_{e-n}[down, up]* on an adjoint edge, gathered from V and L_e V.
        fwd = e < n
        rows = np.where(fwd, up, down)[:, None] + np.arange(k)
        cols = np.where(fwd, down, up)[:, None] + np.arange(k)
        x = v[:, rows].conj().transpose(1, 2, 0) @ lv[(e % n)[:, None], :, cols].transpose(0, 2, 1)
        x = np.where(fwd[:, None, None], x, x.conj().transpose(0, 2, 1))
        if k == 1:  # the turn is the entry's conjugate phase
            smin[batch], phase[batch] = np.abs(x[:, 0, 0]), np.exp(-1j * np.angle(x[:, 0, 0]))
            continue
        u, sigma, vh = la._lapack(np.linalg.svd, x)
        smin[batch] = sigma[:, -1]
        turns.update(zip(batch.tolist(), np.conj(u @ vh).transpose(0, 2, 1)))
    for j in kids:  # parents first; phases stay 1 on larger clusters
        phase[j] *= phase[parent[j]]
        if parent[j] in turns:
            turns[j] = turns[j] @ turns[parent[j]]
    frame = v * np.repeat(phase, sizes)
    for j, turn in turns.items():
        frame[:, slice(*runs[j])] = v[:, slice(*runs[j])] @ turn
    return frame, forest, smin


def decompose_full(
    m: core.PModule, rtol: float = la.DEFAULT_RTOL, seed: int = 0
) -> DecompositionReport:
    """Orthogonal decomposition of a full module into irreducible summands.

    One block per tree of the seeded probe's ``_frame``, or r certified ones
    when its clusters all have size r, margin >= _MARGIN, smin clears the cut
    and no turned coupling between copies does: a copy's eigenvectors of h
    are simple and joined by couplings, so it has no proper *-invariant (so
    h-invariant) subspace. Fallbacks: any other tree, or the carrier if a
    block's invariance defect exceeds the leg cut _LEG_CUT, is split by the
    eigenspaces of one seeded random Hermitian element of its adjoint-closed
    commutant, each split again until its commutant is trivial; a block
    whose element has one eigenvalue cluster stays whole and makes the
    report "heuristic". A commutant eigenspace failing that gate raises
    NotFullSuspected, the symptom of a non-full input; a commutant solve
    above linalg's size cap raises TooLarge.
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
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        y = sum(c * x for c, x in zip(coeffs, basis))
        eig = la._eigh((y + la.dagger(y)) / 2.0)
        runs = la.cluster_runs(eig.values)
        if len(runs) == 1:
            certified = False
            return [(q, sub)]
        out = []
        for start, stop in runs:
            qc = q @ eig.vectors[:, start:stop]
            inv = _invariance_defect(m, qc)
            if inv > _LEG_CUT:
                raise NotFullSuspected(
                    f"commutant eigenspace is not leg-invariant (defect {inv:.3e}); "
                    "the module may not be full"
                )
            out.extend(split(qc))
        return out

    eig = la._eigh(_probe(m, rng)[1])
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
    # A block of d columns is the unitary frame: the whole carrier, invariant.
    if any(q.shape[1] < d and _invariance_defect(m, q) > _LEG_CUT for q, _ in found):
        found = [(np.eye(d, dtype=np.complex128), False)]
    blocks = []
    for q, ok in found:
        blocks += [(q, _restricted_module(m, q))] if ok else split(q)
    dims = np.bincount([q.shape[1] for q, _ in blocks])  # the stable sort keys equal dimensions only
    blocks.sort(key=lambda b: (b[0].shape[1], dims[b[0].shape[1]] > 1 and _trace_key(b[1])))
    summands = []
    for q, sub in blocks:
        k = q.shape[1]
        tag, label = "unknown", None
        decays = _decays(sub, rtol)
        atoms = _atomic_walk(sub, None, rtol) if sub.arity == 2 and not decays else []
        if atoms and sum(s.isometry.shape[1] for s in atoms) == k:
            tag = "atomic"
            if len(atoms) == 1:
                label = atoms[0].label
        elif not atoms and (decays or _diffuse_certificate(sub)):
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
    """eta = max(_LEG_CUT, 10 rtol), the largest leg defect ||U L_k U* - L'_k||_F
    a witness may have; ||U U* - I||_F is held to _LEG_CUT."""
    return max(_LEG_CUT, 10 * rtol)


def _leg_defect(m: core.PModule, mt: core.PModule, u: np.ndarray) -> float:
    """max_k ||U L_k U* - L'_k||_F."""
    return max(la.frobenius(u @ x @ la.dagger(u) - y) for x, y in zip(m.legs, mt.legs))


def _verify_witness(m: core.PModule, mt: core.PModule, u: np.ndarray, rtol: float) -> bool:
    unitary = la.frobenius(u @ la.dagger(u) - np.eye(u.shape[0])) <= _LEG_CUT
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
    eig, eig_t = la._eigh(h), la._eigh(_probe(mt, np.random.default_rng(seed))[1])
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
