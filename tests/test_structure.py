"""Structural analysis tests: intertwiners, parts, decomposition, equivalence."""

import functools

import numpy as np

from pmod import core, families, structure
from pmod import linalg as la
from pmod.errors import NotFullSuspected

from conftest import (
    atomic_emergence_pair,
    d2_display_pair,
    random_d2,
    random_gp,
    random_unitary,
    restricted,
    shared_eigenline_module,
)


# ---------------------------------------------------------------------------
# Intertwiner spaces.
# ---------------------------------------------------------------------------


def test_intertwiner_schur_on_atomic():
    m = families.atomic_module(families.AtomicLabel("01", 1.0))
    basis = structure.intertwiner_basis(m, m)
    assert len(basis) == 1
    x = basis[0]
    mean = np.trace(x.conj().T @ x).real / 2
    assert np.linalg.norm(x.conj().T @ x - mean * np.eye(2)) < 1e-10


def test_intertwiner_axis_scalars_empty():
    out = structure.intertwiner_basis(
        core.scalar_module(1.0, 0.0), core.scalar_module(0.0, 1.0)
    )
    assert out == []


def test_intertwiner_unit_into_shared_eigenline():
    # The embedding onto the common eigenvector intertwines the unit module.
    basis = structure.intertwiner_basis(core.unit_module(), shared_eigenline_module())
    assert len(basis) >= 1
    x = basis[0]
    direction = x[:, 0] / np.linalg.norm(x[:, 0])
    target = np.array([1, 1]) / np.sqrt(2)
    assert abs(abs(np.vdot(direction, target)) - 1.0) < 1e-10


def test_emitted_isometries_are_leg_invariant():
    m, mt = atomic_emergence_pair()
    prod = core.boxtimes(m, mt)
    rep = structure.classify_parts(prod)
    eye = np.eye(prod.dim)
    for summand in rep.atomic:
        v = summand.isometry
        assert np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])) <= 1e-8
        for leg in prod.legs:
            assert np.linalg.norm((eye - v @ v.conj().T) @ leg @ v) <= 1e-8


# ---------------------------------------------------------------------------
# Atomic part.
# ---------------------------------------------------------------------------


def test_atomic_part_axis_scalar():
    parts = structure.atomic_part(core.scalar_module(1.0, 0.0))
    assert len(parts) == 1
    assert parts[0].label.word == "0"
    assert abs(parts[0].label.phase - 1.0) < 1e-12


def test_atomic_part_of_atomic_module():
    z = np.exp(0.3j)
    parts = structure.atomic_part(families.atomic_module(families.AtomicLabel("01", z)))
    assert len(parts) == 1
    assert parts[0].label.word == "01"
    assert abs(parts[0].label.phase - z) < 1e-10
    assert parts[0].isometry.shape == (2, 2)


def test_atomic_part_class_n_empty():
    m = families.random_module(3, "N", seed=8)
    assert structure.atomic_part(m) == []


def test_atomic_labels_stable_under_conjugation():
    rng = np.random.default_rng(15)
    z = np.exp(1.1j)
    m = families.atomic_module(families.AtomicLabel("001", z))
    u = random_unitary(rng, 3)
    parts = structure.atomic_part(core.conjugate(m, u))
    assert len(parts) == 1
    assert parts[0].label.word == "001"
    assert abs(parts[0].label.phase - z) < 1e-9


def test_atomic_part_multiplicity():
    m = families.atomic_module(families.AtomicLabel("01", 1j))
    both = core.direct_sum(m, m)
    parts = structure.atomic_part(both)
    assert len(parts) == 2
    assert all(p.label.word == "01" and abs(p.label.phase - 1j) < 1e-9 for p in parts)


def _full_depth_atomic_part(m, rtol=1e-9):
    """Reference: the binary prefix tree walked 2d deep over every word, with
    the prefix operator carried and the prime-word test made per node."""
    la = structure.la
    d = m.dim
    claimed = np.zeros((d, 0), dtype=complex)
    found = []
    eye = np.eye(d, dtype=complex)
    stack = [("", eye, eye)]
    while stack:
        word, prefix, q = stack.pop()
        if word and word == families.canonical_rotation(word) and families.is_prime_word(word):
            stable = q
            while stable.shape[1]:
                pq = prefix @ stable
                resid = pq - stable @ (la.dagger(stable) @ pq)
                coef = la.kernel_basis(resid, rtol, scale=1.0)
                if coef.shape[1] == stable.shape[1]:
                    break
                stable = stable @ coef
            if stable.shape[1]:
                phases, vecs = la.unitary_eig(la.dagger(stable) @ prefix @ stable, rtol)
                prefixes = [eye]
                for digit in word[:-1]:
                    prefixes.append(m.legs[int(digit)] @ prefixes[-1])
                for j in range(vecs.shape[1]):
                    eta = stable @ vecs[:, j]
                    if np.linalg.norm(eta - claimed @ (la.dagger(claimed) @ eta)) < 0.5:
                        continue
                    carrier = la.gram_schmidt(np.column_stack([p @ eta for p in prefixes]))
                    if carrier.shape[1] != len(word) or structure._invariance_defect(m, carrier) > 1e-8:
                        continue
                    found.append((word, complex(phases[j]), carrier.shape[1]))
                    claimed = np.column_stack([claimed, la.gram_schmidt(carrier, against=claimed)])
        if len(word) < 2 * d:
            for digit in ("1", "0"):
                child_prefix = m.legs[int(digit)] @ prefix
                coef = structure._norm_preserving_coefficients(child_prefix @ q, rtol)
                if coef.shape[1]:
                    stack.append((word + digit, child_prefix, q @ coef))
    return sorted(found, key=lambda f: (len(f[0]), f[0], np.angle(f[1])))


def _seeded_atomic_sum(seed, noise):
    """Conjugated sum of atoms (words up to length 5, with multiplicity) and a
    class-N or class-M rest, with optional complex Gaussian entry noise."""
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(rng.integers(1, 4)):
        word = "0"
        while not families.is_prime_word(word) or word == "0":
            word = "".join(rng.choice(["0", "1"], rng.integers(1, 6)))
        atom = families.atomic_module(families.AtomicLabel(word, np.exp(1j * rng.uniform(-3, 3))))
        parts += [atom] * int(rng.integers(1, 3))
    k = int(rng.integers(1, 4))
    if seed % 2:
        parts.append(families.random_module(k, "N", seed=seed))
    else:
        parts.append(families.random_module(k + 1, "M", seed=seed, zero_eigenvalues=1))
    m = parts[0]
    for part in parts[1:]:
        m = core.direct_sum(m, part)
    m = core.conjugate(m, random_unitary(rng, m.dim))
    return core.PModule(legs=tuple(
        leg + noise * (rng.standard_normal(leg.shape) + 1j * rng.standard_normal(leg.shape))
        for leg in m.legs
    ))


def test_lyndon_walk_matches_full_depth_walk():
    for seed in range(12):
        for noise in (0.0, 1e-11):
            m = _seeded_atomic_sum(seed, noise)
            got = [(s.label.word, s.label.phase, s.isometry.shape[1])
                   for s in structure.atomic_part(m)]
            want = _full_depth_atomic_part(m)
            assert [(w, k) for w, _, k in got] == [(w, k) for w, _, k in want], (seed, noise)
            assert all(abs(a[1] - b[1]) <= 1e-9 for a, b in zip(got, want)), (seed, noise)


def _count_norm_preserving(monkeypatch):
    calls = []
    solve = structure._norm_preserving_coefficients
    monkeypatch.setattr(
        structure, "_norm_preserving_coefficients",
        lambda *a, **k: calls.append(1) or solve(*a, **k),
    )
    return calls


def test_atomic_walk_solve_count(monkeypatch):
    # Only alternating words keep a norm-preserved subspace. Each live
    # prenecklace shorter than the carrier dimension 7 tries its allowed
    # digits: "", 0, 01, 0101 and 010101 two each; 1, 010 and 01010 one
    # each. The 2d-deep walk over every word made 54 solves.
    rng = np.random.default_rng(14)
    atom = families.atomic_module(families.AtomicLabel("01", np.exp(0.7j)))
    m = core.direct_sum(core.direct_sum(atom, atom), families.random_module(3, seed=5))
    m = core.conjugate(m, random_unitary(rng, m.dim))
    calls = _count_norm_preserving(monkeypatch)
    parts = structure.atomic_part(m)
    assert [(p.label.word, p.isometry.shape[1]) for p in parts] == [("01", 2), ("01", 2)]
    assert all(abs(p.label.phase - np.exp(0.7j)) < 1e-9 for p in parts)
    assert len(calls) == 13


def test_atomic_part_max_len_above_dim_changes_nothing(monkeypatch):
    m = families.atomic_module(families.AtomicLabel("011", 1j))
    calls = _count_norm_preserving(monkeypatch)
    default = structure.atomic_part(m)
    default_calls = len(calls)
    huge = structure.atomic_part(m, max_len=10**6)
    assert len(calls) == 2 * default_calls <= 20
    assert [(p.label.word, p.label.phase) for p in huge] == [
        (p.label.word, p.label.phase) for p in default
    ]
    assert len(default) == 1 and abs(default[0].label.phase - 1j) < 1e-12
    assert structure.atomic_part(m, max_len=2) == []


# ---------------------------------------------------------------------------
# Complete part.
# ---------------------------------------------------------------------------


def test_complete_submodule_shared_eigenline():
    cp = structure.complete_submodule(shared_eigenline_module())
    assert cp.p_dimension == 1
    assert cp.confidence == "certified"
    target = np.array([1, 1], dtype=complex) / np.sqrt(2)
    angle = np.arccos(min(1.0, abs(np.vdot(cp.isometry[:, 0], target))))
    assert angle <= 1e-8


def test_complete_submodule_class_m_whole():
    m = families.random_module(4, "M", seed=3)
    cp = structure.complete_submodule(m)
    assert cp.p_dimension == 4
    assert cp.confidence == "certified"


def test_complete_submodule_direct_sum_of_scalars():
    ds = core.direct_sum(core.unit_module(), core.scalar_module(0.5, np.sqrt(3) / 2))
    cp = structure.complete_submodule(ds, use_class_shortcut=False)
    assert cp.p_dimension == 2


def test_complete_submodule_atomic_whole():
    m = families.atomic_module(families.AtomicLabel("01", np.exp(0.2j)))
    cp = structure.complete_submodule(m)
    assert cp.p_dimension == 2


def test_p_dimension_multiplicative_generic_path():
    for i, (d1, d2) in enumerate([(2, 2), (2, 3), (3, 3)]):
        m = families.random_module(d1, "M", seed=40 + i)
        mt = families.random_module(d2, "M", seed=80 + i)
        prod = core.boxtimes(m, mt)
        cp = structure.complete_submodule(prod, use_class_shortcut=False)
        assert cp.p_dimension == d1 * d2


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------


def test_classify_unit():
    rep = structure.classify_parts(core.unit_module())
    assert (rep.diffuse_dim, rep.atomic_dim, rep.residual_dim, rep.p_dimension) == (
        1,
        0,
        0,
        1,
    )
    assert rep.confidence == "certified"


def test_classify_atomic_module():
    rep = structure.classify_parts(
        families.atomic_module(families.AtomicLabel("01", 1.0))
    )
    assert (rep.atomic_dim, rep.diffuse_dim, rep.residual_dim) == (2, 0, 0)


def test_classify_shared_eigenline():
    rep = structure.classify_parts(shared_eigenline_module())
    assert (rep.diffuse_dim, rep.atomic_dim, rep.residual_dim, rep.p_dimension) == (
        1,
        0,
        1,
        1,
    )


def test_classify_atomic_emergence_product():
    m, mt = atomic_emergence_pair()
    n = core.boxtimes(m, mt)
    rep = structure.classify_parts(n)
    assert (rep.atomic_dim, rep.diffuse_dim, rep.residual_dim, rep.p_dimension) == (
        1,
        3,
        0,
        4,
    )
    assert rep.atomic[0].label.word == "1"
    assert abs(rep.atomic[0].label.phase - 1.0) < 1e-9
    xi = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    angle = np.arccos(min(1.0, abs(np.vdot(rep.atomic[0].isometry[:, 0], xi))))
    assert angle <= 1e-8
    # The complement is diffuse irreducible.
    sub = restricted(n, rep.diffuse_isometry)
    assert len(structure.intertwiner_basis(sub, sub)) == 1


# ---------------------------------------------------------------------------
# Full decomposition.
# ---------------------------------------------------------------------------


def _word_traces(m, budget):
    """Traces of all leg words, level by level, within a word-count budget:
    the summand sort key's former implementation, kept as the reference."""
    traces = []
    level = [np.eye(m.dim, dtype=np.complex128)]
    count = 0
    while count + len(level) * m.arity <= budget:
        nxt = []
        for w in level:
            for leg in m.legs:
                op = leg @ w
                nxt.append(op)
                traces.append(complex(np.trace(op)))
        count += len(nxt)
        level = nxt
    return np.array(traces, dtype=np.complex128)


def _fingerprint_key(m, cyclic_repeats=False):
    """The word traces of length 1 and 2; tr L_j L_i (i outer) only for
    j >= i unless cyclic_repeats, since tr L_j L_i = tr L_i L_j."""
    n = m.arity
    tr = _word_traces(m, 2 * n * n)
    keep = [*range(n), *(n + i * n + j for i in range(n) for j in range(n) if cyclic_repeats or j >= i)]
    return tuple((round(t.real, 6), round(t.imag, 6)) for t in tr[keep])


def test_trace_key_matches_budgeted_word_traces():
    mods = [families.random_module(d, "M", seed=d, zero_eigenvalues=d // 2) for d in (1, 3, 5)]
    mods += [families.atomic_module(families.AtomicLabel("011", np.exp(0.7j)))]
    mods += [core.kawamura_tensor(m, families.random_module(2, "N", seed=9)) for m in mods]
    for m in mods:
        key = structure._trace_key(m)
        assert len(key) == m.arity + m.arity * (m.arity + 1) // 2
        assert key == _fingerprint_key(m)


def test_trace_key_without_cyclic_repeats_keeps_summand_order():
    # A dropped entry equals an earlier one in every key, so the summand
    # order of the full length-2 key is kept.
    rng = np.random.default_rng(31)
    atoms = [families.atomic_module(families.AtomicLabel(w, np.exp(1j * t)))
             for w, t in (("01", 0.4), ("01", 0.4), ("011", 2.1), ("01", -1.3), ("1", 0.9))]
    sums = [core.direct_sum(core.direct_sum(atoms[0], atoms[1]), families.random_module(3, seed=8)),
            core.direct_sum(core.direct_sum(atoms[2], atoms[3]), families.random_module(2, seed=9)),
            core.direct_sum(core.direct_sum(atoms[4], atoms[3]), core.unit_module())]
    m, mt = d2_display_pair()
    sums += [core.boxtimes(m, mt), core.direct_sum(core.unit_module(), core.scalar_module(0.6, 0.8))]
    for s in sums:
        m = core.conjugate(s, random_unitary(rng, s.dim))
        subs = [restricted(m, x.isometry) for x in structure.decompose_full(m, seed=2).summands]
        assert len(subs) > 1
        order = sorted(range(len(subs)), key=lambda i: (subs[i].dim, _fingerprint_key(subs[i], True)))
        assert order == list(range(len(subs)))


def test_decompose_direct_sum_of_scalars():
    ds = core.direct_sum(core.unit_module(), core.scalar_module(0.5, np.sqrt(3) / 2))
    rep = structure.decompose_full(ds, seed=1)
    assert [s.dimension for s in rep.summands] == [1, 1]
    assert rep.confidence == "certified"
    assert rep.residual_dimension == 0


def test_decompose_d2_display_four_scalars():
    m, mt = d2_display_pair()
    prod = core.boxtimes(m, mt)
    rep = structure.decompose_full(prod, seed=2)
    assert [s.dimension for s in rep.summands] == [1, 1, 1, 1]
    lam = 1 / np.sqrt(2)
    want = sorted([(-lam, lam), (-lam, -lam), (lam, lam), (lam, -lam)])
    got = sorted(
        (
            round(complex(restricted(prod, s.isometry).A[0, 0]).real, 9),
            round(complex(restricted(prod, s.isometry).B[0, 0]).real, 9),
        )
        for s in rep.summands
    )
    assert np.allclose(got, want, atol=1e-9)


def test_decompose_generic_d2_two_blocks():
    rng = np.random.default_rng(6)
    prod = core.boxtimes(random_d2(rng), random_d2(rng))
    rep = structure.decompose_full(prod, seed=3)
    assert [s.dimension for s in rep.summands] == [2, 2]


def test_decompose_gp_product_matches_closed_form():
    rng = np.random.default_rng(7)
    z, zt = random_gp(rng, 2), random_gp(rng, 2)
    prod = core.boxtimes(families.gp_module(z), families.gp_module(zt))
    rep = structure.decompose_full(prod, seed=4)
    ys = families.gp_fuse(z, zt)
    assert len(rep.summands) == len(ys) == 2
    for y in ys:
        target = families.gp_module(y)
        assert any(
            structure.equivalent(target, restricted(prod, s.isometry), seed=9).verdict
            for s in rep.summands
        )


def _gp_vector(rng, length):
    """Entries (cos t e^{ia}, sin t e^{ib}), t ~ U[0.27, 1.3], a, b ~ U[0, 2 pi)."""
    theta = rng.uniform(0.27, 1.3, length)
    a, b = rng.uniform(0.0, 2 * np.pi, (2, length))
    return families.GPVector(entries=tuple(zip(np.cos(theta) * np.exp(1j * a),
                                               np.sin(theta) * np.exp(1j * b))))


def test_gp_product_at_carrier_480_follows_the_fusion_rule(monkeypatch):
    # gcd(20, 24) = 4 summands of lcm(20, 24) = 120. Genuine couplings in the
    # probe eigenbasis reach far below any absolute cut, rounding-size ones
    # sit above the rounding floor; the widest gap of the spanning forest
    # separates them.
    rng = np.random.default_rng(2)
    z, zt = _gp_vector(rng, 20), _gp_vector(rng, 24)
    prod = core.boxtimes(families.gp_module(z), families.gp_module(zt))
    rep = structure.decompose_full(prod)
    assert rep.confidence == "certified"
    assert [s.dimension for s in rep.summands] == [120] * 4
    target = functools.reduce(core.direct_sum, [families.gp_module(y) for y in families.gp_fuse(z, zt)])
    target = core.conjugate(target, random_unitary(rng, target.dim))
    calls = _count_commutant_solves(monkeypatch)
    res = structure.equivalent(prod, target)
    assert res.verdict is True, res.reason
    assert structure._verify_witness(prod, target, res.witness, 1e-9)
    assert calls == []


def test_decompose_flags_non_full_input():
    # The 4.2 module is not full; either the commutant split detects it or
    # the decomposition degenerates to a single heuristic block.
    m = shared_eigenline_module()
    try:
        rep = structure.decompose_full(m, seed=5)
        assert rep.confidence == "heuristic" or len(rep.summands) == 1
    except NotFullSuspected:
        pass


def test_decompose_tags_atomic_and_diffuse():
    atom = families.atomic_module(families.AtomicLabel("01", 1.0))
    diff = families.random_module(2, "N", seed=11)
    rep = structure.decompose_full(core.direct_sum(atom, diff), seed=6)
    tags = sorted(s.tag for s in rep.summands)
    assert tags == ["atomic", "diffuse"]
    labeled = [s for s in rep.summands if s.tag == "atomic"]
    assert labeled[0].label is not None and labeled[0].label.word == "01"


# ---------------------------------------------------------------------------
# Equivalence.
# ---------------------------------------------------------------------------


def test_equivalent_reflexive_and_conjugation():
    rng = np.random.default_rng(12)
    for i, d in enumerate((2, 3)):
        m = families.random_module(d, "M", seed=130 + i)
        assert structure.equivalent(m, m).verdict is True
        u = random_unitary(rng, d)
        res = structure.equivalent(m, core.conjugate(m, u))
        assert res.verdict is True
        assert np.linalg.norm(res.witness.conj().T @ res.witness - np.eye(d)) < 1e-7


def test_equivalent_symmetric_verdicts():
    m = families.random_module(2, "N", seed=21)
    mt = families.random_module(2, "N", seed=22)
    ab = structure.equivalent(m, mt).verdict
    ba = structure.equivalent(mt, m).verdict
    assert ab == ba
    assert ab is False


def test_equivalent_dimension_mismatch():
    res = structure.equivalent(
        core.unit_module(), families.random_module(2, "N", seed=1)
    )
    assert res.verdict is False


def test_equivalent_gp_rotation():
    rng = np.random.default_rng(13)
    z = random_gp(rng, 3)
    rot = families.GPVector(entries=z.entries[1:] + z.entries[:1])
    res = structure.equivalent(families.gp_module(z), families.gp_module(rot), seed=2)
    assert res.verdict is True


def test_equivalent_atomic_phases_differ():
    a = families.atomic_module(families.AtomicLabel("01", 1.0))
    b = families.atomic_module(families.AtomicLabel("01", np.exp(0.5j)))
    assert structure.equivalent(a, b).verdict is False


def test_equivalent_atomic_rotated_word_same_phase():
    z = np.exp(0.7j)
    canonical = families.atomic_module(families.AtomicLabel("01", z))
    rotated = core.PModule(
        legs=(
            np.array([[0, z], [0, 0]], dtype=complex),
            np.array([[0, 0], [1, 0]], dtype=complex),
        )
    )
    assert structure.equivalent(canonical, rotated).verdict is True


def _star_hom(m, mt):
    """Basis of {X : X L_k = L'_k X, X L_k* = L'_k* X}."""
    pairs = [(y, x) for x, y in zip(m.legs, mt.legs)]
    return la.commutation_kernel(pairs + [(y.conj().T, x.conj().T) for y, x in pairs], 1e-9)


def test_equivalent_false_by_weyl_where_commutant_dimensions_differ():
    # dim Hom(m, mt) = dim End(m) = 2 but dim End(mt) = 5: the probe spectra
    # already differ far beyond the Weyl bound, which decides.
    m = core.direct_sum(core.unit_module(), families.random_module(2, "N", seed=21))
    units = core.direct_sum(core.unit_module(), core.unit_module())
    mt = core.direct_sum(units, core.scalar_module(0.6, 0.8))
    assert m.dim == mt.dim == 3
    dims = [len(_star_hom(a, b)) for a, b in ((m, mt), (m, m), (mt, mt))]
    assert dims == [2, 2, 5]
    for a, b in ((m, mt), (mt, m)):
        res = structure.equivalent(a, b)
        assert res.verdict is False and res.witness is None
        assert res.reason.startswith("probe spectra differ")


def test_equivalent_decides_without_decomposing(monkeypatch):
    rng = np.random.default_rng(14)
    atom = families.atomic_module(families.AtomicLabel("01", np.exp(0.7j)))
    m = core.direct_sum(core.direct_sum(atom, atom), families.random_module(3, seed=5))
    mt = core.conjugate(m, random_unitary(rng, m.dim))
    calls = []
    decompose_full = structure.decompose_full
    monkeypatch.setattr(
        structure, "decompose_full", lambda *a, **k: calls.append(1) or decompose_full(*a, **k)
    )
    res = structure.equivalent(m, mt)
    assert res.verdict is True
    assert structure._verify_witness(m, mt, res.witness, 1e-9)
    assert calls == []


def test_atomic_part_two_distinct_words():
    a = families.atomic_module(families.AtomicLabel("01", 1j))
    b = families.atomic_module(families.AtomicLabel("001", np.exp(0.5j)))
    parts = structure.atomic_part(core.direct_sum(a, b))
    words = sorted(p.label.word for p in parts)
    assert words == ["001", "01"]
    assert sum(p.isometry.shape[1] for p in parts) == 5


def test_complete_submodule_mixed_complete_and_residual():
    # Shared-eigenline module (complete line + residual line) plus a unit
    # summand: intrinsic dimension 2 of a 3-dim carrier, and the degenerate
    # eigenvalue across the two diffuse lines must not confuse the search.
    m = core.direct_sum(shared_eigenline_module(), core.unit_module())
    cp = structure.complete_submodule(m)
    assert cp.p_dimension == 2
    rep = structure.classify_parts(m)
    assert (rep.diffuse_dim, rep.atomic_dim, rep.residual_dim) == (2, 0, 1)


def test_complete_submodule_atomic_plus_residual(monkeypatch):
    m = core.direct_sum(shared_eigenline_module(),
                        families.atomic_module(families.AtomicLabel("01", 1j)))
    cp = structure.complete_submodule(m)
    assert cp.p_dimension == 3
    assert cp.confidence == "certified"
    calls = []
    atomic_part = structure.atomic_part
    monkeypatch.setattr(
        structure, "atomic_part", lambda *a, **k: calls.append(1) or atomic_part(*a, **k)
    )
    rep = structure.classify_parts(m)
    assert (rep.atomic_dim, rep.diffuse_dim, rep.residual_dim) == (2, 1, 1)
    assert len(calls) == 1  # the complete-part search's atomic part is reused


def test_forced_completion_ends_within_d_rounds(monkeypatch):
    # Under 1e-11 noise a minimal invariant piece can fall inside the span
    # already accepted; the loop then adds the remainder itself and reports
    # a heuristic result instead of finding the same remainder forever.
    atoms = [families.atomic_module(families.AtomicLabel(w, np.exp(1j * t)))
             for w, t in (("0111", 0.3), ("00101", 1.9), ("1", -2.6))]
    m = core.direct_sum(core.direct_sum(core.direct_sum(*atoms[:2]), atoms[2]),
                        families.random_module(4, "M", seed=39, zero_eigenvalues=1))
    rng = np.random.default_rng(39)
    q, _ = np.linalg.qr(rng.standard_normal((14, 14)) + 1j * rng.standard_normal((14, 14)))
    clean = core.conjugate(m, q)
    noisy = core.PModule(legs=tuple(
        leg + 1e-11 * (rng.standard_normal(leg.shape) + 1j * rng.standard_normal(leg.shape))
        for leg in clean.legs
    ))
    rep = structure.classify_parts(clean)
    assert sorted(s.label.word for s in rep.atomic) == ["00101", "0111", "1"]
    assert rep.confidence == "certified"
    calls = []
    largest = structure.largest_invariant_in
    monkeypatch.setattr(
        structure, "largest_invariant_in", lambda *a, **k: calls.append(1) or largest(*a, **k)
    )
    rep = structure.classify_parts(noisy)
    assert len(calls) <= noisy.dim + 1
    assert rep.p_dimension + rep.residual_dim == noisy.dim
    assert rep.confidence == "heuristic"


def _coupled_residual_column():
    # A 2-dim irreducible diffuse block extended by a residual direction that
    # genuinely feeds into the block (not a direct sum).
    t = core.boxtimes(core.scalar_module(0.5, np.sqrt(3) / 2), shared_eigenline_module())
    ta, tb = t.legs
    x = np.array([0.15, -0.1j], dtype=complex)
    y = -np.linalg.solve(tb.conj().T, ta.conj().T @ x)
    free = 1.0 - np.vdot(x, x).real - np.vdot(y, y).real
    a = np.sqrt(free * 0.3)
    b = np.sqrt(free * 0.7)
    big_a = np.zeros((3, 3), dtype=complex)
    big_b = np.zeros((3, 3), dtype=complex)
    big_a[:2, :2], big_a[:2, 2], big_a[2, 2] = ta, x, a
    big_b[:2, :2], big_b[:2, 2], big_b[2, 2] = tb, y, b
    return core.PModule(legs=(big_a, big_b))


def test_complete_submodule_coupled_residual_column():
    # The search must stop at the block, not swallow the whole carrier.
    m = _coupled_residual_column()
    assert core.pythagorean_residual(m) <= 1e-12

    cp = structure.complete_submodule(m)
    assert cp.p_dimension == 2
    block = np.eye(3, dtype=complex)[:, :2]
    resid = cp.isometry - block @ (block.conj().T @ cp.isometry)
    assert np.linalg.norm(resid) <= 1e-8
    rep = structure.classify_parts(m)
    assert (rep.diffuse_dim, rep.residual_dim) == (2, 1)


def _kernel_iteration(m, q, rtol=1e-9):
    """The former largest_invariant_in: iterate v -> {v : legs v stay in
    span(q)} until stable."""
    cur = q
    while cur.shape[1]:
        proj_out = np.eye(m.dim) - cur @ cur.conj().T
        coef = la.kernel_basis(np.vstack([proj_out @ leg @ cur for leg in m.legs]), rtol, scale=1.0)
        if coef.shape[1] == cur.shape[1]:
            return cur
        cur = cur @ coef
    return cur


def _atoms_and_n3(seed, noise=0.0):
    """A conjugated 01 + 011 + N(3) sum, with entry noise of the given size."""
    rng = np.random.default_rng(seed)
    parts = [families.atomic_module(families.AtomicLabel(w, np.exp(1j * rng.uniform(-3, 3))))
             for w in ("01", "011")]
    m = core.direct_sum(core.direct_sum(*parts), families.random_module(3, seed=seed))
    m = core.conjugate(m, random_unitary(rng, m.dim))
    return core.PModule(legs=tuple(
        leg + noise * (rng.standard_normal(leg.shape) + 1j * rng.standard_normal(leg.shape))
        for leg in m.legs
    ))


def test_largest_invariant_matches_kernel_iteration():
    rng = np.random.default_rng(7)
    coupled = _coupled_residual_column()
    eye3 = np.eye(3, dtype=complex)
    cases = [(coupled, eye3), (coupled, eye3[:, :2]), (coupled, eye3[:, [0, 2]]),
             (coupled, la.gram_schmidt(rng.standard_normal((3, 2))))]
    for seed, noise in ((1, 0.0), (2, 0.0), (3, 1e-11)):
        m = _atoms_and_n3(seed, noise)
        atoms = np.hstack([s.isometry for s in structure.atomic_part(m)])
        cases += [(m, la.complete_basis(atoms, m.dim)),
                  (m, la.gram_schmidt(np.column_stack([atoms, rng.standard_normal(m.dim)]))),
                  (m, np.eye(m.dim, dtype=complex))]
    dims = []
    for m, q in cases:
        got, want = structure.largest_invariant_in(m, q), _kernel_iteration(m, q)
        dims.append(got.shape[1])
        assert got.shape == want.shape
        assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) < 1e-8
    assert dims == [3, 2, 0, 0] + [3, 5, 8] * 3


def _algebra_dim(legs):
    """Dimension of the span of all words in the legs (identity included)."""
    k = legs[0].shape[0]
    basis = np.eye(k, dtype=complex).reshape(-1, 1) / np.sqrt(k)
    frontier = [np.eye(k, dtype=complex)]
    while frontier:
        new = []
        for w in frontier:
            for leg in legs:
                x = (leg @ w).reshape(-1)
                r = x - basis @ (basis.conj().T @ x)
                r -= basis @ (basis.conj().T @ r)
                if np.linalg.norm(r) > 1e-8 * max(np.linalg.norm(x), 1e-300):
                    basis = np.column_stack([basis, r / np.linalg.norm(r)])
                    new.append(leg @ w)
        frontier = new
    return basis.shape[1]


def test_minimal_invariant_pieces_are_irreducible():
    # Burnside: span(q) is irreducible iff the restricted leg words span
    # all k x k matrices.
    rng = np.random.default_rng(11)
    mods = [_coupled_residual_column(), _atoms_and_n3(4), _atoms_and_n3(5),
            core.direct_sum(shared_eigenline_module(), core.unit_module())]
    mods += [families.random_module(d, tag, seed=d, zero_eigenvalues=int(tag == "M"))
             for d in (2, 3, 4) for tag in "NM"]
    sizes = set()
    for m in mods:
        for _ in range(3):
            seed = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
            q = structure._minimal_invariant_from(m, seed)
            k = q.shape[1]
            sizes.add(k)
            assert structure._invariance_defect(m, q) < 1e-8
            assert _algebra_dim(restricted(m, q).legs) == k * k
    assert sizes >= {1, 2, 3}


def test_minimal_invariant_quotient_eigenvalue_splits_by_adjoint_spin(monkeypatch):
    # On the coupled module, W = C^3 holds one invariant subspace, the block.
    # For an eigenvalue of theta on the block the kernel vector spins to the
    # block; for the quotient's eigenvalue it spins to all of W, so only the
    # adjoint spin of the cokernel vector (the residual line) can split W.
    m = _coupled_residual_column()
    block = np.eye(3, dtype=complex)[:, :2]
    eigvals, spin = np.linalg.eigvals, structure._spin
    firsts = []
    for first in range(3):
        spun = []
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "eigvals", lambda x: np.roll(eigvals(x), -first))
            mp.setattr(structure, "_spin",
                       lambda *a: spun.append((out := spin(*a)).shape[1]) or out)
            q = structure._minimal_invariant_from(m, np.ones(3))
        assert np.linalg.norm(q @ q.conj().T - block @ block.conj().T) < 1e-10
        firsts.append(spun[:3])
    # The closure of the seed fills W; then the leg spin of the kernel
    # vector is the block, or fills W and the adjoint spin is one line.
    assert sorted(f[1] for f in firsts) == [2, 2, 3]
    assert [f for f in firsts if f[1] == 3] == [[3, 3, 1]]


def test_diffuse_certificate_walk_alone_tests_the_legs(monkeypatch):
    # A nilpotent leg of norm 1 survives the first level; every word of
    # length 2 falls below the prune. The walk takes 2 + 2 norms and none
    # are taken before it.
    m = core.PModule(legs=(np.array([[0, 1], [0, 0]], dtype=complex), 0.5 * np.eye(2, dtype=complex)))
    calls = []
    norm = la.spectral_norm
    monkeypatch.setattr(la, "spectral_norm", lambda x: calls.append(1) or norm(x))
    assert structure._diffuse_certificate(m, np.eye(2, dtype=complex))
    assert len(calls) == 4


def test_classify_is_self_consistent_on_generic_product():
    m = shared_eigenline_module()
    prod = core.boxtimes(m, m)
    rep = structure.classify_parts(prod)
    assert rep.atomic_dim + rep.diffuse_dim == rep.p_dimension
    assert rep.p_dimension + rep.residual_dim == prod.dim
    assert rep.confidence in ("certified", "heuristic")


def test_kawamura_not_symmetric_witness():
    m = core.scalar_module(1 / np.sqrt(2), 1 / np.sqrt(2))
    mt = core.scalar_module(0.5, np.sqrt(3) / 2)
    k12 = core.kawamura_tensor(m, mt)
    k21 = core.kawamura_tensor(mt, m)
    assert structure.equivalent(k12, k21).verdict is False


def test_decompose_and_equivalence_on_higher_arity():
    k1 = core.kawamura_tensor(core.scalar_module(0.5, np.sqrt(3) / 2), core.unit_module())
    k2 = core.kawamura_tensor(core.unit_module(), core.scalar_module(0.6, 0.8))
    s12 = core.direct_sum(k1, k2)
    rep = structure.decompose_full(s12, seed=1)
    assert [s.dimension for s in rep.summands] == [1, 1]
    res = structure.equivalent(s12, core.direct_sum(k2, k1), seed=2)
    assert res.verdict is True
    k3 = core.kawamura_tensor(core.scalar_module(0.6, 0.8), core.unit_module())
    assert structure.equivalent(s12, core.direct_sum(k1, k3), seed=3).verdict is False


# ---------------------------------------------------------------------------
# Spectral spin: routes and fallbacks.
# ---------------------------------------------------------------------------


def _structure_inputs(seed):
    """(module, twin, false twin or None): an irreducible carrier-9 product,
    2 x 01(phi) + N(3), 011(phi) + 01(psi) + N(2) and 3 x 01(phi) +
    2 x 011(psi) + N(3), each conjugated by seeded unitaries; a false twin
    has one atomic phase changed."""
    rng = np.random.default_rng(seed)
    phi, psi = np.exp(2j * np.pi * rng.random(2))

    def atom(word, phase):
        return families.atomic_module(families.AtomicLabel(word, phase))

    def conj(*parts):
        m = functools.reduce(core.direct_sum, parts)
        return core.conjugate(m, random_unitary(rng, m.dim))

    p = core.boxtimes(families.random_module(3, seed=seed), families.random_module(3, seed=seed + 50))
    n3, n2 = families.random_module(3, seed=seed + 100), families.random_module(2, seed=seed + 150)
    return [
        (conj(p), conj(p), None),
        (conj(atom("01", phi), atom("01", phi), n3), conj(atom("01", phi), atom("01", phi), n3),
         conj(atom("01", phi), atom("01", -phi), n3)),
        (conj(atom("011", phi), atom("01", psi), n2), conj(atom("011", phi), atom("01", psi), n2),
         conj(atom("011", -phi), atom("01", psi), n2)),
        (conj(*[atom("01", phi)] * 3, *[atom("011", psi)] * 2, n3),
         conj(*[atom("01", phi)] * 3, *[atom("011", psi)] * 2, n3),
         conj(*[atom("01", phi)] * 3, atom("011", psi), atom("011", -psi), n3)),
    ]


def _count_commutant_solves(monkeypatch):
    calls = []
    kernel = la.commutation_kernel
    monkeypatch.setattr(la, "commutation_kernel", lambda *a, **k: calls.append(1) or kernel(*a, **k))
    return calls


def _isotypic_projectors(m, rep):
    """Summand multiset and the projector onto each isotypic component:
    isometries inside a component are not unique, these are."""
    groups = {}
    for s in rep.summands:
        label = None if s.label is None else (s.label.word, round(float(np.angle(s.label.phase)), 6))
        key = (s.dimension, s.tag, label, structure._trace_key(restricted(m, s.isometry)))
        groups[key] = groups.get(key, 0) + s.isometry @ s.isometry.conj().T
    return groups


def _same_decomposition(m, a, b):
    pa, pb = _isotypic_projectors(m, a), _isotypic_projectors(m, b)
    assert a.confidence == b.confidence
    assert sorted(pa, key=str) == sorted(pb, key=str)
    for key in pa:
        assert np.linalg.norm(pa[key] - pb[key]) < 1e-8


def test_spin_closure_keeps_atom_carriers():
    # A leg image of rounding size is not a new direction: the closure of
    # a vector of an atomic carrier is that carrier.
    for seed in range(1, 6):
        for m, _, _ in _structure_inputs(seed)[1:]:
            for a in structure.atomic_part(m):
                q = structure.closure(m, a.isometry[:, 0])
                assert q.shape[1] == len(a.label.word)
                assert np.linalg.norm(q @ q.conj().T - a.isometry @ a.isometry.conj().T) < 1e-8


def test_spectral_routes_need_no_commutant_solve(monkeypatch):
    calls = _count_commutant_solves(monkeypatch)
    for seed in (1, 2, 3):
        for m, twin, false_twin in _structure_inputs(seed):
            rep = structure.decompose_full(m, seed=0)
            assert rep.confidence == "certified"
            assert sum(s.dimension for s in rep.summands) == m.dim
            res = structure.equivalent(m, twin, seed=0)
            assert res.verdict is True and structure._verify_witness(m, twin, res.witness, 1e-9)
            if false_twin is not None:
                res = structure.equivalent(m, false_twin, seed=0)
                assert res.verdict is False and res.reason.startswith("probe spectra differ")
    assert calls == []


def test_degenerate_probe_falls_back_to_commutant_split(monkeypatch):
    for m, _, _ in _structure_inputs(4):
        want = structure.decompose_full(m, seed=0)
        with monkeypatch.context() as mp:
            calls = _count_commutant_solves(mp)
            mp.setattr(structure, "_probe", lambda m, rng: (None, np.zeros((m.dim, m.dim), dtype=complex)))
            got = structure.decompose_full(m, seed=0)
        assert calls
        _same_decomposition(m, want, got)


def _noisy(m, eps, rng):
    return core.PModule(legs=tuple(
        leg + eps * (rng.standard_normal(leg.shape) + 1j * rng.standard_normal(leg.shape))
        for leg in m.legs
    ))


def test_noisy_twin_true_by_gauged_witness(monkeypatch):
    # Noise of 1e-9 on the twin moves its probe eigenbasis by about as
    # much; turned along the clean module's forest it still gives a witness
    # within eta at rtol 1e-9 and 1e-8, with no commutant solve.
    m, twin, _ = _structure_inputs(1)[0]
    noisy = _noisy(twin, 1e-9, np.random.default_rng(1))
    for rtol in (1e-9, 1e-8):
        with monkeypatch.context() as mp:
            calls = _count_commutant_solves(mp)
            got = structure.equivalent(m, noisy, rtol=rtol)
        assert calls == []
        assert got.verdict is True, (rtol, got.reason)
        assert structure._verify_witness(m, noisy, got.witness, rtol)
        assert "coupling margin" in got.reason
    # Ten times the noise moves the witness's legs by more than eta = 1e-7,
    # inside the Weyl bound: the verdict is None, and the reason names the
    # witness's worst leg defect.
    got = structure.equivalent(m, _noisy(twin, 1e-8, np.random.default_rng(1)))
    assert got.verdict is None and got.reason.startswith("no verified witness: worst leg defect")
    assert "against eta 1.000e-07 (coupling margin" in got.reason


def test_equivalent_verdicts_never_flip_under_noise(monkeypatch):
    # Noise and rtol may weaken a verdict to None, never turn it over: twins
    # are never False and false twins never True. No call solves for a
    # commutant.
    for seed in (1, 2, 3):
        for i, (m, twin, false_twin) in enumerate(_structure_inputs(seed)):
            for j, rtol in enumerate((1e-11, 1e-10, 1e-9)):
                for k, eps in enumerate((1e-11, 1e-10, 1e-9)):
                    rng = np.random.default_rng([seed, i, j, k])
                    for other, never in ((twin, False), (false_twin, True)):
                        if other is None:
                            continue
                        with monkeypatch.context() as mp:
                            calls = _count_commutant_solves(mp)
                            res = structure.equivalent(m, _noisy(other, eps, rng), rtol=rtol)
                        assert res.verdict is not never, (seed, i, rtol, eps, res.reason)
                        assert calls == []
