"""Structural analysis tests: intertwiners, parts, decomposition, equivalence."""

import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmod import cli, core, families, fileio, structure
from pmod import linalg as la
from pmod.errors import TooLarge

from conftest import (
    atomic_emergence_pair,
    d2_display_pair,
    gp_copies,
    random_d2,
    random_gp,
    random_unitary,
    restricted,
    rounded_file,
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


def test_intertwiner_solve_above_the_cap_is_refused_at_once():
    # Carrier 256: the fold's stacked QR input would be 128 GiB.
    prod = core.boxtimes(families.random_module(16, seed=1), families.random_module(16, seed=2))
    with pytest.raises(TooLarge, match="above the 1 GiB cap"):
        structure.intertwiner_basis(prod, prod)


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
    the prefix operator carried and the prime-word test made per node; its
    stabilization and invariance cuts are the walk's own leg cut."""
    la, cut = structure.la, structure._LEG_CUT
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
                coef = la.kernel_basis(resid, cut, scale=1.0)
                if coef.shape[1] == stable.shape[1]:
                    break
                stable = stable @ coef
            if stable.shape[1]:
                phases, vecs = la.unitary_eig(la.dagger(stable) @ prefix @ stable)
                prefixes = [eye]
                for digit in word[:-1]:
                    prefixes.append(m.legs[int(digit)] @ prefixes[-1])
                for j in range(vecs.shape[1]):
                    eta = stable @ vecs[:, j]
                    if np.linalg.norm(eta - claimed @ (la.dagger(claimed) @ eta)) < 0.5:
                        continue
                    carrier = la.gram_schmidt(np.column_stack([p @ eta for p in prefixes]))
                    if carrier.shape[1] != len(word) or structure._invariance_defect(m, carrier) > cut:
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


@pytest.mark.parametrize("seed", [168, 211])
def test_atoms_agree_on_a_ten_digit_file(seed):
    # Two 01 atoms at one phase plus N(3), conjugated and rounded to 10
    # digits: the word image's residual direction near 1e-9 stays below the
    # leg cut, so the walk keeps both atoms, and the atomic part, the
    # classification and the decomposition agree.
    rng = np.random.default_rng(seed)
    phase = np.exp(2j * np.pi * rng.random())
    atom = families.atomic_module(families.AtomicLabel("01", phase))
    m = core.direct_sum(core.direct_sum(atom, atom), families.random_module(3, "N", seed=seed))
    m = fileio.parse_module_file(rounded_file(core.conjugate(m, random_unitary(rng, 7))))[0]
    parts = structure.atomic_part(m)
    assert [s.label.word for s in parts] == ["01", "01"]
    assert all(abs(s.label.phase - phase) < 1e-8 for s in parts)
    rep = structure.classify_parts(m)
    assert (rep.atomic_dim, rep.diffuse_dim, rep.residual_dim, rep.confidence) == (4, 3, 0, "certified")
    full = structure.decompose_full(m, seed=0)
    assert [(s.dimension, s.tag) for s in full.summands] == [(2, "atomic"), (2, "atomic"), (3, "diffuse")]
    assert full.confidence == "certified"
    assert all(s.label.word == "01" and abs(s.label.phase - phase) < 1e-8 for s in full.summands[:2])


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
    cp = structure._completion(ds, structure.atomic_part(ds))
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
        cp = structure._completion(prod, structure.atomic_part(prod))
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
    v = rep.atomic[0].isometry[:, 0]
    # For unit vectors this is the sine of the angle between them.
    assert np.linalg.norm(v - np.vdot(xi, v) * xi) <= 1e-8
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
    # The 4.2 module is not full; a commutant split that leaks stays whole,
    # so the decomposition is heuristic or a single block.
    m = shared_eigenline_module()
    rep = structure.decompose_full(m, seed=5)
    assert rep.confidence == "heuristic" or len(rep.summands) == 1


@pytest.mark.parametrize("seed", range(6))
def test_decompose_certifies_ten_digit_gp_copies_without_a_solve(monkeypatch, seed):
    # Two copies of GP (6, 8) read back from a file rounded to 10 digits
    # (residual about 1.4e-9, inside the parse gate): the probe's two
    # 48-dimensional trees pass the leg cut, so no End is solved.
    m = fileio.parse_module_file(rounded_file(gp_copies(seed)))[0]
    calls = _count_commutant_solves(monkeypatch)
    rep = structure.decompose_full(m, seed=0)
    assert [(s.dimension, s.tag) for s in rep.summands] == [(24, "diffuse")] * 4
    assert rep.confidence == "certified"
    assert calls == []


@pytest.mark.parametrize("seed", [0, 5])
def test_decompose_eight_digit_gp_copies_is_never_refused(seed):
    # At 8 digits (residual about 1.4e-7) the probe cannot certify the
    # split, and neither can the commutant fallback: the carrier stays whole
    # as a heuristic report instead of a refusal.
    m = fileio.parse_module_file(rounded_file(gp_copies(seed), 8), 2e-7)[0]
    rep = structure.decompose_full(m, 2e-7, seed=0)
    got = ([(s.dimension, s.tag) for s in rep.summands], rep.confidence)
    assert got in (([(96, "diffuse")], "heuristic"), ([(24, "diffuse")] * 4, "certified"))


def test_decompose_solves_the_whole_carrier_when_a_frame_block_leaks(monkeypatch):
    # Two copies of GP (6, 8), which is 2 x 24, conjugated and read back from
    # a file rounded to 10 digits (residual 1.4e-9, inside the parse gate).
    # The probe's cut finds the two 48-dimensional trees, whose invariance
    # defects pass the leg cut: four certified summands with no solve. When
    # the first tree leaks, End is solved once on all 96 dimensions and split
    # into the four irreducibles.
    m = fileio.parse_module_file(rounded_file(gp_copies(0)))[0]
    sizes, solve = [], la.commutation_kernel
    monkeypatch.setattr(la, "commutation_kernel",
                        lambda pairs, rtol: sizes.append(pairs[0][0].shape[0]) or solve(pairs, rtol))
    rep = structure.decompose_full(m, seed=0)
    assert [(s.dimension, s.tag) for s in rep.summands] == [(24, "diffuse")] * 4
    assert (rep.confidence, sizes) == ("certified", [])
    leaks, defect = [1.0], structure._invariance_defect
    monkeypatch.setattr(structure, "_invariance_defect", lambda mm, q: leaks.pop() if leaks else defect(mm, q))
    rep = structure.decompose_full(m, seed=0)
    assert [(s.dimension, s.tag) for s in rep.summands] == [(24, "diffuse")] * 4
    assert rep.confidence == "certified"
    assert sizes == [96, 24, 24, 24, 24]
    q = np.hstack([s.isometry for s in rep.summands])
    assert np.linalg.norm(q.conj().T @ q - np.eye(96)) < 1e-8


def test_decompose_skips_the_invariance_gate_on_a_carrier_wide_block(monkeypatch):
    # N(4) x N(4) is one irreducible block of 16 columns: the unitary frame,
    # which spans the invariant carrier, so its defect is never computed.
    m = core.boxtimes(families.random_module(4, "N", seed=1), families.random_module(4, "N", seed=2))
    widths, defect = [], structure._invariance_defect
    monkeypatch.setattr(structure, "_invariance_defect",
                        lambda mm, q: widths.append(q.shape[1]) or defect(mm, q))
    rep = structure.decompose_full(m, seed=0)
    assert [(s.dimension, s.tag) for s in rep.summands] == [(16, "diffuse")]
    assert rep.confidence == "certified"
    assert widths.count(16) == 0


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


def test_classify_decaying_legs_outside_class_m(monkeypatch):
    # A is not normal, so m is not in class M, but both legs decay: the
    # whole carrier is certified diffuse with no certificate and no
    # invariance gate.
    a = np.array([[0.3, 0.4], [0.0, 0.5]], dtype=complex)
    m = core.PModule(legs=(a, la.psd_funcalc(np.eye(2) - a.conj().T @ a, "sqrt")))
    assert not core.in_class_m(m, la.DEFAULT_RTOL) and structure._decays(m, la.DEFAULT_RTOL)
    calls = []
    for name in ("_diffuse_certificate", "_invariance_defect"):
        fn = getattr(structure, name)
        monkeypatch.setattr(structure, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    rep = structure.classify_parts(m)
    assert (rep.atomic_dim, rep.diffuse_dim, rep.residual_dim) == (0, 2, 0)
    assert rep.confidence == "certified"
    assert calls == []


def test_complete_submodule_atomic_plus_residual(monkeypatch):
    m = core.direct_sum(shared_eigenline_module(),
                        families.atomic_module(families.AtomicLabel("01", 1j)))
    cp = structure.complete_submodule(m)
    assert cp.p_dimension == 3
    assert cp.confidence == "certified"
    calls = []
    walk = structure._atomic_walk
    monkeypatch.setattr(
        structure, "_atomic_walk", lambda *a, **k: calls.append(1) or walk(*a, **k)
    )
    rep = structure.classify_parts(m)
    assert (rep.atomic_dim, rep.diffuse_dim, rep.residual_dim) == (2, 1, 1)
    assert len(calls) == 1  # the complete-part search's atomic walk is reused


def test_forced_completion_ends_within_d_rounds(monkeypatch):
    # Under 1e-11 noise the atomic walk still finds all three atoms. When it
    # misses the one-dimensional atom "1", the forced completion still ends
    # within d rounds, certified at the whole carrier (its stalled branch does
    # not run here); the report is heuristic because the diffuse candidate
    # holds the missed atom and so fails the decay certificate in classify_parts.
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
    for module in (clean, noisy):
        rep = structure.classify_parts(module)
        assert sorted(s.label.word for s in rep.atomic) == ["00101", "0111", "1"]
        assert rep.confidence == "certified"
    walk = structure._atomic_walk
    monkeypatch.setattr(structure, "_atomic_walk",
                        lambda *a, **k: [s for s in walk(*a, **k) if s.label.word != "1"])
    calls = []  # one Norton search per completion round
    minimal = structure._minimal_invariant_from
    monkeypatch.setattr(
        structure, "_minimal_invariant_from", lambda *a, **k: calls.append(1) or minimal(*a, **k)
    )
    rep = structure.classify_parts(noisy)
    assert 0 < len(calls) <= noisy.dim + 1
    assert rep.p_dimension + rep.residual_dim == noisy.dim
    assert rep.confidence == "heuristic"


def test_completion_round_takes_one_complement(monkeypatch):
    # Two 01 atoms plus N(3), conjugated: one completion round adds the
    # diffuse part. The round spins the kept candidate under the adjoint legs
    # and completes that spin once; the candidate itself is never completed.
    # Norton's test takes its own complements through _invariant_outside too,
    # so only the calls made by the completion round are counted.
    atom = families.atomic_module(families.AtomicLabel("01", np.exp(0.7j)))
    m = core.direct_sum(core.direct_sum(atom, atom), families.random_module(3, seed=5))
    m = core.conjugate(m, random_unitary(np.random.default_rng(7), m.dim))
    calls = []
    homes = ((structure, "largest_invariant_in"), (structure, "_invariant_outside"),
             (la, "complete_basis"))
    for home, name in homes:
        f = getattr(home, name)

        def counted(*a, f=f, name=name):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return f(*a)

        monkeypatch.setattr(home, name, counted)
    rep = structure.classify_parts(m)
    assert (rep.atomic_dim, rep.diffuse_dim, rep.residual_dim) == (4, 3, 0)
    assert rep.confidence == "certified"
    names = [name for name, _ in calls]
    assert names.count("largest_invariant_in") == 0
    assert calls.count(("_invariant_outside", "_completion")) == 1
    assert names.count("complete_basis") <= 2


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


def test_minimal_invariant_returns_the_closure_when_lapack_fails(monkeypatch):
    # 01 + 0 is reducible: Norton's test splits the closure of the all-ones
    # seed, unless the eigenvalue call fails, which ends the search there.
    m = core.direct_sum(families.atomic_module(families.AtomicLabel("01", 1j)),
                        families.atomic_module(families.AtomicLabel("0", -1.0)))
    assert structure._minimal_invariant_from(m, np.ones(3)).shape[1] < 3

    def fail(x):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    q = structure._minimal_invariant_from(m, np.ones(3))
    assert np.linalg.norm(q @ q.conj().T - np.eye(3)) < 1e-12


def test_minimal_invariant_stops_after_three_undecided_draws(monkeypatch):
    # A zero combination theta leaves every singular value at 0: the kernel
    # is not one-dimensional and both spins fill the irreducible W = C^3, so
    # no draw decides and W is returned after the third.
    m = families.atomic_module(families.AtomicLabel("011", 1j))
    draws = []

    class Zeros:
        def standard_normal(self, n):
            draws.append(n)
            return np.zeros(n)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Zeros())
    q = structure._minimal_invariant_from(m, np.eye(3)[:, 0])
    assert draws == [3, 3, 3] and q.shape[1] == 3


def test_completion_adds_the_remainder_when_a_piece_falls_inside(monkeypatch):
    # A minimal piece inside the accepted span (only rounding can put it
    # there) stalls the loop: the remainder is added whole and the result
    # is heuristic.
    m = core.direct_sum(families.atomic_module(families.AtomicLabel("01", 1j)),
                        families.random_module(3, "N", seed=1))
    atoms = structure.atomic_part(m)
    comp = structure._completion(m, atoms)
    assert (comp.p_dimension, comp.confidence) == (5, "certified")
    monkeypatch.setattr(structure, "_minimal_invariant_from", lambda m, seed: atoms[0].isometry)
    comp = structure._completion(m, atoms)
    assert (comp.p_dimension, comp.confidence) == (5, "heuristic")


def test_atomic_walk_skips_claimed_and_rejected_carriers(monkeypatch):
    # An eigenvector whose carrier is already claimed adds nothing; a carrier
    # of the wrong rank or off the leg-invariance gate is dropped.
    m = families.atomic_module(families.AtomicLabel("01", 1j))
    want = [(s.label.word, s.label.phase) for s in structure.atomic_part(m)]
    assert want == [("01", 1j)]
    eig, gram_schmidt = la.unitary_eig, la.gram_schmidt
    with monkeypatch.context() as mp:
        mp.setattr(la, "unitary_eig", lambda v: tuple(np.concatenate([x, x], axis=-1) for x in eig(v)))
        assert [(s.label.word, s.label.phase) for s in structure.atomic_part(m)] == want
    with monkeypatch.context() as mp:
        mp.setattr(la, "gram_schmidt",
                   lambda v, against=None: gram_schmidt(v, against)[:, :1] if against is None
                   else gram_schmidt(v, against))
        assert structure.atomic_part(m) == []
    with monkeypatch.context() as mp:
        mp.setattr(structure, "_invariance_defect", lambda mm, q: 1.0)
        assert structure.atomic_part(m) == []


def _count_lapack_calls(monkeypatch):
    """Operand shapes of the calls that go through la._lapack."""
    calls = []
    lapack = la._lapack
    monkeypatch.setattr(la, "_lapack", lambda f, a, **k: calls.append(a.shape) or lapack(f, a, **k))
    return calls


def test_diffuse_certificate_walk_alone_tests_the_legs(monkeypatch):
    # A nilpotent leg of norm 1 survives the first word length; every word
    # of length 2 falls below the prune. The walk takes one batched norm
    # call per length and none are taken before it.
    m = core.PModule(legs=(np.array([[0, 1], [0, 0]], dtype=complex), 0.5 * np.eye(2, dtype=complex)))
    calls = _count_lapack_calls(monkeypatch)
    assert structure._diffuse_certificate(m)
    assert calls == [(2, 2, 2), (2, 2, 2)]


def test_diffuse_certificate_refuses_past_breadth(monkeypatch):
    # On atoms "0" + "1" the words 0...0 and 1...1 keep norm 1 at every
    # length, so the walk never dies; two survivors exceed a breadth of one.
    m = core.direct_sum(*(families.atomic_module(families.AtomicLabel(w, 1.0)) for w in "01"))
    monkeypatch.setattr(structure, "_DECAY_BREADTH", 1)
    calls = _count_lapack_calls(monkeypatch)
    assert not structure._diffuse_certificate(m)
    assert calls == [(2, 2, 2)]


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


def test_spin_fixes_the_phase_of_each_new_column():
    # Spun from a kernel vector of the normal leg A, the adjoint A-image is
    # rounding noise, and LAPACK's SVD would take the new columns' phases from
    # it. The phase rule makes the basis a stable function of the start vector.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = 3 + seed % 5
        m = families.random_module(d, "M", zero_eigenvalues=1 + seed % 2, seed=seed)
        m = core.conjugate(m, random_unitary(rng, d))
        ops = [leg.conj().T for leg in m.legs]
        v = np.linalg.svd(m.A)[2][-1:].conj().T
        w = v + 1e-15 * (rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1)))
        q, qw = structure._spin(ops, v), structure._spin(ops, w / np.linalg.norm(w))
        assert q.shape == qw.shape and np.abs(q - qw).max() <= 1e-12


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


def test_commutant_split_single_cluster_and_non_invariant_eigenspace(monkeypatch):
    # A degenerate probe sends the whole carrier to split. A commutant basis
    # of two copies of the identity gives an element with one eigenvalue
    # cluster: the carrier stays whole and the report is heuristic. A basis
    # holding the projector on the first frame vector splits off a line no
    # leg keeps: that split is not certified either, so the same holds.
    m = families.random_module(3, "N", seed=1)
    monkeypatch.setattr(structure, "_probe", lambda m, rng: (None, np.zeros((m.dim, m.dim), dtype=complex)))
    eye = np.eye(3, dtype=complex) / np.sqrt(3)
    monkeypatch.setattr(la, "commutation_kernel", lambda pairs, rtol: [eye, eye])
    rep = structure.decompose_full(m, seed=0)
    assert [s.dimension for s in rep.summands] == [3] and rep.confidence == "heuristic"
    monkeypatch.setattr(la, "commutation_kernel", lambda pairs, rtol: [eye, np.diag([1.0, 0.0, 0.0]) + 0j])
    rep = structure.decompose_full(m, seed=0)
    assert [s.dimension for s in rep.summands] == [3] and rep.confidence == "heuristic"


def test_commutant_solve_above_the_cap_leaves_the_block_whole(monkeypatch):
    # A degenerate probe sends the whole carrier of two copies of N(3) to
    # split, and a 1 KiB cap refuses its End solve: the carrier stays whole
    # and the report is heuristic, where the refusal would otherwise end the
    # decomposition.
    m = families.random_module(3, "N", seed=1)
    monkeypatch.setattr(structure, "_probe", lambda m, rng: (None, np.zeros((m.dim, m.dim), dtype=complex)))
    monkeypatch.setattr(la, "_SOLVE_CAP", 2**10)
    rep = structure.decompose_full(core.direct_sum(m, m), seed=0)
    assert [s.dimension for s in rep.summands] == [6] and rep.confidence == "heuristic"


def test_lapack_failure_in_frame_is_no_convergence(monkeypatch, tmp_path, capsys):
    # Two equal copies give probe clusters of size 2, whose edge blocks are
    # turned by one batched SVD.
    m = families.random_module(3, "N", seed=1)
    path = tmp_path / "twice.json"
    path.write_text(fileio.serialize_module(core.direct_sum(m, m)))
    svd = np.linalg.svd

    def fail_batched(a, *args, **kwargs):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fail_batched)
    with pytest.raises(la.NoConvergence):
        structure.decompose_full(core.direct_sum(m, m), seed=0)
    assert cli.main(["decompose", str(path), "--seed", "0"]) == 1
    assert capsys.readouterr().err.startswith("ERROR NoConvergence")


def _noisy(m, eps, rng):
    return core.PModule(legs=tuple(
        leg + eps * (rng.standard_normal(leg.shape) + 1j * rng.standard_normal(leg.shape))
        for leg in m.legs
    ))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tag=st.sampled_from("NM"), d=st.integers(min_value=2, max_value=6),
       seed=st.integers(min_value=0, max_value=2**16), twin=st.booleans(),
       noise=st.sampled_from([0.0, 1e-10]))
def test_equivalence_verdict_never_flips_with_tol(tag, d, seed, twin, noise):
    # A larger rtol may weaken a verdict but never turn True into False or
    # back: above eta's ceiling every pair is decided against one eta.
    rng = np.random.default_rng(seed)
    m = families.random_module(d, tag, seed=seed)
    other = m if twin else families.random_module(d, tag, seed=seed + 100)
    mt = _noisy(core.conjugate(other, random_unitary(rng, d)), noise, rng)
    tols = (1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0, np.inf)
    verdicts = {structure.equivalent(m, mt, rtol=t).verdict for t in tols}
    assert not {True, False} <= verdicts, verdicts


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


# ---------------------------------------------------------------------------
# Leg-norm tags and the turned frame.
# ---------------------------------------------------------------------------


def _summary(rep):
    return [(s.dimension, s.tag, s.label and (s.label.word, round(float(np.angle(s.label.phase)), 9)))
            for s in rep.summands]


@pytest.mark.parametrize("rtol", [1e-12, 1e-9, 1e-7])
def test_leg_norm_tags_match_walk_and_certificate(monkeypatch, rtol):
    # Class N, products and atomic sums: with the one singular-value pass
    # turned off, the walk and the certificate give the same tags.
    mods = [families.random_module(4, "N", seed=3), _structure_inputs(5)[0][0]]
    mods += [m for m, _, _ in _structure_inputs(6)[1:]] + [_seeded_atomic_sum(7, 0.0)]
    for m in mods:
        gated = (structure.atomic_part(m, rtol=rtol), structure.classify_parts(m, rtol=rtol),
                 structure.decompose_full(m, rtol=rtol, seed=0), structure._decays(m, rtol))
        with monkeypatch.context() as mp:
            mp.setattr(structure, "_decays", lambda m, rtol: False)
            walked = (structure.atomic_part(m, rtol=rtol), structure.classify_parts(m, rtol=rtol),
                      structure.decompose_full(m, rtol=rtol, seed=0))
            if gated[3]:
                assert walked[0] == [] and structure._diffuse_certificate(m)
        keys = [[(s.label.word, round(float(np.angle(s.label.phase)), 9)) for s in out]
                for out in (gated[0], walked[0], gated[1].atomic, walked[1].atomic)]
        assert keys[0] == keys[1] == keys[2] == keys[3]
        reports = (gated[1], walked[1])
        assert len({(r.diffuse_dim, r.atomic_dim, r.residual_dim, r.confidence) for r in reports}) == 1
        assert _summary(gated[2]) == _summary(walked[2])
        assert gated[2].confidence == walked[2].confidence


def test_leg_norm_gate_edge_runs_the_walk(monkeypatch):
    # sigma_max = 1 - 2e-7 is below the prune, but at rtol 1e-6 the leg
    # preserves the norm of e_1 (1 - sigma^2 = 4e-7): the walk must run and
    # find the atom "0". At rtol 1e-9 the gate holds and nothing is walked.
    a = np.array([1 - 2e-7, 0.5])
    m = core.PModule(legs=(np.diag(a).astype(complex), np.diag(np.sqrt(1 - a**2)).astype(complex)))
    calls = _count_norm_preserving(monkeypatch)
    assert not structure._decays(m, 1e-6)
    atoms = structure.atomic_part(m, rtol=1e-6)
    assert calls and [s.label.word for s in atoms] == ["0"]
    assert structure._decays(m, 1e-9)
    calls.clear()
    assert structure.atomic_part(m, rtol=1e-9) == [] and calls == []
    assert [s.tag for s in structure.decompose_full(m, rtol=1e-9).summands] == ["diffuse"] * 2


def test_frame_turns_edges_of_every_orientation():
    # Each kid (a cluster turned along a forest edge from a parent of its
    # size) meets its parent in a Hermitian positive semidefinite block of
    # the turned frame, read in its edge's orientation: R_e[parent, kid], or
    # R_{e-n}[kid, parent]* on an adjoint edge. The inputs give simple and
    # larger clusters on forward and adjoint edges.
    rng = np.random.default_rng(5)
    atom = families.atomic_module(families.AtomicLabel("01", np.exp(0.7j)))
    p3, p4 = (core.boxtimes(families.random_module(d, "N", seed=1), families.random_module(d, "N", seed=2))
              for d in (3, 4))
    mods = [core.direct_sum(core.direct_sum(p3, p3), p3), p4,
            core.direct_sum(core.direct_sum(atom, atom), families.random_module(3, "N", seed=3))]
    seen = set()
    for mod in mods:
        mod = core.conjugate(mod, random_unitary(rng, mod.dim))
        eig = la._eigh(structure._probe(mod, np.random.default_rng(0))[1])
        frame, (runs, order, parent, edge, _, _), _ = structure._frame(mod, eig)
        turned = np.stack([frame.conj().T @ leg @ frame for leg in mod.legs])
        n = mod.arity
        for j in order:
            p = parent[j]
            if p < 0 or runs[j][1] - runs[j][0] != runs[p][1] - runs[p][0]:
                continue
            kid, up = slice(*runs[j]), slice(*runs[p])
            block = turned[edge[j], up, kid] if edge[j] < n else turned[edge[j] - n, kid, up].conj().T
            assert np.abs(block - block.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh((block + block.conj().T) / 2).min() >= -1e-12
            seen.add((block.shape[0] > 1, bool(edge[j] >= n)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_frame_turns_simple_clusters_to_positive_couplings():
    # A generic product has a simple probe spectrum: every turn is a phase,
    # every forest edge coupling of the turned frame is positive real, and
    # the frame is unitary. Given the forest, the twin's frame (read from
    # its forest edges alone) is turned the same way, and m's own forest
    # reproduces m's frame.
    m, twin, _ = _structure_inputs(8)[0]
    for mod in (m, twin):
        eig = la._eigh(structure._probe(mod, np.random.default_rng(0))[1])
        frame, forest, smin = structure._frame(mod, eig)
        runs, order, parent, edge = forest[:4]
        assert all(b - a == 1 for a, b in runs)
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(mod.dim)) < 1e-12
        assert np.linalg.norm(structure._frame(mod, eig, forest)[0] - frame) < 1e-12
        turned = np.stack([frame.conj().T @ leg @ frame for leg in mod.legs])
        n = mod.arity
        for j in order:
            p = parent[j]
            if p < 0:
                continue
            x = turned[edge[j], p, j] if edge[j] < n else np.conj(turned[edge[j] - n, j, p])
            assert abs(x.imag) < 1e-12 and abs(x.real - smin[j]) < 1e-12 and x.real > 0
    eig = la._eigh(structure._probe(m, np.random.default_rng(0))[1])
    eig_t = la._eigh(structure._probe(twin, np.random.default_rng(0))[1])
    frame, forest, _ = structure._frame(m, eig)
    frame_t = structure._frame(twin, eig_t, forest)[0]
    assert np.linalg.norm(frame_t.conj().T @ frame_t - np.eye(m.dim)) < 1e-12
    assert structure._verify_witness(m, twin, frame_t @ frame.conj().T, 1e-9)
