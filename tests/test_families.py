"""Family constructors and closed-form fusion rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmod import core, families, structure
from pmod import linalg as la
from pmod.errors import NotD2Shape, NotInvertible, NotPrime, TooLarge

from conftest import d2_display_pair, random_d2, random_gp, random_unitary, restricted


# ---------------------------------------------------------------------------
# Prime words.
# ---------------------------------------------------------------------------


def brute_force_prime_words(d):
    out = set()
    for bits in range(2**d):
        word = format(bits, f"0{d}b")
        if any(
            d % p == 0 and word == word[:p] * (d // p) for p in range(1, d)
        ):
            continue
        out.add(min(word[k:] + word[:k] for k in range(d)))
    return sorted(out)


def test_prime_words_small():
    assert families.prime_words(1) == ["0", "1"]
    assert families.prime_words(2) == ["01"]
    assert len(families.prime_words(6)) == 9


@pytest.mark.parametrize("d", range(1, 15))
def test_prime_words_match_brute_force(d):
    assert families.prime_words(d) == brute_force_prime_words(d)


def test_prime_word_counts_necklace_formula():
    # (1/d) sum_{p | d} mu(p) 2^(d/p)
    mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 11: -1, 12: 0}
    for d in range(1, 13):
        count = sum(mu[p] * 2 ** (d // p) for p in range(1, d + 1) if d % p == 0) // d
        assert len(families.prime_words(d)) == count


def test_prime_words_above_the_allocation_cap_are_refused():
    # Length 28 lists 9 586 395 words (about 0.76 GiB as strs), 29 would
    # list 18 512 790 (about 1.5 GiB): refused before the walk, like every
    # longer length, where the letters alone pass the 1 GiB cap.
    for d in (29, 31, 32, 40, 10**9):
        with pytest.raises(TooLarge, match="allocation cap"):
            families.prime_words(d)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bits=st.integers(min_value=0, max_value=2**10 - 1), d=st.integers(min_value=1, max_value=10))
def test_canonical_rotation_is_idempotent_and_rotation_invariant(bits, d):
    word = format(bits % (2**d), f"0{d}b")
    canon = families.canonical_rotation(word)
    assert families.canonical_rotation(canon) == canon
    for k in range(d):
        assert families.canonical_rotation(word[k:] + word[:k]) == canon


# ---------------------------------------------------------------------------
# Atomic labels and modules.
# ---------------------------------------------------------------------------


def test_atomic_label_canonicalizes_and_gates():
    lab = families.AtomicLabel("10", 1j)
    assert lab.word == "01" and lab.phase == 1j
    with pytest.raises(NotPrime):
        families.AtomicLabel("0101", 1.0)
    with pytest.raises(ValueError):
        families.AtomicLabel("01", 2.0)
    with pytest.raises(ValueError):
        families.AtomicLabel("02", 1.0)


def test_atomic_module_examples():
    m = families.atomic_module(families.AtomicLabel("0", 1.0))
    assert np.allclose(m.A, [[1.0]]) and np.allclose(m.B, [[0.0]])

    z = np.exp(0.8j)
    m = families.atomic_module(families.AtomicLabel("01", z))
    assert np.allclose(m.A, [[0, 0], [1, 0]])
    assert np.allclose(m.B, [[0, z], [0, 0]])
    e1 = np.array([1, 0], dtype=complex)
    assert np.allclose(m.B @ m.A @ e1, z * e1)

    assert core.validate(
        families.atomic_module(families.AtomicLabel("001", np.exp(1j * np.pi / 5)))
    ).passed


@pytest.mark.parametrize("word", ["0", "01", "001", "0011", "01011"])
def test_atomic_word_operator_phase(word):
    z = np.exp(0.37j)
    m = families.atomic_module(families.AtomicLabel(word, z))
    w = core.word_operator(m, word)
    e1 = np.zeros(len(word), dtype=complex)
    e1[0] = 1.0
    assert np.linalg.norm(w @ e1 - z * e1) <= 1e-12


# ---------------------------------------------------------------------------
# GP modules and fusion.
# ---------------------------------------------------------------------------


def test_gp_module_layouts():
    unit = families.gp_module(
        families.GPVector(entries=((1 / np.sqrt(2), 1 / np.sqrt(2)),))
    )
    assert np.allclose(unit.A, 1 / np.sqrt(2))

    rng = np.random.default_rng(2)
    z = random_gp(rng, 2)
    m = families.gp_module(z)
    (a1, b1), (a2, b2) = z.entries
    assert np.allclose(m.A, [[0, a2], [a1, 0]])
    assert np.allclose(m.B, [[0, b2], [b1, 0]])
    assert core.validate(m).passed
    assert core.validate(families.gp_module(random_gp(rng, 4))).passed


def test_gp_canonical_flags():
    rng = np.random.default_rng(3)
    z = random_gp(rng, 2)
    doubled = families.GPVector(entries=z.entries + z.entries)
    _, aperiodic = families.gp_canonical(doubled)
    assert not aperiodic
    canon_a, flag_a = families.gp_canonical(z)
    canon_b, flag_b = families.gp_canonical(
        families.GPVector(entries=z.entries[1:] + z.entries[:1])
    )
    assert flag_a and flag_b
    assert canon_a.entries == canon_b.entries
    assert families.gp_canonical(random_gp(rng, 3))[1]


def test_gp_fuse_counts_and_sphere():
    rng = np.random.default_rng(4)
    for r, s in [(2, 3), (2, 2), (4, 6), (3, 4)]:
        out = families.gp_fuse(random_gp(rng, r), random_gp(rng, s))
        assert len(out) == math.gcd(r, s)
        assert all(len(y) == math.lcm(r, s) for y in out)
        assert all(y.sphere_defect() <= 1e-12 for y in out)


def test_gp_fuse_requires_invertible():
    bad = families.GPVector(entries=((1.0, 0.0),))
    with pytest.raises(NotInvertible):
        families.gp_fuse(bad, bad)


def test_gp_fuse_inverse_pair_gives_units():
    rng = np.random.default_rng(5)
    z = random_gp(rng, 2)
    inv = [core.scalar_inverse(core.ScalarModule(*e)) for e in z.entries]
    zt = families.GPVector(entries=tuple((s.a, s.b) for s in inv))
    y1, y2 = families.gp_fuse(z, zt)
    r2 = 1 / np.sqrt(2)
    assert max(abs(a - r2) + abs(b - r2) for a, b in y1.entries) <= 1e-10
    s1, s2 = (core.ScalarModule(*e) for e in z.entries)
    e12 = core.scalar_boxtimes(s1, core.scalar_inverse(s2))
    e21 = core.scalar_boxtimes(s2, core.scalar_inverse(s1))
    assert abs(y2.entries[0][0] - e12.a) <= 1e-12
    assert abs(y2.entries[1][0] - e21.a) <= 1e-12


def test_gp_fuse_oracle_small_lengths():
    rng = np.random.default_rng(6)
    for r, s in [(2, 2), (2, 3), (3, 4)]:
        z, zt = random_gp(rng, r), random_gp(rng, s)
        direct = core.boxtimes(families.gp_module(z), families.gp_module(zt))
        pieces = families.gp_fuse(z, zt)
        combined = families.gp_module(pieces[0])
        for y in pieces[1:]:
            combined = core.direct_sum(combined, families.gp_module(y))
        res = structure.equivalent(direct, combined, seed=100 + r + s)
        assert res.verdict is True, (r, s, res.reason)


def test_gp_length_six_relation():
    # For (2,3) fusions the recipe forces y1 (x) y3^-1 = y4 (x) y6^-1.
    rng = np.random.default_rng(7)
    for _ in range(5):
        y = families.gp_fuse(random_gp(rng, 2), random_gp(rng, 3))[0]
        sm = [core.ScalarModule(*e) for e in y.entries]
        lhs = core.scalar_boxtimes(sm[0], core.scalar_inverse(sm[2]))
        rhs = core.scalar_boxtimes(sm[3], core.scalar_inverse(sm[5]))
        assert abs(lhs.a - rhs.a) <= 1e-12 and abs(lhs.b - rhs.b) <= 1e-12


# ---------------------------------------------------------------------------
# Atomic absorption.
# ---------------------------------------------------------------------------


def test_atomic_diffuse_fuse_unit_keeps_label():
    lab = families.AtomicLabel("01", np.exp(0.2j))
    out = families.atomic_diffuse_fuse(lab, core.unit_module())
    assert len(out) == 1
    assert out[0].word == "01" and abs(out[0].phase - lab.phase) <= 1e-12


def test_atomic_diffuse_fuse_scalar_phase_formula():
    g = core.ScalarModule(0.6 * np.exp(0.5j), 0.8 * np.exp(-0.2j))
    lab = families.AtomicLabel("001", np.exp(0.9j))
    out = families.atomic_diffuse_fuse(lab, g.as_module())
    assert len(out) == 1
    alpha = g.a / abs(g.a)
    beta = g.b / abs(g.b)
    want = alpha**2 * beta * lab.phase  # two zeros in "001"
    assert abs(out[0].phase - want) <= 1e-12


def test_atomic_diffuse_fuse_phase_multiset_and_cross_check():
    lab = families.AtomicLabel("011", np.exp(0.11j))
    md = families.random_module(2, "N", seed=55)
    out = families.atomic_diffuse_fuse(lab, md)
    assert len(out) == 2
    assert all(abs(abs(l.phase) - 1.0) <= 1e-10 for l in out)

    va = la.polar(md.A).unitary
    vb = la.polar(md.B).unitary
    v = np.eye(2, dtype=complex)
    for digit in lab.word:
        v = (va if digit == "0" else vb) @ v
    phases, _ = la.unitary_eig(v)
    want = sorted((p * lab.phase for p in phases), key=np.angle)
    got = [l.phase for l in out]
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-10

    prod = core.boxtimes(families.atomic_module(lab), md)
    parts = structure.atomic_part(prod, max_len=6)
    assert len(parts) == 2
    got2 = sorted((p.label.phase for p in parts), key=np.angle)
    assert max(abs(g - w) for g, w in zip(got2, want)) <= 1e-9
    assert sum(p.isometry.shape[1] for p in parts) == prod.dim


def test_atomic_diffuse_fuse_requires_invertible():
    with pytest.raises(NotInvertible):
        families.atomic_diffuse_fuse(
            families.AtomicLabel("01", 1.0), core.scalar_module(1.0, 0.0)
        )


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_atomic_diffuse_fuse_gates_on_polar_singular_values(monkeypatch, factor):
    # The gate reads the singular values polar returns, with no full SVD,
    # and at half and twice the threshold d * rtol decides as is_invertible
    # does (rtol 1e-3 keeps polar's unitary factor accurate there).
    rng = np.random.default_rng(1504)
    d, rtol, label = 4, 1e-3, families.AtomicLabel("011", 1.0)
    sigma = np.concatenate([[factor * d * rtol], np.linspace(0.5, 1.0, d - 1)])
    leg = (random_unitary(rng, d) * sigma) @ random_unitary(rng, d).conj().T
    other = random_unitary(rng, d) / np.sqrt(2)
    assert la.is_invertible(leg, rtol) == (factor > 1.0)
    monkeypatch.setattr(la, "singular_extremes", lambda m: pytest.fail("full SVD"))
    for legs in ((leg, other), (other, leg)):
        m = core.PModule(legs=legs)
        if factor > 1.0:
            assert len(families.atomic_diffuse_fuse(label, m, rtol)) == d
        else:
            with pytest.raises(NotInvertible):
                families.atomic_diffuse_fuse(label, m, rtol)


# ---------------------------------------------------------------------------
# D2 fusion.
# ---------------------------------------------------------------------------


def test_d2_fuse_display_four_scalars():
    m, mt = d2_display_pair()
    rep = families.d2_fuse(m, mt)
    scalars = [s for split in rep.scalar_splits if split for s in split]
    assert len(scalars) == 4
    lam = 1 / np.sqrt(2)
    got = sorted((round(s.a.real, 9), round(s.b.real, 9)) for s in scalars)
    want = sorted([(-lam, lam), (-lam, -lam), (lam, lam), (lam, -lam)])
    assert np.allclose(got, want, atol=1e-9)
    for block in rep.blocks:
        assert core.validate(block).passed


def test_d2_fuse_generic_blocks_match_direct_path():
    rng = np.random.default_rng(8)
    m, mt = random_d2(rng), random_d2(rng)
    rep = families.d2_fuse(m, mt)
    assert rep.scalar_splits == (None, None)
    direct = core.boxtimes(m, mt)
    drep = structure.decompose_full(direct, seed=12)
    assert [s.dimension for s in drep.summands] == [2, 2]
    for block in rep.blocks:
        assert any(
            structure.equivalent(block, restricted(direct, s.isometry), seed=13).verdict
            for s in drep.summands
        )


def test_d2_equal_diagonal_split_square_roots():
    # Equal diagonal entries split into (a, +sqrt(b1 b2)), (a, -sqrt(b1 b2)).
    a = 0.6
    b1 = np.sqrt(1 - a * a) * np.exp(0.4j)
    b2 = np.sqrt(1 - a * a) * np.exp(-0.1j)
    m = core.PModule(legs=(np.diag([a, a]), np.array([[0, b2], [b1, 0]])))
    assert core.validate(m).passed
    unitish = core.PModule(
        legs=(np.diag([1, 1]) * (1 / np.sqrt(2)), np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    )
    rep = families.d2_fuse(m, unitish)
    split = rep.scalar_splits[0]
    assert split is not None
    roots = sorted([s.b for s in split], key=lambda x: (round(x.real, 12), round(x.imag, 12)))
    prod = roots[0] * roots[1]
    k = 1 / np.sqrt(abs(a / np.sqrt(2)) ** 2 + abs(b1 / np.sqrt(2)) ** 2)
    want = -(b1 * k / np.sqrt(2)) * (b2 * k / np.sqrt(2))
    assert abs(prod - want) <= 1e-12
    assert abs(roots[0] + roots[1]) <= 1e-12


def test_d2_shape_gate():
    with pytest.raises(NotD2Shape):
        families.d2_fuse(core.unit_module(), core.unit_module())
    rng = np.random.default_rng(9)
    with pytest.raises(NotD2Shape):
        families.d2_fuse(families.random_module(2, "N", seed=1), random_d2(rng))


# ---------------------------------------------------------------------------
# Random sampler.
# ---------------------------------------------------------------------------


def test_random_module_deterministic():
    a = families.random_module(3, "N", seed=123)
    b = families.random_module(3, "N", seed=123)
    assert all(np.array_equal(x, y) for x, y in zip(a.legs, b.legs))


def test_random_module_class_gates():
    m = families.random_module(4, "N", seed=5)
    assert core.validate(m).passed
    assert core.in_class_n(m)
    assert la.frobenius(m.A @ la.dagger(m.A) - la.dagger(m.A) @ m.A) <= 1e-10

    boundary = families.random_module(3, "M", seed=6, zero_eigenvalues=1)
    assert core.validate(boundary).passed
    assert core.in_class_m(boundary) and not core.in_class_n(boundary)

    with pytest.raises(ValueError):
        families.random_module(3, "N", seed=1, zero_eigenvalues=1)
    with pytest.raises(ValueError):
        families.random_module(3, "X", seed=1)


def test_random_module_fusion_stays_in_class():
    a = families.random_module(2, "N", seed=31)
    b = families.random_module(2, "N", seed=32)
    assert core.in_class_n(core.boxtimes(a, b))
