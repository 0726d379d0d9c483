"""Module algebra tests: validation, star, fusion, duals, scalars, words."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmod import core, families, fileio, structure
from pmod import linalg as la
from pmod.errors import (
    ArityUnsupported,
    KernelOverlap,
    NotD2Shape,
    NotIntertwiner,
    NotInvertible,
    NotPositive,
    OnUnitAxis,
    PythagoreanViolation,
    ShapeError,
    ShapeMismatch,
    SingularDenominator,
)

from conftest import d2_display_pair, shared_eigenline_module, leg_defect, random_unitary

R2 = 1 / np.sqrt(2)


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def test_validate_unit():
    report = core.validate(core.unit_module())
    assert report.passed
    assert report.residual < 1e-15


def test_validate_failure_carries_residual():
    bad = core.PModule(legs=(np.array([[1.0]]), np.array([[1.0]])))
    report = core.validate(bad)
    assert not report.passed
    assert abs(report.residual - 1.0) < 1e-12


def test_validate_family_constructor_output():
    m = families.atomic_module(families.AtomicLabel("01", np.exp(0.4j)))
    assert core.validate(m).passed


def test_public_constructor_rejects_non_finite_legs_and_copies():
    for bad in (np.nan, np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)):
        leg = np.eye(2, dtype=complex) * R2
        leg[0, 1] = bad
        with pytest.raises(ShapeMismatch):
            core.PModule(legs=(leg, np.eye(2) * R2))
    a = np.eye(2, dtype=complex) * R2
    m = core.PModule(legs=(a, a))
    assert not np.shares_memory(m.A, a) and not m.A.flags.writeable
    a[0, 0] = 5.0
    assert m.A[0, 0] == R2


def test_computed_modules_take_the_trusted_route():
    # Results built from validated legs skip the public gate; their legs are
    # read-only and equal, bit for bit, to what the public constructor builds.
    m = families.random_module(3, "N", seed=1400)
    mt = families.random_module(2, "M", seed=1401)
    q = random_unitary(np.random.default_rng(1402), 3)[:, :2]
    results = {
        "boxtimes": core.boxtimes(m, mt),
        "dual_module": core.dual_module(m),
        "kawamura_tensor": core.kawamura_tensor(m, mt),
        "direct_sum": core.direct_sum(m, mt),
        "_restricted_module": structure._restricted_module(m, q),
    }
    for name, r in results.items():
        assert isinstance(r.legs, tuple), name
        for leg, want in zip(r.legs, core.PModule(legs=r.legs).legs):
            assert leg.dtype == np.complex128 and leg.flags.c_contiguous, name
            assert not leg.flags.writeable, name
            assert np.array_equal(leg, want), name


def test_module_shape_checks():
    with pytest.raises(ShapeMismatch):
        core.PModule(legs=(np.eye(2), np.eye(3)))
    with pytest.raises(ShapeMismatch):
        core.PModule(legs=(np.eye(2),))
    with pytest.raises(ShapeMismatch):
        core.PModule(legs=(np.ones((2, 3)), np.ones((2, 3))))


# ---------------------------------------------------------------------------
# The star operation.
# ---------------------------------------------------------------------------


def test_star_scalar_values():
    out = core.star(np.array([[0.5]]), np.array([[0.5]]))
    assert abs(out[0, 0] - 1 / np.sqrt(10)) < 1e-14
    a = 0.3
    out = core.star(np.array([[a]]), np.array([[np.sqrt(1 - a * a)]]))
    assert abs(out[0, 0] - R2) < 1e-14


def test_star_unit_acts_trivially():
    rng = np.random.default_rng(3)
    q = random_unitary(rng, 3)
    p = (q * [0.2, 0.5, 0.8]) @ q.conj().T
    out = core.star(np.array([[R2]]), p)
    assert np.linalg.norm(out - p) < 1e-12
    # Matrix form of the unit: (1/sqrt2) I on the left tensors p blockwise.
    out = core.star(R2 * np.eye(2), p)
    assert np.linalg.norm(out - np.kron(np.eye(2), p)) < 1e-12


def test_star_singular_denominator():
    with pytest.raises(SingularDenominator):
        core.star(np.array([[0.0]]), np.array([[1.0]]))


def test_star_matches_funcalc_route():
    rng = np.random.default_rng(4)
    q1, q2 = random_unitary(rng, 2), random_unitary(rng, 3)
    p = (q1 * [0.3, 0.9]) @ q1.conj().T
    qq = (q2 * [0.1, 0.5, 0.7]) @ q2.conj().T
    via_func = la.kron(p, qq) @ la.psd_funcalc(
        la.kron(p @ p, qq @ qq)
        + la.kron(np.eye(2) - p @ p, np.eye(3) - qq @ qq),
        "inv_sqrt",
    )
    assert np.linalg.norm(core.star(p, qq) - via_func) < 1e-10


def test_star_unit_square_grid():
    # p * q stays inside [0, 1] away from the two singular corners.
    grid = np.linspace(0.0, 1.0, 50)
    for p in grid:
        for q in grid:
            if (p, q) in ((0.0, 1.0), (1.0, 0.0)):
                continue
            den = p * p * q * q + (1 - p * p) * (1 - q * q)
            val = p * q / np.sqrt(den)
            assert -1e-12 <= val <= 1 + 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    p=st.floats(min_value=0.01, max_value=0.99),
    q=st.floats(min_value=0.01, max_value=0.99),
)
def test_star_scalar_range_hypothesis(p, q):
    out = core.star(np.array([[p]]), np.array([[q]]))[0, 0].real
    assert -1e-12 <= out <= 1 + 1e-12


# ---------------------------------------------------------------------------
# Fusion product.
# ---------------------------------------------------------------------------


def test_boxtimes_unit_laws():
    m = families.random_module(3, "M", seed=41)
    left = core.boxtimes(core.unit_module(), m)
    right = core.boxtimes(m, core.unit_module())
    assert leg_defect(left, m) <= 1e-10
    assert leg_defect(right, m) <= 1e-10


def test_boxtimes_scalar_formula():
    out = core.boxtimes(
        core.scalar_module(0.5, np.sqrt(3) / 2), core.scalar_module(0.5, np.sqrt(3) / 2)
    )
    assert abs(out.A[0, 0] - 1 / np.sqrt(10)) < 1e-13
    assert abs(out.B[0, 0] - 3 / np.sqrt(10)) < 1e-13


def test_boxtimes_output_validates():
    m = families.random_module(2, "N", seed=1)
    mt = families.random_module(3, "N", seed=2)
    out = core.boxtimes(m, mt)
    assert core.validate(out).passed
    assert out.dim == 6


def test_boxtimes_twists_shared_eigenline_module():
    # The scalar-fused 4.2 module has non-commuting legs and no common
    # eigenvector, unlike its first factor.
    n = core.scalar_module(0.5, np.sqrt(3) / 2)
    prod = core.boxtimes(n, shared_eigenline_module())
    comm = prod.A @ prod.B - prod.B @ prod.A
    assert np.linalg.norm(comm) > 1e-3


def test_boxtimes_kernel_overlap():
    with pytest.raises(KernelOverlap):
        core.boxtimes(core.scalar_module(1.0, 0.0), core.scalar_module(0.0, 1.0))


def test_boxtimes_rejects_higher_arity():
    k = core.kawamura_tensor(core.unit_module(), core.unit_module())
    with pytest.raises(ArityUnsupported):
        core.boxtimes(k, k)


def test_boxtimes_matches_definitional_route():
    # Oracle: build K^2 from the leg Gram matrices and invert it through the
    # generic functional calculus, then compare legs entrywise.
    for seed in (1, 2, 3):
        m = families.random_module(2, "N", seed=seed)
        mt = families.random_module(3, "N", seed=100 + seed)
        k2 = la.kron(la.dagger(m.A) @ m.A, la.dagger(mt.A) @ mt.A) + la.kron(
            la.dagger(m.B) @ m.B, la.dagger(mt.B) @ mt.B
        )
        kinv = la.psd_funcalc(k2, "inv_sqrt")
        want = core.PModule(
            legs=(la.kron(m.A, mt.A) @ kinv, la.kron(m.B, mt.B) @ kinv)
        )
        got = core.boxtimes(m, mt)
        assert leg_defect(got, want) <= 1e-10


def test_boxtimes_matches_polar_star_route():
    # Another independent route for invertible legs: unitary parts tensored,
    # positive parts combined with the star operation.
    for seed in (5, 6):
        m = families.random_module(2, "N", seed=seed)
        mt = families.random_module(2, "N", seed=50 + seed)
        got = core.boxtimes(m, mt)
        abs_parts = [
            la.psd_funcalc(la.dagger(x) @ x, "sqrt")
            for x in (m.A, mt.A, m.B, mt.B)
        ]
        want_a = la.kron(la.polar(m.A).unitary, la.polar(mt.A).unitary) @ core.star(
            abs_parts[0], abs_parts[1]
        )
        want_b = la.kron(la.polar(m.B).unitary, la.polar(mt.B).unitary) @ core.star(
            abs_parts[2], abs_parts[3]
        )
        assert np.linalg.norm(got.A - want_a) <= 1e-10
        assert np.linalg.norm(got.B - want_b) <= 1e-10


def _dense_boxtimes(m, mt):
    # Reference: the dense formula (A x At) K^-1, K^-1 through one eigh of K^2.
    k2 = la.kron(la.dagger(m.A) @ m.A, la.dagger(mt.A) @ mt.A) + la.kron(
        la.dagger(m.B) @ m.B, la.dagger(mt.B) @ mt.B
    )
    w, v = np.linalg.eigh(k2)
    kinv = (v / np.sqrt(w)) @ la.dagger(v)
    return core.PModule(legs=(la.kron(m.A, mt.A) @ kinv, la.kron(m.B, mt.B) @ kinv))


def _sample(d, tag, seed):
    zeros = 1 if tag == "M" and d > 1 else 0
    return families.random_module(d, tag, seed=seed, zero_eigenvalues=zeros)


def test_boxtimes_matches_dense_formula_across_sizes():
    dims = (1, 2, 3, 5, 8, 16)
    pairs = [(d, dt) for d in dims for dt in dims if d != dt]
    for i, (d, dt) in enumerate(pairs):
        for tag, tagt in (("N", "N"), ("M", "N"), ("N", "M"), ("M", "M")):
            m, mt = _sample(d, tag, 900 + i), _sample(dt, tagt, 950 + i)
            got, want = core.boxtimes(m, mt), _dense_boxtimes(m, mt)
            assert got.dim == d * dt
            assert max(np.abs(x - y).max() for x, y in zip(got.legs, want.legs)) <= 1e-12


def test_kron_right_matches_kronecker_product():
    rng = np.random.default_rng(3)

    def cmat(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # Square factors, and the row/column shapes of ev and coev either side.
    for (m, p), (n, q) in (((3, 3), (4, 4)), ((1, 9), (3, 3)), ((3, 3), (1, 9)), ((2, 5), (4, 1))):
        x, a, b = cmat(6, p * q), cmat(m, p), cmat(n, q)
        want = x @ la.dagger(la.kron(a, b))
        assert np.abs(core._kron_right(x, a, b) - want).max() <= 1e-12


def test_boxtimes_associativity_seeded():
    rng = np.random.default_rng(10)
    for i in range(5):
        m = families.random_module(2, "M", seed=300 + i)
        mt = families.random_module(2, "M", seed=400 + i)
        mh = families.random_module(3, "M", seed=500 + i)
        lhs = core.boxtimes(core.boxtimes(m, mt), mh)
        rhs = core.boxtimes(m, core.boxtimes(mt, mh))
        assert leg_defect(lhs, rhs) <= 1e-9


def test_boxtimes_flip_symmetry_seeded():
    for i in range(5):
        m = families.random_module(2, "M", seed=600 + i)
        mt = families.random_module(3, "M", seed=700 + i)
        ab = core.boxtimes(m, mt)
        ba = core.boxtimes(mt, m)
        u = core.flip_permutation(m.dim, mt.dim)
        flipped = core.PModule(legs=tuple(u @ leg @ u.conj().T for leg in ab.legs))
        assert leg_defect(flipped, ba) <= 1e-10


def test_flip_permutation_matches_loop_reference():
    for d1, d2 in ((1, 1), (1, 4), (3, 2), (4, 5)):
        ref = np.zeros((d1 * d2, d1 * d2), dtype=np.complex128)
        for i in range(d1):
            for j in range(d2):
                ref[j * d1 + i, i * d2 + j] = 1.0
        assert np.array_equal(core.flip_permutation(d1, d2), ref)


def test_boxtimes_conjugation_stability():
    rng = np.random.default_rng(11)
    m = families.random_module(2, "M", seed=800)
    mt = families.random_module(3, "M", seed=801)
    u, ut = random_unitary(rng, 2), random_unitary(rng, 3)
    lhs = core.boxtimes(core.conjugate(m, u), core.conjugate(mt, ut))
    rhs = core.conjugate(core.boxtimes(m, mt), la.kron(u, ut))
    assert leg_defect(lhs, rhs) <= 1e-9


def test_direct_sum_and_right_distributivity():
    unit = core.unit_module()
    both = core.direct_sum(unit, unit)
    assert np.allclose(both.A, np.diag([R2, R2]))
    assert core.direct_sum(
        families.random_module(2, "N", seed=5), families.random_module(3, "N", seed=6)
    ).dim == 5
    with pytest.raises(ShapeMismatch):
        core.direct_sum(unit, core.kawamura_tensor(unit, unit))

    # Right distributivity is the identity permutation in row-major layout.
    m = families.random_module(2, "M", seed=7)
    mt = families.random_module(2, "M", seed=8)
    p = families.random_module(2, "M", seed=9)
    lhs = core.boxtimes(core.direct_sum(m, mt), p)
    rhs = core.direct_sum(core.boxtimes(m, p), core.boxtimes(mt, p))
    assert leg_defect(lhs, rhs) <= 1e-9


def test_class_closure_under_fusion():
    for i in range(5):
        a = families.random_module(2, "M", seed=20 + i)
        b = families.random_module(2, "M", seed=60 + i)
        assert core.in_class_m(core.boxtimes(a, b))
        a = families.random_module(2, "N", seed=20 + i)
        b = families.random_module(3, "N", seed=60 + i)
        assert core.in_class_n(core.boxtimes(a, b))


# ---------------------------------------------------------------------------
# Duals and duality data.
# ---------------------------------------------------------------------------


def test_dual_unit_and_scalar():
    d = core.dual_module(core.unit_module())
    assert abs(d.A[0, 0] - R2) < 1e-14 and abs(d.B[0, 0] - R2) < 1e-14

    s = core.ScalarModule(0.5j, np.sqrt(3) / 2)
    d = core.dual_module(s.as_module())
    inv = core.scalar_inverse(s)
    assert abs(d.A[0, 0] - inv.a) < 1e-14
    assert abs(d.B[0, 0] - inv.b) < 1e-14


def test_dual_requires_invertible_legs():
    with pytest.raises(NotInvertible):
        core.dual_module(core.scalar_module(1.0, 0.0))
    boundary = families.random_module(3, "M", seed=12, zero_eigenvalues=1)
    with pytest.raises(NotInvertible):
        core.dual_module(boundary)
    # A tolerance whose rank floor keeps no singular value refuses any leg.
    generic = families.random_module(4, "N", seed=1)
    for rtol in (1.0, np.inf, np.nan):
        with pytest.raises(NotInvertible):
            core.dual_module(generic, rtol)
        with pytest.raises(NotInvertible):
            families.atomic_diffuse_fuse(families.AtomicLabel("01", 1.0), generic, rtol)


def test_dual_not_invertible_names_the_leg():
    cases = [((0.0, 1.0), "leg A"), ((1.0, 0.0), "leg B"), ((0.0, 0.0), "leg A")]
    for (a, b), leg in cases:
        with pytest.raises(NotInvertible, match=f"{leg} is numerically singular"):
            core.dual_module(core.scalar_module(a, b))


@pytest.mark.parametrize("d", [4, 64])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_dual_gate_agrees_with_is_invertible(d, factor):
    # dual_module gates on polar's singular values, is_invertible on a full
    # SVD; at half and twice the threshold they decide alike. At d = 64 the
    # threshold is d * rtol, above the floor _GRAM_FLOOR.
    rng = np.random.default_rng(1500 + d)
    threshold = max(d * la.DEFAULT_RTOL, la._GRAM_FLOOR)
    assert (d * la.DEFAULT_RTOL > la._GRAM_FLOOR) == (d == 64)
    sigma = np.concatenate([[factor * threshold], np.linspace(0.5, 1.0, d - 1)])
    leg = (random_unitary(rng, d) * sigma) @ random_unitary(rng, d).conj().T
    other = random_unitary(rng, d) * R2
    assert la.is_invertible(leg) == (factor > 1.0)
    for legs, name in (((leg, other), "A"), ((other, leg), "B")):
        m = core.PModule(legs=legs)
        if factor > 1.0:
            core.dual_module(m)
        else:
            with pytest.raises(NotInvertible, match=f"leg {name} "):
                core.dual_module(m)


@pytest.mark.parametrize("ratio", [1e-7, 5e-7, 5e-6, 2e-3, 1e-2])
def test_ill_conditioned_leg_keeps_polar_unitary(ratio):
    # A leg with smallest / largest singular value `ratio` passes the
    # invertibility gate. An eigensolve of A* A leaves polar's unitary off by
    # about eps / ratio^2 (2e-11 at ratio 2e-3): dual_module returned a module
    # failing the identity and atomic_diffuse_fuse raised an untyped
    # ValueError on a phase.
    rng = np.random.default_rng(1504)
    d = 4
    s = 0.8 * np.concatenate([[ratio], np.linspace(0.5, 1.0, d - 1)])
    v = random_unitary(rng, d)
    a = (random_unitary(rng, d) * s) @ v.conj().T
    b = (random_unitary(rng, d) * np.sqrt(1 - s**2)) @ v.conj().T
    m = core.PModule(legs=(a, b))
    pair = la.polar(a)
    assert np.linalg.norm(pair.unitary @ pair.unitary.conj().T - np.eye(d)) <= 1e-13
    assert np.allclose(pair.singular_values, np.sort(s), rtol=0, atol=1e-14)
    assert core.validate(core.dual_module(m)).residual <= 1e-13
    labels = families.atomic_diffuse_fuse(families.AtomicLabel("011", 1.0), m)
    assert len(labels) == d


def test_products_refuse_legs_that_overflow():
    # Legs far outside the Pythagorean identity pass the public constructor;
    # their products are refused with a typed error, not returned as inf.
    m = core.PModule(legs=(0.5 * np.eye(2), 1e200 * np.eye(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in (core.boxtimes, core.kawamura_tensor):
            with pytest.raises(ShapeMismatch, match="float range"):
                op(m, m)


def test_legs_whose_gram_matrix_overflows_are_refused():
    # The fusion factors' Gram matrices go to hermitian_eig's solver, past its
    # Hermiticity gate, which still refuses their non-finite entries. The dual
    # takes the polar factors from an SVD of each leg and is exact.
    m = core.PModule(legs=(1e200 * np.eye(2), 0.5 * np.eye(2)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ShapeMismatch, match="finite"):
            core.boxtimes(m, m)
    dual = core.dual_module(m)
    assert np.array_equal(dual.A, 0.5 * np.eye(2))
    assert np.array_equal(dual.B, 1e200 * np.eye(2))


def test_dual_double_dual_entrywise():
    m = families.random_module(2, "N", seed=77)
    dd = core.dual_module(core.dual_module(m))
    assert leg_defect(dd, m) <= 1e-10


def test_dual_output_validates():
    m = families.random_module(3, "N", seed=78)
    assert core.validate(core.dual_module(m)).passed


def test_duality_check_report():
    # The criterion-9 properties, also at dimensions past the acceptance sweep.
    for d, seed in ((1, 30), (2, 31), (3, 32), (8, 33), (16, 34)):
        m = families.random_module(d, "N", seed=seed)
        rep = core.duality_check(m)
        assert abs(rep.quantum_dim - d) < 1e-9
        assert abs(rep.ev_factor - R2) < 1e-9
        assert rep.zigzag_residual <= 1e-9
        assert rep.ev_residual <= 1e-9
        assert rep.coev_residual <= 1e-9
        dd = core.dual_module(core.dual_module(m))
        assert structure.equivalent(dd, m).verdict is True


def test_duality_check_refuses_legs_off_the_identity():
    # PModule does not check the identity; for legs far from it no scalar
    # makes ev an intertwiner.
    rng = np.random.default_rng(0)
    a, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    with pytest.raises(NotIntertwiner, match="no scalar makes ev an intertwiner"):
        core.duality_check(core.PModule(legs=(a, b)))


def test_duality_check_at_d48_stays_quadratic_in_memory():
    # The zig-zags come from ev as a d x d matrix: a d x d^3 Kronecker
    # factor would take about 85 MB at d = 48.
    m = families.random_module(48, "N", seed=48)
    tracemalloc.start()
    try:
        rep = core.duality_check(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.zigzag_residual == 0.0
    assert rep.quantum_dim == 48.0
    assert peak < 16 * 2**20


def test_duality_zigzag_unit_is_zero():
    rep = core.duality_check(core.unit_module())
    assert rep.zigzag_residual < 1e-14


def test_dual_positive_parts_are_the_polar_factors():
    # The legs are bit-identical to the formula with the polar factors, and
    # |A| and |B| agree with psd_funcalc's square roots of A* A and B* B.
    for d in (1, 2, 5, 8, 16):
        for seed in range(3):
            m = families.random_module(d, "N", seed=1100 + 10 * d + seed)
            pa, pb = la.polar(m.A), la.polar(m.B)
            want = (np.conj(pa.unitary @ pb.positive), np.conj(pb.unitary @ pa.positive))
            got = core.dual_module(m)
            assert all(np.array_equal(x, y) for x, y in zip(got.legs, want))
            for leg, pair in ((m.A, pa), (m.B, pb)):
                root = la.psd_funcalc(la.dagger(leg) @ leg, "sqrt")
                assert np.abs(pair.positive - root).max() <= 1e-14


def _dense_duality(m):
    # Reference: both products formed densely, ev and coev applied to whole legs.
    d = m.dim
    md = core.dual_module(m)
    left, right = _dense_boxtimes(md, m), _dense_boxtimes(m, md)
    ev = np.zeros((1, d * d), dtype=np.complex128)
    ev[0, np.arange(d) * (d + 1)] = 1.0
    coev = ev.conj().T
    lam = sum(complex((ev @ leg @ coev)[0, 0]) for leg in left.legs) / (2.0 * d)
    eye = np.eye(d)
    zig1 = la.kron(eye, ev) @ la.kron(coev, eye)
    zig2 = la.kron(ev, eye) @ la.kron(eye, coev)
    return core.DualityReport(
        quantum_dim=float((ev @ core.flip_permutation(d, d) @ coev)[0, 0].real),
        ev_factor=lam,
        zigzag_residual=max(la.frobenius(zig1 - eye), la.frobenius(zig2 - eye)),
        ev_residual=max(np.linalg.norm(ev @ leg - lam * ev) for leg in left.legs) / np.sqrt(d),
        coev_residual=max(np.linalg.norm(leg @ coev - lam * coev) for leg in right.legs)
        / np.sqrt(d),
    )


def test_duality_check_matches_dense_products():
    fields = ("quantum_dim", "ev_factor", "zigzag_residual", "ev_residual", "coev_residual")
    for d in (1, 4, 8, 16):
        for seed in range(3):
            m = families.random_module(d, "N", seed=1200 + 10 * d + seed)
            got, want = core.duality_check(m), _dense_duality(m)
            for f in fields:
                assert abs(getattr(got, f) - getattr(want, f)) <= 1e-12, f


def test_duality_check_forms_no_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("duality_check formed a fusion product")

    monkeypatch.setattr(core, "boxtimes", refuse)
    rep = core.duality_check(families.random_module(5, "N", seed=1300))
    assert abs(rep.quantum_dim - 5) < 1e-9



# ---------------------------------------------------------------------------
# Scalar group.
# ---------------------------------------------------------------------------


def test_scalar_inverse_examples():
    s = core.scalar_inverse(core.ScalarModule(R2, R2))
    assert abs(s.a - R2) < 1e-14 and abs(s.b - R2) < 1e-14

    s = core.scalar_inverse(core.ScalarModule(0.5, np.sqrt(3) / 2))
    assert abs(s.a - np.sqrt(3) / 2) < 1e-14 and abs(s.b - 0.5) < 1e-14

    s0 = core.ScalarModule(0.5j, np.sqrt(3) / 2)
    back = core.scalar_boxtimes(s0, core.scalar_inverse(s0))
    assert abs(back.a - R2) < 1e-12 and abs(back.b - R2) < 1e-12


def test_scalar_inverse_axis_error():
    with pytest.raises(OnUnitAxis):
        core.scalar_inverse(core.ScalarModule(0.0, 1.0))


def test_coords_iso_examples():
    s = core.scalar_coords_iso(core.GroupCoords(1.0, 1.0, 0.0))
    assert abs(s.a - R2) < 1e-14 and abs(s.b - R2) < 1e-14
    prod = core.scalar_boxtimes(s, s)
    assert abs(prod.a - R2) < 1e-12  # (1/sqrt2) * (1/sqrt2) stays the unit


def test_coords_iso_far_from_the_origin():
    # e^t leaves the float range from t of about 710: t > 0 goes through e^-t,
    # and t < 0 keeps the e^t expressions bit for bit.
    u, v = np.exp(0.3j), np.exp(-1.1j)
    s = core.scalar_coords_iso(core.GroupCoords(u, v, 800.0))
    assert (abs(s.a), s.b) == (0.0, v)
    s = core.scalar_coords_iso(core.GroupCoords(u, v, -800.0))
    assert (s.a, abs(s.b)) == (u, 0.0)
    for t in (30.0, -30.0):
        s = core.scalar_coords_iso(core.GroupCoords(u, v, t))
        back = core.scalar_coords_of(s)
        assert abs(back.u - u) <= 1e-12 and abs(back.v - v) <= 1e-12
        assert abs(back.t - t) <= 1e-12 * abs(t)
    s, et = core.scalar_coords_iso(core.GroupCoords(u, v, -30.0)), math.exp(-30.0)
    assert (s.a, s.b) == (u / math.sqrt(et + 1.0), math.sqrt(et / (et + 1.0)) * v)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    t=st.floats(min_value=-5, max_value=5),
    au=st.floats(min_value=0, max_value=1),
    av=st.floats(min_value=0, max_value=1),
)
def test_coords_roundtrip_hypothesis(t, au, av):
    c = core.GroupCoords(np.exp(2j * np.pi * au), np.exp(2j * np.pi * av), t)
    s = core.scalar_coords_iso(c)
    back = core.scalar_coords_of(s)
    assert abs(back.u - c.u) <= 1e-12
    assert abs(back.v - c.v) <= 1e-12
    assert abs(back.t - c.t) <= 1e-12 * max(1.0, abs(c.t))


def test_coords_homomorphism_seeded():
    rng = np.random.default_rng(9)
    for _ in range(100):
        t1, t2 = rng.uniform(-4, 4, 2)
        u1, v1, u2, v2 = np.exp(2j * np.pi * rng.random(4))
        s1 = core.scalar_coords_iso(core.GroupCoords(u1, v1, t1))
        s2 = core.scalar_coords_iso(core.GroupCoords(u2, v2, t2))
        prod = core.scalar_boxtimes(s1, s2)
        direct = core.scalar_coords_iso(core.GroupCoords(u1 * u2, v1 * v2, t1 + t2))
        assert abs(prod.a - direct.a) <= 1e-12
        assert abs(prod.b - direct.b) <= 1e-12


# ---------------------------------------------------------------------------
# Kawamura product, words, conservation.
# ---------------------------------------------------------------------------


def test_kawamura_unit_and_identity():
    k = core.kawamura_tensor(core.unit_module(), core.unit_module())
    assert k.arity == 4 and k.dim == 1
    assert all(abs(leg[0, 0] - 0.5) < 1e-15 for leg in k.legs)
    assert core.pythagorean_residual(k) < 1e-14


def test_kawamura_validates_for_seeded_inputs():
    for i in range(5):
        m = families.random_module(2, "N", seed=900 + i)
        mt = families.random_module(3, "N", seed=950 + i)
        k = core.kawamura_tensor(m, mt)
        assert k.arity == 4 and k.dim == 6
        assert core.pythagorean_residual(k) <= 1e-12


def test_kawamura_associative_entrywise():
    m = families.random_module(2, "N", seed=22)
    mt = families.random_module(2, "N", seed=23)
    mh = families.random_module(2, "N", seed=24)
    lhs = core.kawamura_tensor(core.kawamura_tensor(m, mt), mh)
    rhs = core.kawamura_tensor(m, core.kawamura_tensor(mt, mh))
    assert leg_defect(lhs, rhs) <= 1e-10


def test_word_operator_order_reversed():
    m = families.atomic_module(families.AtomicLabel("01", 1j))
    w = core.word_operator(m, "01")  # second leg applied after the first
    e1 = np.array([1, 0], dtype=complex)
    assert np.allclose(w @ e1, 1j * e1)
    assert np.allclose(core.word_operator(m, (0, 1)), w)


@pytest.mark.parametrize("word", ["012", [-1], (0, 2)], ids=["string", "negative", "tuple"])
def test_word_operator_refuses_digits_outside_the_legs(word):
    # A negative index would otherwise apply the last leg, a large one raise IndexError.
    m = families.atomic_module(families.AtomicLabel("01", 1j))
    with pytest.raises(ValueError, match=r"word digit (2|-1) is not a leg of an arity-2 module"):
        core.word_operator(m, word)


def test_conservation_seeded():
    rng = np.random.default_rng(31)
    for i in range(10):
        m = families.random_module(2 + i % 4, "M", seed=1100 + i)
        xi = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
        xi /= np.linalg.norm(xi)
        assert core.conservation_defect(m, xi, 6) <= 1e-9


def _module_text(**changes) -> str:
    payload = json.loads(fileio.serialize_module(core.unit_module()))
    return json.dumps({**payload, **changes})


def _metadata_refused(value) -> bool:
    with pytest.raises(ShapeError, match="metadata: expected an object"):
        fileio.parse_module_file(_module_text(metadata=value))
    return True


_R = 1.0 / np.sqrt(2.0)
_QUAD = core.kawamura_tensor(core.unit_module(), core.unit_module())
_ERROR_CASES = {
    "as_matrix-ndim1": (lambda: la.as_matrix([1.0, 2.0]), ShapeMismatch),
    "as_matrix-nan": (lambda: la.as_matrix([[1.0, np.nan], [0.0, 1.0]]), ShapeMismatch),
    "as_matrix-inf-real": (lambda: la.as_matrix([[1.0, complex(-np.inf, 0.0)]]), ShapeMismatch),
    "as_matrix-nan-imag": (lambda: la.as_matrix([[1.0, complex(0.0, np.nan)]]), ShapeMismatch),
    "as_matrix-inf-imag": (lambda: la.as_matrix([[1.0, complex(0.0, np.inf)]]), ShapeMismatch),
    "hermitian_eig-nonsquare": (lambda: la.hermitian_eig(np.zeros((2, 3))), ShapeMismatch),
    "commutation_kernel-empty": (lambda: la.commutation_kernel([]), ValueError),
    "intertwiner_basis-arity": (
        lambda: structure.intertwiner_basis(core.unit_module(), _QUAD), ShapeMismatch
    ),
    "atomic_part-arity4": (lambda: structure.atomic_part(_QUAD), ArityUnsupported),
    "complete_submodule-arity4": (
        lambda: structure.complete_submodule(_QUAD), ArityUnsupported
    ),
    "equivalent-arity": (
        lambda: structure.equivalent(core.unit_module(), _QUAD),
        lambda r: (r.verdict, r.reason) == (False, "arity mismatch"),
    ),
    "star-noncontraction": (lambda: core.star(2.0 * np.eye(2), 0.5 * np.eye(2)), NotPositive),
    "scalar_boxtimes-overlap": (
        lambda: core.scalar_boxtimes(core.ScalarModule(1, 0), core.ScalarModule(0, 1)),
        KernelOverlap,
    ),
    "scalar_coords_iso-nonunit": (
        lambda: core.scalar_coords_iso(core.GroupCoords(u=2.0, v=1.0, t=0.0)), ValueError
    ),
    "scalar_coords_of-axis": (
        lambda: core.scalar_coords_of(core.ScalarModule(1, 0)), OnUnitAxis
    ),
    "in_class_m-arity4": (lambda: core.in_class_m(_QUAD), lambda r: r is False),
    "atomic_diffuse_fuse-arity4": (
        lambda: families.atomic_diffuse_fuse(
            families.AtomicLabel("01"),
            core.kawamura_tensor(families.random_module(2, seed=1), core.unit_module()),
        ),
        ArityUnsupported,
    ),
    "gp_vector-empty": (lambda: families.GPVector(entries=()), ValueError),
    "gp_vector-off-sphere": (lambda: families.GPVector(entries=((1.0, 1.0),)), ValueError),
    "gp_vector-nan": (lambda: families.GPVector(entries=((np.nan, 0.0),)), ValueError),
    "gp_vector-square-overflow": (lambda: families.GPVector(entries=((1e200, 0.0),)), ValueError),
    "atomic_label-nan-phase": (lambda: families.AtomicLabel("01", complex("nan")), ValueError),
    "conjugate-nonsquare": (lambda: core.conjugate(core.unit_module(), np.ones((1, 2))), ShapeMismatch),
    "conjugate-other-size": (lambda: core.conjugate(core.unit_module(), np.eye(2)), ShapeMismatch),
    "pmodule-dim0": (lambda: core.PModule(legs=(np.zeros((0, 0)),) * 2), ShapeMismatch),
    "random_module-all-zero": (
        lambda: families.random_module(3, "M", zero_eigenvalues=3), ValueError
    ),
    "d2-zero-entry": (
        lambda: families.d2_fuse(
            core.PModule(legs=(np.diag([0.0, _R]), np.array([[0.0, _R], [1.0, 0.0]]))),
            d2_display_pair()[0],
        ),
        NotD2Shape,
    ),
    "module_file-short-row": (
        lambda: fileio.parse_module_file(
            _module_text(dim=2, legs=[[[[1, 0], [0, 0]], [[0, 0]]]] * 2)
        ),
        ShapeError,
    ),
    "module_file-metadata-list": (
        lambda: [_metadata_refused(v) for v in ([1], "x", None, 0, [], "", False)], all
    ),
    "gp_vector-overflow": (
        lambda: fileio.parse_gp_vector("[[[1e308, 0], [1e308, 0]]]"),
        PythagoreanViolation,
    ),
}


@pytest.mark.parametrize("case", sorted(_ERROR_CASES))
def test_typed_errors_and_refusals(case):
    call, expect = _ERROR_CASES[case]
    if isinstance(expect, type):
        with pytest.raises(expect) as info:
            call()
        if expect is PythagoreanViolation:
            assert info.value.residual == float("inf")
    else:
        assert expect(call())
