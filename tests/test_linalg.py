"""Matrix engine tests: eigensolver, functional calculus, polar, kernels."""

import tracemalloc

import numpy as np
import pytest

from pmod import core, families
from pmod import linalg as la
from pmod.errors import (
    NoConvergence,
    NotHermitian,
    NotPositive,
    ShapeMismatch,
    SingularOperand,
    TooLarge,
)

from conftest import random_unitary, shared_eigenline_module


def rand_hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2


def test_eig_identity():
    e = la.hermitian_eig(np.eye(2, dtype=complex))
    assert np.allclose(e.values, [1, 1])
    assert np.allclose(e.vectors, np.eye(2))


def test_eig_swap_matrix():
    e = la.hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(e.values, [-1, 1])
    assert np.allclose(e.vectors[:, 0], np.array([1, -1]) / np.sqrt(2))
    assert np.allclose(e.vectors[:, 1], np.array([1, 1]) / np.sqrt(2))


def test_eig_construct_then_recover():
    rng = np.random.default_rng(12)
    q = random_unitary(rng, 3)
    target = np.array([0.1, 0.5, 0.9])
    m = (q * target) @ q.conj().T
    e = la.hermitian_eig(m)
    assert np.max(np.abs(e.values - target)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_eig_roundtrip_seeded(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        m = rand_hermitian(rng, n)
        e = la.hermitian_eig(m)
        rec = (e.vectors * e.values) @ e.vectors.conj().T
        assert np.linalg.norm(rec - m) <= 1e-11 * np.linalg.norm(m)
        assert np.linalg.norm(e.vectors.conj().T @ e.vectors - np.eye(n)) <= 1e-11
        assert np.all(np.diff(e.values) >= -1e-12)


def test_eig_deterministic():
    rng = np.random.default_rng(5)
    m = rand_hermitian(rng, 6)
    e1 = la.hermitian_eig(m.copy())
    e2 = la.hermitian_eig(m.copy())
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        la.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_gates_hold_where_internal_callers_skip_them():
    # The fusion factors and the probe pass exactly Hermitian operands to
    # hermitian_eig's solver; the public routine keeps its gates. polar
    # refuses non-finite operands, and from its SVD of m it is exact where
    # m* m would overflow.
    with pytest.raises(NotHermitian):
        la.hermitian_eig(np.array([[1, 2], [0, 1]], dtype=complex))
    for bad in (np.array([[1, 0], [0, np.nan]]), np.array([[np.inf, 0], [0, 1]])):
        for routine in (la.hermitian_eig, la.polar):
            with pytest.raises(ShapeMismatch, match="finite"):
                routine(bad)
    pair = la.polar(1e200 * np.eye(2))
    assert np.array_equal(pair.unitary, np.eye(2))
    assert np.array_equal(pair.positive, 1e200 * np.eye(2))


def test_eig_refuses_an_operand_whose_symmetrization_overflows():
    # Finite entries whose (m + m*) / 2 overflows gave a NaN spectrum.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ShapeMismatch, match="finite"):
            la.hermitian_eig(1.5e308 * np.eye(2))


def test_funcalc_examples():
    assert np.allclose(la.psd_funcalc(np.eye(3, dtype=complex), "sqrt"), np.eye(3))
    assert np.allclose(
        la.psd_funcalc(np.diag([4.0, 9.0]).astype(complex), "sqrt"), np.diag([2.0, 3.0])
    )
    assert np.allclose(
        la.psd_funcalc(np.diag([0.5, 0.5]).astype(complex), "inv_sqrt"),
        np.diag([np.sqrt(2)] * 2),
    )
    assert np.allclose(la.psd_funcalc(np.diag([2.0, 4.0]).astype(complex), "inv"), np.diag([0.5, 0.25]))


def test_funcalc_gates():
    with pytest.raises(SingularOperand):
        la.psd_funcalc(np.diag([1.0, 0.0]).astype(complex), "inv")
    with pytest.raises(SingularOperand):
        la.psd_funcalc(np.diag([1.0, 1e-14]).astype(complex), "inv_sqrt")
    with pytest.raises(NotPositive):
        la.psd_funcalc(np.diag([1.0, -0.5]).astype(complex), "sqrt")
    with pytest.raises(ValueError):
        la.psd_funcalc(np.eye(2, dtype=complex), "exp")


def test_funcalc_clamps_tiny_negatives():
    m = np.diag([1.0, -1e-13]).astype(complex)
    out = la.psd_funcalc(m, "sqrt")
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-6)


def test_polar_examples():
    p = la.polar(np.diag([0.6, 0.8]).astype(complex))
    assert np.allclose(p.unitary, np.eye(2))
    assert np.allclose(p.positive, np.diag([0.6, 0.8]))

    p = la.polar(np.zeros((2, 2), dtype=complex))
    assert np.allclose(p.unitary, np.eye(2))
    assert np.allclose(p.positive, 0)

    # Deterministic completion on the kernel.
    p = la.polar(np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.allclose(p.positive, np.diag([1.0, 0.0]))
    assert np.allclose(p.unitary, np.array([[0, 1], [1, 0]]))

    # A rank floor at or above the largest singular value (or nan) keeps
    # nothing: the unitary is the kernel completion alone.
    for rtol in (1.0, np.inf, np.nan):
        p = la.polar(np.diag([0.6, 0.8]).astype(complex), rtol)
        assert np.allclose(p.unitary, np.eye(2))


def test_polar_returns_its_singular_values():
    # LAPACK's singular values of m, ascending, on an invertible, a singular
    # and a zero operand.
    rng = np.random.default_rng(210)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    singular = m.copy()
    singular[:, 0] = 0
    for x in (m, singular, np.zeros((3, 3), dtype=complex)):
        pair = la.polar(x)
        want = np.linalg.svd(x, full_matrices=False)[1][::-1]
        assert np.array_equal(pair.singular_values, want)
        assert np.allclose(pair.singular_values, np.linalg.svd(x, compute_uv=False)[::-1],
                           rtol=0, atol=1e-14 * max(np.linalg.norm(x), 1.0))
    # The field is trailing and defaulted: the two factors alone still build a pair.
    pair = la.PolarPair(np.eye(2), np.eye(2))
    assert pair.singular_values is None


@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_polar_reconstruction_seeded(n):
    rng = np.random.default_rng(200 + n)
    for k in range(3):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if k == 1:
            m[:, 0] = 0  # singular input
        pair = la.polar(m)
        assert np.linalg.norm(pair.unitary @ pair.positive - m) <= 1e-10 * max(
            np.linalg.norm(m), 1.0
        )
        assert np.linalg.norm(pair.unitary.conj().T @ pair.unitary - np.eye(n)) <= 1e-10
        vals = np.linalg.eigvalsh(pair.positive)
        assert vals.min() > -1e-12


@pytest.mark.parametrize("d", [4, 6])
def test_polar_completion_on_rank_deficient_legs(d):
    # Ranks 1 to 3: U is unitary, UP = m, and U carries the completion of
    # ran P onto the completion of ran m, both built by complete_basis from
    # independently computed ranges.
    rng = np.random.default_rng(220 + d)
    for rank in (1, 2, 3):
        x, y = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
                for _ in range(2))
        m = x @ y.conj().T
        pair = la.polar(m)
        u = pair.unitary
        assert np.linalg.norm(u @ u.conj().T - np.eye(d)) <= 1e-13
        assert np.linalg.norm(u @ pair.positive - m) <= 1e-13 * np.linalg.norm(m)
        ran_p = np.linalg.svd(pair.positive)[0][:, :rank]
        ran_m = np.linalg.svd(m)[0][:, :rank]
        k1, k2 = la.complete_basis(ran_p, d), la.complete_basis(ran_m, d)
        assert k1.shape == k2.shape == (d, d - rank)
        assert np.linalg.norm(u @ k1 - k2) <= 1e-12


def test_kron_convention_and_mixed_product():
    assert np.allclose(la.kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(
        la.kron(np.diag([2.0, 3.0]), np.diag([5.0, 7.0])),
        np.diag([10.0, 14.0, 15.0, 21.0]),
    )
    rng = np.random.default_rng(7)
    for sizes in [(2, 2), (2, 3), (3, 3)]:
        m, mp = (rng.standard_normal((sizes[0],) * 2) + 1j * rng.standard_normal((sizes[0],) * 2) for _ in range(2))
        n, np_ = (rng.standard_normal((sizes[1],) * 2) + 1j * rng.standard_normal((sizes[1],) * 2) for _ in range(2))
        lhs = la.kron(m, n) @ la.kron(mp, np_)
        rhs = la.kron(m @ mp, n @ np_)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)


def test_kron_is_numpy_kron_bit_for_bit():
    rng = np.random.default_rng(9)

    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for a, b in [(c(2, 3), c(4, 5)), (c(1, 4), c(3, 1)), (c(3, 1), c(1, 4)), (c(1, 1), c(2, 3)),
                 (c(0, 3), c(2, 2)), (c(2, 2), c(2, 0)), (c(0, 0), c(0, 0)), (np.eye(3), c(2, 3)),
                 (np.array([[np.inf, -0.0], [np.nan, 1e-310]]), c(2, 2))]:
        got, want = la.kron(a, b), np.kron(a, b)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()


def test_kron_associative():
    rng = np.random.default_rng(8)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    lhs = la.kron(la.kron(mats[0], mats[1]), mats[2])
    rhs = la.kron(mats[0], la.kron(mats[1], mats[2]))
    assert np.linalg.norm(lhs - rhs) < 1e-13


def test_kernel_basis_examples():
    assert la.kernel_basis(np.eye(2, dtype=complex)).shape == (2, 0)
    k = la.kernel_basis(np.diag([1.0, 0.0]).astype(complex))
    assert k.shape == (2, 1)
    assert np.allclose(np.abs(k[:, 0]), [0, 1])
    k = la.kernel_basis(np.ones((2, 2), dtype=complex))
    assert k.shape == (2, 1)
    assert np.allclose(np.abs(k[:, 0]), np.array([1, 1]) / np.sqrt(2))


def test_kernel_basis_precision_and_wide_operand():
    # Non-Hermitian 6x4 operand with singular values (1, 1e-3, 1e-12, 0):
    # the kernel at the default rtol is spanned by the last two right
    # singular vectors, to full precision despite the 1e-12 direction.
    rng = np.random.default_rng(31)
    left = random_unitary(rng, 6)[:, :4]
    right = random_unitary(rng, 4)
    m = (left * np.array([1.0, 1e-3, 1e-12, 0.0])) @ right.conj().T
    k = la.kernel_basis(m)
    assert k.shape == (4, 2)
    want = right[:, 2:]
    assert np.linalg.norm(k @ k.conj().T - want @ want.conj().T, 2) <= 1e-12

    wide = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    k = la.kernel_basis(wide)
    assert k.shape == (4, 2)
    assert np.linalg.norm(wide @ k) <= 1e-12 * np.linalg.norm(wide)
    assert np.linalg.norm(k.conj().T @ k - np.eye(2)) <= 1e-12


def _svd_route_kernel(m, rtol, scale=None):
    """kernel_basis's SVD route on any operand, one-column ones included."""
    rows, cols = m.shape
    _, sigma, vh = np.linalg.svd(m, full_matrices=rows < cols)
    thr = rtol * ((sigma[0] if sigma.size else 0.0) if scale is None else scale)
    padded = np.zeros(cols)
    padded[: sigma.size] = sigma
    return vh[padded <= thr].conj().T


@pytest.mark.parametrize("column, rtol, scale", [
    (np.zeros((3, 1)), 1e-9, None),  # zero column: kernel under either scale
    (np.zeros((3, 1)), 1e-9, 1.0),
    (np.zeros((0, 1)), 1e-9, None),  # no rows: norm 0, the whole column
    (np.zeros((0, 1)), 1e-9, 1.0),
    (np.array([[3.0], [4.0j]]), 1e-9, None),  # sigma = 5
    (np.array([[3.0], [4.0j]]), 1e-9, 1.0),
    (np.array([[3.0], [4.0j]]), 1.0, None),  # sigma exactly at rtol * sigma
    (np.array([[0.0], [0.5]]), 0.5, 1.0),  # sigma exactly at rtol * scale
    (np.array([[0.0], [0.5]]), 0.4999, 1.0),
    (np.array([[1e-10], [0.0], [0.0]]), 1e-9, 1.0),
])
def test_one_column_kernel_matches_svd_route(column, rtol, scale):
    got = la.kernel_basis(column.astype(complex), rtol, scale=scale)
    want = _svd_route_kernel(column.astype(complex), rtol, scale)
    assert got.shape == want.shape
    assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) == 0.0


def test_lapack_failure_maps_to_no_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eig", fail)
    m = np.eye(2, dtype=complex)
    with pytest.raises(NoConvergence):
        la.hermitian_eig(m)
    with pytest.raises(NoConvergence):
        la.eig_general(m)
    # polar's one LAPACK call is an SVD.
    assert np.array_equal(la.polar(m).unitary, m)
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NoConvergence):
        la.polar(m)


def test_commutation_kernel_examples_and_residual():
    eye = np.eye(2, dtype=complex)
    basis = la.commutation_kernel([(eye, eye)])
    assert len(basis) == 4

    basis = la.commutation_kernel(
        [(np.array([[0.0]], dtype=complex), np.array([[1.0]], dtype=complex))]
    )
    assert basis == []

    rng = np.random.default_rng(77)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pairs = [(a, a), (b, b)]
    for x in la.commutation_kernel(pairs):
        assert max(np.linalg.norm(x @ n - m @ x) for m, n in pairs) <= 1e-9
        assert abs(np.linalg.norm(x) - 1.0) < 1e-10

    # 2 x 01(phi) + N(3) in a random basis: the star commutant is M_2 on the
    # atomic multiplicity plus the scalars on N(3), dimension 5, clean and
    # under 1e-11 entry noise alike.
    atom = families.atomic_module(families.AtomicLabel("01", np.exp(0.7j)))
    total = core.direct_sum(core.direct_sum(atom, atom), families.random_module(3, seed=5))
    u = random_unitary(rng, total.dim)
    legs = core.conjugate(total, u).legs
    noise = [1e-11 * (rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
             for _ in legs]
    for noisy in (False, True):
        ops = [leg + e for leg, e in zip(legs, noise)] if noisy else list(legs)
        pairs = [(x, x) for x in ops] + [(x.conj().T, x.conj().T) for x in ops]
        basis = la.commutation_kernel(pairs)
        assert len(basis) == 5
        if not noisy:
            for x in basis:
                assert max(np.linalg.norm(x @ n - m @ x) for m, n in pairs) <= 1e-9


def test_commutation_kernel_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        la.commutation_kernel(
            [(np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
             (np.eye(3, dtype=complex), np.eye(2, dtype=complex))]
        )


def test_unitary_eig_rotation():
    theta = np.pi / 5
    c, s = np.cos(theta), np.sin(theta)
    v = np.array([[c, s], [-s, c]], dtype=complex)
    vals, q = la.unitary_eig(v)
    assert np.allclose(sorted(np.angle(vals)), [-theta, theta])
    assert np.linalg.norm(v @ q - q @ np.diag(vals)) < 1e-12


def test_unitary_eig_one_by_one():
    # Its own eigenvalue, as the commuting-parts route gives it.
    for z in (np.exp(0.7j), -1.0 + 0j, np.exp(-2.9j)):
        vals, q = la.unitary_eig(np.array([[z]]))
        assert vals.shape == (1,) and vals[0] == z
        assert np.array_equal(q, np.ones((1, 1)))
        s, t = np.array([[z.real]]), np.array([[z.imag]])
        assert np.array_equal(la.commuting_hermitian_eig(s, t)[2], q)
    with pytest.raises(ShapeMismatch):
        la.unitary_eig(np.array([[np.nan]]))


def test_eig_general_residuals():
    rng = np.random.default_rng(4)
    worst = 0.0
    for n in (2, 5, 9):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        vals, vecs = la.eig_general(m)
        for j in range(n):
            worst = max(
                worst,
                np.linalg.norm(m @ vecs[:, j] - vals[j] * vecs[:, j])
                / np.linalg.norm(m),
            )
    assert worst < 1e-9


def test_eig_general_defective_input_is_usable():
    # Nilpotent shift: defective at eigenvalue 0; vectors must stay finite.
    m = np.array([[0, 0], [1, 0]], dtype=complex)
    vals, vecs = la.eig_general(m)
    assert np.all(np.isfinite(vecs))
    assert np.allclose(vals, 0)


def test_gram_schmidt_and_complete_basis():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    assert np.max(np.abs(la.gram_schmidt(a) - q * (diag / np.abs(diag)))) < 1e-12

    # Residual 1e-7 * ||v|| off span(q) is dependent; 1e-5 * ||v|| is not.
    u = q[:, :3]
    w = la.complete_basis(q, 6)[:, 0]
    for eps, kept in ((1e-7, 3), (1e-5, 4)):
        v = u @ np.array([1.0, 2.0, -1.0j])
        v = v + eps * np.linalg.norm(v) * w
        assert la.gram_schmidt(np.column_stack([u, v])).shape == (6, kept)

    against = q[:, 2:]
    g = la.gram_schmidt(rng.standard_normal((6, 5)), against=against)
    assert g.shape == (6, 4)
    assert np.linalg.norm(against.conj().T @ g) < 1e-12
    assert np.linalg.norm(g.conj().T @ g - np.eye(4)) < 1e-12

    assert la.complete_basis(np.eye(5, dtype=complex), 5).shape == (5, 0)
    line = np.array([[1.0], [1.0], [0.0]], dtype=complex) / np.sqrt(2)
    expected = np.array([[1 / np.sqrt(2), 0], [-1 / np.sqrt(2), 0], [0, 1]])
    assert np.max(np.abs(la.complete_basis(line, 3) - expected)) < 1e-15


def _leading_entries_positive(vectors):
    for col in vectors.T:
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert lead.real > 0 and lead.imag == 0


def test_eigensolver_ordering_conventions():
    s = 1 / np.sqrt(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    # (matrix, values, vectors) captured from the reference implementation.
    herm = [
        (np.eye(3), [1, 1, 1], np.eye(3)),
        (np.kron(np.eye(2), swap), [-1, -1, 1, 1],
         s * np.array([[1, 0, 1, 0], [-1, 0, 1, 0], [0, 1, 0, 1], [0, -1, 0, 1]])),
        (np.diag([2.0, 1.0, 1.0]), [1, 1, 2], np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])),
    ]
    for m, values, vectors in herm:
        e = la.hermitian_eig(m.astype(complex))
        assert np.array_equal(e.values, values)
        assert np.max(np.abs(e.vectors - vectors)) < 1e-15
        _leading_entries_positive(e.vectors)

    vals, vecs = la.eig_general(np.diag([1 + 1j, 1 - 1j, -2, 1j, 0.5]))
    assert np.array_equal(vals, [-2, 1j, 0.5, 1 - 1j, 1 + 1j])
    assert np.array_equal(vecs, np.eye(5)[:, [2, 3, 4, 1, 0]])

    angles = np.array([2.5, -1.0, 0.3, -3.0, 1.0])
    vals, vecs = la.unitary_eig(np.diag(np.exp(1j * angles)))
    assert np.allclose(np.angle(vals), [-3.0, -1.0, 0.3, 1.0, 2.5], atol=1e-12)
    assert np.max(np.abs(vecs - np.eye(5)[:, [3, 1, 2, 4, 0]])) < 1e-12

    runs = la.cluster_runs(np.array([0, 1e-9, 1, 1.5, 1.5 + 1e-10, 3]))
    assert runs == [(0, 2), (2, 3), (3, 5), (5, 6)]
    assert la.cluster_runs(np.array([])) == []


def _runs_at(values, gap):
    """cluster_runs with the gap passed in, as it took it before it derived
    the gap itself."""
    bounds = [0, *(np.flatnonzero(np.diff(values) > gap) + 1).tolist(), values.size]
    return list(zip(bounds, bounds[1:]))


@pytest.mark.parametrize("spread", [1e-6, 1e-3, 0.5, 1.0, 3.0, 1e3])
def test_cluster_runs_gap_matches_both_former_callers(spread):
    # The gap commuting_hermitian_eig and decompose_full computed before
    # cluster_runs took the rule over; near-ties at half and twice the gap.
    gap = 1e-8 * max(spread, 1.0)
    base = np.linspace(0.0, spread, 8)
    values = np.sort(np.concatenate([base, base[::2] + 0.5 * gap, base[1::2] + 2.0 * gap]))
    commuting = 1e-8 * max(float(values[-1] - values[0]), 1.0)
    decompose = max(1e-8 * max(float(values[-1] - values[0]), 1.0), 1e-12)
    runs = la.cluster_runs(values)
    assert runs == _runs_at(values, commuting) == _runs_at(values, decompose)
    assert len(runs) == 12


def _star_pairs(m, mt):
    pairs = [(y, x) for x, y in zip(m.legs, mt.legs)]
    return pairs + [(y.conj().T, x.conj().T) for y, x in pairs]


def _reduced_battery():
    """(name, m, mt) pairs: Hom(m, mt) of each is a *-intertwiner solve."""
    rng = np.random.default_rng(31)
    conj = lambda m: core.conjugate(m, random_unitary(rng, m.dim))
    atom = families.atomic_module(families.AtomicLabel("01", np.exp(0.7j)))
    prod = core.boxtimes(families.random_module(3, seed=1), families.random_module(3, seed=2))
    other = core.boxtimes(families.random_module(3, seed=3), families.random_module(3, seed=4))
    s7 = core.direct_sum(core.direct_sum(atom, atom), families.random_module(3, seed=5))
    units = core.direct_sum(core.unit_module(), core.unit_module())
    uus = core.direct_sum(units, core.scalar_module(0.6, 0.8))
    class_m = families.random_module(5, "M", seed=6, zero_eigenvalues=2)
    arity4 = core.kawamura_tensor(families.random_module(2, seed=7), families.random_module(2, seed=8))
    shared = shared_eigenline_module()
    return [
        ("product", prod, conj(prod)),
        ("2 x 01(phi) + N(3)", s7, conj(s7)),
        ("unit + unit + s", uus, conj(uus)),
        ("class M, zero eigenvalues", class_m, conj(class_m)),
        ("shared eigenline", shared, conj(shared)),
        ("arity 4", arity4, conj(arity4)),
        ("inequivalent products", prod, conj(other)),
        ("N(3) into 2 x 01(phi) + N(3)", families.random_module(3, seed=5), conj(s7)),
    ]


@pytest.mark.parametrize("noise", [0.0, 1e-13, 1e-11, 1e-10])
def test_reduced_commutation_kernel_matches_fold(noise):
    rng = np.random.default_rng(int(noise * 1e15) + 1)
    for name, m, mt in _reduced_battery():
        legs = [y + noise * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
                for y in mt.legs]
        pairs = _star_pairs(m, core.PModule(legs=tuple(legs)))
        scale = max(np.linalg.norm(y) + np.linalg.norm(x) for y, x in pairs)
        tau = la.DEFAULT_RTOL * scale
        assert noise or la._reduced_kernel(pairs, tau) is not None, name
        basis = la.commutation_kernel(pairs)
        assert len(basis) == len(la._fold_kernel(pairs, la.DEFAULT_RTOL, scale)), name
        # At noise 1e-10 the legs' own defect puts true intertwiners near tau.
        bound = 1e-9 if noise <= 1e-11 else tau
        for x in basis:
            assert max(np.linalg.norm(x @ n - y @ x) for y, n in pairs) <= bound, name
        vecs = np.array([x.ravel() for x in basis] or np.zeros((0, 1)))
        assert np.linalg.norm(vecs.conj() @ vecs.T - np.eye(len(basis))) <= 1e-10, name


def test_reduced_commutation_kernel_falls_back_in_grey_zone(monkeypatch):
    # Noise of half of rtol leaves the star commutant of 2 x 01(phi) + N(3)
    # with singular values just below the threshold; restricted to the
    # spectral support they may land on either side of it, so the certificate
    # cannot tell and the fold decides.
    atom = families.atomic_module(families.AtomicLabel("01", np.exp(0.7j)))
    m = core.direct_sum(core.direct_sum(atom, atom), families.random_module(3, seed=5))
    rng = np.random.default_rng(9)
    m = core.conjugate(m, random_unitary(rng, m.dim))
    legs = [x + 5e-10 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
            for x in m.legs]
    pairs = _star_pairs(m, core.PModule(legs=tuple(legs)))
    scale = max(np.linalg.norm(a) + np.linalg.norm(b) for a, b in pairs)
    assert la._reduced_kernel(pairs, la.DEFAULT_RTOL * scale) is None
    folds = []
    fold = la._fold_kernel
    monkeypatch.setattr(la, "_fold_kernel", lambda *a: folds.append(1) or fold(*a))
    basis = la.commutation_kernel(pairs)
    assert folds == [1]
    want = fold(pairs, la.DEFAULT_RTOL, scale)
    assert len(basis) == len(want) == 5
    assert all(np.array_equal(x, y) for x, y in zip(basis, want))


def test_reduced_commutation_kernel_defers_when_the_drift_reaches_half_a_gap(monkeypatch):
    # At tau 0.3 the spectral drift ||c|| tau of N(2)'s star commutant is at
    # least half the smallest excluded gap (delta >= 1/2): the reduced route
    # defers before sizing its block against the cap.
    m = families.random_module(2, seed=0)
    sized = []
    within_cap = la._within_cap
    monkeypatch.setattr(la, "_within_cap", lambda *a: sized.append(1) or within_cap(*a))
    assert la._reduced_kernel(_star_pairs(m, m), 0.3) is None
    assert sized == []
    assert la._reduced_kernel(_star_pairs(m, m), 0.03) is not None and sized == [1]


def test_reduced_commutation_kernel_needs_no_fold_on_clean_input(monkeypatch):
    folds = []
    fold = la._fold_kernel
    monkeypatch.setattr(la, "_fold_kernel", lambda *a: folds.append(1) or fold(*a))
    prod = core.boxtimes(families.random_module(4, seed=1), families.random_module(4, seed=2))
    rng = np.random.default_rng(16)
    pc = core.conjugate(prod, random_unitary(rng, prod.dim))
    basis = la.commutation_kernel(_star_pairs(prod, pc))
    assert folds == []
    assert len(basis) == 1
    x = basis[0]
    assert max(np.linalg.norm(x @ a - b @ x) for a, b in zip(prod.legs, pc.legs)) <= 1e-9


def test_commutant_solves_above_the_cap_are_refused_before_allocating(monkeypatch):
    # Carrier 96: the fold's stacked QR input would be 2 (96^2)^2 complex
    # entries (2.5 GiB); the refusal comes before any of it is allocated.
    m = families.random_module(96, seed=1)
    pairs = _star_pairs(m, m)
    with monkeypatch.context() as mp:
        mp.setattr(la, "_reduced_kernel", lambda *a: None)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="commutation fold"):
                la.commutation_kernel(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2**20
    # The reduced route checks its own block against the cap.
    monkeypatch.setattr(la, "_SOLVE_CAP", 2**10)
    with pytest.raises(TooLarge, match="reduced commutation solve"):
        la.commutation_kernel(pairs)


def _full_hermitian_eig(m):
    """hermitian_eig's ordering with the tie-breaking sort always applied."""
    n = m.shape[0]
    values, vectors = np.linalg.eigh((m + m.conj().T) / 2.0)
    lead = la._fix_phases(vectors)
    coords = np.round(np.stack([vectors.real, vectors.imag], axis=1).reshape(2 * n, n), 10)
    order = np.lexsort(np.vstack([coords[::-1], lead, values]))
    return values[order], np.ascontiguousarray(vectors[:, order])


def _full_commuting_eig(s, t):
    """commuting_hermitian_eig re-diagonalizing every cluster, singletons too."""
    eig_s = la.hermitian_eig(s)
    q, t_vals = eig_s.vectors.copy(), np.zeros_like(eig_s.values)
    for start, stop in la.cluster_runs(eig_s.values):
        block = q[:, start:stop]
        t_hat = block.conj().T @ t @ block
        sub = la.hermitian_eig((t_hat + t_hat.conj().T) / 2.0)
        q[:, start:stop] = block @ sub.vectors
        t_vals[start:stop] = sub.values
    return eig_s.values, t_vals, q


def test_eig_fast_paths_match_full_paths():
    rng = np.random.default_rng(41)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    mats = [rand_hermitian(rng, n) for n in (1, 2, 5, 16)]
    # Exact ties, where the tie-breaking sort decides.
    mats += [np.eye(3), np.kron(np.eye(2), swap), np.diag([2.0, 1.0, 1.0, 3.0]),
             np.kron(np.eye(3), rand_hermitian(rng, 2))]
    for m in mats:
        m = m.astype(complex)
        e = la.hermitian_eig(m)
        values, vectors = _full_hermitian_eig(m)
        assert np.array_equal(e.values, values) and np.array_equal(e.vectors, vectors)
        assert e.vectors.flags.c_contiguous
    for n in (3, 6, 8):
        u = random_unitary(rng, n)
        # s with a repeated eigenvalue and singletons; t commutes with it.
        ds = np.r_[rng.standard_normal(n - 2), [0.7, 0.7]]
        s = u @ np.diag(ds) @ u.conj().T
        t = u @ np.diag(rng.standard_normal(n)) @ u.conj().T
        got, want = la.commuting_hermitian_eig(s, t), _full_commuting_eig(s, t)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
