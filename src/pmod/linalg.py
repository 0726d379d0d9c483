"""Dense complex matrix engine on ``numpy.linalg`` (LAPACK).

Everything operates on square (or rectangular, where noted) complex128 numpy
arrays. The eigensolvers and singular values come from ``numpy.linalg``;
this module adds what the rest of the package relies on around them: input
gates, deterministic phase and ordering of eigenvectors, positive functional
calculus, polar decomposition with a deterministic kernel completion,
Gram-Schmidt bases, one SVD-based kernel routine behind every other
nullspace, and a certified reduced *-commutant solve that reads its kernel
from its own SVD. LAPACK failure is NoConvergence.

All rank and kernel decisions are relative to the largest singular value of
the operand; ``DEFAULT_RTOL`` is the package-wide default gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    NotHermitian,
    NotPositive,
    ShapeMismatch,
    SingularOperand,
)

DEFAULT_RTOL = 1e-9

# Residual threshold for accepting a Gram-Schmidt direction as new.
_GS_KEEP = 1e-6

# Relative floor of the invertibility and polar rank gates. polar decides
# rank on the eigenvalues of m* m (on an SVD only when m is ill-conditioned),
# which square the singular values, so true zeros resurface there at
# ~sqrt(machine eps). _invertible applies the same floor to the singular
# values, from a full SVD (is_invertible) or polar's own (dual_module,
# atomic_diffuse_fuse): an invertible leg is full rank to polar.
_GRAM_FLOOR = 5e-8

# polar's switch from the eigensolve of m* m to an SVD of m: below this ratio
# of smallest kept to largest singular value, eps * (smax / smin)^2 would show
# in the unitary factor (about 2e-10 at the ratio itself).
_POLAR_SVD = 1e-3


def _lapack(routine, *args, **kwargs):
    """Call a numpy.linalg routine, reporting non-convergence as NoConvergence."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"{routine.__name__} did not converge: {exc}") from exc


def as_matrix(entries) -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ShapeMismatch("matrix entries must be finite")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def gram(m: np.ndarray) -> np.ndarray:
    """m* m made exactly Hermitian: matmul rounding fails hermitian_eig's gate at rtol 0."""
    g = dagger(m) @ m
    return (g + dagger(g)) / 2.0


def kron(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Kronecker product, row-major convention: (i, j) -> i*cols(n) + j."""
    return np.kron(m, n)


@dataclass(frozen=True, eq=False)
class HermEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray  # real, ascending
    vectors: np.ndarray  # unitary; column k pairs with values[k]


@dataclass(frozen=True, eq=False)
class PolarPair:
    """Polar factors M = unitary @ positive, and M's singular values ascending."""

    unitary: np.ndarray
    positive: np.ndarray
    singular_values: np.ndarray | None = None


def _check_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected square matrix, got {m.shape}")
    return m.shape[0]


def hermitian_eig(m: np.ndarray, rtol: float = DEFAULT_RTOL) -> HermEig:
    """Eigendecomposition of a Hermitian matrix by ``numpy.linalg.eigh``.

    Raises NotHermitian if ||m - m*||_F > rtol * ||m||_F and NoConvergence if
    LAPACK does not converge. Output is deterministic for identical input:
    eigenvalues ascending, eigenvectors phase-normalized so the first
    coordinate above 1e-12 is positive real, exact ties ordered by the index
    of that coordinate and then by the coordinates rounded to 10 digits.
    """
    m = as_matrix(m)
    n = _check_square(m)
    scale = frobenius(m)
    if frobenius(m - dagger(m)) > rtol * max(scale, 1e-300):
        raise NotHermitian(
            f"matrix is not Hermitian within rtol={rtol:g} "
            f"(defect {frobenius(m - dagger(m)):.3e})"
        )
    values, vectors = _lapack(np.linalg.eigh, (m + dagger(m)) / 2.0)
    lead = _fix_phases(vectors)
    if np.all(np.diff(values) > 0.0):
        # No ties: the primary key alone fixes the order, which eigh gave.
        return HermEig(values=values, vectors=np.ascontiguousarray(vectors))
    # np.lexsort takes its last key as primary: value, then leading index,
    # then each coordinate's rounded re and im in turn.
    coords = np.round(np.stack([vectors.real, vectors.imag], axis=1).reshape(2 * n, n), 10)
    order = np.lexsort(np.vstack([coords[::-1], lead, values]))
    return HermEig(values=values[order], vectors=np.ascontiguousarray(vectors[:, order]))


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make each unit column's first coordinate above 1e-12 positive real, in
    place, and return the index of that coordinate per column."""
    if not vectors.size:
        return np.zeros(0, dtype=np.intp)
    lead = np.argmax(np.abs(vectors) > 1e-12, axis=0)
    top = vectors[lead, np.arange(lead.size)]
    vectors *= np.conj(top) / np.abs(top)
    return lead


def psd_funcalc(
    m: np.ndarray, f: str, rtol: float = DEFAULT_RTOL
) -> np.ndarray:
    """Apply sqrt / inv_sqrt / inv to a Hermitian PSD matrix via its spectrum.

    Eigenvalues in [-rtol*scale, 0) are clamped to zero before sqrt; inv and
    inv_sqrt additionally require the smallest eigenvalue to clear
    dim * rtol * ||m|| (else SingularOperand).
    """
    if f not in ("sqrt", "inv_sqrt", "inv"):
        raise ValueError(f"unknown function tag {f!r}")
    eig = hermitian_eig(m, rtol)
    vals = eig.values
    n = vals.size
    top = float(vals[-1]) if n else 0.0
    scale = max(top, abs(float(vals[0])) if n else 0.0)
    if n and vals[0] < -rtol * max(scale, 1e-300):
        raise NotPositive(f"smallest eigenvalue {vals[0]:.3e} below -rtol*scale")
    clamped = np.where(vals < 0.0, 0.0, vals)
    if f in ("inv_sqrt", "inv"):
        gate = n * rtol * top
        if n == 0 or clamped[0] <= gate:
            raise SingularOperand(
                f"{f} requested but smallest eigenvalue "
                f"{clamped[0] if n else 0.0:.3e} <= {gate:.3e}"
            )
    if f == "sqrt":
        fv = np.sqrt(clamped)
    elif f == "inv_sqrt":
        fv = 1.0 / np.sqrt(clamped)
    else:
        fv = 1.0 / clamped
    out = (eig.vectors * fv) @ dagger(eig.vectors)
    return (out + dagger(out)) / 2.0


def gram_schmidt(columns: np.ndarray, against: np.ndarray | None = None) -> np.ndarray:
    """Orthonormalize columns, dropping near-dependent ones.

    Classical Gram-Schmidt with one reorthogonalization (CGS2, "twice is
    enough") against one preallocated block: two matrix-vector products per
    column. A column is kept when its residual exceeds _GS_KEEP * its norm.
    ``against`` is an already-orthonormal basis the result must also be
    orthogonal to. Column order is preserved, which keeps the result
    deterministic.
    """
    columns = np.asarray(columns, dtype=np.complex128)
    if columns.ndim == 1:
        columns = columns[:, None]
    dim, count = columns.shape
    base = 0 if against is None else against.shape[1]
    # Rows of q are the basis vectors, so every prefix q[:k] is contiguous.
    q = np.empty((base + count, dim), dtype=np.complex128)
    if base:
        q[:base] = against.T
    k = base
    for v, ref in zip(columns.T, np.linalg.norm(columns, axis=0)):
        if k == dim:
            break
        if ref == 0.0:
            continue
        for _ in range(2):
            v = v - (q[:k] @ v.conj()).conj() @ q[:k]
        nrm = np.linalg.norm(v)
        if nrm > _GS_KEEP * ref:
            q[k] = v / nrm
            k += 1
    return np.ascontiguousarray(q[base:k].T)


def complete_basis(q: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal complement of the columns of q, built from standard basis
    vectors in ascending index order (deterministic)."""
    return gram_schmidt(np.eye(dim, dtype=np.complex128), against=q)


def kernel_basis(
    m: np.ndarray, rtol: float = DEFAULT_RTOL, scale: float | None = None
) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of m.

    Right singular vectors whose singular value is <= rtol * (largest
    singular value); the empty (n, 0) array if there are none. An explicit
    ``scale`` replaces the largest singular value in the threshold, for
    problems where the operand itself may be uniformly tiny (e.g.
    near-commuting residual maps) and relative-to-self gating would be
    meaningless.

    One route for every operand: a thin SVD, full only when m is wide, whose
    extra right singular vectors then carry singular value zero. Singular
    values are accurate to ~eps * ||m||, so kernels are resolved at full
    precision.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    _, sigma, vh = _lapack(np.linalg.svd, m, full_matrices=rows < cols)
    smax = float(sigma[0]) if sigma.size else 0.0
    thr = rtol * (smax if scale is None else scale)
    padded = np.zeros(cols)
    padded[: sigma.size] = sigma
    return np.ascontiguousarray(dagger(vh[padded <= thr]))


def thin_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, sigma, vh) of m, singular values descending."""
    return _lapack(np.linalg.svd, m, full_matrices=False)


def singular_extremes(m: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) singular value of m."""
    sigma = _lapack(np.linalg.svd, as_matrix(m), compute_uv=False)
    return float(sigma[-1]), float(sigma[0])


def spectral_norm(m: np.ndarray) -> float:
    return singular_extremes(m)[1]


def _invertible(smin: float, smax: float, n: int, rtol: float) -> bool:
    return smax > 0.0 and smin > max(n * rtol, _GRAM_FLOOR) * smax


def is_invertible(m: np.ndarray, rtol: float = DEFAULT_RTOL) -> bool:
    """Relative invertibility gate: smallest singular value > dim*rtol*largest.

    From a full SVD, floored at _GRAM_FLOOR, polar's rank floor: invertible
    means full rank to polar.
    """
    return _invertible(*singular_extremes(m), m.shape[0], rtol)


def polar(m: np.ndarray, rtol: float = DEFAULT_RTOL) -> PolarPair:
    """Polar decomposition m = U P with U unitary and P = sqrt(m* m).

    On the kernel of P the unitary factor is fixed by matching deterministic
    Gram-Schmidt bases of ker|m| and ker|m*| in ascending standard-basis
    order; with that convention the output is unique and reproducible. Total
    on square matrices. The factors come from one eigensolve of m* m, whose
    clipped eigenvalues' square roots are the singular values returned, so
    callers need no SVD of m to gate it. That route leaves U off unitary by
    about eps * (smax / smin)^2, so when the smallest kept singular value is
    below _POLAR_SVD * smax, the factors and singular values come from an
    SVD of m instead.
    """
    m = as_matrix(m)
    n = _check_square(m)
    eig = hermitian_eig(gram(m), rtol)
    sigma, vectors = np.sqrt(np.clip(eig.values, 0.0, None)), eig.vectors
    smax = float(sigma[-1]) if n else 0.0
    keep, left = sigma > max(rtol, _GRAM_FLOOR) * smax, None
    if keep.any() and sigma[keep][0] < _POLAR_SVD * smax:
        left, sigma, vh = thin_svd(m)
        left, sigma, vectors = left[:, ::-1], sigma[::-1], dagger(vh)[:, ::-1]
        smax = float(sigma[-1])
        keep = sigma > max(rtol, _GRAM_FLOOR) * smax
    positive = (vectors * sigma) @ dagger(vectors)
    positive = (positive + dagger(positive)) / 2.0
    if smax == 0.0:
        return PolarPair(np.eye(n, dtype=np.complex128), positive, sigma)
    qr = vectors[:, keep]
    # Columns of w are the left singular vectors over the co-kernel.
    w = m @ (qr / sigma[keep]) if left is None else left[:, keep]
    u = w @ dagger(qr)
    if keep.all():
        return PolarPair(u, positive, sigma)
    k1 = complete_basis(qr, n)  # ker |m|
    k2 = complete_basis(gram_schmidt(w), n)  # ker |m*|
    r = min(k1.shape[1], k2.shape[1])
    if r:
        u = u + k2[:, :r] @ dagger(k1[:, :r])
    return PolarPair(u, positive, sigma)


def commutation_kernel(
    pairs: list[tuple[np.ndarray, np.ndarray]], rtol: float = DEFAULT_RTOL
) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of {X : X N_k = M_k X for all k}.

    Each pair is (M_k, N_k) with M_k p x p and N_k q x q; X is p x q. The
    space is the kernel of T: X -> (X N_k - M_k X)_k at tau = rtol * scale,
    scale = max_k ||M_k||_F + ||N_k||_F, so exactly-intertwined and
    merely-nearby pairs are separated relative to the legs, not to T.

    A list whose second half is exactly the adjoints of its first (a
    *-intertwiner solve) takes a reduced route. Every kernel X also has
    X h = h' X for the Hermitian h = sum_k c_k N_k, h' = sum_k c_k M_k, with
    seeded random c_k, conjugated on the adjoint half. So X = V' Y V* in
    their eigenbases, with Y on the u entries |lambda_j - lambda'_i| <= g:
    about d unknowns for an irreducible module instead of d^2, folded pair by
    pair into a u x u factor. Certificate: with g_x the smallest excluded
    gap, delta = ||c|| tau / g_x, t >= ||T|| and F = (1 + t ||c|| / g_x) /
    sqrt(1 - delta^2), min-max gives k_lo <= dim ker(T) <= k_hi for the
    counts of reduced singular values <= tau and <= F tau. Only if they
    agree (and delta < 1/2) are the k_lo reduced kernel vectors returned;
    g sets how often that happens, never the answer.

    Other lists, and failed certificates, take the fold: the (k*p*q) x (p*q)
    system is never built; R starts as the first pair's block and each
    further block is folded in as the triangular factor of a QR of
    [R; block], so R stays square with the stack's kernel and singular
    values, and the kernel is read off R by kernel_basis.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    p = pairs[0][0].shape[0]
    q = pairs[0][1].shape[0]
    if any(mk.shape != (p, p) or nk.shape != (q, q) for mk, nk in pairs):
        raise ShapeMismatch("inconsistent shapes across commutation pairs")
    norms = [frobenius(mk) + frobenius(nk) for mk, nk in pairs]
    scale = max(1e-300, *norms)
    half = len(pairs) // 2
    closed = len(pairs) == 2 * half and np.isfinite(sum(norms)) and all(
        np.array_equal(mj, dagger(mk)) and np.array_equal(nj, dagger(nk))
        for (mk, nk), (mj, nj) in zip(pairs[:half], pairs[half:])
    )
    basis = _reduced_kernel(pairs, rtol * scale) if closed else None
    return _fold_kernel(pairs, rtol, scale) if basis is None else basis


def _fold_kernel(pairs, rtol: float, scale: float) -> list[np.ndarray]:
    """commutation_kernel on all p*q unknowns."""
    p = pairs[0][0].shape[0]
    q = pairs[0][1].shape[0]
    eye_p = np.eye(p, dtype=np.complex128)
    eye_q = np.eye(q, dtype=np.complex128)
    r = None
    for mk, nk in pairs:
        block = np.kron(eye_p, nk.T) - np.kron(mk, eye_q)
        r = block if r is None else np.linalg.qr(np.vstack([r, block]), mode="r")
    null = kernel_basis(r, rtol, scale=scale)
    return [null[:, j].reshape(p, q) for j in range(null.shape[1])]


def _reduced_kernel(pairs, tau: float) -> list[np.ndarray] | None:
    """commutation_kernel of an adjoint-closed list on the spectral support
    of a random Hermitian pair combination; None when not certified."""
    half = len(pairs) // 2
    rng = np.random.default_rng(0)
    c = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    hm = sum(ck * mk for ck, (mk, _) in zip(c, pairs))
    hn = sum(ck * nk for ck, (_, nk) in zip(c, pairs))
    lam_m, vm = _lapack(np.linalg.eigh, hm + dagger(hm))
    lam_n, vn = _lapack(np.linalg.eigh, hn + dagger(hn))
    gaps = np.abs(lam_n[None, :] - lam_m[:, None])
    c_norm = np.sqrt(2.0) * np.linalg.norm(c)
    # Support threshold: the geometric mean of the kernel's spectral drift
    # ||c|| tau and the widest gap, which keeps delta small.
    g = np.sqrt(c_norm * tau * gaps.max(initial=tau))
    rows, cols = np.nonzero(gaps <= g)
    g_x = gaps[gaps > g].min(initial=np.inf)
    delta = c_norm * tau / g_x
    if delta >= 0.5:
        return None
    # ||T|| <= (sum_k (||M_k|| + ||N_k||)^2)^(1/2).
    t = np.sqrt(sum((frobenius(mk) + frobenius(nk)) ** 2 for mk, nk in pairs))
    f = (1.0 + t * c_norm / g_x) / np.sqrt(1.0 - delta**2)
    p, q = gaps.shape
    u = np.arange(rows.size)
    r = None
    for mk, nk in pairs:
        block = np.zeros((p, q, u.size), dtype=np.complex128)
        block[rows, :, u] = (dagger(vn) @ nk @ vn)[cols]
        block[:, cols, u] -= (dagger(vm) @ mk @ vm)[:, rows]
        block = np.linalg.qr(block.reshape(p * q, u.size), mode="r")
        r = block if r is None else np.linalg.qr(np.vstack([r, block]), mode="r")
    _, sigma, vh = _lapack(np.linalg.svd, r, full_matrices=False)
    if np.count_nonzero(sigma <= tau) != np.count_nonzero(sigma <= f * tau):
        return None
    out = []
    for y in vh[sigma <= tau].conj():
        x = np.zeros((p, q), dtype=np.complex128)
        x[rows, cols] = y
        out.append(vm @ x @ dagger(vn))
    return out


def cluster_runs(values: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) runs of ascending values separated by gaps <=
    1e-8 * max(spread, 1), spread = values[-1] - values[0]."""
    if not values.size:
        return []
    gap = 1e-8 * max(float(values[-1] - values[0]), 1.0)
    bounds = [0, *(np.flatnonzero(np.diff(values) > gap) + 1).tolist(), values.size]
    return list(zip(bounds, bounds[1:]))


def commuting_hermitian_eig(
    s: np.ndarray, t: np.ndarray, rtol: float = DEFAULT_RTOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint eigenbasis of two commuting Hermitian matrices.

    Diagonalizes s, then re-diagonalizes t inside each (near-)degenerate
    eigenspace of s; on a one-dimensional eigenspace t's value is read off
    directly. Returns (s_values, t_values, basis).
    """
    eig_s = hermitian_eig(s, rtol)
    q = eig_s.vectors.copy()
    s_vals = eig_s.values.copy()
    t_vals = np.zeros_like(s_vals)
    for start, stop in cluster_runs(s_vals):
        block = q[:, start:stop]
        t_hat = dagger(block) @ t @ block
        if stop - start == 1:
            t_vals[start] = t_hat[0, 0].real
            continue
        sub = hermitian_eig((t_hat + dagger(t_hat)) / 2.0, rtol)
        q[:, start:stop] = block @ sub.vectors
        t_vals[start:stop] = sub.values
    return s_vals, t_vals, q


def unitary_eig(v: np.ndarray, rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a unitary matrix via its commuting Hermitian parts.

    Returns (values, vectors) with unit-modulus values sorted by angle.
    """
    v = as_matrix(v)
    s = (v + dagger(v)) / 2.0
    t = (v - dagger(v)) / 2.0j
    _, _, q = commuting_hermitian_eig(s, t, rtol)
    raw = np.diag(dagger(q) @ v @ q)
    order = np.argsort(np.angle(raw), kind="stable")
    return raw[order], np.ascontiguousarray(q[:, order])


def eig_general(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit right eigenvectors of a general complex matrix.

    ``numpy.linalg.eig``; NoConvergence if LAPACK does not converge. Each
    eigenvector is phase-normalized so its first coordinate above 1e-12 is
    positive real, and pairs are ordered by (real, imaginary) part of the
    eigenvalue rounded to 12 digits, then by LAPACK's order. Eigenvectors of
    clustered or defective spectra are best-effort, not certified output.
    """
    m = as_matrix(m)
    _check_square(m)
    values, vectors = _lapack(np.linalg.eig, m)
    _fix_phases(vectors)
    order = np.lexsort((np.round(values.imag, 12), np.round(values.real, 12)))
    return values[order], np.ascontiguousarray(vectors[:, order])
