"""Pythagorean-module algebra.

A module is a tuple of same-size square complex matrices (the legs) whose
squared absolute values sum to the identity: sum_k legs[k]* legs[k] = I.
Two-leg modules are the default; the Kawamura product produces higher
arities, and the operations that are only defined for two legs reject
anything else with ArityUnsupported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import (
    ArityUnsupported,
    KernelOverlap,
    NotIntertwiner,
    NotInvertible,
    NotPositive,
    OnUnitAxis,
    ShapeMismatch,
    SingularDenominator,
)

# Relative spectral floor for the fusion normalizer, per the K-invertibility
# design decision: smallest eigenvalue of K^2 must clear d*dt*1e-10*||K^2||.
# _normalizer applies it for boxtimes, the duality data and star alike.
_K_GATE = 1e-10

# Normality gate for class membership: ||AA* - A*A||_F <= 1e-8 ||A||_F^2.
_NORMALITY_GATE = 1e-8


@dataclass(frozen=True, eq=False)
class PModule:
    """Tuple of n >= 2 equal-size square legs of dimension >= 1, checked on
    entry unless built by _trusted."""

    legs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.legs) < 2:
            raise ShapeMismatch("a module needs at least two legs")
        coerced = []
        for k, leg in enumerate(self.legs):
            m = la.as_matrix(leg).copy()
            dim = coerced[0].shape[0] if coerced else m.shape[0]
            if m.shape[0] != m.shape[1]:
                raise ShapeMismatch(f"leg {k} is not square: {m.shape}")
            if m.shape[0] != dim:
                raise ShapeMismatch(f"leg {k} has dimension {m.shape[0]}, expected {dim}")
            if not dim:
                raise ShapeMismatch("legs must have dimension at least 1")
            m.setflags(write=False)
            coerced.append(m)
        object.__setattr__(self, "legs", tuple(coerced))

    @classmethod
    def _trusted(cls, legs) -> PModule:
        """Skip the entry checks: legs are fresh complex128 results from checked legs."""
        module = object.__new__(cls)
        object.__setattr__(module, "legs", tuple(legs))
        for leg in module.legs:
            leg.setflags(write=False)
        return module

    @property
    def dim(self) -> int:
        return self.legs[0].shape[0]

    @property
    def arity(self) -> int:
        return len(self.legs)

    @property
    def A(self) -> np.ndarray:
        return self.legs[0]

    @property
    def B(self) -> np.ndarray:
        return self.legs[1]


def scalar_module(a: complex, b: complex) -> PModule:
    return PModule(legs=(np.array([[a]]), np.array([[b]])))


def unit_module() -> PModule:
    r = 1.0 / math.sqrt(2.0)
    return scalar_module(r, r)


def _check_range(op: str, m: PModule, mt: PModule, gain: float = 1.0) -> None:
    """ShapeMismatch unless gain * max|m entry| * max|mt entry|, bounding op's entries, < 1e300."""
    a, b = (max(float(np.abs(leg).max(initial=0.0)) for leg in mod.legs) for mod in (m, mt))
    top = gain * a * b  # Python floats: an overflow gives inf with no numpy warning
    if not top < 1e300:
        raise ShapeMismatch(f"{op} leaves the float range (entries up to {top:.3e})")


def _require_arity2(m: PModule, op: str) -> None:
    if m.arity != 2:
        raise ArityUnsupported(f"{op} is defined for two-leg modules, got arity {m.arity}")


def _invertible_polars(m: PModule, op: str, rtol: float) -> tuple[la.PolarPair, la.PolarPair]:
    """polar of both legs of a two-leg module, one SVD each; NotInvertible
    unless each leg's singular values, as polar returns them, pass la._invertible."""
    _require_arity2(m, op)
    pa, pb = la.polar(m.A, rtol), la.polar(m.B, rtol)
    for name, s in (("A", pa.singular_values), ("B", pb.singular_values)):
        if not la._invertible(s[0], s[-1], m.dim, rtol):
            raise NotInvertible(f"{op}: leg {name} is numerically singular")
    return pa, pb


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    residual: float
    tol: float


def pythagorean_residual(m: PModule) -> float:
    """Frobenius norm of sum_k legs[k]* legs[k] - I."""
    acc = -np.eye(m.dim, dtype=np.complex128)
    for leg in m.legs:
        acc = acc + la.dagger(leg) @ leg
    return la.frobenius(acc)


def validate(m: PModule, tol: float = la.DEFAULT_RTOL) -> ValidationReport:
    """Check the defining identity; the report carries the residual, which is
    infinite (or NaN) when the legs' squares leave the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = pythagorean_residual(m)
    return ValidationReport(passed=residual <= tol, residual=residual, tol=tol)


def conjugate(m: PModule, u: np.ndarray) -> PModule:
    """The equivalent module u legs u* on the same carrier (ShapeMismatch unless u is d x d)."""
    if np.shape(u) != (m.dim, m.dim):
        raise ShapeMismatch(f"conjugator of shape {np.shape(u)} on a carrier of dimension {m.dim}")
    ud = la.dagger(u)
    return PModule(legs=tuple(u @ leg @ ud for leg in m.legs))


def flip_permutation(d1: int, d2: int) -> np.ndarray:
    """Unitary C^d1 (x) C^d2 -> C^d2 (x) C^d1, e_i (x) e_j -> e_j (x) e_i."""
    i, j = np.divmod(np.arange(d1 * d2), d2)
    p = np.zeros((d1 * d2, d1 * d2), dtype=np.complex128)
    p[j * d1 + i, i * d2 + j] = 1.0
    return p


def _contraction_spectrum(p: np.ndarray, rtol: float) -> la.HermEig:
    """Eigendecomposition of a positive contraction, values clipped to [0, 1]."""
    eig = la.hermitian_eig(p, rtol)
    scale = max(abs(float(eig.values[0])), abs(float(eig.values[-1])), 1e-300)
    if eig.values[0] < -rtol * scale or eig.values[-1] > 1.0 + rtol * scale:
        raise NotPositive(
            f"operand is not a positive contraction: spectrum "
            f"[{eig.values[0]:.3e}, {eig.values[-1]:.3e}]"
        )
    return la.HermEig(values=np.clip(eig.values, 0.0, 1.0), vectors=eig.vectors)


def _normalizer(alpha: np.ndarray, alphat: np.ndarray, error: type) -> np.ndarray:
    """The fusion normalizer K = sqrt(alpha x alphat + (1 - alpha) x (1 - alphat))
    as a spectrum on the product basis, from two spectra in [0, 1]; error when
    the smallest entry of K^2 is at most K^2.size * _K_GATE * max(K^2)."""
    k2 = np.outer(alpha, alphat).ravel() + np.outer(1.0 - alpha, 1.0 - alphat).ravel()
    gate = k2.size * _K_GATE * max(float(k2.max()), 1e-300)
    if k2.min() <= gate:
        raise error(f"fusion normalizer singular: min eigenvalue {k2.min():.3e} <= gate {gate:.3e}")
    return np.sqrt(k2)


def star(p: np.ndarray, q: np.ndarray, rtol: float = la.DEFAULT_RTOL) -> np.ndarray:
    """The weighted-mean operation (p, q) -> (p x q) / sqrt(p^2 x q^2 + (1-p^2) x (1-q^2)).

    Both operands must be positive contractions. The denominator is the
    fusion normalizer K of (p, sqrt(1-p^2)) and (q, sqrt(1-q^2)), so star(p, q)
    is the first leg of their fusion product; _normalizer forms and gates it
    as for boxtimes (SingularDenominator here, e.g. the scalar pair (0, 1)).
    Computed in the joint eigenbasis of the commuting factors, which is the
    same operator as (p x q) @ psd_funcalc(denominator, inv_sqrt).
    """
    ep, eq = (_contraction_spectrum(la.as_matrix(x), rtol) for x in (p, q))
    pv, qv = ep.values, eq.values
    w = np.outer(pv, qv).ravel() / _normalizer(pv**2, qv**2, SingularDenominator)
    out = _kron_right(la.kron(ep.vectors, eq.vectors) * w, ep.vectors, eq.vectors)
    return (out + la.dagger(out)) / 2.0


def _kron_right(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ kron(a, b)* without forming it: each row of x, read as a p x q matrix
    X (a is m x p, b is n x q), maps to conj(a) X b*."""
    (m, p), (n, q) = a.shape, b.shape
    return (np.conj(a) @ x.reshape(-1, p, q) @ la.dagger(b)).reshape(-1, m * n)


def _fusion_factors(m: PModule, mt: PModule):
    """(V, Vt, s): eigenbases of A*A and At*At, and K^-1's spectrum on V x Vt,
    K from the shared _normalizer (KernelOverlap when it fails the gate)."""
    ga, gat = la._eigh(la.gram(m.A)), la._eigh(la.gram(mt.A))
    k = _normalizer(np.clip(ga.values, 0.0, 1.0), np.clip(gat.values, 0.0, 1.0), KernelOverlap)
    return ga.vectors, gat.vectors, 1.0 / k


def boxtimes(m: PModule, mt: PModule) -> PModule:
    """Fusion product of two-leg modules on the Kronecker carrier.

    Legs are (A x At) K^-1 and (B x Bt) K^-1 with
    K = sqrt(|A|^2 x |At|^2 + |B|^2 x |Bt|^2); KernelOverlap when K fails the
    relative invertibility gate _K_GATE (the kernel-overlap condition, a
    fixed gate: boxtimes takes no tolerance). K^-1 is diagonal on V x Vt, V
    and Vt the eigenbases of A*A and At*At, so each leg is evaluated one
    factor at a time as (X V x Xt Vt) diag(s) (V x Vt)*: no carrier-sized
    K^-1 or basis, and O(D^2 (d + dt)) work for D = d dt.
    """
    _require_arity2(m, "boxtimes")
    _require_arity2(mt, "boxtimes")
    v, vt, s = _fusion_factors(m, mt)
    # V, Vt unitary: no entry or partial sum exceeds ||X|| ||Xt|| max(s), and ||X|| <= d max|X_ij|.
    _check_range("boxtimes", m, mt, m.dim * mt.dim * float(s.max()))
    return PModule._trusted(
        _kron_right(la.kron(x @ v, xt @ vt) * s, v, vt) for x, xt in zip(m.legs, mt.legs)
    )


def direct_sum(m: PModule, mt: PModule) -> PModule:
    """Block-diagonal sum of equal-arity modules."""
    if m.arity != mt.arity:
        raise ShapeMismatch(f"arity mismatch: {m.arity} vs {mt.arity}")
    d, dt = m.dim, mt.dim
    legs = []
    for x, y in zip(m.legs, mt.legs):
        block = np.zeros((d + dt, d + dt), dtype=np.complex128)
        block[:d, :d] = x
        block[d:, d:] = y
        legs.append(block)
    return PModule._trusted(legs)


def dual_module(m: PModule, rtol: float = la.DEFAULT_RTOL) -> PModule:
    """Coordinate dual (conj(U_A)|B|-bar, conj(U_B)|A|-bar) of an invertible-leg module.

    The bar is entrywise complex conjugation. Each leg takes one SVD: polar
    gives |A| and |B|, and its singular values gate invertibility
    (NotInvertible otherwise), which makes the polar factors unique.
    """
    pa, pb = _invertible_polars(m, "dual_module", rtol)
    return PModule._trusted((np.conj(pa.unitary @ pb.positive), np.conj(pb.unitary @ pa.positive)))


@dataclass(frozen=True)
class DualityReport:
    quantum_dim: float
    ev_factor: complex
    zigzag_residual: float
    ev_residual: float
    coev_residual: float


def duality_check(m: PModule, rtol: float = la.DEFAULT_RTOL) -> DualityReport:
    """Pair m with its coordinate dual and check the duality data.

    ev sends e_i* (x) e_j to delta_ij, coev sends 1 to sum_i e_i (x) e_i*.
    Reports the fitted scalar lambda with ev o (leg of dual (x) m) = lambda ev
    (one lambda for both legs; NotIntertwiner if none fits within rtol) and
    ev's and coev's residuals. ev as a d x d matrix is I, so the zig-zags hold
    exactly and ev o flip o coev = d: both are reported, not computed.
    Neither product is formed: with the fusion factors of dual (x) m, the row
    ev o L and the column L o coev = (ev o L*)* of each leg of dual (x) m and
    m (x) dual are evaluated one tensor factor at a time, in O(d^3).
    """
    _require_arity2(m, "duality_check")
    d = m.dim
    md = dual_module(m, rtol)
    vd, v, s = _fusion_factors(md, m)  # dual (x) m; m (x) dual is its flip
    ev = np.zeros((1, d * d), dtype=np.complex128)
    ev[0, np.arange(d) * (d + 1)] = 1.0
    # ev (P x Q) = vec(P^T Q); K^-1 of m (x) dual has the flipped spectrum.
    legs = list(zip(md.legs, m.legs))
    left = [_kron_right((xd @ vd).T @ (x @ v) * s.reshape(d, d), vd, v) for xd, x in legs]
    sflip = v.T @ vd * s.reshape(d, d).T
    right = [_kron_right(sflip, x @ v, xd @ vd) for xd, x in legs]
    lam = sum(complex((row @ la.dagger(ev))[0, 0]) for row in left) / (2.0 * d)  # ev ev* = d
    ev_residual = max(float(np.linalg.norm(row - lam * ev)) for row in left) / math.sqrt(d)
    if ev_residual > max(rtol, la.DEFAULT_RTOL) * 10:
        raise NotIntertwiner(
            f"no scalar makes ev an intertwiner (residual {ev_residual:.3e})"
        )
    # L o coev - lam coev is the adjoint of ev o L* - conj(lam) ev.
    coev_residual = max(float(np.linalg.norm(row - np.conj(lam) * ev)) for row in right)
    coev_residual /= math.sqrt(d)
    # ev as a d x d matrix is I: both zig-zags are exactly I and ev o flip o coev = tr I = d.
    return DualityReport(
        quantum_dim=float(d),
        ev_factor=complex(lam),
        zigzag_residual=0.0,
        ev_residual=float(ev_residual),
        coev_residual=float(coev_residual),
    )


# ---------------------------------------------------------------------------
# Scalar (one-dimensional) modules: the invertible ones form an abelian group.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarModule:
    a: complex
    b: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.b)):
            raise ValueError(f"scalar module coordinates must be finite, got ({self.a}, {self.b})")

    def as_module(self) -> PModule:
        return scalar_module(self.a, self.b)


@dataclass(frozen=True)
class GroupCoords:
    """(u, v, t) in S1 x S1 x R, the group coordinates of a scalar module."""

    u: complex
    v: complex
    t: float


_AXIS_TOL = 1e-12


def scalar_boxtimes(s: ScalarModule, st: ScalarModule) -> ScalarModule:
    """One-dimensional fusion: (a at / k, b bt / k) with k = sqrt(|a at|^2 + |b bt|^2)."""
    num_a = s.a * st.a
    num_b = s.b * st.b
    k2 = abs(num_a) ** 2 + abs(num_b) ** 2
    if k2 <= _K_GATE:
        raise KernelOverlap("scalar fusion normalizer vanishes")
    k = math.sqrt(k2)
    return ScalarModule(a=num_a / k, b=num_b / k)


def scalar_inverse(s: ScalarModule) -> ScalarModule:
    """Group inverse (|b| e^{-i arg a}, |a| e^{-i arg b}); Arg branch (-pi, pi]."""
    if abs(s.a) <= _AXIS_TOL or abs(s.b) <= _AXIS_TOL:
        raise OnUnitAxis("scalar module with a zero coordinate has no inverse")
    return ScalarModule(
        a=abs(s.b) * np.exp(-1j * np.angle(s.a)),
        b=abs(s.a) * np.exp(-1j * np.angle(s.b)),
    )


def scalar_coords_iso(c: GroupCoords) -> ScalarModule:
    """Group isomorphism (u, v, t) -> (u / sqrt(e^t + 1), sqrt(e^t/(e^t+1)) v)."""
    if not (abs(abs(c.u) - 1.0) <= 1e-9 and abs(abs(c.v) - 1.0) <= 1e-9):
        raise ValueError("u and v must be unit complex numbers")
    if math.isnan(c.t):
        raise ValueError("t must be a number")
    if c.t > 0:  # through e^-t: e^t leaves the float range from t of about 710
        e = math.exp(-c.t)
        return ScalarModule(a=c.u * math.sqrt(e / (1.0 + e)), b=c.v / math.sqrt(1.0 + e))
    et = math.exp(c.t)
    return ScalarModule(a=c.u / math.sqrt(et + 1.0), b=math.sqrt(et / (et + 1.0)) * c.v)


def scalar_coords_of(s: ScalarModule) -> GroupCoords:
    """Inverse of the isomorphism: t = log(|b|^2 / |a|^2), u = a/|a|, v = b/|b|."""
    if abs(s.a) <= _AXIS_TOL or abs(s.b) <= _AXIS_TOL:
        raise OnUnitAxis("coordinates are defined away from the unit axes")
    return GroupCoords(
        u=s.a / abs(s.a), v=s.b / abs(s.b), t=2.0 * (math.log(abs(s.b)) - math.log(abs(s.a)))
    )


# ---------------------------------------------------------------------------
# Kawamura product and word machinery.
# ---------------------------------------------------------------------------


def kawamura_tensor(m: PModule, mt: PModule) -> PModule:
    """Arity-multiplying product: leg[nt*i + j] = legs[i] (x) legst[j].

    The Pythagorean identity holds algebraically, no normalizer involved.
    Associative entrywise; not symmetric.
    """
    _check_range("kawamura_tensor", m, mt)
    return PModule._trusted(la.kron(x, y) for x in m.legs for y in mt.legs)


def word_operator(m: PModule, word) -> np.ndarray:
    """Operator of a word over the legs, first digit applied first.

    ``word`` is a sequence of leg indices (a string of digits is also
    accepted); ValueError names a digit outside range(m.arity).
    """
    if isinstance(word, str):
        word = [int(ch) for ch in word]
    out = np.eye(m.dim, dtype=np.complex128)
    for digit in word:
        if digit not in range(m.arity):
            raise ValueError(f"word digit {digit!r} is not a leg of an arity-{m.arity} module")
        out = m.legs[digit] @ out
    return out


def conservation_defect(m: PModule, xi: np.ndarray, depth: int) -> float:
    """max over levels n <= depth of |sum_{|w|=n} ||W_w xi||^2 - ||xi||^2|."""
    xi = np.asarray(xi, dtype=np.complex128).reshape(-1)
    base = float(np.vdot(xi, xi).real)
    level = [xi]
    worst = 0.0
    for _ in range(depth):
        level = [leg @ v for v in level for leg in m.legs]
        mass = sum(float(np.vdot(v, v).real) for v in level)
        worst = max(worst, abs(mass - base))
    return worst


# ---------------------------------------------------------------------------
# Class membership gates.
# ---------------------------------------------------------------------------


def is_normal(x: np.ndarray) -> bool:
    scale = la.frobenius(x) ** 2
    return la.frobenius(x @ la.dagger(x) - la.dagger(x) @ x) <= _NORMALITY_GATE * max(
        scale, 1e-300
    )


def in_class_m(m: PModule, rtol: float = la.DEFAULT_RTOL) -> bool:
    """First leg normal, second leg invertible (the full-module class)."""
    if m.arity != 2:
        return False
    return is_normal(m.A) and la.is_invertible(m.B, rtol)


def in_class_n(m: PModule, rtol: float = la.DEFAULT_RTOL) -> bool:
    """Class-M membership plus an invertible first leg (the diffuse class)."""
    return in_class_m(m, rtol) and la.is_invertible(m.A, rtol)
