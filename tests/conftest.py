"""Shared builders for the worked examples and seeded inputs."""

import json

import numpy as np

from pmod import core, families, fileio
from pmod import linalg as la


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return la.gram_schmidt(g)


def shared_eigenline_module():
    """2x2 module with common eigenvector (1,1), intrinsic dimension 1."""
    r = np.sqrt(2)
    a = np.array([[r, r], [r - 2, r + 2]], dtype=complex) / 4
    b = np.array([[r + 2, r - 2], [r, r]], dtype=complex) / 4
    return core.PModule(legs=(a, b))


def rotation(theta):
    """Rotation with eigenvector (1, i) for e^{i theta}."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]], dtype=complex)


def atomic_emergence_pair(theta=np.pi / 5, a=0.6, at=0.7, alpha=1.0, alphat=1.0):
    """Two diffuse irreducible class-M modules whose fusion grows an atomic line.

    The second module uses the transposed rotation so the fused second leg
    fixes e1 x e1 - e2 x e2 exactly.
    """
    inv_a = np.sqrt(1 - a * a)  # inverse in the ((0,1), star) group
    inv_at = np.sqrt(1 - at * at)
    p2 = np.diag([0.0, 1.0]).astype(complex)
    p1 = np.diag([1.0, 0.0]).astype(complex)
    m = core.PModule(legs=(alpha * a * p2, rotation(theta) @ np.diag([1.0, inv_a])))
    mt = core.PModule(
        legs=(alphat * at * p1, rotation(-theta) @ np.diag([inv_at, 1.0]))
    )
    return m, mt


def random_gp(rng, length):
    entries = []
    for _ in range(length):
        aa = np.sqrt(rng.uniform(0.15, 0.85))
        bb = np.sqrt(1 - aa * aa)
        pa, pb = np.exp(2j * np.pi * rng.random(2))
        entries.append((aa * pa, bb * pb))
    return families.GPVector(entries=tuple(entries))


def gp_copies(seed):
    """Two copies of GP (6, 8), which is 2 x 24, conjugated by a unitary: carrier 96."""
    rng = np.random.default_rng(seed)
    g = core.boxtimes(families.gp_module(random_gp(rng, 6)), families.gp_module(random_gp(rng, 8)))
    return core.conjugate(core.direct_sum(g, g), random_unitary(rng, 96))


def rounded_file(m, digits=10):
    """m's module file with every entry rounded to that many significant digits."""
    obj = json.loads(fileio.serialize_module(m))
    obj["legs"] = [[[[float(f"{x:.{digits}g}") for x in z] for z in row] for row in leg] for leg in obj["legs"]]
    return json.dumps(obj)


def d2_display_pair(alpha=np.exp(1j * np.pi / 7)):
    lam = 1 / np.sqrt(2)
    m = core.PModule(
        legs=(np.diag([1j * lam, -1j * lam]), np.array([[0, lam], [alpha * lam, 0]]))
    )
    mt = core.PModule(
        legs=(
            np.diag([1j * lam, -1j * lam]),
            np.array([[0, lam], [np.conj(alpha) * lam, 0]]),
        )
    )
    return m, mt


def random_d2(rng):
    aa = np.sqrt(rng.uniform(0.2, 0.8, size=2))
    bb = np.sqrt(1 - aa**2)
    ph = np.exp(2j * np.pi * rng.random(4))
    return core.PModule(
        legs=(
            np.diag(aa * ph[:2]),
            np.array([[0, bb[1] * ph[3]], [bb[0] * ph[2], 0]]),
        )
    )


def leg_defect(m, mt):
    return max(np.linalg.norm(x - y) for x, y in zip(m.legs, mt.legs))


def restricted(m, q):
    qd = q.conj().T
    return core.PModule(legs=tuple(qd @ leg @ q for leg in m.legs))
