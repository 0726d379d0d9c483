"""The tensor category's structure as oracles: rigidity, Frobenius
reciprocity and the dual of a product, checked with ``decompose_full`` and
``equivalent`` alone.

A multiplicity is the number of summands that ``equivalent`` finds True
against the target module.
"""

import numpy as np
import pytest

from pmod import core, families, structure

from conftest import restricted


def _parts(m):
    """Dimensions and summand modules of m's decompose_full (seed 0), which
    must be certified."""
    rep = structure.decompose_full(m)
    assert rep.confidence == "certified"
    return [s.dimension for s in rep.summands], [restricted(m, s.isometry) for s in rep.summands]


def _multiplicity(subs, target):
    """How many of the summand modules are equivalent (True) to target."""
    return sum(bool(structure.equivalent(s, target)) for s in subs if s.dim == target.dim)


@pytest.mark.parametrize("tag", ["N", "M"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [1, 2])
def test_unit_occurs_once_in_a_times_its_dual(tag, d, seed):
    # Rigidity: dim Hom(a ⊠ a*, 1) = dim End(a) = 1 for an irreducible a,
    # and a* ⊠ a holds the unit once too.
    a = families.random_module(d, tag, seed=seed)
    ad = core.dual_module(a)
    unit = core.unit_module()
    for m in (core.boxtimes(a, ad), core.boxtimes(ad, a)):
        dims, subs = _parts(m)
        assert dims == [1, d * d - 1]
        assert _multiplicity(subs, unit) == 1


@pytest.mark.parametrize("seed", [1, 2])
def test_unit_multiplicity_is_dim_end(seed):
    # a = N(2) ⊕ N(3) has a two-dimensional End, so a ⊠ a* holds the unit
    # twice: 2 ⊠ 2* = 1 + 3, 3 ⊠ 3* = 1 + 8, and the cross terms 6 and 6.
    a = core.direct_sum(families.random_module(2, seed=seed), families.random_module(3, seed=seed))
    m = core.boxtimes(a, core.dual_module(a))
    dims, subs = _parts(m)
    assert dims == [1, 1, 3, 6, 6, 8]
    assert _multiplicity(subs, core.unit_module()) == 2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_frobenius_reciprocity(seed):
    # c = a ⊠ b (generic, so irreducible) occurs once in a ⊠ b, so a occurs
    # once in c ⊠ b* and b once in a* ⊠ c.
    a, b = families.random_module(2, seed=seed), families.random_module(3, seed=seed)
    c = core.boxtimes(a, b)
    assert _multiplicity(_parts(core.boxtimes(c, core.dual_module(b)))[1], a) == 1
    assert _multiplicity(_parts(core.boxtimes(core.dual_module(a), c))[1], b) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dual_of_a_product_is_the_reversed_product_of_duals(seed):
    a, b = families.random_module(2, seed=seed), families.random_module(3, seed=seed)
    lhs = core.dual_module(core.boxtimes(a, b))
    rhs = core.boxtimes(core.dual_module(b), core.dual_module(a))
    assert structure.equivalent(lhs, rhs).verdict is True


@pytest.mark.parametrize("tag", ["N", "M"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [1, 2])
def test_fusion_square_splits_by_the_flip(tag, d, seed):
    # The flip commutes with the legs of a ⊠ a, so a ⊠ a splits into its
    # antisymmetric and symmetric squares, of dimensions d(d-1)/2 and
    # d(d+1)/2: the flip is -1 on the first summand and +1 on the second.
    a = families.random_module(d, tag, seed=seed)
    rep = structure.decompose_full(core.boxtimes(a, a), seed=0)
    assert rep.confidence == "certified"
    assert [(s.dimension, s.tag) for s in rep.summands] == [
        (d * (d - 1) // 2, "diffuse"), (d * (d + 1) // 2, "diffuse")]
    flip = core.flip_permutation(d, d)
    for s, sign in zip(rep.summands, (-1, 1)):
        assert np.abs(flip @ s.isometry - sign * s.isometry).max() <= 1e-9
