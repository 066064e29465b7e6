import numpy as np
import pytest

from holobraid.cyclic import RepParams
from holobraid.errors import InvalidDegreeError
from holobraid.roots import primitive_root


def test_canonical_choice_ell3():
    ctx = primitive_root(3)
    assert ctx.eps == pytest.approx(complex(-0.5, np.sqrt(3) / 2))


def test_primitivity():
    ctx = primitive_root(5)
    assert abs(ctx.eps**5 - 1) < 1e-14
    for k in range(1, 5):
        assert abs(ctx.eps**k - 1) > 0.5


@pytest.mark.parametrize("bad", [4, 2, 1, 0, -3, 6])
def test_invalid_degree(bad):
    with pytest.raises(InvalidDegreeError):
        primitive_root(bad)


def test_non_integer_degree():
    with pytest.raises(InvalidDegreeError):
        primitive_root(3.5)


@pytest.mark.parametrize("ell", [3, 5, 7, 9])
def test_power_table(ell):
    ctx = primitive_root(ell)
    assert len(ctx.eps_powers) == ell
    for k in range(ell):
        assert abs(ctx.eps_powers[k] * ctx.eps_powers[(ell - k) % ell] - 1) < 1e-13
    # even exponents cover every root exactly once for odd degree
    evens = sorted(round(np.angle(ctx.pow(2 * n)) % (2 * np.pi), 9) for n in range(1, ell + 1))
    alls = sorted(round(np.angle(ctx.pow(k)) % (2 * np.pi), 9) for k in range(ell))
    assert evens == alls


def test_contexts_compare_and_hash_by_degree():
    # two contexts of one degree are distinct objects with equal tables
    a, b = primitive_root(3), primitive_root(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != primitive_root(5)
    p, q = (RepParams(ctx=ctx, u=1.1, v=0.9, x=1.2, y=0.8) for ctx in (a, b))
    assert p == q and hash(p) == hash(q)
    assert len({p, q, RepParams(ctx=a, u=1.1, v=0.9, x=1.2, y=0.7)}) == 2
