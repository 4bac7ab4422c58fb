import functools
import random

import pytest

from icalc.errors import DimensionMismatchError, RingSpecError
from icalc.monomials import (
    MonomialOrder,
    mono_compare,
    mono_coprime,
    mono_degree,
    mono_divides,
    mono_gcd,
    mono_lcm,
    mono_mul,
    mono_sub,
    mono_support,
)


def test_bad_orders_raise_ring_spec_errors():
    with pytest.raises(RingSpecError, match="unknown order kind: 'Lex'"):
        MonomialOrder("Lex")
    with pytest.raises(RingSpecError, match="front block size must be non-negative"):
        MonomialOrder.block_elimination(-1)


def test_exponent_arithmetic():
    a, b = (2, 0, 1), (1, 3, 0)
    assert mono_mul(a, b) == (3, 3, 1)
    assert mono_sub((3, 3, 1), b) == a
    assert mono_lcm(a, b) == (2, 3, 1)
    assert mono_gcd(a, b) == (1, 0, 0)
    assert mono_degree(a) == 3
    assert mono_support(a) == frozenset({0, 2})
    assert not mono_coprime(a, b)
    assert mono_coprime((2, 0, 0), (0, 1, 1))


def test_divides():
    assert mono_divides((1, 0, 1), (2, 0, 1))
    assert not mono_divides((1, 0, 2), (2, 0, 1))
    assert mono_divides((0, 0, 0), (5, 5, 5))


def test_lex_order():
    lex = MonomialOrder.lex()
    # X > Y^3 under lex with X first
    assert mono_compare(lex, (1, 0), (0, 3)) == 1
    assert mono_compare(lex, (1, 1), (1, 2)) == -1
    assert mono_compare(lex, (2, 1), (2, 1)) == 0


def test_grevlex_order():
    grevlex = MonomialOrder.grevlex()
    # degree first
    assert mono_compare(grevlex, (0, 3), (1, 0)) == 1
    # classic tie-break: Y^2 beats XZ in three variables
    assert mono_compare(grevlex, (0, 2, 0), (1, 0, 1)) == 1
    # X^2 beats XY, XY beats Y^2
    assert mono_compare(grevlex, (2, 0, 0), (1, 1, 0)) == 1
    assert mono_compare(grevlex, (1, 1, 0), (0, 2, 0)) == 1


def test_block_elimination_front_dominates():
    order = MonomialOrder.block_elimination(1)
    # any power of the front variable beats everything without it
    assert mono_compare(order, (1, 0, 0), (0, 9, 9)) == 1
    # without the front variable the back block decides by grevlex
    assert mono_compare(order, (0, 2, 0), (0, 1, 1)) == 1


def test_compare_antisymmetry_and_multiplicativity():
    grevlex = MonomialOrder.grevlex()
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)]
    for a in monos:
        for b in monos:
            c = mono_compare(grevlex, a, b)
            assert c == -mono_compare(grevlex, b, a)
            # translation invariance
            shifted = mono_compare(grevlex, mono_mul(a, (1, 2)), mono_mul(b, (1, 2)))
            assert c == shifted


def test_length_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        mono_compare(MonomialOrder.lex(), (1, 0), (1, 0, 0))


def test_unknown_order_kind_rejected():
    with pytest.raises(ValueError):
        MonomialOrder("degrevlex")


# -- lead-first keys and kernels against their definitions -------------------

BIG = 2**31 - 1


def _random_exponents(rng, n):
    return tuple(rng.choice((0, 1, 2, 3, BIG, rng.randrange(BIG + 1))) for _ in range(n))


def _random_pairs(seed, count=400):
    """Pairs of equal-length tuples, half of them of equal total degree."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        a = _random_exponents(rng, n)
        if rng.random() < 0.5:
            b = tuple(rng.sample(a, n))  # same degree: the tie-breaks decide
        else:
            b = _random_exponents(rng, n)
        yield a, b


def _sign(x):
    return (x > 0) - (x < 0)


def ref_lex(a, b):
    """1 when a > b: the leftmost differing exponent is larger in a."""
    for x, y in zip(a, b):
        if x != y:
            return _sign(x - y)
    return 0


def ref_grevlex(a, b):
    """1 when a > b: higher degree, else smaller rightmost differing exponent."""
    if sum(a) != sum(b):
        return _sign(sum(a) - sum(b))
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return _sign(y - x)
    return 0


def ref_block(k):
    def compare(a, b):
        return ref_grevlex(a[:k], b[:k]) or ref_grevlex(a[k:], b[k:])

    return compare


def _orders_for(n):
    yield MonomialOrder.lex(), ref_lex
    yield MonomialOrder.grevlex(), ref_grevlex
    for k in range(n + 1):
        yield MonomialOrder.block_elimination(k), ref_block(k)


def test_lead_first_key_agrees_with_reference_comparators():
    for a, b in _random_pairs(7):
        for order, ref in _orders_for(len(a)):
            expected = ref(a, b)
            assert mono_compare(order, a, b) == expected, (order, a, b)
            key = order.key
            # the leading monomial sorts first
            assert (key(a) < key(b)) == (expected == 1), (order, a, b)
            assert (key(a) == key(b)) == (a == b), (order, a, b)


def test_ascending_key_sort_lists_the_leading_monomial_first():
    rng = random.Random(11)
    for n in range(1, 7):
        monos = [_random_exponents(rng, n) for _ in range(30)]
        for order, ref in _orders_for(n):
            by_ref = sorted(monos, key=functools.cmp_to_key(ref), reverse=True)
            assert sorted(monos, key=order.key) == by_ref, order


def test_kernels_equal_their_generator_forms():
    rng = random.Random(13)
    for a, b in _random_pairs(17):
        c = tuple(x + rng.choice((0, 1, BIG)) for x in a)  # a multiple of a
        assert mono_mul(a, b) == tuple(x + y for x, y in zip(a, b))
        assert mono_sub(c, a) == tuple(x - y for x, y in zip(c, a))
        assert mono_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
        assert mono_gcd(a, b) == tuple(min(x, y) for x, y in zip(a, b))
        for u, v in ((a, b), (b, a), (a, c), (c, a)):
            assert mono_divides(u, v) == all(x <= y for x, y in zip(u, v))
            assert mono_coprime(u, v) == all(x == 0 or y == 0 for x, y in zip(u, v))
