import random
import time

import pytest

from icalc.errors import (
    CapacityError,
    IcalcError,
    ParseError,
    RingMismatchError,
    RingSpecError,
    UnknownVariableError,
)
from icalc.monomials import MonomialOrder
from icalc.field import PrimeField
from icalc.groebner import groebner_basis
from icalc.poly import Poly, PolyRing, frobenius_power, parse_poly


@pytest.fixture
def ring2():
    return PolyRing(PrimeField(2), ("X", "Y", "Z"), MonomialOrder.grevlex())


@pytest.fixture
def ring3():
    return PolyRing(PrimeField(3), ("X", "Y"), MonomialOrder.grevlex())


def test_parse_and_canonical_string(ring3):
    f = ring3.parse("2*X^2 + Y + 1")
    assert str(f) == "2*X^2 + Y + 1"
    # coefficients normalize into [0, p) and terms sort descending
    assert str(ring3.parse("1 + 4*Y + X*X")) == "X^2 + Y + 1"
    assert str(ring3.parse("-X")) == "2*X"
    assert str(ring3.parse("X - X")) == "0"


def test_parse_round_trip(ring2, ring3):
    rng = random.Random(11)
    for ring in (ring2, ring3):
        for _ in range(40):
            f = ring.zero()
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
                f = f + ring.monomial(rng.randint(1, ring.field.p - 1), exps)
            assert ring.parse(str(f)) == f


def test_parse_errors(ring2):
    with pytest.raises(UnknownVariableError):
        ring2.parse("X + W")
    with pytest.raises(ParseError):
        ring2.parse("X +")
    with pytest.raises(ParseError):
        ring2.parse("")
    with pytest.raises(ParseError):
        parse_poly(ring2, "X ; Y")


def test_arithmetic_identities(ring2, ring3):
    rng = random.Random(7)
    for ring in (ring2, ring3):
        xs = ring.gens()
        f = xs[0] + xs[1]
        g = xs[0] * xs[1] + ring.one()
        h = xs[0] ** 2
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == ring.zero()
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()


def test_freshman_dream(ring2):
    x, y, _ = ring2.gens()
    assert (x + y) ** 2 == x**2 + y**2


def test_frobenius_power(ring2, ring3):
    x, y, _ = ring2.gens()
    f = x + y
    assert frobenius_power(f, 0) == f
    assert frobenius_power(f, 3) == x**8 + y**8
    u, v = ring3.gens()
    g = u + ring3.constant(2) * v
    assert frobenius_power(g, 1) == g**3
    assert frobenius_power(g, 2) == g**9


def test_frobenius_power_refuses_a_huge_exponent_before_forming_q(ring2):
    x, y, _ = ring2.gens()
    start = time.perf_counter()
    one = ring2.constant(1)
    assert frobenius_power(one, 10**9) is one  # Frobenius fixes F_p
    assert frobenius_power(ring2.zero(), 10**9).is_zero
    with pytest.raises(CapacityError, match=r"beyond 2\^31 in Frobenius power p\^1000000000 of X \+ Y$"):
        frobenius_power(x + y, 10**9)
    assert time.perf_counter() - start < 1
    # the edge in characteristic 2: 2^30 fits, 2^31 does not
    assert frobenius_power(x, 30).terms[0][1] == (2**30, 0, 0)
    with pytest.raises(CapacityError):
        frobenius_power(x, 31)


def test_degree_and_predicates(ring2):
    x, y, z = ring2.gens()
    f = x * y + z
    assert f.total_degree() == 2
    assert not f.is_homogeneous()
    assert (x * y + z**2).is_homogeneous()
    assert ring2.constant(1).is_constant()
    assert ring2.zero().is_zero
    assert ring2.parse("X*Y").lead_monomial == (1, 1, 0)


def test_monic(ring3):
    f = ring3.parse("2*X^2 + Y")
    assert str(f.monic()) == "X^2 + 2*Y"


def test_cross_ring_operations_rejected(ring2, ring3):
    with pytest.raises(RingMismatchError):
        ring2.parse("X") + ring3.parse("X")


GREVLEX = MonomialOrder.grevlex()


@pytest.mark.parametrize(
    "field, variables, order, named",
    [
        (PrimeField(3), ["X", "Y"], GREVLEX, "variables"),
        (PrimeField(3), ("X", 1), GREVLEX, "variables"),
        (PrimeField(3), ("X", ""), GREVLEX, "variables"),
        (3, ("X", "Y"), GREVLEX, "field"),
        (PrimeField(3), ("X", "Y"), "grevlex", "order"),
        (PrimeField(3), (), GREVLEX, "variables"),
        (PrimeField(3), ("X", "Y", "X"), GREVLEX, "variables"),
        (PrimeField(3), ("X", "Y"), MonomialOrder.block_elimination(3), "order"),
    ],
    ids=["list", "non-name", "empty-name", "int-field", "str-order", "no-variables",
         "duplicate", "block-front"],
)
def test_malformed_ring_rejected(field, variables, order, named):
    with pytest.raises(RingSpecError, match=named) as caught:
        PolyRing(field, variables, order)
    # callers that catch ValueError keep working
    assert isinstance(caught.value, IcalcError) and isinstance(caught.value, ValueError)


def test_equal_rings_built_apart_hash_and_compare_equal():
    def build(order=MonomialOrder.grevlex(), p=3):
        return PolyRing(PrimeField(p), ("X", "Y"), order)

    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != build(MonomialOrder.lex()) and a != build(p=5)
    assert a != PolyRing(PrimeField(3), ("Y", "X"), MonomialOrder.grevlex())
    # the basis cache keys on rings, so an equal ring built apart hits
    basis = groebner_basis(a, (a.parse("X^2 - Y"), a.parse("X*Y")))
    assert groebner_basis(b, (b.parse("X^2 - Y"), b.parse("X*Y"))) is basis


# Reference arithmetic that reduces every coefficient mod p as it goes
# and drops a monomial the moment its coefficient cancels; the
# polynomial layer instead leaves both to Poly.from_dict.

def _reference(ring, acc):
    return Poly(ring, tuple((acc[m], m) for m in sorted(acc, key=ring.order.key)))


def _accumulate(acc, p, m, c):
    v = (acc.get(m, 0) + c) % p
    if v:
        acc[m] = v
    else:
        acc.pop(m, None)


def _ref_add(f, g):
    p = f.ring.field.p
    acc = {m: c for c, m in f.terms}
    for c, m in g.terms:
        _accumulate(acc, p, m, c)
    return _reference(f.ring, acc)


def _ref_neg(f):
    p = f.ring.field.p
    return Poly(f.ring, tuple((-c % p, m) for c, m in f.terms))


def _ref_mul(f, g):
    p = f.ring.field.p
    acc = {}
    for ca, ma in f.terms:
        for cb, mb in g.terms:
            _accumulate(acc, p, tuple(a + b for a, b in zip(ma, mb)), ca * cb)
    return _reference(f.ring, acc)


def _ref_scale(f, k):
    p = f.ring.field.p
    k %= p
    return Poly(f.ring, tuple((c * k % p, m) for c, m in f.terms) if k else ())


def _random_text(rng, ring, reference):
    """Polynomial text; its terms also go into reference, reduced per term."""
    p = ring.field.p
    parts = []
    for t in range(rng.randint(1, 5)):
        sign = rng.choice((1, -1))
        factors, coeff, mono = [], 1, [0] * ring.nvars
        for _ in range(rng.randint(0, 2)):
            value = rng.choice((1, 2, p - 1, p, p + 1, rng.randrange(10**6)))
            factors.append(str(value))
            coeff = coeff * value % p
        for _ in range(rng.randint(0 if factors else 1, 3)):
            i = rng.randrange(ring.nvars)
            e = rng.randint(1, 3)
            factors.append(f"{ring.variables[i]}^{e}")
            mono[i] += e
        rng.shuffle(factors)
        parts.append(("- " if sign < 0 else "" if not t else "+ ") + "*".join(factors))
        _accumulate(reference, p, tuple(mono), sign * coeff % p)
    return " ".join(parts)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_arithmetic_and_parsing_match_per_term_reduction(p):
    rng = random.Random(p)
    ring = PolyRing(PrimeField(p), ("X", "Y", "Z"), MonomialOrder.grevlex())
    cancelled = 0
    for _ in range(300):
        reference = {}
        text = _random_text(rng, ring, reference)
        f = parse_poly(ring, text)
        assert f == _reference(ring, reference), text
        g = parse_poly(ring, _random_text(rng, ring, {}))
        for h in (g, -f, f * (p - 1), f + g):
            assert f + h == _ref_add(f, h)
            assert f - h == _ref_add(f, _ref_neg(h))
            assert f * h == _ref_mul(f, h)
            cancelled += (f + h).is_zero or (f - h).is_zero
        k = rng.choice((0, 1, p - 1, p, -3, rng.randrange(10**9)))
        assert f * k == k * f == _ref_scale(f, k)
    # f - f, f + (-f) and f + (p - 1) * f cancel completely every time
    assert cancelled >= 300
    x, y = ring.var("X"), ring.var("Y")
    assert parse_poly(ring, f"X*Y + {p - 1}*Y*X + Z").terms == ((1, (0, 0, 1)),)
    assert parse_poly(ring, f"{p}*X^2 - X^2 + X^2").is_zero
    assert (x + y) * (x - y) == x * x - y * y
