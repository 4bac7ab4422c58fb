import pytest

from icalc.errors import ParseError, RingMismatchError
from icalc.field import PrimeField
from icalc.groebner import (
    eliminate_polys,
    exact_divide,
    groebner_basis,
    is_groebner_basis,
    normal_form,
    s_polynomial,
)
from icalc.monomials import MonomialOrder
from icalc.poly import PolyRing


@pytest.fixture
def ring():
    return PolyRing(PrimeField(3), ("X", "Y", "Z"), MonomialOrder.grevlex())


def test_normal_form_single_reducer(ring):
    gb = groebner_basis(ring, (ring.parse("X^2 - Y"),))
    assert normal_form(ring.parse("X^4"), gb) == ring.parse("Y^2")
    assert normal_form(ring.parse("X^2 + Z"), gb) == ring.parse("Y + Z")
    assert normal_form(ring.parse("Y*Z"), gb) == ring.parse("Y*Z")


def test_s_polynomial_cancels_leads(ring):
    f = ring.parse("X^2 + Y")
    g = ring.parse("X*Y + Z")
    s = s_polynomial(f, g)
    # leads X^2*Y cancel: Y*f - X*g = Y^2 - X*Z
    assert s == ring.parse("Y^2 - X*Z")


def test_twisted_cubic_basis(ring):
    gens = (ring.parse("Y - X^2"), ring.parse("Z - X^3"))
    gb = groebner_basis(ring, gens)
    assert is_groebner_basis(gb)
    # grevlex ranks Y^2 above X*Z, so the cubic relation reduces away
    assert set(str(g) for g in gb) == {
        "X^2 + 2*Y",
        "X*Y + 2*Z",
        "Y^2 + 2*X*Z",
    }
    for g in gens:
        assert normal_form(g, gb).is_zero


def test_reduced_basis_is_canonical(ring):
    gens = (ring.parse("X + Y"), ring.parse("Y + Z"), ring.parse("X + Z"))
    gb1 = groebner_basis(ring, gens)
    gb2 = groebner_basis(ring, tuple(reversed(gens)) + (ring.parse("2*X + 2*Y"),))
    assert gb1 == gb2
    for g in gb1:
        assert g.lead_coeff == 1


def test_unit_ideal_collapses(ring):
    gb = groebner_basis(ring, (ring.parse("X"), ring.parse("X + 1")))
    assert [str(g) for g in gb] == ["1"]


def test_zero_generators_dropped(ring):
    assert groebner_basis(ring, (ring.zero(),)) == ()
    assert groebner_basis(ring, ()) == ()


def test_generator_from_another_ring_rejected(ring):
    other = PolyRing(PrimeField(5), ring.variables, ring.order)
    with pytest.raises(RingMismatchError, match="outside the stated ring"):
        groebner_basis(ring, (ring.parse("X"), other.parse("Y")))


def test_is_groebner_basis_detects_gaps(ring):
    partial = (ring.parse("Y - X^2"), ring.parse("Z - X^3"))
    assert not is_groebner_basis(partial)


def test_exact_divide(ring):
    f = ring.parse("X^2 - Y^2")
    g = ring.parse("X + Y")
    assert exact_divide(f, g) == ring.parse("X - Y")
    with pytest.raises(Exception):
        exact_divide(ring.parse("X^2 + Y"), g)


def test_eliminate_polys(ring):
    # project the twisted cubic onto (Y, Z): relation Y^3 = Z^2
    gens = (ring.parse("Y - X^2"), ring.parse("Z - X^3"))
    kept = eliminate_polys(ring, gens, ("X",))
    assert [str(g) for g in kept] == ["Y^3 + 2*Z^2"]
