"""Bad arguments to library calls end in a BadArgumentError, exponents
at or beyond 2^31 in a CapacityError, and wrong-typed arguments in an
ArgumentTypeError.

Both are IcalcErrors, so callers and the command line separate them from
a genuine bug.  BadArgumentError is also a ValueError and
ArgumentTypeError a TypeError, so callers that catch those keep working.
A BadArgumentError message, once a test pins it, does not change.
"""

import pytest

from icalc import (
    Ideal,
    MonomialOrder,
    PolyRing,
    PrimeField,
    is_regular_sequence,
    is_system_of_parameters,
    make_ring,
    normalize_sop_generators,
)
from icalc.errors import (
    ArgumentTypeError,
    BadArgumentError,
    CapacityError,
    IcalcError,
    RingMismatchError,
)
from icalc.groebner import exact_divide
from icalc.poly import frobenius_power


@pytest.fixture
def ring():
    return PolyRing(PrimeField(3), ("X", "Y"), MonomialOrder.grevlex())


def _raises(message, call):
    with pytest.raises(BadArgumentError, match=message) as caught:
        call()
    assert isinstance(caught.value, IcalcError)
    assert isinstance(caught.value, ValueError)


def test_eliminate_repeated_variable(ring):
    I = Ideal(ring, (ring.parse("X - Y"),))
    _raises("repeated variable in elimination request", lambda: I.eliminate(("X", "X")))


def test_monomial_wrong_length(ring):
    _raises("exponent tuple has the wrong length", lambda: ring.monomial(1, (1,)))


def test_negative_power(ring):
    X = ring.var("X")
    _raises("exponent must be a non-negative integer", lambda: X ** -1)


def test_monomial_negative_exponent(ring):
    _raises(r"exponent -1 outside \[0, 2\^31\) in \(-1, 0\)", lambda: ring.monomial(1, (-1, 0)))


def test_monomial_and_power_keep_exponents_below_2_31(ring):
    assert ring.monomial(1, (2**31 - 1, 0)) == ring.var("X") ** (2**31 - 1)
    with pytest.raises(CapacityError, match=r"exponent 2147483648 outside \[0, 2\^31\)"):
        ring.monomial(1, (0, 2**31))
    # refused before any multiplication, which for the binomial would
    # not end; X^(10^12) would be built at once, but no script reads it
    with pytest.raises(CapacityError, match=r"exponent beyond 2\^31 in \(X\*Y \+ Y\)\^2147483648"):
        ring.parse("X*Y + Y") ** 2**31
    with pytest.raises(CapacityError):
        ring.var("X") ** 10**12
    assert ring.one() ** 10**12 == ring.one() and ring.zero() ** 10**12 == ring.zero()


def test_polynomial_on_the_left_of_an_ideal(ring):
    X, Y = ring.var("X"), ring.var("Y")
    P = Ideal(ring, (X,))
    assert Y + P == P + Y == Ideal(ring, (X, Y))
    assert Y * P == P * Y == Ideal(ring, (X * Y,))


def test_negative_frobenius_exponent(ring):
    X = ring.var("X")
    _raises(
        "Frobenius exponent must be a non-negative integer",
        lambda: frobenius_power(X, -1),
    )


def test_negative_bracket_power(ring):
    I = Ideal(ring, (ring.var("X"), ring.parse("Y^2 + X")))
    _raises(
        "Frobenius exponent must be a non-negative integer",
        lambda: I.bracket_power(-1),
    )


def test_negative_bracket_power_of_the_zero_ideal(ring):
    _raises(
        "Frobenius exponent must be a non-negative integer",
        lambda: Ideal(ring, ()).bracket_power(-1),
    )


def test_exact_divide_by_a_non_divisor(ring):
    _raises("Y does not divide X", lambda: exact_divide(ring.var("X"), ring.var("Y")))


def test_exact_divide_by_zero(ring):
    _raises("division by the zero polynomial", lambda: exact_divide(ring.var("X"), ring.zero()))


def test_zero_has_no_lead_monomial(ring):
    _raises("zero polynomial has no leading term", lambda: ring.zero().lead_monomial)


@pytest.mark.parametrize(
    "message, call",
    [
        ("not a polynomial: 'X'", lambda ring: Ideal(ring, "X")),
        ("not a polynomial: 1", lambda ring: Ideal(ring, [1])),
        ("cannot colon by 3", lambda ring: Ideal(ring, (ring.var("X"),)).colon(3)),
        (
            "not a polynomial: 'X'",
            lambda ring: is_system_of_parameters(make_ring(ring, Ideal(ring, ())), ["X"]),
        ),
        ("not a polynomial: 'X'", lambda ring: normalize_sop_generators(ring, ["X"])),
        ("not a polynomial: 3", lambda ring: Ideal(ring, (ring.var("X"),)).contains(3)),
        ("not a polynomial: 'X'", lambda ring: Ideal(ring, ()).radical_contains("X")),
        ("not an ideal: 3", lambda ring: Ideal(ring, (ring.var("X"),)) + 3),
        ("not an ideal: 3", lambda ring: 3 + Ideal(ring, (ring.var("X"),))),
        ("exponents must be integers, not (1.5, 0)", lambda ring: ring.monomial(1, (1.5, 0))),
        ("exponents must be integers, not (True, 0)", lambda ring: ring.monomial(1, (True, 0))),
        (
            "not a sequence of variable names: 'XY'",
            lambda ring: Ideal(ring, (ring.var("X"),)).eliminate("XY"),
        ),
        (
            "not a sequence of variable names: 3",
            lambda ring: Ideal(ring, (ring.var("X"),)).eliminate(3),
        ),
        ("not an ideal: 'Y'", lambda ring: Ideal(ring, (ring.var("X"),)) * "Y"),
        ("not an ideal: 3", lambda ring: Ideal(ring, (ring.var("X"),)).intersect(3)),
        ("not an ideal: None", lambda ring: Ideal(ring, (ring.var("X"),)).contains_ideal(None)),
        (
            "not a polynomial: 'X'",
            lambda ring: is_regular_sequence(make_ring(ring, Ideal(ring, ())), ["X"]),
        ),
    ],
    ids=["ideal-of-a-string", "ideal-of-an-int", "colon-by-an-int", "sop-of-a-string",
         "normalize-a-string", "contains-an-int", "radical-of-a-string", "ideal-plus-an-int",
         "ideal-times-a-string", "int-plus-ideal", "monomial-float-exponent",
         "monomial-bool-exponent", "eliminate-a-string", "eliminate-an-int",
         "intersect-an-int", "contains-ideal-of-none",
         "regular-sequence-of-a-string"],
)
def test_wrong_type_is_an_argument_type_error(ring, message, call):
    with pytest.raises(ArgumentTypeError) as caught:
        call(ring)
    assert str(caught.value) == message
    assert isinstance(caught.value, IcalcError)
    assert isinstance(caught.value, TypeError)


def test_regular_sequence_element_from_another_ring_is_a_ring_mismatch(ring):
    other = PolyRing(PrimeField(5), ("X", "Y"), MonomialOrder.grevlex())
    with pytest.raises(RingMismatchError):
        is_regular_sequence(make_ring(ring, Ideal(ring, ())), [ring.var("X"), other.var("Y")])
