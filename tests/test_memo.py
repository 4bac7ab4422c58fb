"""Intersections, colons and radical membership memoized in the basis cache.

Ideal.intersect, Ideal.colon and Ideal.radical_contains keep their
results in groebner._GB_CACHE next to the reduced bases.  A warm call
must answer as a cold one did, without a single groebner_basis call;
argument checks must run before the lookup; and emptying the one dict
must drop these entries with the bases.
"""

import random

import pytest
from conftest import ii, surface_avatar

from icalc import groebner, ideals
from icalc.errors import RingMismatchError, ZeroColonError
from icalc.field import PrimeField
from icalc.groebner import memoized
from icalc.ideals import Ideal
from icalc.monomials import MonomialOrder
from icalc.poly import PolyRing
from icalc.properties import _random_poly, _random_polys, _random_ring

OPS = {
    "intersect": lambda I, J, f: I.intersect(J).generators,
    "colon-poly": lambda I, J, f: I.colon(f).generators,
    "colon-ideal": lambda I, J, f: I.colon(J).generators,
    "radical": lambda I, J, f: I.radical_contains(f),
}


@pytest.fixture
def basis_calls(monkeypatch):
    """A fresh basis cache, and the (ring, generators) of every groebner_basis call."""
    calls = []
    original = groebner.groebner_basis

    def recording(ring, gens):
        calls.append((ring, tuple(gens)))
        return original(ring, gens)

    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    monkeypatch.setattr(groebner, "groebner_basis", recording)
    monkeypatch.setattr(ideals, "groebner_basis", recording)
    return calls


def seeded_cases():
    """(I, J, f) on the property suites' distribution, then the scenario rings."""
    rng = random.Random("memo")
    for _ in range(40):
        ring = _random_ring(rng)
        I, J, f = Ideal(ring, _random_polys(rng, ring)), Ideal(ring, ()), ring.zero()
        while not J.generators:
            J = Ideal(ring, _random_polys(rng, ring))
        while f.is_zero:
            f = _random_poly(rng, ring)
        yield I, J, f
    axes = PolyRing(PrimeField(2), ("X", "Y", "Z"), MonomialOrder.grevlex())
    O, J = Ideal(axes, ()), ii(axes, "X*Y", "X*Z")
    for f in ("Y", "X", "X + Y"):
        yield J, ii(axes, "Y"), axes.parse(f)
        yield O, ii(axes, "Y", "X - Z"), axes.parse(f)
    plane = PolyRing(PrimeField(2), ("X", "Y1", "Y2"), MonomialOrder.grevlex())
    yield ii(plane, "X*Y1", "X*Y2"), ii(plane, "Y1 - X", "Y2"), plane.parse("Y1")
    surface = surface_avatar(2)
    I = ii(surface.ring, "Z", "X - T")
    yield surface.J, I, surface.ring.parse("X*Y")
    yield surface.J + I, surface.Q, surface.ring.parse("T")
    yield surface.P, surface.Q, surface.ring.parse("Z")


CASES = list(seeded_cases())


@pytest.mark.parametrize("op", sorted(OPS))
def test_warm_call_answers_as_the_cold_one(op, basis_calls):
    cold = []
    for case in CASES:
        groebner._GB_CACHE.clear()
        cold.append(OPS[op](*case))
    # Second pass over one shared cache: every answer comes from the memo.
    groebner._GB_CACHE.clear()
    for case in CASES:
        OPS[op](*case)
    assert [OPS[op](*case) for case in CASES] == cold


@pytest.mark.parametrize("op", sorted(OPS))
def test_second_call_makes_no_basis_call(op, basis_calls):
    answers = set()
    for case in CASES:
        groebner._GB_CACHE.clear()
        first = OPS[op](*case)
        basis_calls.clear()
        assert OPS[op](*case) == first
        assert basis_calls == []
        answers.add(first)
    if op == "radical":
        assert answers == {True, False}


def test_empty_and_false_answers_are_hits(basis_calls):
    ring = PolyRing(PrimeField(3), ("X", "Y"), MonomialOrder.grevlex())
    x, y = ring.gens()
    zero, I = Ideal(ring, ()), Ideal(ring, (x**2,))
    answers = (
        lambda: zero.intersect(I).generators,
        lambda: zero.colon(y).generators,
        lambda: zero.colon(I).generators,
        lambda: I.radical_contains(y),
    )
    for answer in answers:
        first = answer()
        assert first in ((), False)
        basis_calls.clear()
        assert answer() == first
        assert basis_calls == []


def test_memoized_serves_stored_empty_and_false(basis_calls):
    computed = []
    for value in ((), False):

        def compute(value=value):
            computed.append(value)
            return value

        key = ("test", type(value).__name__)
        assert memoized(key, compute) == value
        assert memoized(key, compute) == value
    assert computed == [(), False]


def test_hits_hand_out_fresh_ideals(basis_calls):
    I, J, f = CASES[-1]
    assert I.intersect(J) is not I.intersect(J)
    assert I.colon(f) is not I.colon(f)
    assert I.colon(f) == I.colon(f)


def test_checks_run_before_the_lookup(basis_calls):
    ring = PolyRing(PrimeField(3), ("X", "Y"), MonomialOrder.grevlex())
    other = PolyRing(PrimeField(5), ("X", "Y"), MonomialOrder.grevlex())
    I = Ideal(ring, (ring.parse("X*Y"),))
    K, g = Ideal(other, (other.parse("X"),)), other.parse("Y")
    # Plant an entry under the very key each bad call would look up.
    planted = {
        ("intersect", ring, I.generators, K.generators): (),
        ("colon", ring, I.generators, g): (),
        ("colon", ring, I.generators, K.generators): (),
        ("radical", ring, I.generators, g): True,
        ("colon", ring, I.generators, ring.zero()): (),
        ("colon", ring, I.generators, ()): (),
    }
    groebner._GB_CACHE.update(planted)
    with pytest.raises(RingMismatchError):
        I.intersect(K)
    with pytest.raises(RingMismatchError):
        I.colon(g)
    with pytest.raises(RingMismatchError):
        I.colon(K)
    with pytest.raises(RingMismatchError):
        I.radical_contains(g)
    with pytest.raises(ZeroColonError):
        I.colon(ring.zero())
    with pytest.raises(ZeroColonError):
        I.colon(Ideal(ring, ()))
    assert groebner._GB_CACHE == planted


def _tagged(cache):
    return {key[0] for key in cache if isinstance(key[0], str)}


def test_clearing_the_basis_cache_drops_the_memo(basis_calls):
    def run_all():
        basis_calls.clear()
        for op in OPS.values():
            op(*CASES[-1])
        return len(basis_calls)

    assert run_all()
    assert _tagged(groebner._GB_CACHE) == {"intersect", "colon", "radical"}
    assert run_all() == 0
    groebner._GB_CACHE.clear()
    assert run_all()


def test_only_basis_misses_grow_the_cache_inside_groebner_basis(monkeypatch):
    """A groebner_basis call grows the cache by one entry on a miss and by
    none on a hit, so cache growth across the call still marks a miss."""
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    original = groebner.groebner_basis
    growth = []

    def measuring(ring, gens):
        before = len(groebner._GB_CACHE)
        result = original(ring, gens)
        growth.append(len(groebner._GB_CACHE) - before)
        return result

    monkeypatch.setattr(groebner, "groebner_basis", measuring)
    monkeypatch.setattr(ideals, "groebner_basis", measuring)
    I, J, f = CASES[-1]
    for op in OPS.values():
        op(I, J, f)
    assert 1 in growth and set(growth) <= {0, 1}
    growth.clear()
    groebner.groebner_basis(I.ring, I.generators)
    groebner.groebner_basis(I.ring, I.generators)
    assert growth == [1, 0]
