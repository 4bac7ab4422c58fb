"""What the ideal layer already holds is not derived again.

Radical membership answers a member without the extra-variable
elimination; one ideal reduces every membership test against one row
set; normal_form and Poly.monic return their terms in the order
Poly.from_dict would sort them into, without sorting.  Each check also
compares the answers with the path the shortcut skips.
"""

import random

import pytest
from conftest import ii, surface_avatar

from icalc import groebner, ideals
from icalc.groebner import BasisRows, groebner_basis, normal_form, s_polynomial
from icalc.ideals import Ideal, _aux_name
from icalc.poly import Poly, PolyRing, transport
from icalc.properties import _random_poly, _random_polys, _random_ring
from test_pair_queue import CLASSIC, classic_ring


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


def eliminated_radical_contains(I, f):
    """The extra-variable test alone: 1 - t*f together with I is the unit ideal."""
    ring = I.ring
    name = _aux_name(ring)
    ext = PolyRing(ring.field, ring.variables + (name,), ring.order)
    gens = [transport(g, ext) for g in I.generators]
    gens.append(ext.one() - ext.var(name) * transport(f, ext))
    return Ideal(ext, gens).is_unit


def seeded_ideals():
    rng = random.Random("reuse")
    for _ in range(30):
        ring = _random_ring(rng)
        I = Ideal(ring, _random_polys(rng, ring))
        yield I, [_random_poly(rng, ring) for _ in range(3)]
    for avatar in (surface_avatar(2), surface_avatar(3)):
        I = ii(avatar.ring, "Z", "X - T") + avatar.J
        yield I, [avatar.ring.parse(t) for t in ("X*Y", "T", "Z^2 - X*Z")]


CASES = list(seeded_ideals())


def members(I, others):
    gens = I.generators
    out = list(gens)
    out += [g * h for g in gens for h in others]
    out += [g + h for g in gens for h in gens if g is not h]
    return [f for f in out if not f.is_zero]


def test_a_member_needs_no_elimination(basis_calls):
    checked = 0
    for I, others in CASES:
        for f in members(I, others):
            groebner._GB_CACHE.clear()
            basis_calls.clear()
            assert I.radical_contains(f)
            assert all(ring == I.ring for ring, _ in basis_calls)
            checked += 1
    assert checked > 100


def test_radical_answers_match_the_elimination(basis_calls):
    answers = set()
    for I, others in CASES:
        for f in members(I, others)[:3] + others:
            groebner._GB_CACHE.clear()
            expected = eliminated_radical_contains(I, f) if not f.is_zero else True
            groebner._GB_CACHE.clear()
            assert I.radical_contains(f) == expected
            answers.add(expected)
    assert answers == {True, False}


def test_one_ideal_reduces_against_one_row_set(monkeypatch):
    seen = []

    def spy(f, reducers):
        seen.append(reducers)
        return normal_form(f, reducers)

    monkeypatch.setattr(ideals, "normal_form", spy)
    for I, others in CASES:
        seen.clear()
        targets = members(I, others) + others
        answers = [I.contains(f) for f in targets]
        assert I.first_outside(targets) == next(
            (f for f, inside in zip(targets, answers) if not inside), None
        )
        assert I.contains_ideal(Ideal(I.ring, others)) == all(answers[-len(others):])
        assert [f in I for f in targets] == answers
        assert answers == [normal_form(f, I.groebner).is_zero for f in targets]
        assert isinstance(seen[0], BasisRows)
        assert all(rows is seen[0] for rows in seen)
        assert list(seen[0]) == list(I.groebner)


def sorted_terms(f):
    return Poly.from_dict(f.ring, {m: c for c, m in f.terms}).terms


def assert_canonical(polys):
    checked = 0
    for f in polys:
        assert f.terms == sorted_terms(f)
        monic = f.monic()
        assert monic.terms == sorted_terms(monic)
        if not f.is_zero:
            inv = f.ring.field.inv(f.terms[0][0])
            assert monic == f * inv and monic.terms[0][0] == 1
            checked += 1
    return checked


def remainders(gens, targets):
    rows = BasisRows(groebner_basis(gens[0].ring, gens))
    out = []
    for reducers in (gens, rows):
        out += [normal_form(f, reducers) for f in targets]
    return out


def test_remainders_and_monic_are_in_term_order_on_seeded_inputs():
    rng = random.Random("term-order")
    checked = 0
    for _ in range(40):
        ring = _random_ring(rng)
        gens = [g for g in _random_polys(rng, ring) if not g.is_zero]
        if not gens:
            continue
        targets = [_random_poly(rng, ring) * 2 for _ in range(4)]
        targets += [f * g for f in gens for g in gens]
        checked += assert_canonical(remainders(gens, targets) + targets)
    assert checked > 200


@pytest.mark.parametrize("name", sorted(CLASSIC))
def test_remainders_and_monic_are_in_term_order_on_classic_systems(name):
    nvars, texts = CLASSIC[name]
    ring = classic_ring(nvars)
    gens = [ring.parse(t) for t in texts]
    targets = [s_polynomial(f, g) for f in gens for g in gens if f is not g]
    targets += [f * 7 for f in gens]
    assert assert_canonical(remainders(gens, targets) + targets)
