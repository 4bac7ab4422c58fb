"""Reducer rows kept with the basis and their one memo: the count of
rows an irreducible monomial was checked against, or a reduced
monomial's shifted-tail product.

Inside _buchberger every normal form reads the rows and memos the basis
has built up so far; a plain reducer list gets fresh ones.  Both must
give the remainder that dividing by the first row in list order gives.
"""

import random

import pytest

from conftest import ii, surface_avatar
from icalc import groebner
from icalc.field import PrimeField
from icalc.groebner import BasisRows, groebner_basis, is_groebner_basis, normal_form, s_polynomial
from icalc.monomials import MonomialOrder, mono_mul
from icalc.poly import PolyRing
from icalc.properties import _random_polys, _random_ring
from test_pair_queue import CLASSIC, classic_ring


def checked_buchberger(monkeypatch, ring, gens):
    """Run _buchberger, checking each normal form against a plain copy."""
    calls = []

    def spy(f, reducers):
        assert isinstance(reducers, BasisRows)
        result = normal_form(f, reducers)
        assert result == normal_form(f, list(reducers))
        calls.append(len(reducers))
        return result

    monkeypatch.setattr(groebner, "normal_form", spy)
    basis = groebner._buchberger(ring, gens)
    monkeypatch.undo()
    return basis, calls


def test_seeded_small_ideals(monkeypatch):
    reduced = 0
    for seed in range(50):
        rng = random.Random(seed)
        ring = _random_ring(rng)
        _, calls = checked_buchberger(monkeypatch, ring, _random_polys(rng, ring))
        reduced += len(calls)
    assert reduced > 50


@pytest.mark.parametrize("name", sorted(CLASSIC))
def test_classic_systems(monkeypatch, name):
    nvars, texts = CLASSIC[name]
    ring = classic_ring(nvars)
    _, calls = checked_buchberger(monkeypatch, ring, tuple(ring.parse(t) for t in texts))
    assert calls


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_surface_bracket_targets(monkeypatch, p, e):
    avatar = surface_avatar(p)
    target = ii(avatar.ring, "Z", "X - T").bracket_power(e) + avatar.J
    _, calls = checked_buchberger(monkeypatch, avatar.ring, target.generators)
    assert calls


@pytest.fixture
def ring():
    return PolyRing(PrimeField(5), ("X", "Y", "Z"), MonomialOrder.grevlex())


def test_stale_memo_sees_an_appended_row(ring):
    rows = BasisRows([ring.parse("Y - Z")])
    x2 = ring.parse("X^2 + Y")
    assert normal_form(x2, rows) == ring.parse("X^2 + Z")
    # X^2 was found irreducible against the one row there was
    assert rows.memo[(2, 0, 0)] == 1
    rows.append(ring.parse("X - Z"))
    assert normal_form(x2, rows) == ring.parse("Z^2 + Z")
    # X^2 = X*(X - Z) + X*Z: the new row's tail, shifted by X
    assert rows.memo[(2, 0, 0)] == (1, ((4, (1, 0, 1)),))
    assert normal_form(x2, rows) == normal_form(x2, list(rows))


def test_earlier_row_wins_when_two_divide(ring):
    f = ring.parse("X*Y")
    first_x = [ring.parse("X - Z"), ring.parse("X*Y - 1")]
    assert normal_form(f, first_x) == ring.parse("Y*Z")
    assert normal_form(f, first_x[::-1]) == ring.parse("1")
    rows = BasisRows(first_x)
    assert normal_form(f, rows) == ring.parse("Y*Z")
    # the memo holds the first row's inverse lc and its tail shifted by Y
    _, inv_lc, tail = rows.rows[0]
    assert rows.memo[(1, 1, 0)] == (inv_lc, tuple((c, mono_mul(m, (0, 1, 0))) for c, m in tail))


def test_earlier_row_wins_in_the_stored_product(ring):
    f = ring.parse("X*Y")
    rows = BasisRows([ring.parse("X - Z"), ring.parse("X*Y - 1")])
    normal_form(f, rows)
    # the tail -Z of X - Z shifted by Y, not the tail -1 of X*Y - 1
    assert rows.memo[(1, 1, 0)] == (1, ((4, (0, 1, 1)),))
    rows = BasisRows([ring.parse("X*Y - 1"), ring.parse("X - Z")])
    normal_form(f, rows)
    assert rows.memo[(1, 1, 0)] == (1, ((4, (0, 0, 0)),))


def test_a_second_reduction_reads_the_stored_product(ring):
    reducers = [ring.parse("2*X - Y"), ring.parse("Y^2 - Z")]
    f = ring.parse("X^2*Y + X*Z")
    rows = BasisRows(reducers)
    assert normal_form(f, rows) == normal_form(f, reducers)
    # X^2*Y = 3*X*Y*(2*X - Y) + 3*X*Y^2: the non-monic row's inverse lc
    # and its tail shifted by X*Y
    product = rows.memo[(2, 1, 0)]
    assert product == (3, ((4, (1, 2, 0)),))
    assert normal_form(f, rows) == normal_form(f, reducers)
    assert rows.memo[(2, 1, 0)] is product
    # a planted product is what the next reduction of X^2*Y reads
    rows.memo[(2, 1, 0)] = (3, ())
    assert normal_form(ring.parse("X^2*Y"), rows).is_zero


def assert_warm_rows_agree(reducers, targets):
    """Reduce every target twice through one BasisRows, against fresh lists."""
    rows = BasisRows(reducers)
    for _ in range(2):  # the first pass fills the memo, the second reads it
        for f in targets:
            assert normal_form(f, rows) == normal_form(f, list(reducers))
    return rows


def products_and_s_polynomials(polys):
    out = [f * g for f in polys for g in polys]
    out += [s_polynomial(f, g) for f in polys for g in polys if f is not g]
    return out


def stored_products(rows):
    return sum(entry.__class__ is tuple for entry in rows.memo.values())


def test_warm_rows_agree_with_fresh_lists_on_seeded_small_ideals():
    stored = 0
    for seed in range(50):
        rng = random.Random(seed)
        ring = _random_ring(rng)
        gens = _random_polys(rng, ring)
        targets = products_and_s_polynomials(gens) + list(_random_polys(rng, ring))
        for reducers in (gens, groebner_basis(ring, gens)):
            stored += stored_products(assert_warm_rows_agree(reducers, targets))
    assert stored > 50


@pytest.mark.parametrize("name", sorted(CLASSIC))
def test_warm_rows_agree_with_fresh_lists_on_classic_systems(name):
    nvars, texts = CLASSIC[name]
    ring = classic_ring(nvars)
    gens = tuple(ring.parse(t) for t in texts)
    targets = products_and_s_polynomials(gens)
    for reducers in (gens, groebner_basis(ring, gens)):
        assert stored_products(assert_warm_rows_agree(reducers, targets))


def test_non_monic_reducer_in_a_plain_list(ring):
    # 2*X = Y, so X = 3*Y and X^2 = 9*Y^2 = 4*Y^2 over F_5
    reducers = (ring.parse("2*X - Y"),)
    assert normal_form(ring.parse("X"), reducers) == ring.parse("3*Y")
    assert normal_form(ring.parse("X^2 + Z"), reducers) == ring.parse("4*Y^2 + Z")
    assert BasisRows(reducers).rows[0][1] == 3


def test_zero_reducers_add_no_row(ring):
    rows = BasisRows([ring.zero(), ring.parse("Y")])
    assert len(rows) == 2 and len(rows.rows) == 1
    assert rows[0].is_zero
    assert normal_form(ring.parse("X*Y + X"), rows) == ring.parse("X")


def test_is_groebner_basis_reads_one_rows_object(monkeypatch, ring):
    seen = []

    def spy(f, reducers):
        seen.append(reducers)
        return normal_form(f, reducers)

    monkeypatch.setattr(groebner, "normal_form", spy)
    gb = groebner.groebner_basis(ring, (ring.parse("Y - X^2"), ring.parse("Z - X^3")))
    seen.clear()
    assert is_groebner_basis(gb)
    assert len(seen) == len(gb) * (len(gb) - 1) // 2
    assert all(r is seen[0] for r in seen) and isinstance(seen[0], BasisRows)
