"""Ideal.intersect against the extended-ring path it replaced.

The reference below is the earlier body of Ideal.intersect: append t to
the ring, multiply in the ring with t last, let eliminate_polys move t
to the front under a block order, and carry the kept members back
through the extended ring.  The one-hop version builds the same
generators directly in the ring (t, variables...), so both must hand
groebner_basis equal arguments and return equal generator tuples.
Ideal.intersect memoizes its result in the basis cache, so each
comparison starts from an empty one.
"""

import random

import pytest

from icalc import groebner, ideals
from icalc.field import PrimeField
from icalc.groebner import eliminate_polys
from icalc.ideals import Ideal, _aux_name
from icalc.monomials import MonomialOrder
from icalc.poly import PolyRing, transport
from icalc.properties import _random_polys, _random_ring


def reference_intersect(I, J):
    if not I.generators or not J.generators:
        return ()
    ring = I.ring
    name = _aux_name(ring)
    ext = PolyRing(ring.field, ring.variables + (name,), ring.order)
    t = ext.var(name)
    one_minus_t = ext.one() - t
    mixed = [transport(g, ext) * t for g in I.generators]
    mixed += [transport(g, ext) * one_minus_t for g in J.generators]
    kept = eliminate_polys(ext, mixed, [name])
    back = list(range(ring.nvars)) + [None]
    return tuple(transport(g, ring, back) for g in kept)


@pytest.fixture
def basis_calls(monkeypatch):
    """Records the (ring, generators) of every groebner_basis call.

    The basis cache is a fresh dict for the test, emptied per comparison.
    """
    calls = []
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    original = groebner.groebner_basis

    def recording(ring, gens):
        calls.append((ring, tuple(gens)))
        return original(ring, gens)

    monkeypatch.setattr(groebner, "groebner_basis", recording)
    monkeypatch.setattr(ideals, "groebner_basis", recording)
    return calls


def _assert_same_intersection(I, J, calls):
    groebner._GB_CACHE.clear()
    calls.clear()
    expected = reference_intersect(I, J)
    reference_calls = list(calls)
    calls.clear()
    assert I.intersect(J).generators == expected
    assert calls == reference_calls


def _random_case(rng, order_kind):
    ring = _random_ring(rng)
    if order_kind == "lex":
        order = MonomialOrder.lex()
    elif order_kind == "block":
        order = MonomialOrder.block_elimination(rng.randint(0, ring.nvars))
    else:
        order = MonomialOrder.grevlex()
    ring = PolyRing(ring.field, ring.variables, order)
    return Ideal(ring, _random_polys(rng, ring)), Ideal(ring, _random_polys(rng, ring))


@pytest.mark.parametrize("order_kind", ["grevlex", "lex", "block"])
def test_intersect_matches_extended_ring_path(order_kind, basis_calls):
    rng = random.Random(f"intersect-{order_kind}")
    for _ in range(50):
        I, J = _random_case(rng, order_kind)
        _assert_same_intersection(I, J, basis_calls)


def test_intersect_skips_a_taken_auxiliary_name(basis_calls):
    ring = PolyRing(PrimeField(3), ("_t0", "X", "Y"), MonomialOrder.grevlex())
    t, x, y = ring.gens()
    I = Ideal(ring, (t * x - y**2, x * y))
    J = Ideal(ring, (t + y, x**2))
    _assert_same_intersection(I, J, basis_calls)
    assert basis_calls[-1][0].variables == ("_t1", "_t0", "X", "Y")
