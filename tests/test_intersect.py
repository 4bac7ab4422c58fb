"""Ideal.intersect against the extended-ring path it replaced.

The reference below is the earlier body of Ideal.intersect: append t to
the ring, multiply in the ring with t last, let eliminate_polys move t
to the front under a block order, and carry the kept members back
through the extended ring.  Fully tagged, it multiplies every generator
of I by t and every generator of J by 1 - t; Ideal.intersect must return
its generator tuple.  Ideal.intersect enters a generator that both list
once, untagged, in I's order, and builds the generators directly in the
ring (t, variables...), so it must hand groebner_basis the arguments of
the reference told to do the same.  Ideal.intersect memoizes its result
in the basis cache, so each run starts from an empty one.
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


def reference_intersect(I, J, shared=()):
    """The meet through the extended ring; generators in shared enter
    once, untagged, in I's order."""
    if not I.generators or not J.generators:
        return ()
    ring = I.ring
    name = _aux_name(ring)
    ext = PolyRing(ring.field, ring.variables + (name,), ring.order)
    t = ext.var(name)
    one_minus_t = ext.one() - t
    mixed = [transport(g, ext) * (ext.one() if g in shared else t) for g in I.generators]
    mixed += [transport(g, ext) * one_minus_t for g in J.generators if g not in shared]
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


def _shared(I, J):
    return set(I.generators).intersection(J.generators)


def _assert_same_intersection(I, J, calls):
    groebner._GB_CACHE.clear()
    expected = reference_intersect(I, J)
    groebner._GB_CACHE.clear()
    calls.clear()
    reference_intersect(I, J, _shared(I, J))
    reference_calls = list(calls)
    groebner._GB_CACHE.clear()
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


@pytest.mark.parametrize("order_kind", ["grevlex", "lex", "block"])
def test_shared_generators_enter_once(order_kind, basis_calls):
    """I + P against I + Q shares all of I: the meet is the fully tagged
    one, and the elimination gets each shared generator once."""
    rng = random.Random(f"intersect-shared-{order_kind}")
    sharing = 0
    for _ in range(20):
        I, P = _random_case(rng, order_kind)
        Q = Ideal(I.ring, _random_polys(rng, I.ring))
        A, B = I + P, I + Q
        shared = _shared(A, B)
        if not A.generators or not B.generators:
            continue
        assert set(I.generators) <= shared
        _assert_same_intersection(A, B, basis_calls)
        (aux_gens,) = [gens for _, gens in basis_calls]
        assert len(aux_gens) == len(A.generators) + len(B.generators) - len(shared)
        sharing += bool(shared)
    assert sharing > 10


def test_an_ideal_meets_itself_untagged(basis_calls):
    ring = PolyRing(PrimeField(5), ("X", "Y"), MonomialOrder.lex())
    x, y = ring.gens()
    I = Ideal(ring, (x**2 - y, x * y))
    _assert_same_intersection(I, I, basis_calls)
    (aux_gens,) = [gens for _, gens in basis_calls]
    assert all(not any(m[0] for _, m in g.terms) for g in aux_gens)
    assert I.intersect(I) == I
