"""Tail reduction against one shared row set, and the fused S-polynomial.

The references below are the earlier forms, kept as they were:
_reduce_basis reducing each element against a fresh list of all the
others, and s_polynomial subtracting two products by a single term
(the former Poly.mul_term, which had no other caller).  The
current ones must return equal results on every input here.
"""

import hashlib
import random

import pytest

from conftest import ii, surface_avatar
from icalc import groebner
from icalc.errors import RingMismatchError
from icalc.field import PrimeField
from icalc.groebner import normal_form, s_polynomial
from icalc.monomials import MonomialOrder, mono_divides, mono_lcm, mono_mul, mono_sub
from icalc.poly import Poly, PolyRing
from icalc.properties import _random_poly, _random_polys, _random_ring
from test_pair_queue import CLASSIC, classic_ring


def reference_reduce_basis(ring, basis):
    if not basis:
        return ()
    key = ring.order.key
    ordered = sorted(basis, key=lambda g: key(g.terms[0][1]), reverse=True)
    minimal = []
    for g in ordered:
        lm = g.terms[0][1]
        if not any(mono_divides(h.terms[0][1], lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r = normal_form(g, others)
        reduced.append(r.monic())
    reduced.sort(key=lambda g: key(g.terms[0][1]))
    return tuple(reduced)


def mul_term(f, coeff, mono):
    """f times one term; the descending term order survives."""
    p = f.ring.field.p
    c = coeff % p
    if c == 0:
        return f.ring.zero()
    return Poly(f.ring, tuple((a * c % p, mono_mul(m, mono)) for a, m in f.terms))


def reference_s_polynomial(f, g):
    cf, mf = f.terms[0]
    cg, mg = g.terms[0]
    field = f.ring.field
    lcm = mono_lcm(mf, mg)
    a = mul_term(f, field.inv(cf), mono_sub(lcm, mf))
    b = mul_term(g, field.inv(cg), mono_sub(lcm, mg))
    return a - b


def assert_same_reduction(ring, gens):
    raw = groebner._buchberger(ring, gens)
    reduced = groebner._reduce_basis(ring, raw)
    assert reduced == reference_reduce_basis(ring, raw)
    return reduced


@pytest.mark.parametrize("name", sorted(CLASSIC))
def test_classic_systems(name):
    nvars, texts = CLASSIC[name]
    ring = classic_ring(nvars)
    assert assert_same_reduction(ring, tuple(ring.parse(t) for t in texts))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_surface_bracket_targets(p, e):
    avatar = surface_avatar(p)
    target = ii(avatar.ring, "Z", "X - T").bracket_power(e) + avatar.J
    assert assert_same_reduction(avatar.ring, target.generators)


def test_seeded_small_ideals():
    reduced = 0
    for seed in range(50):
        rng = random.Random(seed)
        ring = _random_ring(rng)
        gens = _random_polys(rng, ring)
        reduced += len(assert_same_reduction(ring, gens))
    assert reduced > 50


# Size and SHA-1 of the printed reduced basis of I^[q] + J on the surface,
# I = (Z, X - T), as the per-element reduction computed them.
LARGE_SURFACE_BASES = {
    (3, 4): (166, "6a731bf0d34ad097922f27711e94a71a2995a6e1"),
    (5, 3): (254, "1593821277816a1eb8fdbcae7389a51a53c57e42"),
}


@pytest.mark.parametrize("p, e", sorted(LARGE_SURFACE_BASES))
def test_large_surface_bases_unchanged(monkeypatch, p, e):
    avatar = surface_avatar(p)
    target = ii(avatar.ring, "Z", "X - T").bracket_power(e) + avatar.J
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    basis = groebner.groebner_basis(avatar.ring, target.generators)
    digest = hashlib.sha1("\n".join(map(str, basis)).encode()).hexdigest()
    assert (len(basis), digest) == LARGE_SURFACE_BASES[p, e]


def seeded_pairs():
    """Operand pairs over F_2, F_7 and F_32003: non-monic leads, equal
    leads, and pairs whose S-polynomial is zero."""
    rng = random.Random(7)
    for p in (2, 7, 32003):
        ring = PolyRing(PrimeField(p), ("X", "Y", "Z"), MonomialOrder.grevlex())
        for _ in range(40):
            f = _random_poly(rng, ring, max_terms=4)
            g = _random_poly(rng, ring, max_terms=4)
            c = rng.randrange(1, p)
            yield f, g
            yield f, f * c
            yield f, mul_term(f, c, (1, 0, 2))
            yield f, f * c + _random_poly(rng, ring, max_terms=2, max_deg=1)


def test_fused_s_polynomial_matches_reference():
    pairs = [(f, g) for f, g in seeded_pairs() if f.terms and g.terms]
    kinds = {"non-monic": 0, "equal leads": 0, "zero": 0}
    for f, g in pairs:
        s = s_polynomial(f, g)
        assert s == reference_s_polynomial(f, g)
        kinds["non-monic"] += f.terms[0][0] != 1 or g.terms[0][0] != 1
        kinds["equal leads"] += f.terms[0][1] == g.terms[0][1]
        kinds["zero"] += s.is_zero
    assert min(kinds.values()) > 20, kinds


def test_s_polynomial_rejects_mixed_rings():
    a = PolyRing(PrimeField(3), ("X", "Y"), MonomialOrder.grevlex())
    b = PolyRing(PrimeField(5), ("X", "Y"), MonomialOrder.grevlex())
    with pytest.raises(RingMismatchError):
        s_polynomial(a.parse("X*Y + 1"), b.parse("X^2 + Y"))
