"""The heap-ordered pair loop of _buchberger against the scan it replaced.

The reference below is the earlier selection loop, kept verbatim but
for calling s_polynomial through the module: a min-scan over a pair
dict and a chain-criterion walk over the whole basis.  Both loops must
form the same S-polynomials in the same order and return equal
unreduced bases, element by element.
"""

import random

import pytest

from conftest import ii, surface_avatar
from icalc import groebner
from icalc.field import PrimeField
from icalc.groebner import normal_form, s_polynomial
from icalc.monomials import (
    MonomialOrder,
    mono_coprime,
    mono_degree,
    mono_divides,
    mono_lcm,
)
from icalc.poly import PolyRing
from icalc.properties import _random_polys, _random_ring


def reference_buchberger(ring, gens):
    basis = [g.monic() for g in gens]
    lms = [g.terms[0][1] for g in basis]
    pairs = {}
    done = set()
    for j in range(len(basis)):
        for i in range(j):
            lcm = mono_lcm(lms[i], lms[j])
            pairs[(i, j)] = (mono_degree(lcm), lcm)
    while pairs:
        i, j = min(pairs, key=lambda ij: (pairs[ij][0],) + ij)
        _, lcm = pairs.pop((i, j))
        done.add((i, j))
        if mono_coprime(lms[i], lms[j]):
            continue
        chained = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if (
                mono_divides(lms[k], lcm)
                and (min(i, k), max(i, k)) in done
                and (min(j, k), max(j, k)) in done
            ):
                chained = True
                break
        if chained:
            continue
        r = normal_form(groebner.s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero:
            continue
        r = r.monic()
        basis.append(r)
        lms.append(r.terms[0][1])
        t = len(basis) - 1
        for k in range(t):
            lcm = mono_lcm(lms[k], lms[t])
            pairs[(k, t)] = (mono_degree(lcm), lcm)
    return basis


def traced(monkeypatch, loop, ring, gens):
    """The loop's basis and the operand pairs of every S-polynomial formed."""
    formed = []

    def spy(f, g):
        formed.append((f, g))
        return s_polynomial(f, g)

    monkeypatch.setattr(groebner, "s_polynomial", spy)
    return loop(ring, gens), formed


def assert_same_pair_sequence(monkeypatch, ring, gens):
    assert traced(monkeypatch, groebner._buchberger, ring, gens) == traced(
        monkeypatch, reference_buchberger, ring, gens
    )


def classic_ring(nvars):
    names = tuple(f"x{i}" for i in range(nvars))
    return PolyRing(PrimeField(32003), names, MonomialOrder.grevlex())


CLASSIC = {
    "cyclic-4": (
        4,
        (
            "x0 + x1 + x2 + x3",
            "x0*x1 + x1*x2 + x2*x3 + x3*x0",
            "x0*x1*x2 + x1*x2*x3 + x2*x3*x0 + x3*x0*x1",
            "x0*x1*x2*x3 - 1",
        ),
    ),
    "katsura-3": (
        4,
        (
            "x0 + 2*x1 + 2*x2 + 2*x3 - 1",
            "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0",
            "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1",
            "2*x0*x2 + x1^2 + 2*x1*x3 - x2",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(CLASSIC))
def test_classic_systems(monkeypatch, name):
    nvars, texts = CLASSIC[name]
    ring = classic_ring(nvars)
    assert_same_pair_sequence(monkeypatch, ring, tuple(ring.parse(t) for t in texts))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_surface_bracket_targets(monkeypatch, p, e):
    avatar = surface_avatar(p)
    I = ii(avatar.ring, "Z", "X - T")
    J = avatar.J
    # I^[q] + J, and the target bounded_frobenius_check builds
    for target in (
        I.bracket_power(e) + J,
        I.bracket_power(e) + J.bracket_power(e) + J,
    ):
        assert_same_pair_sequence(monkeypatch, avatar.ring, target.generators)


def test_seeded_small_ideals(monkeypatch):
    for seed in range(50):
        rng = random.Random(seed)
        ring = _random_ring(rng)
        assert_same_pair_sequence(monkeypatch, ring, _random_polys(rng, ring))
