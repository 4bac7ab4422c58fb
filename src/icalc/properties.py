"""Randomized property suites.

Each suite draws a few hundred small seeded cases (at most 4 variables,
degree 3 generators, p in {2, 3}) and checks an exact algebraic law.
Failures carry the case index and a short description; determinism
comes from the explicit seed, so a failure report is reproducible.
"""

from __future__ import annotations

import random
import zlib

from .closure import NE, TIGHT, decomposition_closure
from .field import PrimeField
from .groebner import groebner_basis, is_groebner_basis, normal_form, s_polynomial
from .ideals import Ideal, meet
from .monomials import MonomialOrder, mono_gcd, mono_lcm, mono_sub
from .poly import PolyRing
from .records import Record
from .rings import make_ring

DEFAULT_CASES = 200
_VAR_POOL = ("X", "Y", "Z", "W")


class SuiteResult(Record):
    __slots__ = ("name", "cases", "failures")


def _random_ring(rng, min_vars=1, max_vars=4, order=None):
    p = rng.choice((2, 3))
    nvars = rng.randint(min_vars, max_vars)
    if order is None:
        order = MonomialOrder.grevlex()
    return PolyRing(PrimeField(p), _VAR_POOL[:nvars], order)


def _random_monomial(rng, ring, max_deg=3):
    exps = [0] * ring.nvars
    for _ in range(rng.randint(0, max_deg)):
        exps[rng.randrange(ring.nvars)] += 1
    return tuple(exps)


def _random_poly(rng, ring, max_terms=3, max_deg=3):
    p = ring.field.p
    f = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        f = f + ring.monomial(rng.randint(1, p - 1), _random_monomial(rng, ring, max_deg))
    return f


def _random_polys(rng, ring, max_polys=3):
    polys = []
    for _ in range(rng.randint(1, max_polys)):
        f = _random_poly(rng, ring)
        if not f.is_zero:
            polys.append(f)
    return tuple(polys)


def _suite(name, cases, body):
    failures = []
    salt = zlib.crc32(name.encode())
    for case in range(cases):
        rng = random.Random(salt * 100003 + case)
        problem = body(rng, case)
        if problem is not None:
            failures.append(f"case {case}: {problem}")
    return SuiteResult(name, cases, failures)


def suite_buchberger(cases=DEFAULT_CASES):
    """Every S-pair of a reduced basis reduces to zero and inputs reduce to zero."""

    def body(rng, case):
        ring = _random_ring(rng)
        gens = _random_polys(rng, ring)
        gb = groebner_basis(ring, gens)
        if not is_groebner_basis(gb):
            return "basis check failed"
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                if not normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero:
                    return f"S-pair ({i}, {j}) does not reduce to zero"
        for g in gens:
            if not normal_form(g, gb).is_zero:
                return f"generator {g} escapes its own basis"
        return None

    return _suite("buchberger", cases, body)


def suite_monomial_oracle(cases=DEFAULT_CASES):
    """Intersections and colons of monomial ideals match the lcm/division rules."""

    def body(rng, case):
        ring = _random_ring(rng)
        a = [_random_monomial(rng, ring) for _ in range(rng.randint(1, 3))]
        b = [_random_monomial(rng, ring) for _ in range(rng.randint(1, 3))]
        I = Ideal(ring, tuple(ring.monomial(1, m) for m in a))
        J = Ideal(ring, tuple(ring.monomial(1, m) for m in b))
        meet_oracle = Ideal(
            ring, tuple(ring.monomial(1, mono_lcm(m, n)) for m in a for n in b)
        )
        if I.intersect(J) != meet_oracle:
            return "intersection disagrees with the lcm oracle"
        colon_oracle = meet(
            Ideal(ring, tuple(ring.monomial(1, mono_sub(m, mono_gcd(m, n))) for m in a))
            for n in b
        )
        if I.colon(J) != colon_oracle:
            return "colon disagrees with the division oracle"
        return None

    return _suite("monomial-oracle", cases, body)


def suite_bracket(cases=DEFAULT_CASES):
    """Frobenius bracket powers: identity at e=0, composition, basis independence."""

    def body(rng, case):
        ring = _random_ring(rng)
        I = Ideal(ring, _random_polys(rng, ring))
        if I.bracket_power(0) != I:
            return "e = 0 is not the identity"
        if I.bracket_power(1).bracket_power(1) != I.bracket_power(2):
            return "composition failed"
        regenerated = Ideal(ring, I.groebner)
        if regenerated.bracket_power(1) != I.bracket_power(1):
            return "bracket power depends on the generating set"
        return None

    return _suite("bracket", cases, body)


def suite_dc(cases=DEFAULT_CASES):
    """Decomposition closures are idempotent, monotone, and bounded by each branch."""

    def body(rng, case):
        ring = _random_ring(rng, min_vars=2)
        names = list(ring.variables)
        rng.shuffle(names)
        cut = rng.randint(1, len(names) - 1)
        left, right = sorted(names[:cut]), sorted(names[cut:])
        P1 = Ideal(ring, tuple(ring.var(v) for v in left))
        P2 = Ideal(ring, tuple(ring.var(v) for v in right))
        qring = make_ring(ring, P1.intersect(P2), primes=(P1, P2))
        I = Ideal(ring, _random_polys(rng, ring, max_polys=2))
        mode = rng.choice((TIGHT, NE))
        D = decomposition_closure(qring, I, mode)
        if decomposition_closure(qring, D, mode) != D:
            return "not idempotent"
        bigger = I + Ideal(ring, (_random_poly(rng, ring),))
        if not decomposition_closure(qring, bigger, mode).contains_ideal(D):
            return "not monotone"
        # the tight bound intersects every branch; ne drops the low ones
        tight = decomposition_closure(qring, I, TIGHT)
        base = I + qring.defining
        for prime in (P1, P2):
            if not (base + prime).contains_ideal(tight):
                return "escapes a branch bound"
        if not decomposition_closure(qring, I, NE).contains_ideal(tight):
            return "ne bound is smaller than the tight bound"
        return None

    return _suite("dc", cases, body)


def suite_regseq(cases=DEFAULT_CASES):
    """For variable ideals I and ideals J in the complementary variables, I meet J = IJ."""

    def body(rng, case):
        ring = _random_ring(rng, min_vars=2)
        names = list(ring.variables)
        rng.shuffle(names)
        cut = rng.randint(1, len(names) - 1)
        front = sorted(names[:cut])
        back = sorted(names[cut:])
        I = Ideal(ring, tuple(ring.var(v) for v in front))
        sub = PolyRing(ring.field, tuple(back), ring.order)
        polys = []
        for _ in range(rng.randint(1, 2)):
            f = _random_poly(rng, sub)
            if not f.is_zero:
                polys.append(ring.parse(str(f)))
        J = Ideal(ring, tuple(polys))
        if I.intersect(J) != I * J:
            return "I meet J differs from IJ"
        return None

    return _suite("regseq", cases, body)


def suite_distribute(cases=DEFAULT_CASES):
    """Modular triples distribute: I+(P meet Q)=(I+P) meet (I+Q) forces the meet law."""

    def body(rng, case):
        ring = _random_ring(rng)
        if case % 2 == 0:
            make = lambda: Ideal(
                ring,
                tuple(
                    ring.monomial(1, _random_monomial(rng, ring))
                    for _ in range(rng.randint(1, 3))
                ),
            )
        else:
            make = lambda: Ideal(ring, _random_polys(rng, ring, max_polys=2))
        I, P, Q = make(), make(), make()
        if I + P.intersect(Q) != (I + P).intersect(I + Q):
            if case % 2 == 0:
                return "monomial triple fails the modular hypothesis"
            return None
        if I.intersect(P + Q) != I.intersect(P) + I.intersect(Q):
            return "hypothesis holds but the conclusion fails"
        return None

    return _suite("distribute", cases, body)


def suite_dimension(cases=DEFAULT_CASES):
    """Krull dimension of a quotient does not depend on the monomial order."""

    def body(rng, case):
        ring = _random_ring(rng, order=MonomialOrder.grevlex())
        other = PolyRing(ring.field, ring.variables, MonomialOrder.lex())
        polys = _random_polys(rng, ring)
        I = Ideal(ring, polys)
        J = Ideal(other, tuple(other.parse(str(f)) for f in polys))
        if I.dimension() != J.dimension():
            return f"grevlex dimension {I.dimension()} vs lex dimension {J.dimension()}"
        return None

    return _suite("dimension", cases, body)


ALL_SUITES = (
    suite_buchberger,
    suite_monomial_oracle,
    suite_bracket,
    suite_dc,
    suite_regseq,
    suite_distribute,
    suite_dimension,
)
