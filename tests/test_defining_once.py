"""The defining ideal J enters each ideal handed to the engine once.

decomposition_closure meets the ideals I + P_i.  Every declared prime
contains J (the ring refuses one that does not), so I + P_i equals the
earlier I + J + P_i; the earlier formula is kept below as the oracle.
A meet of two or more ideals returns the elimination's reduced basis,
so there the generators must agree too.  A lone part (mode ne with one
absolutely minimal prime) is returned as I + P_i, which lists fewer
generators than I + J + P_i, so there only the ideals agree.

Script values: an entered value's handle is its raw generators joined
with J, and a derived value (meet, colon, bracket, dc) is its own
handle, since it already contains J; a sum of ideals lists each
generator once.  The earlier evaluator, kept below as a subclass, joined
the operands' handles for + and added J to every derived value, repeats
kept.  Both must reach equal handles as ideals, the same raw forms and
byte-identical reports, and no handle may list a generator of J twice.
"""

import random
from collections import Counter

import pytest

from conftest import ii, surface_avatar
from icalc import make_ring
from icalc.closure import NE, TIGHT, decomposition_closure
from icalc.ideals import Ideal, meet
from icalc.properties import _random_poly, _random_polys, _random_ring
from icalc.scenarios import SCENARIOS
from icalc.script import EForm, Evaluator, RunOptions, ScriptIdeal, parse_script

MODES = (TIGHT, NE)
OPTIONS = RunOptions(emax=2)


def joined(*ideals):
    """The sum as Ideal.__add__ formed it before: the generator lists
    concatenated, repeats kept."""
    return Ideal(ideals[0].ring, sum((I.generators for I in ideals), ()))


def earlier_closure(qring, ideal, mode):
    parts = [
        prime
        for prime, absmin in zip(qring.primes, qring.absolutely_minimal)
        if mode == TIGHT or absmin
    ]
    return meet(joined(ideal, qring.defining, prime) for prime in parts)


def _assert_closures_agree(qring, ideal):
    for mode in MODES:
        got = decomposition_closure(qring, ideal, mode)
        oracle = earlier_closure(qring, ideal, mode)
        assert got == oracle
        if mode == TIGHT or sum(qring.absolutely_minimal) > 1:
            assert got.generators == oracle.generators
        assert got.contains_ideal(qring.defining)


@pytest.mark.parametrize("e", [0, 1, 2])
def test_axes_bracket_powers(axes, e):
    for subject in (ii(axes.ring, "Y", "X - Z"), ii(axes.ring, "X + Y", "Z"), ii(axes.ring)):
        _assert_closures_agree(axes.qring, subject.bracket_power(e))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_surface_bracket_powers(p, e):
    avatar = surface_avatar(p)
    for subject in (ii(avatar.ring, "Z", "X - T"), ii(avatar.ring, "Y")):
        _assert_closures_agree(avatar.qring, subject.bracket_power(e))


def _split(rng):
    """A ring from the property suites' generator, its variables split
    into two coordinate primes, and the ring over their meet."""
    ring = _random_ring(rng, min_vars=2)
    names = list(ring.variables)
    rng.shuffle(names)
    cut = rng.randint(1, len(names) - 1)
    left, right = sorted(names[:cut]), sorted(names[cut:])
    return ring, left, right


@pytest.mark.parametrize("seed", range(60))
def test_seeded_two_prime_splits(seed):
    rng = random.Random(7000 + seed)
    ring, left, right = _split(rng)
    P1 = Ideal(ring, tuple(ring.var(v) for v in left))
    P2 = Ideal(ring, tuple(ring.var(v) for v in right))
    qring = make_ring(ring, P1.intersect(P2), primes=(P1, P2))
    _assert_closures_agree(qring, Ideal(ring, _random_polys(rng, ring, max_polys=2)))


# ------------------------------------------------------------ script values


class Recording(Evaluator):
    """Records every value _eval returns, in evaluation order."""

    def __init__(self, options):
        super().__init__(options)
        self.values = []

    def _eval(self, expr):
        value = super()._eval(expr)
        self.values.append(value)
        return value


class EarlierHandles(Recording):
    """The handles as formed before: + joined the operands' handles and
    every derived value added J again."""

    def _entered(self, raw):
        return ScriptIdeal(raw=raw, handle=joined(Ideal(self.ring, raw), self.defining))

    def _derived(self, ideal):
        return ScriptIdeal(raw=ideal.groebner, handle=joined(ideal, self.defining))

    def _eval(self, expr):
        if isinstance(expr, EForm) and expr.kind == "+":
            a, b = self._args(expr.args)
            value = ScriptIdeal(raw=a.raw + b.raw, handle=joined(a.handle, b.handle))
            self.values.append(value)
            return value
        return super()._eval(expr)


def _run_both(source):
    script = parse_script(source)
    now, before = Recording(OPTIONS), EarlierHandles(OPTIONS)
    docs = [ev.run(script, "t").to_json() for ev in (now, before)]
    return now, before, docs


def _repeats_of_defining(ev):
    """How often the most-listed generator of J appears in any handle."""
    J = ev.defining.generators
    return max(
        (Counter(v.handle.generators)[g] for v in ev.values for g in J), default=0
    )


def _assert_handles_agree(source):
    now, before, (doc_now, doc_before) = _run_both(source)
    assert doc_now == doc_before
    assert len(now.values) == len(before.values)
    for new, old in zip(now.values, before.values):
        assert new.raw == old.raw
        assert new.handle == old.handle
    assert now.bindings.keys() == before.bindings.keys()
    for name, value in now.bindings.items():
        assert value.handle == before.bindings[name].handle
    assert _repeats_of_defining(now) <= 1
    return before


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_handles(name):
    _assert_handles_agree(SCENARIOS[name])


def test_earlier_handles_listed_defining_twice():
    # The check above sees the repeats this change removes.
    before = _assert_handles_agree(SCENARIOS["badintersect"])
    assert _repeats_of_defining(before) >= 2


def _seeded_script(seed):
    """A two-prime split ring and five let statements over its values."""
    rng = random.Random(9100 + seed)
    ring, left, right = _split(rng)
    lp, rp = "ideal(%s)" % ", ".join(left), "ideal(%s)" % ", ".join(right)
    lines = [
        "ring R = poly(p=%d; %s) / meet(%s, %s) with primes [%s, %s]"
        % (ring.field.p, ", ".join(ring.variables), lp, rp, lp, rp)
    ]
    names = []

    def fresh():
        return "ideal(%s)" % ", ".join(
            str(_random_poly(rng, ring, max_terms=2, max_deg=2)) for _ in range(rng.randint(1, 2))
        )

    def operand():
        return rng.choice(names) if names and rng.random() < 0.7 else fresh()

    for k in range(5):
        kind = rng.choice(("+", "*", "meet", "colon", "bracket", "dc"))
        a, b = operand(), operand()
        if kind in ("+", "*"):
            expr = f"{a} {kind} {b}"
        elif kind == "bracket":
            expr = f"bracket({fresh()}, 1)"
        elif kind == "dc":
            expr = f"dc({a}, {rng.choice(MODES)})"
        else:
            expr = f"{kind}({a}, {b})"
        names.append(f"A{k}")
        lines.append(f"let A{k} = {expr}")
    lines.append(f"check equal({names[-1]}, {names[0]} + {names[-1]})")
    lines.append(f"report closedness({names[-1]}, {rng.choice(MODES)})")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(30))
def test_seeded_script_handles(seed):
    _assert_handles_agree(_seeded_script(seed))
