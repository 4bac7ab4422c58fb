"""Monomials as exponent tuples and the supported term orders.

A monomial in n variables is a plain tuple of n non-negative ints; the
ring layer owns the variable names.  The kernels map C builtins over
both tuples, so no Python frame runs per exponent.  Orders are value
objects whose key sorts the leading monomial first: key(a) < key(b)
exactly when a is larger than b, so ascending sorts, ``min`` and a plain
``heapq`` pick out leading monomials directly.
"""

from __future__ import annotations

from operator import add, le, mul, neg, sub

from .errors import DimensionMismatchError, RingSpecError
from .records import Record


LEX = "lex"
GREVLEX = "grevlex"
BLOCK = "block"


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_sub(a, b):
    """Exponent-wise difference; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_divides(a, b):
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_gcd(a, b):
    return tuple(map(min, a, b))


def mono_degree(a):
    return sum(a)


def mono_coprime(a, b):
    return not any(map(mul, a, b))


def mono_support(a):
    return frozenset(i for i, e in enumerate(a) if e)


def _grevlex_lead(m):
    # Higher degree first; ties go to the smaller rightmost differing
    # exponent, which the reversed tuple compares first.
    return (-sum(m), m[::-1])


def _lex_lead(m):
    return tuple(map(neg, m))


def _block_lead(k):
    def block_lead(m):
        f, r = m[:k], m[k:]
        return (-sum(f), f[::-1], -sum(r), r[::-1])

    return block_lead


class MonomialOrder(Record):
    """One of lex, grevlex, or a two-block elimination order.

    Block orders compare the first ``front`` exponents under grevlex and
    only then the remaining block, so any monomial meeting the front block
    beats every monomial that avoids it.

    ``key`` is the lead-first key function, chosen once per order; block
    keys are flat: (-deg f, f reversed, -deg r, r reversed) for front f.
    """

    __slots__ = ("kind", "front", "key")
    _fields = ("kind", "front")

    def __init__(self, kind: str, front: int = 0):
        if kind not in (LEX, GREVLEX, BLOCK):
            raise RingSpecError(f"unknown order kind: {kind!r}")
        if kind == BLOCK and front < 0:
            raise RingSpecError("front block size must be non-negative")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "front", front)
        key = _lex_lead if kind == LEX else _grevlex_lead if kind == GREVLEX else _block_lead(front)
        object.__setattr__(self, "key", key)

    # Compared on every basis cache lookup between separately built rings.
    def __eq__(self, other):
        if other.__class__ is not MonomialOrder:
            return NotImplemented
        return self.kind == other.kind and self.front == other.front

    def __hash__(self):
        return hash((self.kind, self.front))

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls(LEX)

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls(GREVLEX)

    @classmethod
    def block_elimination(cls, front: int) -> "MonomialOrder":
        return cls(BLOCK, front)

    def __str__(self):
        if self.kind == BLOCK:
            return f"block({self.front})"
        return self.kind


def mono_compare(order: MonomialOrder, a, b) -> int:
    """-1, 0, or 1 as a precedes, equals, or follows b under the order."""
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"monomial lengths differ: {len(a)} vs {len(b)}"
        )
    ka, kb = order.key(a), order.key(b)
    return (ka < kb) - (ka > kb)  # the lead-first key sorts the larger first
