"""Monomials as exponent tuples and the supported term orders.

A monomial in n variables is a plain tuple of n non-negative ints; the
ring layer owns the variable names.  The kernels map C builtins over
both tuples, so no Python frame runs per exponent.  Orders are value
objects whose key sorts the leading monomial first: key(a) < key(b)
exactly when a is larger than b, so ascending sorts, ``min`` and a plain
``heapq`` pick out leading monomials directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, le, mul, neg, sub

from .errors import DimensionMismatchError

Monomial = tuple  # exponent tuple; alias for readability in signatures

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


def mono_is_one(a):
    return not any(a)


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


@dataclass(frozen=True)
class MonomialOrder:
    """One of lex, grevlex, or a two-block elimination order.

    Block orders compare the first ``front`` exponents under grevlex and
    only then the remaining block, so any monomial meeting the front block
    beats every monomial that avoids it.
    """

    kind: str
    front: int = 0

    def __post_init__(self):
        if self.kind not in (LEX, GREVLEX, BLOCK):
            raise ValueError(f"unknown order kind: {self.kind!r}")
        if self.kind == BLOCK and self.front < 0:
            raise ValueError("front block size must be non-negative")

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls(LEX)

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls(GREVLEX)

    @classmethod
    def block_elimination(cls, front: int) -> "MonomialOrder":
        return cls(BLOCK, front)

    @cached_property
    def key(self):
        """The lead-first key function, chosen once per order; block keys
        are flat: (-deg f, f reversed, -deg r, r reversed) for front f."""
        if self.kind == GREVLEX:
            return _grevlex_lead
        if self.kind == LEX:
            return _lex_lead
        k = self.front

        def block_lead(m):
            f, r = m[:k], m[k:]
            return (-sum(f), f[::-1], -sum(r), r[::-1])

        return block_lead

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
