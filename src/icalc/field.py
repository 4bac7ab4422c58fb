"""Prime fields F_p with exact modular arithmetic.

Elements are plain ints in [0, p).  The field object only carries the
modulus and does the reductions; there is no element wrapper class, which
keeps the polynomial layer free of per-coefficient allocation.
"""

from __future__ import annotations

from .errors import NotPrimeError
from .records import Record

MAX_MODULUS = 2**31

# Deterministic Miller-Rabin witnesses, sufficient for n < 3_215_031_751.
_MR_WITNESSES = (2, 3, 5, 7)


def is_prime(n: int) -> bool:
    """Deterministic primality test for the supported modulus range."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Record):
    """The field with p elements, p a prime below 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_MODULUS:
            raise NotPrimeError(f"modulus must be an integer in [2, 2^31): {p!r}")
        if not is_prime(p):
            raise NotPrimeError(f"modulus is not prime: {p}")
        object.__setattr__(self, "p", p)

    # Compared on every basis cache lookup between separately built rings.
    def __eq__(self, other):
        if other.__class__ is not PrimeField:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def normalize(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        # Fermat: a^(p-2) is the inverse for prime p.
        return pow(a, self.p - 2, self.p)

    def __str__(self):
        return f"F_{self.p}"
