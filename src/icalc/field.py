"""Prime fields F_p with exact modular arithmetic.

Elements are plain ints in [0, p).  The field object only carries the
modulus and does the reductions; there is no element wrapper class, which
keeps the polynomial layer free of per-coefficient allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPrimeError

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


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements, p a prime below 2^31."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not 2 <= self.p < MAX_MODULUS:
            raise NotPrimeError(f"modulus must be an integer in [2, 2^31): {self.p!r}")
        if not is_prime(self.p):
            raise NotPrimeError(f"modulus is not prime: {self.p}")

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
