"""Sparse multivariate polynomials over a prime field.

A Poly stores its nonzero terms as a tuple of (coefficient, monomial)
pairs sorted descending under the ring's order, so the leading term is
``terms[0]`` and structural equality is term-by-term.  The zero
polynomial is the empty tuple.

Text syntax, used everywhere a polynomial is written down:

    2*X^3*Y - Z + 1

Variable names are case-sensitive, powers use ``^``, products need an
explicit ``*``.  Canonical printing lists terms in descending order with
coefficients normalized to [1, p), so over F_2 the difference X - T
prints as ``X + T``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    CapacityError,
    ParseError,
    RingMismatchError,
    RingSpecError,
    UnknownVariableError,
)
from .field import PrimeField
from .monomials import MonomialOrder, mono_mul

MAX_EXPONENT = 2**31


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring descriptor: field, named variables, term order."""

    field: PrimeField
    variables: tuple
    order: MonomialOrder

    def __post_init__(self):
        field, names, order = self.field, self.variables, self.order
        if not isinstance(field, PrimeField):
            raise RingSpecError(f"field must be a PrimeField, not {field!r}")
        if not isinstance(names, tuple) or not all(
            isinstance(name, str) and name for name in names
        ):
            raise RingSpecError(f"variables must be a tuple of names, not {names!r}")
        if not names:
            raise RingSpecError("variables: a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise RingSpecError(f"variables: duplicate names in {names}")
        if not isinstance(order, MonomialOrder):
            raise RingSpecError(f"order must be a MonomialOrder, not {order!r}")
        if order.kind == "block" and order.front > len(names):
            raise RingSpecError(
                f"order: front block {order.front} exceeds the {len(names)} variables"
            )
        # Rings key every basis cache lookup: hash once, and let a ring
        # meet itself without comparing fields.  Equality stays
        # structural, so separately built equal rings share cache keys.
        object.__setattr__(self, "_hash", hash((field, names, order)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not PolyRing:
            return NotImplemented
        return (self.field, self.variables, self.order) == (
            other.field, other.variables, other.order
        )

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariableError(
                f"{name!r} is not a variable of {self}"
            ) from None

    def zero(self) -> "Poly":
        return Poly(self, ())

    def one(self) -> "Poly":
        return self.constant(1)

    def constant(self, c: int) -> "Poly":
        c = self.field.normalize(c)
        if c == 0:
            return self.zero()
        return Poly(self, ((c, (0,) * self.nvars),))

    def var(self, name: str) -> "Poly":
        i = self.var_index(name)
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, ((1, mono),))

    def gens(self) -> tuple:
        return tuple(self.var(v) for v in self.variables)

    def monomial(self, coeff: int, exponents) -> "Poly":
        exponents = tuple(exponents)
        if len(exponents) != self.nvars:
            raise ValueError("exponent tuple has the wrong length")
        c = self.field.normalize(coeff)
        if c == 0:
            return self.zero()
        return Poly(self, ((c, exponents),))

    def parse(self, text: str) -> "Poly":
        return parse_poly(self, text)

    def __str__(self):
        return "F_%d[%s]/%s" % (
            self.field.p,
            ",".join(self.variables),
            self.order,
        )


class Poly:
    """An immutable polynomial; construct through ring helpers or parse."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: tuple):
        # terms is trusted: nonzero coefficients, sorted descending.
        self.ring = ring
        self.terms = terms
        self._hash = None

    @staticmethod
    def from_dict(ring: PolyRing, coeffs: dict) -> "Poly":
        """Build from {monomial: coefficient}, dropping zeros and sorting."""
        p = ring.field.p
        ms = sorted(coeffs, key=ring.order.key)
        return Poly(ring, tuple((c, m) for m in ms if (c := coeffs[m] % p)))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lead_coeff(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    @property
    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for _, m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(m) for _, m in self.terms}
        return len(degs) == 1

    def is_constant(self) -> bool:
        return not self.terms or not any(self.terms[0][1])

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands live in different rings: {self.ring} vs {other.ring}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        acc = {m: c for c, m in self.terms}
        p = self.ring.field.p
        for c, m in other.terms:
            v = (acc.get(m, 0) + c) % p
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
        return Poly.from_dict(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.p
        return Poly(self.ring, tuple((-c % p, m) for c, m in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = self.ring.field.normalize(other)
            if c == 0:
                return self.ring.zero()
            p = self.ring.field.p
            return Poly(self.ring, tuple((a * c % p, m) for a, m in self.terms))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        p = self.ring.field.p
        acc = {}
        for ca, ma in self.terms:
            for cb, mb in other.terms:
                m = mono_mul(ma, mb)
                v = (acc.get(m, 0) + ca * cb) % p
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return Poly.from_dict(self.ring, acc)

    __rmul__ = __mul__

    def monic(self) -> "Poly":
        if self.is_zero or self.terms[0][0] == 1:
            return self
        return self * self.ring.field.inv(self.terms[0][0])

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"<{poly_str(self)}>"


def frobenius_power(f: Poly, e: int) -> Poly:
    """Raise to the p^e power by scaling exponents.

    Valid in characteristic p because Frobenius is a ring map and fixes
    F_p coefficientwise; each exponent is multiplied by q = p^e.
    """
    if not isinstance(e, int) or e < 0:
        raise ValueError("Frobenius exponent must be a non-negative integer")
    if e == 0:
        return f
    q = f.ring.field.p ** e
    terms = []
    for c, m in f.terms:
        scaled = tuple(x * q for x in m)
        if any(x >= MAX_EXPONENT for x in scaled):
            raise CapacityError(
                f"exponent beyond 2^31 in Frobenius power p^{e} of {f}"
            )
        terms.append((c, scaled))
    # Scaling by a positive constant preserves the relative order in all
    # supported orders, so the stored sort survives untouched.
    return Poly(f.ring, tuple(terms))


def transport(f: Poly, ring2: PolyRing, positions=None) -> Poly:
    """Re-home a polynomial into ring2, permuting variables by positions.

    positions[i] is the index in ring2 of the i-th variable of f's ring;
    identity when omitted.  Any variable dropped by ring2 must not occur.
    """
    if f.ring.field.p != ring2.field.p:
        raise RingMismatchError("transport cannot change the coefficient field")
    n2 = ring2.nvars
    acc = {}
    for c, m in f.terms:
        mm = [0] * n2
        for i, e in enumerate(m):
            if not e:
                continue
            j = positions[i] if positions is not None else i
            if j is None or j >= n2:
                raise UnknownVariableError(
                    f"variable {f.ring.variables[i]!r} has no home in {ring2}"
                )
            mm[j] = e
        acc[tuple(mm)] = c
    return Poly.from_dict(ring2, acc)


# -- text format -----------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|(->|[-+*^()\[\],;=/]))")


def tokenize(text: str):
    """Shared tokenizer: yields (kind, value) with kind int/name/op."""
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"bad character {rest[0]!r} in {text!r}")
        if m.group(1) is not None:
            out.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    return out


def parse_poly_tokens(ring: PolyRing, toks, i: int):
    """Consume one polynomial from a token list; return (Poly, next index)."""
    p = ring.field.p
    n = ring.nvars
    acc = {}
    sign = 1
    if i < len(toks) and toks[i] == ("op", "-"):
        sign = -1
        i += 1
    while True:
        coeff, mono, i = _parse_term(ring, toks, i, n)
        c = sign * coeff % p
        m = tuple(mono)
        v = (acc.get(m, 0) + c) % p
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)
        if i < len(toks) and toks[i][0] == "op" and toks[i][1] in "+-":
            sign = 1 if toks[i][1] == "+" else -1
            i += 1
        else:
            return Poly.from_dict(ring, acc), i


def _parse_term(ring, toks, i, n):
    coeff = 1
    mono = [0] * n
    saw_factor = False
    while True:
        if i >= len(toks):
            if saw_factor:
                break
            raise ParseError("unexpected end of polynomial")
        kind, value = toks[i]
        if kind == "int":
            coeff = coeff * value % ring.field.p
            i += 1
        elif kind == "name":
            j = ring.var_index(value)
            exp = 1
            i += 1
            if i + 1 < len(toks) and toks[i] == ("op", "^"):
                if toks[i + 1][0] != "int":
                    raise ParseError("exponent must be an integer literal")
                exp = toks[i + 1][1]
                i += 2
            elif i < len(toks) and toks[i] == ("op", "^"):
                raise ParseError("dangling '^' in polynomial")
            if mono[j] + exp >= MAX_EXPONENT:
                raise CapacityError(f"exponent beyond 2^31 on {value}")
            mono[j] += exp
        else:
            if saw_factor:
                break
            raise ParseError(f"unexpected token {value!r} in polynomial")
        saw_factor = True
        if i < len(toks) and toks[i] == ("op", "*"):
            i += 1
            continue
        break
    return coeff, mono, i


def parse_poly(ring: PolyRing, text: str) -> Poly:
    toks = tokenize(text)
    if not toks:
        raise ParseError("empty polynomial text")
    poly, i = parse_poly_tokens(ring, toks, 0)
    if i != len(toks):
        raise ParseError(f"trailing tokens after polynomial in {text!r}")
    return poly


def poly_str(f: Poly) -> str:
    """Canonical form: descending terms, coefficients in [1, p)."""
    if f.is_zero:
        return "0"
    names = f.ring.variables
    parts = []
    for c, m in f.terms:
        factors = []
        if c != 1 or not any(m):
            factors.append(str(c))
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)
