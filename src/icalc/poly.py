"""Sparse multivariate polynomials over a prime field.

A Poly stores its nonzero terms as a tuple of (coefficient, monomial)
pairs sorted descending under the ring's order, so the leading term is
``terms[0]`` and structural equality is term-by-term.  The zero
polynomial is the empty tuple.

Polynomials are written as in ``2*X^3*Y - Z + 1``.  read_poly holds
the one grammar of that text, for parse_poly and for every polynomial
slot of a script alike:

    poly := ['-'] term (('+' | '-') term)*    term := factor ('*' factor)*
    factor := int | name ['^' int]

Variable names are case-sensitive.  Canonical printing lists terms in
descending order with coefficients normalized to [1, p), so over F_2
the difference X - T prints as ``X + T``.
"""

from __future__ import annotations

import re

from .errors import (
    ArgumentTypeError,
    BadArgumentError,
    CapacityError,
    ParseError,
    RingMismatchError,
    RingSpecError,
    UnknownVariableError,
)
from .field import PrimeField
from .monomials import MonomialOrder, mono_mul
from .records import Record

MAX_EXPONENT = 2**31


class PolyRing(Record):
    """A polynomial ring descriptor: field, named variables, term order."""

    __slots__ = ("field", "variables", "order", "_hash")
    _fields = ("field", "variables", "order")

    def __init__(self, field: PrimeField, variables: tuple, order: MonomialOrder):
        if not isinstance(field, PrimeField):
            raise RingSpecError(f"field must be a PrimeField, not {field!r}")
        if not isinstance(variables, tuple) or not all(
            isinstance(name, str) and name for name in variables
        ):
            raise RingSpecError(f"variables must be a tuple of names, not {variables!r}")
        if not variables:
            raise RingSpecError("variables: a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise RingSpecError(f"variables: duplicate names in {variables}")
        if not isinstance(order, MonomialOrder):
            raise RingSpecError(f"order must be a MonomialOrder, not {order!r}")
        if order.kind == "block" and order.front > len(variables):
            raise RingSpecError(
                f"order: front block {order.front} exceeds the {len(variables)} variables"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "order", order)
        # Rings key every basis cache lookup: hash once, and let a ring
        # meet itself without comparing fields.  Equality stays
        # structural, so separately built equal rings share cache keys.
        object.__setattr__(self, "_hash", hash((field, variables, order)))

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
            raise BadArgumentError("exponent tuple has the wrong length")
        for e in exponents:
            if type(e) is not int:  # a bool is an int subclass, but no exponent
                raise ArgumentTypeError(f"exponents must be integers, not {exponents!r}")
            if not 0 <= e < MAX_EXPONENT:
                error = BadArgumentError if e < 0 else CapacityError
                raise error(f"exponent {e} outside [0, 2^31) in {exponents!r}")
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
            raise BadArgumentError("zero polynomial has no leading term")
        return self.terms[0][0]

    @property
    def lead_monomial(self):
        if not self.terms:
            raise BadArgumentError("zero polynomial has no leading term")
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
        for c, m in other.terms:
            acc[m] = acc.get(m, 0) + c
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
            return Poly.from_dict(self.ring, {m: a * other for a, m in self.terms})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        acc = {}
        for ca, ma in self.terms:
            for cb, mb in other.terms:
                m = mono_mul(ma, mb)
                acc[m] = acc.get(m, 0) + ca * cb
        return Poly.from_dict(self.ring, acc)

    __rmul__ = __mul__

    def monic(self) -> "Poly":
        if self.is_zero or self.terms[0][0] == 1:
            return self
        field = self.ring.field
        inv, p = field.inv(self.terms[0][0]), field.p
        # A nonzero scalar keeps every term nonzero and the order as it is.
        return Poly(self.ring, tuple((c * inv % p, m) for c, m in self.terms))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise BadArgumentError("exponent must be a non-negative integer")
        if _power_overflows(self, k):
            raise CapacityError(f"exponent beyond 2^31 in ({self})^{k}")
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
        raise BadArgumentError("Frobenius exponent must be a non-negative integer")
    if e == 0 or f.is_constant():
        return f
    # p >= 2, so e >= 31 gives q >= 2^31, too much for any non-constant
    # f; 2^31 then stands in for q, whose digits grow with e.
    q = f.ring.field.p ** e if e < 31 else MAX_EXPONENT
    if _power_overflows(f, q):
        raise CapacityError(f"exponent beyond 2^31 in Frobenius power p^{e} of {f}")
    # Scaling by a positive constant preserves the relative order in all
    # supported orders, so the stored sort survives untouched.
    return Poly(f.ring, tuple((c, tuple(x * q for x in m)) for c, m in f.terms))


def _power_overflows(f: Poly, k: int) -> bool:
    """Whether f^k has an exponent at or beyond 2^31, told before any
    product: deg_x(f^k) = k * deg_x(f), since F_p[x_1..x_n] is a domain."""
    return bool(f.terms) and k * max(max(m) for _, m in f.terms) >= MAX_EXPONENT


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

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9_]*)|(->|[-+*^()\[\],;=/])|(\S)")
_SIGNS = {("op", "+"): 1, ("op", "-"): -1}


def tokenize(text: str):
    """Shared tokenizer: (kind, value) pairs with kind int/name/op."""
    out = []
    for number, name, op, bad in _TOKEN_RE.findall(text):
        if bad:
            raise ParseError(f"bad character {bad!r} in {text!r}")
        out.append(("int", int(number)) if number else ("name", name) if name else ("op", op))
    return out


def read_poly(toks, i: int = 0):
    """The polynomial at toks[i], read without a ring: its terms as
    (signed coefficient, ((name, exponent), ...)) pairs and the index
    after it.  Every '*' needs a factor after it."""
    n, terms, sign = len(toks), [], 1
    if i < n and toks[i] == ("op", "-"):
        sign, i = -1, i + 1
    while True:
        coeff, factors = sign, []
        while True:
            if i == n:
                raise ParseError("unexpected end of polynomial")
            kind, value = toks[i]
            i += 1
            if kind == "int":
                coeff *= value
            elif kind == "name":
                exp = 1
                if i < n and toks[i] == ("op", "^"):
                    if i + 1 == n:
                        raise ParseError("dangling '^' in polynomial")
                    if toks[i + 1][0] != "int":
                        raise ParseError("exponent must be an integer literal")
                    exp = toks[i + 1][1]
                    i += 2
                factors.append((value, exp))
            else:
                raise ParseError(f"unexpected token {value!r} in polynomial")
            if i == n or toks[i] != ("op", "*"):
                break
            i += 1
        terms.append((coeff, tuple(factors)))
        sign = _SIGNS.get(toks[i]) if i < n else None
        if sign is None:
            return terms, i
        i += 1


def parse_poly(ring: PolyRing, text: str) -> Poly:
    toks = tokenize(text)
    if not toks:
        raise ParseError("empty polynomial text")
    terms, i = read_poly(toks)
    if i != len(toks):
        raise ParseError(f"trailing tokens after polynomial in {text!r}")
    acc = {}
    for coeff, factors in terms:
        mono = [0] * ring.nvars
        for name, exp in factors:
            j = ring.var_index(name)
            if mono[j] + exp >= MAX_EXPONENT:
                raise CapacityError(f"exponent beyond 2^31 on {name}")
            mono[j] += exp
        m = tuple(mono)
        acc[m] = acc.get(m, 0) + coeff
    return Poly.from_dict(ring, acc)


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
