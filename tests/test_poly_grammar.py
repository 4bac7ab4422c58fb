"""The one polynomial grammar against the two readers it replaced.

The reference below is the earlier tokenizer, term reader and
parse_poly, kept verbatim but for their names: a per-token regex match
loop, and a term loop that resolved names as it read them and let a
'*' end a term when no factor followed it.  On seeded texts the new
reader must tokenize identically, give the same Poly for every text
both accept, accept nothing new, and reject newly only texts with a
dangling '*'.
"""

import random
import re

import pytest

from icalc.errors import CapacityError, IcalcError, ParseError
from icalc.field import PrimeField
from icalc.monomials import MonomialOrder
from icalc.poly import MAX_EXPONENT, Poly, PolyRing, parse_poly, read_poly, tokenize

_REF_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|(->|[-+*^()\[\],;=/]))")


def reference_tokenize(text: str):
    """Shared tokenizer: yields (kind, value) with kind int/name/op."""
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _REF_TOKEN_RE.match(text, pos)
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


def _reference_parse_term(ring, toks, i):
    coeff = 1
    mono = [0] * ring.nvars
    saw_factor = False
    while True:
        if i >= len(toks):
            if saw_factor:
                break
            raise ParseError("unexpected end of polynomial")
        kind, value = toks[i]
        if kind == "int":
            coeff *= value
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


def reference_parse_poly(ring: PolyRing, text: str) -> Poly:
    toks = reference_tokenize(text)
    if not toks:
        raise ParseError("empty polynomial text")
    acc = {}
    sign, i = (-1, 1) if toks[0] == ("op", "-") else (1, 0)
    while True:
        coeff, mono, i = _reference_parse_term(ring, toks, i)
        m = tuple(mono)
        acc[m] = acc.get(m, 0) + sign * coeff
        if i < len(toks) and toks[i][0] == "op" and toks[i][1] in "+-":
            sign = 1 if toks[i][1] == "+" else -1
            i += 1
        else:
            break
    if i != len(toks):
        raise ParseError(f"trailing tokens after polynomial in {text!r}")
    return Poly.from_dict(ring, acc)


# ---------------------------------------------------------------- seeded texts

RING = PolyRing(PrimeField(3), ("X", "Y", "Z", "X2"), MonomialOrder.grevlex())
# W is no variable of RING; the large integers probe the 2^31 exponent cap.
ATOMS = ("X", "Y", "Z", "X2", "W", "0", "1", "2", "3", "5", "2147483647")
EXPONENTS = ("0", "1", "2", "3", "2147483647", "2147483648")
OPS = ("+", "-", "*", "^", "(", ")", ",", ";", "->", "=", "/", "[")
SPACES = ("", " ", "  ", "\t")
# Unicode digits and spaces, and characters no token starts with.
ALPHABET = "XYZxz09_ +-*^()[],;=/>!.@#\t\n ٣é"


def _poly_like(rng):
    """Tokens of a polynomial from the grammar, then up to two edits."""
    toks = ["-"] if rng.random() < 0.2 else []
    for t in range(rng.randint(1, 3)):
        if t:
            toks.append(rng.choice("+-"))
        for f in range(rng.randint(1, 3)):
            if f:
                toks.append("*")
            toks.append(rng.choice(ATOMS))
            if rng.random() < 0.3:
                toks += ["^", rng.choice(EXPONENTS)]
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(toks) + 1)
        new = rng.choice(ATOMS + OPS)
        edit = rng.choice(("delete", "insert", "replace"))
        if edit == "insert":
            toks.insert(i, new)
        elif i < len(toks):
            toks[i:i + 1] = [] if edit == "delete" else [new]
    # spaces may glue a name and an integer into one name: both readers
    # see the same text, so that is one more case
    return "".join(tok + rng.choice(SPACES) for tok in toks)


def _outcome(parse, text):
    try:
        return parse(RING, text)
    except IcalcError as exc:
        return exc


def _dangling_star(text):
    toks = tokenize(text)
    return any(
        tok == ("op", "*") and (i + 1 == len(toks) or toks[i + 1][0] == "op")
        for i, tok in enumerate(toks)
    )


def test_tokenize_matches_the_match_loop_on_seeded_strings():
    rng = random.Random(19)
    failed = 0
    for _ in range(4000):
        text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        try:
            expected = reference_tokenize(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as caught:
                tokenize(text)
            assert str(caught.value) == str(exc), text
            failed += 1
        else:
            assert tokenize(text) == expected, text
    # both outcomes occur often
    assert 500 < failed < 3500


def test_parse_poly_matches_the_term_loop_but_for_a_dangling_star():
    rng = random.Random(191)
    accepted = newly_rejected = 0
    for _ in range(4000):
        text = _poly_like(rng)
        old = _outcome(reference_parse_poly, text)
        new = _outcome(parse_poly, text)
        if isinstance(old, Poly) and isinstance(new, Poly):
            assert new == old, text
            accepted += 1
        elif isinstance(new, Poly):
            pytest.fail(f"newly accepted: {text!r} ({old})")
        elif isinstance(old, Poly):
            assert _dangling_star(text), text
            assert isinstance(new, ParseError), text
            newly_rejected += 1
    assert accepted > 500 and newly_rejected > 10


@pytest.mark.parametrize(
    "text, old",
    [("X*-Y", "X + 2*Y"), ("X*", "X"), ("X*+Y", "X + Y"), ("2*", "2")],
)
def test_a_star_needs_a_factor_after_it(text, old):
    # over F_3 the term reader read X*-Y as X - Y, not -XY
    assert str(reference_parse_poly(RING, text)) == old
    with pytest.raises(ParseError):
        parse_poly(RING, text)


def test_read_poly_is_ring_free_and_stops_after_the_polynomial():
    toks = tokenize("ideal(-2*X^3*W + Y, Z)")
    assert read_poly(toks, 2) == ([(-2, (("X", 3), ("W", 1))), (1, (("Y", 1),))], 12)
    assert read_poly(toks, 13) == ([(1, (("Z", 1),))], 14)
