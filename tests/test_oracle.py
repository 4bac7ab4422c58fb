"""A Groebner-free oracle for the surface ring's ideals and colons over F_2.

Polynomials in T, X, Y, Z are bit vectors indexed by monomials of degree
at most DMAX, an ideal's degree-<=e part is the row space of the monomial
multiples of its generators, and a colon is solved as a linear system.
No Groebner basis is involved.  The multiplier degree runs SLACK past
the target degree, at which the row spaces have reached their
dimensions.

Against it, icalc's grevlex bases must count the same: in a degree
order, dim I_<=d is the number of monomials of degree <= d in the
leading-term ideal.
"""

from itertools import product

import pytest
from conftest import surface_avatar

from icalc import Ideal, MonomialOrder, PolyRing, PrimeField
from icalc.monomials import mono_divides, mono_mul

DTOP = 5
SLACK = 3
DMAX = DTOP + SLACK + 2
MONOS = sorted(
    (m for m in product(range(DMAX + 1), repeat=4) if sum(m) <= DMAX),
    key=lambda m: (sum(m), m),
)
INDEX = {m: i for i, m in enumerate(MONOS)}
# CUTOFF[d]: the number of monomials of degree <= d, so a vector has
# degree <= d exactly when its bit length is at most CUTOFF[d].
CUTOFF = [sum(1 for m in MONOS if sum(m) <= d) for d in range(DMAX + 1)]

RING = PolyRing(PrimeField(2), ("T", "X", "Y", "Z"), MonomialOrder.grevlex())
J_TEXT = ("T*Y + X*Z", "T*X^2 + Y*Z", "X^3 + Y^2", "T^3*X + T*Z^2")
P_TEXT = ("T*Y + X*Z", "T^2*X + Z^2", "T*X^2 + Y*Z", "X^3 + Y^2")


def vec(text):
    v = 0
    for _, m in RING.parse(text).terms:
        v ^= 1 << INDEX[m]
    return v


def degree(v):
    return sum(MONOS[v.bit_length() - 1])


def shift(v, m):
    out, i = 0, 0
    while v:
        if v & 1:
            out ^= 1 << INDEX[mono_mul(MONOS[i], m)]
        v >>= 1
        i += 1
    return out


def reduce_row(r, basis):
    """Reduce against an echelon basis kept as {leading bit length: row}."""
    while r and r.bit_length() in basis:
        r ^= basis[r.bit_length()]
    return r


def span_upto(gens, e):
    """Echelon basis of the span of m*g with deg(m*g) <= e."""
    basis = {}
    for g in gens:
        for m in MONOS[: CUTOFF[e - degree(g)]]:
            r = reduce_row(shift(g, m), basis)
            if r:
                basis[r.bit_length()] = r
    return basis


def colon_upto(gens, divisor, d):
    """Echelon basis of {f : deg f <= d, f*divisor in the span of gens}."""
    space = span_upto(gens, d + degree(divisor) + SLACK)
    residues, colon = {}, {}
    for i in range(CUTOFF[d]):
        res, tag = reduce_row(shift(divisor, MONOS[i]), space), 1 << i
        while res and res.bit_length() in residues:
            bres, btag = residues[res.bit_length()]
            res, tag = res ^ bres, tag ^ btag
        if res:
            residues[res.bit_length()] = (res, tag)
        else:
            tag = reduce_row(tag, colon)
            if tag:
                colon[tag.bit_length()] = tag
    return colon


def piece_dims(basis):
    """dim of the row space's degree-<=d part, for d = 0..DTOP."""
    return [sum(1 for b in basis if b.bit_length() <= CUTOFF[d]) for d in range(DTOP + 1)]


def lead_dims(ideal):
    """Monomials of degree <= d in the leading-term ideal, d = 0..DTOP."""
    lms = [g.terms[0][1] for g in ideal.groebner]
    return [
        sum(1 for m in MONOS[: CUTOFF[d]] if any(mono_divides(l, m) for l in lms))
        for d in range(DTOP + 1)
    ]


def ideal(texts):
    return Ideal(RING, tuple(RING.parse(t) for t in texts))


J = [vec(t) for t in J_TEXT]
JZ = J + [vec("Z")]
PZ = [vec(t) for t in P_TEXT + ("Z",)]


@pytest.fixture(scope="module")
def capture_colon():
    return colon_upto(JZ, vec("X + T"), DTOP)


def test_oracle_dimensions_match_icalc_leading_terms(capture_colon):
    e = DTOP + SLACK + 1
    cases = [
        ("J", span_upto(J, e), ideal(J_TEXT), [0, 0, 1, 7, 24, 58]),
        ("J+(Z)", span_upto(JZ, e), ideal(J_TEXT + ("Z",)), [0, 1, 6, 21, 52, 104]),
        ("P+(Z)", span_upto(PZ, e), ideal(P_TEXT + ("Z",)), [0, 1, 6, 22, 53, 105]),
        ("J:Z", colon_upto(J, vec("Z"), DTOP), ideal(J_TEXT).colon(RING.parse("Z")), [0, 0, 1, 7, 24, 58]),
        (
            "(J+Z):(X+T)",
            capture_colon,
            ideal(J_TEXT + ("Z",)).colon(RING.parse("X + T")),
            [0, 1, 6, 22, 53, 105],
        ),
    ]
    for name, basis, icalc_ideal, expected in cases:
        assert piece_dims(basis.values()) == expected, name
        assert lead_dims(icalc_ideal) == expected, name


def test_capture_colon_lies_in_p_plus_z_and_starts_at_t2x(capture_colon):
    wide = DTOP + SLACK + 2
    pz = span_upto(PZ, wide)
    assert all(reduce_row(b, pz) == 0 for b in capture_colon.values())
    jz = span_upto(JZ, wide)
    fresh = [b for b in capture_colon.values() if reduce_row(b, jz)]
    assert min(fresh) == vec("T^2*X")


def test_oracle_ideals_are_the_surface_ideals():
    surface = surface_avatar(2)
    assert ideal(J_TEXT) == surface.J
    assert ideal(P_TEXT) == surface.P
