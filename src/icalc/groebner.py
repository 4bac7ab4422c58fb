"""Buchberger engine: normal forms, reduced bases, elimination.

Determinism contract, relied on by every golden test downstream:

* pair selection is by minimal lcm total degree, ties broken by the
  lexicographic (i, j) of the generator indices, popped from a heap;
* both classical pruning criteria run (coprime leads, chain); the chain
  criterion looks for k only among the popped partners of both i and j,
  kept per element as an int bitmask and walked lowest bit first;
* an S-polynomial sums only the two shifted, scaled tails: the leads
  cancel and are never formed;
* normal forms try divisors in the stored order of the reducer list,
  on the largest remaining term first: a plain heapq of (key(m), m),
  since the order key sorts the leading monomial first; the remainder's
  terms come out in heap-pop order, which is already the descending
  term order a Poly stores, so it is never sorted again;
* during Buchberger and ``is_groebner_basis``, and in an ideal's
  membership tests, normal forms read the rows (lead, inverse lead
  coefficient, tail) the basis keeps as it grows, and one memo keyed
  by monomial; rows are only appended, so the
  divisor order is the same as a fresh scan of the list;
* the memo holds, for a monomial m already reduced, the tail of m's
  first dividing row shifted by m - lm, built on m's first reduction
  and read on every later one; it can never be stale, since m's first
  divisor never changes once found;
* for a monomial m found irreducible, the memo holds the number of rows
  it was checked against, so a later lookup scans only the rows
  appended since, and m gets its product when one of them divides it;
* the returned basis is the reduced one (monic, tails reduced, minimal
  leading monomials) sorted by leading monomial, largest first, which is
  canonical for the pair (ideal, order); every tail reduces against one
  shared row set of the minimal elements, where an element's own row
  never divides a monomial below its lead.

One process-wide dict, ``_GB_CACHE``, memoizes every result callers
recompute constantly, through the one helper ``memoized``.  Reduced bases
are keyed ``(ring, generators)``; the ideal layer keys its results by a
leading tag, ``("intersect", ring, A.generators, B.generators)``,
``("colon", ring, A.generators, divisor)`` (an ideal divisor by its
generators) and ``("radical", ring, A.generators, f)``, and stores
generator tuples and bools.  There is no second process-wide memo:
emptying this dict makes every later call cold.  Each fill is
idempotent, so racing writers agree.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import islice
from operator import add, le, mul, sub

from .errors import ArgumentTypeError, BadArgumentError, RingMismatchError
from .monomials import MonomialOrder, mono_divides, mono_mul, mono_sub
from .poly import Poly, PolyRing, transport

_GB_CACHE = {}


class BasisRows:
    """A reducer list that keeps its division rows and one reduction memo.

    Each appended polynomial adds the row (lm, inverse lc, tail terms);
    zero polynomials add none.  ``memo`` maps every monomial looked up
    so far either to the number of rows it was found irreducible
    against, an int, or, once reduced, to the tuple (inverse lc, tail
    pairs) of its first dividing row, the tail shifted by m - lm as
    (coefficient, monomial) pairs.  Rows are only ever appended, so a
    first divisor stays first, its product never goes stale, and an
    irreducible monomial need only be checked against the rows added
    since.
    """

    __slots__ = ("polys", "rows", "memo")

    def __init__(self, polys=()):
        self.polys = []
        self.rows = []
        self.memo = {}
        for g in polys:
            self.append(g)

    def append(self, g: Poly):
        self.polys.append(g)
        if g.terms:
            lc, lm = g.terms[0]
            # Bases are monic, so most leads need no inverse.
            inv_lc = lc if lc == 1 else g.ring.field.inv(lc)
            self.rows.append((lm, inv_lc, g.terms[1:]))

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]

    def __iter__(self):
        return iter(self.polys)


def normal_form(f: Poly, reducers) -> Poly:
    """Full remainder of f modulo the reducer list.

    Every term of the result is irreducible; divisors are tried in list
    order, which pins the outcome for non-basis reducer lists too.  A
    ``BasisRows`` is read as it stands; any other list gets fresh rows.
    """
    if not f.terms:
        return f
    if reducers.__class__ is not BasisRows:
        reducers = BasisRows(reducers)
    rows = reducers.rows
    if not rows:
        return f
    memo = reducers.memo
    n = len(rows)
    ring = f.ring
    p = ring.field.p
    key = ring.order.key
    work = {m: c for c, m in f.terms}
    heap = [(key(m), m) for m in work]
    heapify(heap)
    # Terms leave the heap largest first, each once, with a nonzero
    # coefficient mod p: the remainder is built in Poly's term order.
    remainder = []
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        product = memo.get(m, 0)
        if product.__class__ is int:
            # m has no divisor yet: scan the rows added since it was
            # last found irreducible.
            for row in islice(rows, product, None):
                if all(map(le, row[0], m)):
                    break
            else:
                memo[m] = n
                remainder.append((c, m))
                continue
            lm, inv_lc, tail = row
            shift = tuple(map(sub, m, lm))
            product = memo[m] = (
                inv_lc,
                tuple([(cg, tuple(map(add, mg, shift))) for cg, mg in tail]),
            )
        inv_lc, tail = product
        factor = c * inv_lc % p
        # The lead cancels m exactly; only the tail lands in work.
        for cg, mm in tail:
            v = work.get(mm)
            if v is None:
                work[mm] = -factor * cg % p
                heappush(heap, (key(mm), mm))
            elif v := (v - factor * cg) % p:
                work[mm] = v
            else:
                del work[mm]
    return Poly(ring, tuple(remainder))


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """lcm/lt(f) * f - lcm/lt(g) * g, summed over the two tails only.

    Both shifted leads are the lcm with coefficient 1 and cancel, so
    they are never formed.
    """
    cf, mf = f.terms[0]
    cg, mg = g.terms[0]
    f._check_ring(g)
    field = f.ring.field
    a = field.inv(cf)
    b = field.inv(cg)
    lcm = tuple(map(max, mf, mg))
    shift = tuple(map(sub, lcm, mf))
    # Distinct terms of f stay distinct after the shift.
    acc = {tuple(map(add, m, shift)): a * c for c, m in islice(f.terms, 1, None)}
    shift = tuple(map(sub, lcm, mg))
    for c, m in islice(g.terms, 1, None):
        mm = tuple(map(add, m, shift))
        acc[mm] = acc.get(mm, 0) - b * c
    return Poly.from_dict(f.ring, acc)


def _buchberger(ring: PolyRing, gens):
    basis = BasisRows(g.monic() for g in gens)
    lms = [g.terms[0][1] for g in basis]
    # Bit k of done[i] is set once the pair (i, k) has been popped.
    done = [0] * len(lms)
    pairs = []
    for j, lm in enumerate(lms):
        for i in range(j):
            lcm = tuple(map(max, lms[i], lm))
            pairs.append((sum(lcm), i, j, lcm))
    heapify(pairs)
    while pairs:
        _, i, j, lcm = heappop(pairs)
        done[i] |= 1 << j
        done[j] |= 1 << i
        if not any(map(mul, lms[i], lms[j])):
            continue
        # Chain criterion: some k paired with both i and j has a lead
        # dividing the lcm; walk the common bits, lowest first.
        both = done[i] & done[j]
        while both:
            low = both & -both
            if all(map(le, lms[low.bit_length() - 1], lcm)):
                break
            both ^= low
        if both:
            continue
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero:
            continue
        r = r.monic()
        basis.append(r)
        lm = r.terms[0][1]
        t = len(lms)
        lms.append(lm)
        done.append(0)
        for k in range(t):
            lcm = tuple(map(max, lms[k], lm))
            heappush(pairs, (sum(lcm), k, t, lcm))
    return basis.polys


def _reduce_basis(ring: PolyRing, basis):
    if not basis:
        return ()
    key = ring.order.key
    ordered = sorted(basis, key=lambda g: key(g.terms[0][1]), reverse=True)
    minimal = []
    for g in ordered:
        lm = g.terms[0][1]
        if not any(mono_divides(h.terms[0][1], lm) for h in minimal):
            minimal.append(g)
    # Every tail monomial, and every monomial its reduction makes, lies
    # below the element's own lead, which its own row therefore never
    # divides: the first divisor in the shared rows is the first among
    # the other elements.  The lead is minimal, and monic from
    # _buchberger, so it survives unchanged.
    rows = BasisRows(minimal)
    reduced = []
    for g in minimal:
        tail = normal_form(Poly(ring, g.terms[1:]), rows)
        reduced.append(Poly(ring, g.terms[:1] + tail.terms))
    reduced.sort(key=lambda g: key(g.terms[0][1]))
    return tuple(reduced)


def groebner_basis(ring: PolyRing, gens) -> tuple:
    """The reduced basis of the ideal the generators span; cached."""
    gens = tuple(g for g in gens if not g.is_zero)
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generator outside the stated ring")
    return memoized(
        (ring, gens), lambda: _reduce_basis(ring, _buchberger(ring, gens)) if gens else ()
    )


def memoized(key, compute):
    """The cached result for key, from compute() and stored on a miss.

    Every result is a tuple or a bool, never None, so cached ``()`` and
    ``False`` are hits; the dict is looked up at call time, so clearing
    or replacing ``_GB_CACHE`` empties the memo.
    """
    hit = _GB_CACHE.get(key)
    if hit is None:
        hit = _GB_CACHE[key] = compute()
    return hit


def is_groebner_basis(basis) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero."""
    basis = BasisRows(g for g in basis if not g.is_zero)
    for j in range(len(basis)):
        for i in range(j):
            if not normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero:
                return False
    return True


def exact_divide(h: Poly, f: Poly) -> Poly:
    """The quotient h / f when f divides h exactly; raises otherwise."""
    if f.is_zero:
        raise BadArgumentError("division by the zero polynomial")
    ring = h.ring
    p = ring.field.p
    key = ring.order.key
    lm_f = f.terms[0][1]
    inv_lc = ring.field.inv(f.terms[0][0])
    work = {m: c for c, m in h.terms}
    quotient = {}
    while work:
        m = min(work, key=key)
        c = work[m]
        if not mono_divides(lm_f, m):
            raise BadArgumentError(f"{f} does not divide {h}")
        factor = c * inv_lc % p
        shift = mono_sub(m, lm_f)
        quotient[shift] = factor
        for cg, mg in f.terms:
            mm = mono_mul(mg, shift)
            v = (work.get(mm, 0) - factor * cg) % p
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return Poly.from_dict(ring, quotient)


def eliminate_front(aux: PolyRing, gens, ring: PolyRing, back) -> tuple:
    """The one block-elimination step: basis members free of the front.

    aux is ordered by block_elimination(k); the members of the basis of
    gens with no exponent in aux's first k variables generate the
    elimination ideal, and are carried into ring, back[i] being the index
    there of aux's i-th variable.
    """
    k = aux.order.front
    return tuple(
        transport(g, ring, back)
        for g in groebner_basis(aux, gens)
        if not any(any(m[:k]) for _, m in g.terms)
    )


def eliminate_polys(ring: PolyRing, gens, front_names) -> tuple:
    """Generators of the elimination ideal dropping the named variables.

    Permutes the named variables into the dominant block of a block
    order and takes the one elimination step back into the original ring.
    """
    if isinstance(front_names, str) or not hasattr(front_names, "__iter__"):
        raise ArgumentTypeError(f"not a sequence of variable names: {front_names!r}")
    front_idx = [ring.var_index(name) for name in front_names]
    if len(set(front_idx)) != len(front_idx):
        raise BadArgumentError("repeated variable in elimination request")
    if not front_idx:
        return groebner_basis(ring, gens)
    rest_idx = [i for i in range(ring.nvars) if i not in set(front_idx)]
    perm = front_idx + rest_idx
    positions = [0] * ring.nvars
    for new, old in enumerate(perm):
        positions[old] = new
    aux_ring = PolyRing(
        ring.field,
        tuple(ring.variables[i] for i in perm),
        MonomialOrder.block_elimination(len(front_idx)),
    )
    aux_gens = [transport(g, aux_ring, positions) for g in gens]
    return eliminate_front(aux_ring, aux_gens, ring, perm)
