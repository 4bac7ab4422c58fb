"""Buchberger engine: normal forms, reduced bases, elimination.

Determinism contract, relied on by every golden test downstream:

* pair selection is by minimal lcm total degree, ties broken by the
  lexicographic (i, j) of the generator indices, popped from a heap;
* both classical pruning criteria run (coprime leads, chain); the chain
  criterion looks for k only among the popped partners of both i and j;
* normal forms try divisors in the stored order of the reducer list,
  on the largest remaining term first: a plain heapq of (key(m), m),
  since the order key sorts the leading monomial first;
* the returned basis is the reduced one (monic, tails reduced, minimal
  leading monomials) sorted by leading monomial, largest first, which is
  canonical for the pair (ideal, order).

Results are memoized on (ring, generators) since callers recompute the
same bases constantly; the fill is idempotent, so racing writers agree.
"""

from __future__ import annotations

import heapq

from .monomials import (
    MonomialOrder,
    mono_coprime,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_sub,
)
from .poly import Poly, PolyRing, transport

_GB_CACHE = {}


def normal_form(f: Poly, reducers) -> Poly:
    """Full remainder of f modulo the reducer list.

    Every term of the result is irreducible; divisors are tried in list
    order, which pins the outcome for non-basis reducer lists too.
    """
    if not f.terms:
        return f
    ring = f.ring
    p = ring.field.p
    inv = ring.field.inv
    key = ring.order.key
    # Bases are monic, so most leads need no inverse.
    table = [
        (g.terms[0][1], lc if (lc := g.terms[0][0]) == 1 else inv(lc), g.terms)
        for g in reducers
        if g.terms
    ]
    if not table:
        return f
    work = {m: c for c, m in f.terms}
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if not c:
            continue
        for lm, inv_lc, terms in table:
            if mono_divides(lm, m):
                factor = c * inv_lc % p
                shift = mono_sub(m, lm)
                for cg, mg in terms:
                    mm = mono_mul(mg, shift)
                    v = (work.get(mm, 0) - factor * cg) % p
                    if v:
                        if mm not in work:
                            heapq.heappush(heap, (key(mm), mm))
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
            del work[m]
    return Poly.from_dict(ring, remainder)


def s_polynomial(f: Poly, g: Poly) -> Poly:
    cf, mf = f.terms[0]
    cg, mg = g.terms[0]
    field = f.ring.field
    lcm = mono_lcm(mf, mg)
    a = f.mul_term(field.inv(cf), mono_sub(lcm, mf))
    b = g.mul_term(field.inv(cg), mono_sub(lcm, mg))
    return a - b


def _buchberger(ring: PolyRing, gens):
    basis = [g.monic() for g in gens]
    lms = [g.terms[0][1] for g in basis]
    # done[i] holds every k whose pair with i has been popped.
    done = [set() for _ in basis]
    pairs = []
    for j in range(len(basis)):
        for i in range(j):
            lcm = mono_lcm(lms[i], lms[j])
            pairs.append((mono_degree(lcm), i, j, lcm))
    heapq.heapify(pairs)
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        done[i].add(j)
        done[j].add(i)
        if mono_coprime(lms[i], lms[j]):
            continue
        if any(mono_divides(lms[k], lcm) for k in done[i] & done[j]):
            continue
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero:
            continue
        r = r.monic()
        basis.append(r)
        lms.append(r.terms[0][1])
        done.append(set())
        t = len(basis) - 1
        for k in range(t):
            lcm = mono_lcm(lms[k], lms[t])
            heapq.heappush(pairs, (mono_degree(lcm), k, t, lcm))
    return basis


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
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r = normal_form(g, others)
        # lm(g) is not divisible by any other leading monomial, so it
        # survives the reduction and r cannot vanish.
        reduced.append(r.monic())
    reduced.sort(key=lambda g: key(g.terms[0][1]))
    return tuple(reduced)


def groebner_basis(ring: PolyRing, gens) -> tuple:
    """The reduced basis of the ideal the generators span; cached."""
    gens = tuple(g for g in gens if not g.is_zero)
    for g in gens:
        if g.ring != ring:
            raise ValueError("generator outside the stated ring")
    cache_key = (ring, gens)
    hit = _GB_CACHE.get(cache_key)
    if hit is not None:
        return hit
    if not gens:
        result = ()
    else:
        result = _reduce_basis(ring, _buchberger(ring, gens))
    _GB_CACHE[cache_key] = result
    return result


def is_groebner_basis(basis) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero."""
    basis = [g for g in basis if not g.is_zero]
    for j in range(len(basis)):
        for i in range(j):
            if not normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero:
                return False
    return True


def exact_divide(h: Poly, f: Poly) -> Poly:
    """The quotient h / f when f divides h exactly; raises otherwise."""
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
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
            raise ValueError(f"{f} does not divide {h}")
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


def eliminate_polys(ring: PolyRing, gens, front_names) -> tuple:
    """Generators of the elimination ideal dropping the named variables.

    Recomputes a basis under a block order with the named variables in
    the dominant block and keeps the members avoiding them.  The result
    lives back in the original ring.
    """
    front_idx = [ring.var_index(name) for name in front_names]
    if len(set(front_idx)) != len(front_idx):
        raise ValueError("repeated variable in elimination request")
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
    k = len(front_idx)
    kept = [
        g
        for g in groebner_basis(aux_ring, aux_gens)
        if all(not any(m[:k]) for _, m in g.terms)
    ]
    back = [0] * ring.nvars
    for new, old in enumerate(perm):
        back[new] = old
    return tuple(transport(g, ring, back) for g in kept)
