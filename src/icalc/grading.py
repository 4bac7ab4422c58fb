"""Positive gradings making a set of polynomials homogeneous.

A weight vector w (one positive integer per variable) grades a
polynomial when every term has the same weighted degree.  Standard
homogeneity is the all-ones case; kernels of monomial parametrizations
are typically graded only under non-trivial weights.

Deciding whether any positive w exists is exact linear feasibility:
the term differences of each polynomial span the constraints w . d = 0,
and we need a strictly positive solution.  The solver parameterizes the
rational kernel by Gaussian elimination and runs Fourier-Motzkin on the
componentwise bound w >= 1, which is small enough here (variable counts
stay in single digits) and yields a concrete witness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _difference_rows(polys):
    rows = []
    for f in polys:
        if len(f.terms) < 2:
            continue
        _, first = f.terms[0]
        for _, m in f.terms[1:]:
            rows.append(tuple(a - b for a, b in zip(first, m)))
    return rows


def _kernel_basis(rows, n):
    """Columns of a matrix parameterizing {w : rows . w = 0} over Q.

    Returns a list of n rows, each of length k (the kernel dimension);
    the solution set is exactly {N u : u in Q^k}.
    """
    matrix = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, len(matrix)):
            if matrix[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = matrix[r][col]
        matrix[r] = [x / inv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][col]:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(col)
        r += 1
        if r == len(matrix):
            break
    free = [c for c in range(n) if c not in pivots]
    basis_rows = [[Fraction(0)] * len(free) for _ in range(n)]
    for j, c in enumerate(free):
        basis_rows[c][j] = Fraction(1)
        for i, pc in enumerate(pivots):
            basis_rows[pc][j] -= matrix[i][c]
    return basis_rows, len(free)


def _fourier_motzkin(rows):
    """Feasibility witness for {u : a . u >= b for each (a, b)} or None."""
    if not rows:
        return ()
    k = len(rows[0][0])
    if k == 0:
        return () if all(b <= 0 for _, b in rows) else None
    lowers, uppers, passed = [], [], []
    for a, b in rows:
        c = a[-1]
        rest = a[:-1]
        if c > 0:
            # u_k >= (b - rest . u') / c
            lowers.append(([x / c for x in rest], b / c))
        elif c < 0:
            uppers.append(([x / c for x in rest], b / c))
        else:
            passed.append((rest, b))
    combined = list(passed)
    for lo_rest, lo_b in lowers:
        for up_rest, up_b in uppers:
            # lower bound <= upper bound
            a = tuple(u - l for l, u in zip(lo_rest, up_rest))
            combined.append((a, lo_b - up_b))
    sub = _fourier_motzkin(combined)
    if sub is None:
        return None
    value = None
    if lowers:
        value = max(b - sum(x * u for x, u in zip(rest, sub)) for rest, b in lowers)
    elif uppers:
        value = min(b - sum(x * u for x, u in zip(rest, sub)) for rest, b in uppers)
    else:
        value = Fraction(0)
    return sub + (value,)


def positive_grading(polys, nvars: int):
    """A positive integer weight tuple grading every polynomial, or None."""
    polys = [f for f in polys if not f.is_zero]
    if all(f.is_homogeneous() for f in polys):
        return (1,) * nvars
    rows = _difference_rows(polys)
    basis_rows, k = _kernel_basis(rows, nvars)
    if k == 0:
        return None
    constraints = [(tuple(row), Fraction(1)) for row in basis_rows]
    u = _fourier_motzkin(constraints)
    if u is None:
        return None
    w = [sum(x * v for x, v in zip(row, u)) for row in basis_rows]
    denom = lcm(*(x.denominator for x in w))
    ints = [int(x * denom) for x in w]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def weighted_degree(mono, weights) -> int:
    return sum(e * w for e, w in zip(mono, weights))


def is_weight_homogeneous(f, weights) -> bool:
    if f.is_zero:
        return True
    degs = {weighted_degree(m, weights) for _, m in f.terms}
    return len(degs) == 1
