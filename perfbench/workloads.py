"""The four benchmark workloads: seeded inputs, one call per op, output checks.

Each workload hands out its ops in rounds.  A round is a short op list
drawn from the seed and the round number, balanced so that every round
holds the same mix of op kinds; a run's op list is made of whole
rounds.  The program under test receives only the ideals and scripts
generated here.

A workload object is built once per run.  ``prepare`` is called again
after every fresh import of icalc (it builds the inputs shared across
ops and is timed as set-up), so ops always use the objects of the last
import.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def basis_cache(ic):
    """The process-wide memo of reduced bases.

    The only access to icalc's private state: "cold" means this dict is
    emptied, and the tracer reads its size to tell hits from misses.
    """
    return ic.groebner._GB_CACHE


def _is_groebner_with(ic, basis, members):
    """None when basis passes the Buchberger criterion and holds every member."""
    if not ic.is_groebner_basis(basis):
        return "not a Groebner basis"
    for f in members:
        if not ic.normal_form(f, basis).is_zero:
            return f"{f} does not reduce to zero"
    return None


class Workload:
    name = ""
    cold = True  # empty the basis cache before every op; else once per round
    round_s = 1.0  # op time of one round at the seed commit; sizes the op list

    def __init__(self, seed: int):
        self.seed = seed
        self.ic = None

    def rng(self, *parts) -> random.Random:
        return random.Random("/".join(str(p) for p in (self.name, self.seed) + parts))

    def prepare(self, ic) -> None:
        self.ic = ic

    def round_ops(self, r: int) -> list:
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, out):
        """None when out is the correct answer for op, else a message."""
        raise NotImplementedError


# ---------------------------------------------------------------- scenarios


class Scenarios(Workload):
    """The built-in scenarios through parse_script -> run_script -> to_json."""

    name = "scenarios"
    round_s = 0.2

    def __init__(self, seed):
        super().__init__(seed)
        folder = DATA / "scenarios"
        self.names = sorted(p.stem for p in folder.glob("*.icl"))
        self.scripts = {n: (folder / f"{n}.icl").read_text() for n in self.names}
        self.reference = {n: (folder / f"{n}.json").read_bytes() for n in self.names}

    def round_ops(self, r):
        names = list(self.names)
        self.rng(r).shuffle(names)
        return names

    def execute(self, name):
        ic = self.ic
        script = ic.parse_script(self.scripts[name])
        return ic.run_script(script, ic.RunOptions(), scenario=name).to_json()

    def check(self, name, out):
        if out.encode() != self.reference[name]:
            return f"{name}: JSON report differs from the reference"
        return None


# ---------------------------------------------------------------- frobenius

SURFACE_VARS = ("T", "X", "Y", "Z")
SURFACE_P = ("T*Y - X*Z", "T^2*X - Z^2", "T*X^2 - Y*Z", "X^3 - Y^2")
SURFACE_Q = ("T", "X", "Y")
# The largest e per p; p=3, e=4 alone takes about 11 s and is left out.
FROBENIUS_EMAX = {2: 5, 3: 3, 5: 2}
X_POOL = ("X*Y", "X", "Y", "X*Z")
C_POOL = ("1", "T", "X", "T*Y")


def frobenius_key(p, a, b, e):
    return f"{p}:{a}:{b}:{e}"


class Frobenius(Workload):
    """bounded_frobenius_check(R, (Z - aT, X - bT), x, c, e, e) on the surface ring.

    A round runs the ladder e = 0..emax(p) for (0, 0) and for the next
    two entries (one when p = 2) of a seeded cycle through each of the
    classes a = 0 < b, b = 0 < a and 0 < a, b: 4 pairs for p = 2 and 7
    for p = 3, 5.  The top-e cost depends strongly on the class, so
    every round holding the same number of pairs of each keeps the
    round cost about the same whatever the seed.
    """

    name = "frobenius"
    round_s = 7.5

    def __init__(self, seed):
        super().__init__(seed)
        self.reference = json.loads((DATA / "frobenius.json").read_text())
        self.cycles = {}
        for p in FROBENIUS_EMAX:
            nonzero = range(1, p)
            classes = ([(0, b) for b in nonzero], [(a, 0) for a in nonzero],
                       [(a, b) for a in nonzero for b in nonzero])
            for i, pairs in enumerate(classes):
                self.rng("pairs", p, i).shuffle(pairs)
            self.cycles[p] = classes

    def round_ops(self, r):
        rng = self.rng(r)
        ops = []
        for p, emax in FROBENIUS_EMAX.items():
            pairs = [(0, 0)]
            for cycle in self.cycles[p]:
                take = min(2, len(cycle))
                pairs += [cycle[(take * r + k) % len(cycle)] for k in range(take)]
            for a, b in pairs:
                for e in range(emax + 1):
                    ops.append((p, a, b, e, rng.randrange(len(X_POOL)), rng.randrange(len(C_POOL))))
        rng.shuffle(ops)
        return [op + (frobenius_subject(self.ic, self.surfaces[op[0]][0], *op[1:3]),) for op in ops]

    def prepare(self, ic):
        super().prepare(ic)
        self.surfaces = {p: surface_ring(ic, p) for p in FROBENIUS_EMAX}

    def execute(self, op):
        p, _, _, e, xi, ci, ideal = op
        _, qring, xs, cs = self.surfaces[p]
        return self.ic.bounded_frobenius_check(qring, ideal, xs[xi], cs[ci], e, e)

    def check(self, op, out):
        p, a, b, e, xi, ci, _ = op
        held = self.reference[frobenius_key(p, a, b, e)][xi * len(C_POOL) + ci] == "1"
        verdict = self.ic.closure.SUPPORTED if held else self.ic.closure.REFUTED
        if out.checks != ((e, held),) or out.verdict != verdict:
            return f"p={p} a={a} b={b} e={e} x={X_POOL[xi]} c={C_POOL[ci]}: expected {held}"
        return None


def frobenius_subject(ic, ring, a, b):
    """The ideal (Z - aT, X - bT) of the surface's ambient ring."""
    t = (1, 0, 0, 0)
    gens = (ring.var("Z") + ring.monomial(-a, t), ring.var("X") + ring.monomial(-b, t))
    return ic.Ideal(ring, gens)


def surface_ring(ic, p):
    """(ring, F_p[T,X,Y,Z]/(P meet Q) with its primes, x pool, c pool)."""
    ring = ic.PolyRing(ic.PrimeField(p), SURFACE_VARS, ic.MonomialOrder.grevlex())
    P = ic.Ideal(ring, tuple(ring.parse(t) for t in SURFACE_P))
    Q = ic.Ideal(ring, tuple(ring.parse(t) for t in SURFACE_Q))
    qring = ic.make_ring(ring, P.intersect(Q), primes=(P, Q))
    xs = tuple(ring.parse(t) for t in X_POOL)
    cs = tuple(ring.parse(t) for t in C_POOL)
    return ring, qring, xs, cs


# ---------------------------------------------------------------- classic

CLASSIC_P = 32003
CLASSIC_SYSTEMS = ("cyclic-4", "katsura-3", "katsura-4", "cyclic-5")
# katsura-4 four times and cyclic-5 twice, so that the median op lies in
# the middle of katsura-4's cost band, not on its edge with katsura-3
# (5 ms against 20 to 40 ms), and the 90th percentile inside cyclic-5's.
CLASSIC_ROUND = ("cyclic-4", "katsura-3") + ("katsura-4",) * 4 + ("cyclic-5",) * 2


def classic_system(ic, name):
    """(ring, generators) of cyclic-n or katsura-n over F_32003, grevlex."""
    family, n = name.split("-")
    n = int(n)
    nvars = n if family == "cyclic" else n + 1
    ring = ic.PolyRing(
        ic.PrimeField(CLASSIC_P),
        tuple(f"x{i}" for i in range(nvars)),
        ic.MonomialOrder.grevlex(),
    )
    v = ring.gens()
    if family == "cyclic":
        polys = []
        for d in range(1, n):
            s = ring.zero()
            for i in range(n):
                term = ring.one()
                for k in range(d):
                    term = term * v[(i + k) % n]
                s = s + term
            polys.append(s)
        prod = ring.one()
        for x in v:
            prod = prod * x
        polys.append(prod - ring.one())
        return ring, polys

    def u(i):
        return v[abs(i)] if abs(i) <= n else ring.zero()

    polys = [sum((u(i) for i in range(-n, n + 1)), ring.zero()) - ring.one()]
    for m in range(n):
        s = ring.zero()
        for i in range(-n, n + 1):
            s = s + u(i) * u(m - i)
        polys.append(s - u(m))
    return ring, polys


def scale(ic, f, factors):
    """f(s_1 x_1, ..., s_n x_n) for the given nonzero factors s_i."""
    p = f.ring.field.p
    coeffs = {}
    for c, m in f.terms:
        for s, k in zip(factors, m):
            c = c * pow(s, k, p) % p
        coeffs[m] = c
    return ic.Poly.from_dict(f.ring, coeffs)


def basis_digest(basis) -> str:
    return hashlib.sha256("\n".join(str(g) for g in basis).encode()).hexdigest()


def perm_key(perm) -> str:
    return ",".join(map(str, perm))


class Classic(Workload):
    """groebner_basis of cyclic-4, katsura-3, katsura-4 and cyclic-5, cold.

    Each op renames the variables by the next permutation of a seeded
    cycle through all of them (the cost depends on the permutation, by
    up to 2x) and scales them by fresh nonzero factors.  The answer is unscaled and
    compared with the recorded digest of the reduced basis for that
    permutation; the first answer per system in a run is also put
    through the Buchberger criterion.
    """

    name = "classic"
    round_s = 0.36

    def __init__(self, seed):
        super().__init__(seed)
        self.reference = json.loads((DATA / "classic.json").read_text())
        self.structurally_checked = set()
        self.cycles = {}
        for name in CLASSIC_SYSTEMS:
            # every permutation, as the reference lists them
            perms = [tuple(map(int, key.split(","))) for key in self.reference[name]]
            self.rng("perms", name).shuffle(perms)
            self.cycles[name] = perms

    def prepare(self, ic):
        super().prepare(ic)
        self.systems = {name: classic_system(ic, name) for name in CLASSIC_SYSTEMS}

    def round_ops(self, r):
        rng = self.rng(r)
        names = list(CLASSIC_ROUND)
        rng.shuffle(names)
        ops = []
        for k, name in enumerate(names):
            ring, polys = self.systems[name]
            cycle = self.cycles[name]
            perm = cycle[(r * CLASSIC_ROUND.count(name) + names[:k].count(name)) % len(cycle)]
            factors = tuple(rng.randrange(1, CLASSIC_P) for _ in range(ring.nvars))
            gens = tuple(
                scale(self.ic, self.ic.poly.transport(f, ring, perm), factors)
                for f in polys
            )
            ops.append((name, perm, factors, gens))
        return ops

    def execute(self, op):
        name, _, _, gens = op
        return self.ic.groebner_basis(self.systems[name][0], gens)

    def check(self, op, out):
        name, perm, factors, gens = op
        p = CLASSIC_P
        inverse = tuple(pow(s, p - 2, p) for s in factors)
        unscaled = [scale(self.ic, g, inverse).monic() for g in out]
        if basis_digest(unscaled) != self.reference[name][perm_key(perm)]:
            return f"{name} permuted by {perm}: basis differs from the reference"
        if name not in self.structurally_checked:
            self.structurally_checked.add(name)
            problem = _is_groebner_with(self.ic, out, gens)
            if problem:
                return f"{name} permuted by {perm}: {problem}"
        return None


# ---------------------------------------------------------------- smallideals

SMALL_VARS = ("X", "Y", "Z", "W")
SMALL_KINDS = ("basis", "intersect", "colon", "bracket", "dimension", "dc")
SMALL_DISTINCT = 600  # distinct problems per round
SMALL_OPS = 1200  # ops per round, drawn from those problems


def _minimal(monos):
    """The minimal generators of the monomial ideal the exponent tuples span."""
    monos = sorted(set(monos), key=sum)
    kept = []
    for m in monos:
        if not any(all(x <= y for x, y in zip(k, m)) for k in kept):
            kept.append(m)
    return kept


def _meet(a, b):
    return _minimal(tuple(max(x, y) for x, y in zip(m, n)) for m in a for n in b)


def monomial_oracle(kind, a, b):
    """Minimal generators of (a) meet (b) or (a) : (b), by lcm and gcd rules only."""
    if kind == "intersect":
        return _meet(a, b)
    acc = None
    for n in b:
        step = _minimal(tuple(x - min(x, y) for x, y in zip(m, n)) for m in a)
        acc = step if acc is None else _meet(acc, step)
    return acc


def krull_dimension(nvars, lead_monomials):
    """Largest variable set meeting no leading monomial's support; -1 for (1)."""
    supports = [frozenset(i for i, x in enumerate(m) if x) for m in lead_monomials]
    if any(not s for s in supports):
        return -1
    best = 0
    for mask in range(1 << nvars):
        chosen = frozenset(i for i in range(nvars) if mask >> i & 1)
        if not any(s <= chosen for s in supports):
            best = max(best, len(chosen))
    return best


class SmallIdeals(Workload):
    """A seeded stream of tiny problems from the property suites' distribution.

    At most 4 variables, degree at most 3, p in {2, 3}.  A round draws
    SMALL_OPS ops from SMALL_DISTINCT fresh problems, so repeated
    problems and shared sub-computations hit the basis cache.  The cache
    is emptied at the start of each round (not only at run start), so
    the hit ratio, the cache size and peak memory do not depend on how
    many rounds fit into a run.
    """

    name = "smallideals"
    cold = False
    round_s = 0.55

    def round_ops(self, r):
        rng = self.rng(r)
        problems = [self._problem(rng, SMALL_KINDS[i % len(SMALL_KINDS)]) for i in range(SMALL_DISTINCT)]
        return [rng.choice(problems) for _ in range(SMALL_OPS)]

    def _ring(self, rng, min_vars=1):
        ic = self.ic
        p = rng.choice((2, 3))
        nvars = rng.randint(min_vars, 4)
        return ic.PolyRing(ic.PrimeField(p), SMALL_VARS[:nvars], ic.MonomialOrder.grevlex())

    @staticmethod
    def _monomial(rng, ring):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(ring.nvars)] += 1
        return tuple(exps)

    def _polys(self, rng, ring, max_polys=3):
        p = ring.field.p
        polys = []
        for _ in range(rng.randint(1, max_polys)):
            f = ring.zero()
            for _ in range(rng.randint(1, 3)):
                f = f + ring.monomial(rng.randint(1, p - 1), self._monomial(rng, ring))
            if not f.is_zero:
                polys.append(f)
        return tuple(polys)

    def _problem(self, rng, kind):
        if kind in ("intersect", "colon"):
            ring = self._ring(rng)
            a = tuple(self._monomial(rng, ring) for _ in range(rng.randint(1, 3)))
            b = tuple(self._monomial(rng, ring) for _ in range(rng.randint(1, 3)))
            return kind, ring, (a, b)
        if kind == "dc":
            ring = self._ring(rng, min_vars=2)
            names = list(ring.variables)
            rng.shuffle(names)
            cut = rng.randint(1, len(names) - 1)
            split = (sorted(names[:cut]), sorted(names[cut:]))
            mode = rng.choice(("tight", "ne"))
            return kind, ring, (split, self._polys(rng, ring, max_polys=2), mode)
        ring = self._ring(rng)
        gens = self._polys(rng, ring)
        if kind == "bracket":
            return kind, ring, (gens, rng.randint(1, 2))
        return kind, ring, gens

    def execute(self, op):
        ic = self.ic
        kind, ring, args = op
        if kind == "basis":
            return ic.groebner_basis(ring, args)
        if kind in ("intersect", "colon"):
            a, b = (ic.Ideal(ring, tuple(ring.monomial(1, m) for m in side)) for side in args)
            return a.intersect(b) if kind == "intersect" else a.colon(b)
        if kind == "bracket":
            gens, e = args
            return ic.Ideal(ring, gens).bracket_power(e).groebner
        if kind == "dimension":
            ideal = ic.Ideal(ring, args)
            return ideal.dimension(), ideal
        (left, right), gens, mode = args
        P1 = ic.Ideal(ring, tuple(ring.var(v) for v in left))
        P2 = ic.Ideal(ring, tuple(ring.var(v) for v in right))
        qring = ic.make_ring(ring, P1.intersect(P2), primes=(P1, P2))
        bound = ic.decomposition_closure(qring, ic.Ideal(ring, gens), mode)
        bound.groebner
        return bound

    def check(self, op, out):
        ic = self.ic
        kind, ring, args = op
        if kind == "basis":
            problem = _is_groebner_with(ic, out, args)
        elif kind in ("intersect", "colon"):
            problem = self._check_monomial(kind, ring, args, out)
        elif kind == "bracket":
            gens, e = args
            q = ring.field.p ** e
            problem = _is_groebner_with(ic, out, [g**q for g in gens])
        elif kind == "dimension":
            dim, ideal = out
            problem = _is_groebner_with(ic, ideal.groebner, args)
            expected = krull_dimension(ring.nvars, [g.terms[0][1] for g in ideal.groebner])
            if problem is None and dim != expected:
                problem = f"dimension {dim}, expected {expected}"
        else:
            problem = _is_groebner_with(ic, out.groebner, out.generators)
        return None if problem is None else f"{kind} in {ring}: {problem}"

    def _check_monomial(self, kind, ring, args, out):
        # out equals the oracle ideal when its generators form a Groebner
        # basis holding every oracle monomial and each of their terms is a
        # multiple of an oracle monomial.
        oracle = monomial_oracle(kind, *args)
        gens = out.generators
        for g in gens:
            for _, m in g.terms:
                if not any(all(x <= y for x, y in zip(k, m)) for k in oracle):
                    return f"{g} is outside the oracle ideal"
        return _is_groebner_with(self.ic, gens, [ring.monomial(1, m) for m in oracle])


WORKLOADS = {w.name: w for w in (Scenarios, Frobenius, SmallIdeals, Classic)}
