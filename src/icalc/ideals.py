"""Ideals with a lazily cached reduced basis and the derived calculus.

An Ideal keeps its original nonzero generators, and a sum lists each
generator once; the reduced basis is computed on demand and memoized,
and all equality checks go through it.  Membership reduces against one
``BasisRows`` per ideal, built from that basis on the first test and
kept with its reduction memo for every later one.
Intersections, colons, kernels and radical membership are implemented by
the classical auxiliary-variable eliminations, which stay inside the
engine's determinism contract.  Intersections and presentation kernels
share one elimination step, ``groebner.eliminate_front``; a generator
both operands of an intersection list enters it once, untagged.  Every
meet of several ideals, colons by an ideal included, is the left fold
``meet``.  Radical membership answers a member without an elimination.
Intersections, colons and radical membership keep their results in the
one basis cache, through ``groebner.memoized``.
"""

from __future__ import annotations

import itertools
from functools import reduce

from .errors import (
    ArgumentTypeError,
    RingMismatchError,
    UnknownVariableError,
    VariableCollisionError,
    ZeroColonError,
)
from .grading import positive_grading
from .groebner import (
    BasisRows,
    eliminate_front,
    eliminate_polys,
    exact_divide,
    groebner_basis,
    memoized,
    normal_form,
)
from .monomials import MonomialOrder, mono_support
from .poly import Poly, PolyRing, frobenius_power, transport


def _aux_name(ring: PolyRing, prefix: str = "_t", taken=()) -> str:
    """The first of prefix0, prefix1, ... that is neither a variable of
    ring nor in taken."""
    i = 0
    while f"{prefix}{i}" in ring.variables or f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}"


def meet(ideals) -> "Ideal":
    """Intersection of a nonempty sequence of ideals, folded from the left."""
    return reduce(lambda acc, I: acc.intersect(I), ideals)


class Ideal:
    """A finitely generated ideal of a named polynomial ring."""

    __slots__ = ("ring", "generators", "_gb", "_rows")

    def __init__(self, ring: PolyRing, gens=()):
        for g in gens:
            if not isinstance(g, Poly):
                raise ArgumentTypeError(f"not a polynomial: {g!r}")
            if g.ring != ring:
                raise RingMismatchError(
                    f"generator {g} lives in {g.ring}, not {ring}"
                )
        self.ring = ring
        self.generators = tuple(g for g in gens if not g.is_zero)
        self._gb = None
        self._rows = None

    @property
    def groebner(self) -> tuple:
        if self._gb is None:
            self._gb = groebner_basis(self.ring, self.generators)
        return self._gb

    # -- membership and comparisons ----------------------------------------

    def _check_member(self, f):
        if not isinstance(f, Poly):
            raise ArgumentTypeError(f"not a polynomial: {f!r}")
        if f.ring != self.ring:
            raise RingMismatchError(f"{f} is not in {self.ring}")

    def contains(self, f: Poly) -> bool:
        self._check_member(f)
        if self._rows is None:
            self._rows = BasisRows(self.groebner)
        return normal_form(f, self._rows).is_zero

    def __contains__(self, f: Poly) -> bool:
        return self.contains(f)

    def first_outside(self, polys):
        """The first of polys this ideal does not contain; None when all lie in it."""
        return next((f for f in polys if not self.contains(f)), None)

    def contains_ideal(self, other: "Ideal") -> bool:
        self._check_ring(other)
        return self.first_outside(other.generators) is None

    @property
    def is_zero(self) -> bool:
        return not self.groebner

    @property
    def is_unit(self) -> bool:
        gb = self.groebner
        return bool(gb) and gb[0].is_constant()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.groebner == other.groebner

    def __hash__(self):
        return hash((self.ring, self.groebner))

    def _check_ring(self, other: "Ideal"):
        if not isinstance(other, Ideal):
            raise ArgumentTypeError(f"not an ideal: {other!r}")
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")

    def _operand(self, other) -> "Ideal":
        """other as an ideal of this ring; a polynomial is its principal ideal."""
        if isinstance(other, Poly):
            return Ideal(self.ring, (other,))
        self._check_ring(other)
        return other

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        # Each generator once: a sum with J whose other side already
        # lists some of J's generators hands the engine no copies.
        return Ideal(self.ring, tuple(dict.fromkeys(self.generators + other.generators)))

    __radd__ = __add__

    def __mul__(self, other):
        other = self._operand(other)
        return Ideal(
            self.ring,
            tuple(a * b for a in self.generators for b in other.generators),
        )

    __rmul__ = __mul__

    def intersect(self, other: "Ideal") -> "Ideal":
        """Intersection via the t / (1 - t) trick in one extra variable.

        t*g for g in self and (1 - t)*g for g in other are built directly
        in the ring (t, variables...) under block_elimination(1); the
        basis members free of t generate the meet and are carried back.
        A generator g listed by both enters once, as g itself, in self's
        order: t*g + (1 - t)*g = g, so the auxiliary ideal, its reduced
        basis and the meet are those of the fully tagged construction.
        Memoized on both generator tuples.
        """
        self._check_ring(other)
        if not self.generators or not other.generators:
            return Ideal(self.ring, ())
        ring = self.ring

        def compute():
            order = MonomialOrder.block_elimination(1)
            aux = PolyRing(ring.field, (_aux_name(ring),) + ring.variables, order)
            # (t exponent, sign) pairs of the factor each generator is tagged by
            t, one_minus_t, untagged = ((1, 1),), ((0, 1), (1, -1)), ((0, 1),)
            shared = set(self.generators).intersection(other.generators)
            tagged = [(untagged if g in shared else t, g) for g in self.generators]
            tagged += [(one_minus_t, g) for g in other.generators if g not in shared]
            mixed = [
                Poly.from_dict(aux, {(e,) + m: s * c for c, m in g.terms for e, s in factor})
                for factor, g in tagged
            ]
            return eliminate_front(aux, mixed, ring, [None, *range(ring.nvars)])

        key = ("intersect", ring, self.generators, other.generators)
        return Ideal(ring, memoized(key, compute))

    def colon(self, divisor) -> "Ideal":
        """The transporter {g : g * divisor inside self}.

        A polynomial divisor goes through intersect-then-divide; an ideal
        divisor intersects the colons of its generators.  Memoized on the
        generators and the divisor (an ideal divisor by its generators).
        """
        if isinstance(divisor, Poly):
            if divisor.is_zero:
                raise ZeroColonError("colon by the zero polynomial")
            if divisor.ring != self.ring:
                raise RingMismatchError("colon divisor from another ring")
            if not self.generators:
                return Ideal(self.ring, ())
            key = ("colon", self.ring, self.generators, divisor)

            def compute():
                inter = self.intersect(Ideal(self.ring, (divisor,)))
                return tuple(exact_divide(g, divisor) for g in inter.generators)

        elif isinstance(divisor, Ideal):
            self._check_ring(divisor)
            if not divisor.generators:
                raise ZeroColonError("colon by the zero ideal")
            key = ("colon", self.ring, self.generators, divisor.generators)

            def compute():
                return meet(self.colon(g) for g in divisor.generators).generators

        else:
            raise ArgumentTypeError(f"cannot colon by {divisor!r}")
        return Ideal(self.ring, memoized(key, compute))

    def eliminate(self, front_names) -> "Ideal":
        """Members not involving the named variables, as an ideal here."""
        return Ideal(
            self.ring, eliminate_polys(self.ring, self.generators, front_names)
        )

    def bracket_power(self, e: int) -> "Ideal":
        """The ideal of p^e-th powers of the generators.

        Independent of the chosen generators because Frobenius is a ring
        map in characteristic p.  The zero ideal is generated by 0, so
        frobenius_power checks e for it too.
        """
        gens = self.generators or (self.ring.zero(),)
        return Ideal(self.ring, tuple(frobenius_power(g, e) for g in gens))

    def radical_contains(self, f: Poly) -> bool:
        """Some power of f lands in the ideal (one extra variable trick).

        A member needs no extra variable: its first power lands.
        Memoized on the generators and f.
        """
        self._check_member(f)
        if f.is_zero:
            return True

        def compute():
            if self.contains(f):
                return True
            name = _aux_name(self.ring)
            ext = PolyRing(self.ring.field, self.ring.variables + (name,), self.ring.order)
            t = ext.var(name)
            gens = [transport(g, ext) for g in self.generators]
            gens.append(ext.one() - t * transport(f, ext))
            return Ideal(ext, gens).is_unit

        return memoized(("radical", self.ring, self.generators, f), compute)

    def dimension(self) -> int:
        """Krull dimension of the quotient by this ideal; -1 for the unit.

        Equals the largest size of a variable subset meeting no leading
        monomial's support, a statement about the initial ideal that any
        single basis settles.
        """
        if self.is_unit:
            return -1
        supports = {mono_support(g.terms[0][1]) for g in self.groebner}
        n = self.ring.nvars
        for size in range(n, 0, -1):
            for combo in itertools.combinations(range(n), size):
                chosen = frozenset(combo)
                if all(not s <= chosen for s in supports):
                    return size
        return 0

    def is_homogeneous(self) -> bool:
        """Generated by forms; decided on the reduced basis."""
        return all(g.is_homogeneous() for g in self.groebner)

    def positive_grading(self):
        """Positive variable weights under which this ideal is graded.

        Returns an integer weight tuple, or None when no positive grading
        exists.  Homogeneous ideals get all-ones; kernels of monomial
        parametrizations usually need genuinely mixed weights.
        """
        return positive_grading(self.groebner, self.ring.nvars)

    def __str__(self):
        if not self.generators:
            return "(0)"
        return "(%s)" % ", ".join(str(g) for g in self.generators)

    def __repr__(self):
        return f"Ideal{self}"


def ring_map_kernel(source_ring: PolyRing, target_ring: PolyRing, images) -> Ideal:
    """Kernel of the ring map sending each source variable to its image.

    images maps every source variable name to a polynomial in the target
    ring.  Computed from the graph ideal (v - image(v)) by eliminating
    the target variables; the result is an ideal of the source ring.
    """
    if source_ring.field != target_ring.field:
        raise RingMismatchError("source and target fields differ")
    missing = [v for v in source_ring.variables if v not in images]
    if missing:
        raise UnknownVariableError(f"no image given for {missing}")
    extra = [v for v in images if v not in source_ring.variables]
    if extra:
        raise UnknownVariableError(f"images for unknown variables {extra}")
    for v in source_ring.variables:
        img = images[v]
        if img.ring != target_ring:
            raise RingMismatchError(f"image of {v} is not in the target ring")
    # A name on both sides is tolerable only when that variable maps to
    # itself; anything else makes the name's meaning ambiguous.
    source_names = set(source_ring.variables)
    for v in source_ring.variables:
        if v in target_ring.variables and images[v] != target_ring.var(v):
            raise VariableCollisionError(
                f"source and target share the variable {v} with a "
                "non-identity image; rename one side"
            )
    taken = set(source_names)
    joint_target_names = []
    for t in target_ring.variables:
        if t in source_names:
            t = _aux_name(target_ring, "_s", taken)
            taken.add(t)
        joint_target_names.append(t)
    m = target_ring.nvars
    joint = PolyRing(
        source_ring.field,
        tuple(joint_target_names) + source_ring.variables,
        MonomialOrder.block_elimination(m),
    )
    gens = [
        joint.var(v) - transport(images[v], joint, range(m))
        for v in source_ring.variables
    ]
    back = [None] * m + list(range(source_ring.nvars))
    return Ideal(source_ring, eliminate_front(joint, gens, source_ring, back))
