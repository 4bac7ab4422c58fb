"""Ideals with a lazily cached reduced basis and the derived calculus.

An Ideal keeps its original nonzero generators; the reduced basis is
computed on demand and memoized, and all equality checks go through it.
Intersections, colons, kernels and radical membership are implemented by
the classical auxiliary-variable eliminations, which stay inside the
engine's determinism contract.  Intersections and presentation kernels
share one elimination step, ``groebner.eliminate_front``; every meet of
several ideals, colons by an ideal included, is the left fold ``meet``.
"""

from __future__ import annotations

import itertools
from functools import reduce

from .errors import (
    RingMismatchError,
    UnknownVariableError,
    VariableCollisionError,
    ZeroColonError,
)
from .grading import positive_grading
from .groebner import eliminate_front, eliminate_polys, exact_divide, groebner_basis, normal_form
from .monomials import MonomialOrder, mono_support
from .poly import Poly, PolyRing, frobenius_power, transport


def _aux_name(ring: PolyRing) -> str:
    i = 0
    while f"_t{i}" in ring.variables:
        i += 1
    return f"_t{i}"


def meet(ideals) -> "Ideal":
    """Intersection of a nonempty sequence of ideals, folded from the left."""
    return reduce(lambda acc, I: acc.intersect(I), ideals)


class Ideal:
    """A finitely generated ideal of a named polynomial ring."""

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring: PolyRing, gens=()):
        for g in gens:
            if not isinstance(g, Poly):
                raise TypeError(f"not a polynomial: {g!r}")
            if g.ring != ring:
                raise RingMismatchError(
                    f"generator {g} lives in {g.ring}, not {ring}"
                )
        self.ring = ring
        self.generators = tuple(g for g in gens if not g.is_zero)
        self._gb = None

    @property
    def groebner(self) -> tuple:
        if self._gb is None:
            self._gb = groebner_basis(self.ring, self.generators)
        return self._gb

    # -- membership and comparisons ----------------------------------------

    def contains(self, f: Poly) -> bool:
        if f.ring != self.ring:
            raise RingMismatchError(f"{f} is not in {self.ring}")
        return normal_form(f, self.groebner).is_zero

    def __contains__(self, f: Poly) -> bool:
        return self.contains(f)

    def contains_ideal(self, other: "Ideal") -> bool:
        self._check_ring(other)
        return all(self.contains(g) for g in other.generators)

    @property
    def is_zero(self) -> bool:
        return not self.groebner

    @property
    def is_unit(self) -> bool:
        gb = self.groebner
        return bool(gb) and gb[0].is_constant()

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.groebner == other.groebner

    def __hash__(self):
        return hash((self.ring, self.groebner))

    def _check_ring(self, other: "Ideal"):
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Poly):
            other = Ideal(self.ring, (other,))
        if not isinstance(other, Ideal):
            return NotImplemented
        self._check_ring(other)
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = Ideal(self.ring, (other,))
        if not isinstance(other, Ideal):
            return NotImplemented
        self._check_ring(other)
        return Ideal(
            self.ring,
            tuple(a * b for a in self.generators for b in other.generators),
        )

    def intersect(self, other: "Ideal") -> "Ideal":
        """Intersection via the t / (1 - t) trick in one extra variable.

        t*g for g in self and (1 - t)*g for g in other are built directly
        in the ring (t, variables...) under block_elimination(1); the
        basis members free of t generate the meet and are carried back.
        """
        self._check_ring(other)
        if not self.generators or not other.generators:
            return Ideal(self.ring, ())
        ring = self.ring
        order = MonomialOrder.block_elimination(1)
        aux = PolyRing(ring.field, (_aux_name(ring),) + ring.variables, order)
        t, one_minus_t = ((1, 1),), ((0, 1), (1, -1))  # (t exponent, sign)
        mixed = [
            Poly.from_dict(aux, {(e,) + m: s * c for c, m in g.terms for e, s in factor})
            for factor, gens in ((t, self.generators), (one_minus_t, other.generators))
            for g in gens
        ]
        return Ideal(ring, eliminate_front(aux, mixed, ring, [None, *range(ring.nvars)]))

    def colon(self, divisor) -> "Ideal":
        """The transporter {g : g * divisor inside self}.

        A polynomial divisor goes through intersect-then-divide; an ideal
        divisor intersects the colons of its generators.
        """
        if isinstance(divisor, Poly):
            if divisor.is_zero:
                raise ZeroColonError("colon by the zero polynomial")
            if divisor.ring != self.ring:
                raise RingMismatchError("colon divisor from another ring")
            if not self.generators:
                return Ideal(self.ring, ())
            inter = self.intersect(Ideal(self.ring, (divisor,)))
            quots = tuple(exact_divide(g, divisor) for g in inter.generators)
            return Ideal(self.ring, quots)
        if isinstance(divisor, Ideal):
            self._check_ring(divisor)
            if not divisor.generators:
                raise ZeroColonError("colon by the zero ideal")
            return meet(self.colon(g) for g in divisor.generators)
        raise TypeError(f"cannot colon by {divisor!r}")

    def eliminate(self, front_names) -> "Ideal":
        """Members not involving the named variables, as an ideal here."""
        return Ideal(
            self.ring, eliminate_polys(self.ring, self.generators, front_names)
        )

    def bracket_power(self, e: int) -> "Ideal":
        """The ideal of p^e-th powers of the generators.

        Independent of the chosen generators because Frobenius is a ring
        map in characteristic p.
        """
        return Ideal(
            self.ring, tuple(frobenius_power(g, e) for g in self.generators)
        )

    def radical_contains(self, f: Poly) -> bool:
        """Some power of f lands in the ideal (one extra variable trick)."""
        if f.ring != self.ring:
            raise RingMismatchError(f"{f} is not in {self.ring}")
        if f.is_zero:
            return True
        name = _aux_name(self.ring)
        ext = PolyRing(self.ring.field, self.ring.variables + (name,), self.ring.order)
        t = ext.var(name)
        gens = [transport(g, ext) for g in self.generators]
        gens.append(ext.one() - t * transport(f, ext))
        gb = groebner_basis(ext, gens)
        return bool(gb) and gb[0].is_constant()

    def dimension(self) -> int:
        """Krull dimension of the quotient by this ideal; -1 for the unit.

        Equals the largest size of a variable subset meeting no leading
        monomial's support, a statement about the initial ideal that any
        single basis settles.
        """
        gb = self.groebner
        if gb and gb[0].is_constant():
            return -1
        supports = {mono_support(g.terms[0][1]) for g in gb}
        n = self.ring.nvars
        best = 0
        for size in range(n, 0, -1):
            for combo in itertools.combinations(range(n), size):
                chosen = frozenset(combo)
                if all(not s <= chosen for s in supports):
                    return size
        return best

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
    taken = source_names | set(target_ring.variables)
    joint_target_names = []
    counter = 0
    for t in target_ring.variables:
        if t in source_names:
            while f"_s{counter}" in taken:
                counter += 1
            name = f"_s{counter}"
            taken.add(name)
            joint_target_names.append(name)
        else:
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
