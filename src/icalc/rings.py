"""Quotients of a polynomial ring presented with their minimal primes.

Everything downstream works with ambient representatives: an ideal of
R = S/J is handled as an ideal of S containing J, and a "ring" here is
the defining ideal plus optional decomposition data.  Primality of the
declared components is the caller's assertion.  What the constructor
does verify is that each component contains J, that the components are
pairwise incomparable (no one lies inside another, so no component is
listed twice), and the radical identity rad J = intersection of the
components, which is the part the closure tests actually lean on.

The graded-local convention: the ambient ring stands in for a complete
local ring, with the irrelevant ideal as the maximal ideal.  Dimension
counts, parameter checks and depth probes all happen in that model.
"""

from __future__ import annotations

import itertools
import random

from .errors import (
    BadDecompositionError,
    EmptyRingError,
    NeedsPrimesError,
    PreconditionError,
    RedundantDecompositionError,
    RingMismatchError,
)
from .grading import is_weight_homogeneous
from .ideals import Ideal, meet
from .poly import PolyRing
from .records import Record

CM = "CM"
NOT_CM = "notCM"
NO_SOP_FOUND = "noSopFound"


class QuotientRing:
    """S/J with optional asserted minimal primes, their meet (the radical
    of J) and cached dimensions."""

    __slots__ = (
        "ambient",
        "defining",
        "primes",
        "radical",
        "prime_dims",
        "dim",
        "absolutely_minimal",
    )

    def __init__(self, ambient: PolyRing, defining: Ideal, primes=None):
        if defining.ring != ambient:
            raise RingMismatchError("defining ideal is not in the ambient ring")
        if defining.is_unit:
            raise EmptyRingError("quotient by the unit ideal is the zero ring")
        self.ambient = ambient
        self.defining = defining
        if primes is None:
            self.primes = None
            self.radical = None
            self.prime_dims = None
            self.dim = defining.dimension()
            self.absolutely_minimal = None
            return
        primes = tuple(primes)
        if not primes:
            raise BadDecompositionError("an empty component list is not allowed")
        for P in primes:
            if P.ring != ambient:
                raise RingMismatchError("component outside the ambient ring")
            if P.is_unit:
                raise BadDecompositionError("the unit ideal is not a component")
            g = P.first_outside(defining.generators)
            if g is not None:
                raise BadDecompositionError(f"defining generator {g} escapes the component {P}")
        for P, Q in itertools.permutations(primes, 2):
            if Q.first_outside(P.generators) is None:
                raise RedundantDecompositionError(f"the component {P} lies inside {Q}")
        radical = meet(primes)
        for g in radical.generators:
            if not defining.radical_contains(g):
                raise BadDecompositionError(
                    f"component intersection generator {g} is not nilpotent "
                    "modulo the defining ideal"
                )
        self.primes = primes
        self.radical = radical
        self.prime_dims = tuple(P.dimension() for P in primes)
        self.dim = max(self.prime_dims)
        self.absolutely_minimal = tuple(d == self.dim for d in self.prime_dims)

    def bracket_power(self, I: Ideal, e: int) -> Ideal:
        """Ambient I^[q] + J (q = p^e) for (IR)^[q]; J^[q] lies inside J."""
        return I.bracket_power(e) + self.defining

    def require_primes(self):
        if self.primes is None:
            raise NeedsPrimesError(
                "this operation needs the ring presented with its minimal primes"
            )

    def __str__(self):
        tail = "" if self.primes is None else f" with {len(self.primes)} primes"
        return f"{self.ambient} / {self.defining}{tail}"


def make_ring(ambient: PolyRing, defining: Ideal, primes=None) -> QuotientRing:
    """Validated constructor; see QuotientRing for the checks performed."""
    return QuotientRing(ambient, defining, primes)


class Classification(Record):
    """Split of the declared components by quotient dimension.

    top is the intersection of the components of maximal dimension (the
    absolutely minimal ones); low the intersection of the rest, the unit
    ideal when there are none.
    """

    __slots__ = ("equidimensional", "absolutely_minimal", "top", "low")


def classify(ring: QuotientRing) -> Classification:
    ring.require_primes()
    abs_idx = tuple(
        i for i, flag in enumerate(ring.absolutely_minimal) if flag
    )
    rest_idx = tuple(
        i for i, flag in enumerate(ring.absolutely_minimal) if not flag
    )
    top = meet(ring.primes[i] for i in abs_idx)
    if rest_idx:
        low = meet(ring.primes[i] for i in rest_idx)
    else:
        low = Ideal(ring.ambient, (ring.ambient.one(),))
    return Classification(
        equidimensional=not rest_idx,
        absolutely_minimal=abs_idx,
        top=top,
        low=low,
    )


class SopCheck(Record):
    """Outcome of a system-of-parameters test."""

    __slots__ = ("elements", "count_matches_dim", "quotient_dim", "is_sop")


def is_system_of_parameters(ring: QuotientRing, elements) -> SopCheck:
    """True when the count equals dim R and the joint quotient is finite.

    Invariant under permutation and unit scaling of the elements, since
    both leave the generated ideal alone.
    """
    elements = tuple(elements)
    count_ok = len(elements) == ring.dim
    qdim = (ring.defining + Ideal(ring.ambient, elements)).dimension()
    return SopCheck(
        elements=elements,
        count_matches_dim=count_ok,
        quotient_dim=qdim,
        is_sop=count_ok and qdim == 0,
    )


def require_sop(ring: QuotientRing, elements) -> tuple:
    """The elements as a tuple; PreconditionError unless they are a
    system of parameters of the presented ring."""
    check = is_system_of_parameters(ring, elements)
    if not check.is_sop:
        raise PreconditionError(
            "the elements are not a system of parameters of the presented ring"
        )
    return check.elements


class RegSeqReport(Record):
    """Step-by-step regularity record for a candidate sequence."""

    # first_failure is the index of the first bad step, -1 when none
    __slots__ = ("elements", "steps", "proper", "first_failure")

    @property
    def regular(self) -> bool:
        return self.proper and all(self.steps)


def is_regular_sequence(ring: QuotientRing, elements) -> RegSeqReport:
    """Check each z_k against the colon criterion in the ambient ring.

    Step k passes when (J + (z_1..z_{k-1})) : z_k adds nothing, and the
    whole sequence additionally needs J + (z_1..z_n) proper.
    """
    elements = tuple(elements)
    if not elements:
        raise PreconditionError("a regular sequence needs at least one element")
    steps = []
    base = ring.defining
    for z in elements:
        # The constructor rejects an element outside the ambient ring.
        grown = base + Ideal(ring.ambient, (z,))
        steps.append(not z.is_zero and base.contains_ideal(base.colon(z)))
        base = grown
    proper = not base.is_unit
    failures = [i for i, ok in enumerate(steps) if not ok]
    return RegSeqReport(
        elements=elements,
        steps=tuple(steps),
        proper=proper,
        first_failure=failures[0] if failures else -1,
    )


class CmProbeResult(Record):
    """Depth probe verdict: CM, notCM, or noSopFound.

    The graded criterion (one homogeneous system of parameters regular
    iff all are) backs the verdict when the defining ideal and the probe
    elements are homogeneous; otherwise heuristic is set and the verdict
    only reports the sampled sequence.
    """

    __slots__ = ("verdict", "sop", "heuristic", "report")  # report: RegSeqReport or None

    @property
    def failing_step(self) -> int:
        if self.report is None:
            return -1
        return self.report.first_failure


def _linear_candidates(ring: PolyRing, dim: int, seed: int, budget: int):
    """Variables first, then seeded random homogeneous linear forms."""
    gens = ring.gens()
    for combo in itertools.combinations(gens, dim):
        yield combo
    rng = random.Random(seed)
    p = ring.field.p
    for _ in range(budget):
        combo = []
        for _ in range(dim):
            form = ring.zero()
            while form.is_zero:
                form = sum(
                    (ring.var(v) * rng.randrange(p) for v in ring.variables),
                    ring.zero(),
                )
            combo.append(form)
        yield tuple(combo)


def cm_probe(ring: QuotientRing, sop=None, seed: int = 0, budget: int = 64) -> CmProbeResult:
    """Decide Cohen-Macaulayness by testing one system of parameters.

    With no sop given the search is deterministic: all variable subsets
    of the right size in declaration order, then `budget` random linear
    combinations from the seeded generator.  Exhausting the budget gives
    the explicit noSopFound verdict rather than a silent guess.
    """
    weights = ring.defining.positive_grading()
    if sop is not None:
        chosen = require_sop(ring, sop)
    elif ring.dim == 0:
        chosen = ()
    else:
        candidates = _linear_candidates(ring.ambient, ring.dim, seed, budget)
        chosen = next((c for c in candidates if is_system_of_parameters(ring, c).is_sop), None)
    report = None
    if chosen is None:
        verdict, chosen = NO_SOP_FOUND, ()
    elif not chosen:  # dimension zero: CM, with nothing to test
        verdict = CM
    else:
        report = is_regular_sequence(ring, chosen)
        verdict = CM if report.regular else NOT_CM
    heuristic = weights is None or not all(is_weight_homogeneous(z, weights) for z in chosen)
    return CmProbeResult(verdict=verdict, sop=chosen, heuristic=heuristic, report=report)
