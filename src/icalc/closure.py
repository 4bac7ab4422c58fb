"""Closure diagnostics for presented quotient rings.

Nothing here computes a tight or NE closure outright; no terminating
algorithm for that is known.  The module deals in four report kinds:

  1. exact lower bounds (decomposition closures),
  2. exact necessary tests with explicit witnesses,
  3. theorem verdicts with citations,
  4. bounded Frobenius evidence over a finite exponent range.

Every report names its kind, and "supported" evidence is never promoted
to a proof.
"""

from __future__ import annotations

from .errors import (
    InvalidMultiplierError,
    NilpotencyBoundError,
    NormalizationError,
    NotApplicableError,
    PreconditionError,
    RedundantDecompositionError,
    RingMismatchError,
)
from .ideals import Ideal, meet
from .poly import Poly, PolyRing, frobenius_power
from .records import Record
from .rings import (
    CM,
    QuotientRing,
    classify,
    cm_probe,
    make_ring,
    require_sop,
)

TIGHT = "tight"
NE = "ne"

NOT_CLOSED = "not_closed_certified"
INCONCLUSIVE = "inconclusive"

SUPPORTED = "supported"
REFUTED = "refuted_for_c"

# theorem citation tags, named by what the cited result does
CITE_TIGHT_DECOMPOSITION = "tight-decomposition-test"
CITE_NE_DECOMPOSITION = "ne-decomposition-test"
CITE_PARAMS_IN_P_PLUS_Q = "parameters-inside-P-plus-Q"
CITE_CM_DVR = "cm-plus-dvr-criterion"
CITE_GRADED_UNMIXED = "graded-unmixed-criterion"


def _gen_strings(ideal: Ideal):
    return [str(g) for g in ideal.generators]


def _gb_strings(ideal: Ideal):
    return [str(g) for g in ideal.groebner]


class ClosureReport(Record):
    """Outcome of one closedness diagnostic.

    For decomposition tests the certificate is the witness polynomial:
    it lies in the decomposition bound but not in the subject ideal.
    Theorem verdicts certify through the citation alone and leave the
    witness empty; the theorem precludes closedness without exhibiting
    an element of the closure difference.  No report ranges over
    exponents, so the JSON key e_range is always null.
    """

    __slots__ = ("subject", "mode", "dc_result", "status", "witness", "citations", "notes")

    def to_json_dict(self):
        out = {
            "subject": _gen_strings(self.subject),
            "mode": self.mode,
            "dc_generators": _gb_strings(self.dc_result),
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = str(self.witness)
        out["citations"] = list(self.citations)
        out["e_range"] = None
        out["notes"] = list(self.notes)
        return out


class FrobeniusCertificate(Record):
    """Bounded evidence for c*x^q lying in the bracket powers of an ideal.

    supported is evidence, not proof, of closure membership; refuted_for_c
    disproves membership only when c is a (weak) test multiplier whose
    threshold q' is at most p^e for some failing e.
    """

    __slots__ = ("subject", "x", "c", "checks", "verdict")

    def to_json_dict(self):
        return {
            "subject": _gen_strings(self.subject),
            "x": str(self.x),
            "c": str(self.c),
            "checks": [[e, held] for e, held in self.checks],
            "verdict": self.verdict,
        }


class NeTestData(Record):
    """Assembled weak NE-test multiplier and its ingredients.

    pairs holds one (c_i, d_i) per absolutely minimal prime, in the
    ring's declared prime order.
    """

    __slots__ = ("pairs", "qprime_exponent", "c", "c_in_r_bullet", "notes")

    def to_json_dict(self):
        return {
            "pairs": [[str(ci), str(di)] for ci, di in self.pairs],
            "qprime_exponent": self.qprime_exponent,
            "c": str(self.c),
            "c_in_r_bullet": self.c_in_r_bullet,
            "notes": list(self.notes),
        }


class NormalizedSop(Record):
    """Parameter generators rewritten to a pure-power lead."""

    __slots__ = ("h", "lead", "rest")


class ColonCaptureRow(Record):
    __slots__ = ("k", "colon", "in_ideal", "in_tight_bound", "in_ne_bound")


class ColonCaptureReport(Record):
    """Per-step colon diagnostics along a system of parameters."""

    __slots__ = ("sop", "rows", "notes")

    def to_json_dict(self):
        return {
            "sop": [str(z) for z in self.sop],
            "rows": [
                {
                    "k": row.k,
                    "colon_generators": _gb_strings(row.colon),
                    "in_ideal": row.in_ideal,
                    "in_tight_bound": row.in_tight_bound,
                    "in_ne_bound": row.in_ne_bound,
                }
                for row in self.rows
            ],
            "notes": list(self.notes),
        }


def _validate_subject(ring: QuotientRing, ideal: Ideal):
    if ideal.ring != ring.ambient:
        raise RingMismatchError("the subject ideal lives outside the ambient ring")


def decomposition_closure(ring: QuotientRing, ideal: Ideal, mode: str) -> Ideal:
    """Meet of the subject with each declared component, a closure lower bound.

    mode tight runs over every minimal prime, mode ne only over the
    absolutely minimal ones.  Computed in the ambient ring as the
    intersection of the ideals I + P_i.  Each declared prime contains
    the defining ideal J (the ring refuses one that does not), so
    I + P_i = I + J + P_i: the result contains J, and the eliminations
    meet no second copy of J's generators.  Idempotent and monotone; a
    lower bound for the respective closure, never the closure itself.
    """
    ring.require_primes()
    _validate_subject(ring, ideal)
    if mode not in (TIGHT, NE):
        raise PreconditionError(f"unknown closure mode {mode!r}")
    parts = [
        prime
        for prime, absmin in zip(ring.primes, ring.absolutely_minimal)
        if mode == TIGHT or absmin
    ]
    return meet(ideal + prime for prime in parts)


def closedness_necessary_test(ring: QuotientRing, ideal: Ideal, mode: str) -> ClosureReport:
    """Certify non-closedness when the decomposition bound exceeds the ideal.

    A closed ideal equals the meet of its component extensions, so any
    element of the bound outside I + J witnesses that I is not closed in
    the given mode.  The witness is the first reduced-basis element that
    fails membership, which makes reports reproducible.
    """
    dc = decomposition_closure(ring, ideal, mode)
    base = ideal + ring.defining
    citation = CITE_TIGHT_DECOMPOSITION if mode == TIGHT else CITE_NE_DECOMPOSITION
    kind = "tightly closed" if mode == TIGHT else "NE-closed"
    witness = base.first_outside(dc.groebner)
    if witness is None:
        status = INCONCLUSIVE
        notes = (
            "the decomposition bound adds nothing to the ideal; "
            "the necessary test is passed and certifies nothing further",
        )
    else:
        status = NOT_CLOSED
        notes = (
            f"the decomposition bound strictly exceeds the ideal, so the ideal is not {kind}",
        )
    return ClosureReport(
        subject=ideal,
        mode=mode,
        dc_result=dc,
        status=status,
        witness=witness,
        citations=(citation,),
        notes=notes,
    )


def theorem_contain_verdict(ring: QuotientRing, ideal: Ideal) -> ClosureReport:
    """Parameter ideals inside the sum of the two dimension blocks.

    With P the meet of the absolutely minimal primes and Q the meet of
    the lower-dimensional ones, a parameter ideal contained in P + Q is
    never tightly closed.  Containment is checked generator by
    generator; the certificate is the citation, not a witness element.
    """
    split = classify(ring)
    _validate_subject(ring, ideal)
    if split.equidimensional:
        raise NotApplicableError(
            "the containment criterion needs a non-equidimensional ring"
        )
    require_sop(ring, ideal.generators)
    pq = split.top + split.low
    outside = pq.first_outside(ideal.generators)
    dc = decomposition_closure(ring, ideal, TIGHT)
    if outside is None:
        status = NOT_CLOSED
        citations = (CITE_PARAMS_IN_P_PLUS_Q,)
        notes = (
            "every parameter lies in the sum of the two dimension blocks, "
            "so the ideal they generate is not tightly closed",
        )
    else:
        status = INCONCLUSIVE
        citations = ()
        notes = (
            f"generator {outside} is not in the block sum; "
            "the containment criterion does not apply",
        )
    return ClosureReport(
        subject=ideal,
        mode=TIGHT,
        dc_result=dc,
        status=status,
        witness=None,
        citations=citations,
        notes=notes,
    )


def _pure_monomials(f: Poly, last: int):
    """Terms of f supported on the last variable alone, constants included."""
    out = []
    for coeff, mono in f.terms:
        if all(e == 0 for e in mono[:last]):
            out.append((coeff, mono[last]))
    return out


def normalize_sop_generators(ring: PolyRing, gens) -> NormalizedSop:
    """Rewrite parameter generators so one leads with a pure power.

    The distinguished variable is the last one declared; every other
    variable spans the complement ideal Q.  The generator whose pure
    part starts lowest becomes the lead, scaled monic; pure-power terms
    of the other generators are then cleared by subtracting multiples of
    the lead, which leaves them in Q and preserves the generated ideal.

    Power-series normalization divides by unit series; that has no
    polynomial counterpart, so a lead whose pure part is not a single
    power is rejected rather than approximated.
    """
    gens = tuple(gens)
    if not gens:
        raise PreconditionError("no generators to normalize")
    original = Ideal(ring, gens)
    last = ring.nvars - 1
    best = None
    for idx, g in enumerate(gens):
        pure = _pure_monomials(g, last)
        if not pure:
            continue
        h_g = min(k for _, k in pure)
        if best is None or h_g < best[0]:
            best = (h_g, idx)
    if best is None:
        raise NormalizationError(
            "every generator lies in the subvariable ideal; "
            "no pure power of the distinguished variable leads"
        )
    h, lead_idx = best
    if h == 0:
        raise NormalizationError("a generator has a unit pure part")
    lead = gens[lead_idx]
    pure = _pure_monomials(lead, last)
    if len(pure) != 1:
        raise NormalizationError(
            "the lead generator's pure part is not a single power; "
            "clearing it needs a unit power-series division"
        )
    field = ring.field
    lead = lead * field.inv(pure[0][0])
    y = ring.var(ring.variables[last])
    rest = []
    for idx, g in enumerate(gens):
        if idx == lead_idx:
            continue
        while True:
            pure_g = _pure_monomials(g, last)
            if not pure_g:
                break
            coeff, k = min(pure_g, key=lambda ck: ck[1])
            # k >= h since h is the global minimum
            g = g - lead * (y ** (k - h)) * coeff
        if not g.is_zero:
            rest.append(g)
    rewritten = Ideal(ring, (lead,) + tuple(rest))
    if not (original.contains_ideal(rewritten) and rewritten.contains_ideal(original)):
        raise NormalizationError("internal: rewriting changed the ideal")
    return NormalizedSop(h=h, lead=lead, rest=tuple(rest))


def structural_verdict(
    ring: PolyRing,
    p_ideal: Ideal,
    sop_gens,
    unmixed_asserted: bool = False,
    seed: int = 0,
) -> ClosureReport:
    """Theorem verdict for rings presented as S/(P meet Q), Q the variable line.

    Q is the ideal of all variables but the last, so S/Q is a regular
    one-dimensional quotient.  Two criteria can certify that no
    parameter ideal of S/(P meet Q) is tightly closed: the P-component
    being Cohen-Macaulay (probed; a heuristic probe certifies nothing),
    or P being graded, unmixed (asserted by the caller, echoed here) and
    of dimension at least two with a graded parameter ideal.  Gradings
    are taken with respect to any positive integer weighting and are
    checked per ideal.
    """
    if ring.nvars < 2:
        raise NotApplicableError(
            "the split needs at least two variables: the distinguished "
            "one and the complement"
        )
    if p_ideal.ring != ring:
        raise RingMismatchError("the P-component lives outside the stated ring")
    q_ideal = Ideal(ring, tuple(ring.var(v) for v in ring.variables[:-1]))
    dim_p = p_ideal.dimension()
    if dim_p == 1:
        raise NotApplicableError(
            "both components have dimension one; the ring is equidimensional"
        )
    if dim_p < 1:
        raise NotApplicableError(
            "the P-component must have dimension at least two to sit "
            "above the complement line"
        )
    presented = make_ring(
        ring, p_ideal.intersect(q_ideal), primes=(p_ideal, q_ideal)
    )
    sop_gens = require_sop(presented, sop_gens)
    subject = Ideal(ring, sop_gens)
    dc = decomposition_closure(presented, subject, TIGHT)
    notes = [
        f"unmixedness of the P-component: {'asserted' if unmixed_asserted else 'not asserted'}"
    ]
    probe = cm_probe(make_ring(ring, p_ideal), seed=seed)
    tag = " (heuristic)" if probe.heuristic else ""
    notes.append(f"cm probe on the P-component: {probe.verdict}{tag}")
    if probe.verdict == CM and not probe.heuristic:
        status = NOT_CLOSED
        citations = (CITE_CM_DVR,)
        notes.append(
            "the P-component is Cohen-Macaulay and the complement is a "
            "regular line; no parameter ideal of the split ring is tightly closed"
        )
    else:
        p_weights = p_ideal.positive_grading()
        i_weights = subject.positive_grading()
        failed = ["the CM probe is heuristic"] if probe.verdict == CM else []
        if p_weights is None:
            failed.append("the P-component admits no positive grading")
        if not unmixed_asserted:
            failed.append("unmixedness of the P-component was not asserted")
        if i_weights is None:
            failed.append("the parameter ideal admits no positive grading")
        if failed:
            status = INCONCLUSIVE
            citations = ()
            notes.append("failed hypotheses: " + "; ".join(failed))
        else:
            status = NOT_CLOSED
            citations = (CITE_GRADED_UNMIXED,)
            notes.append(
                f"graded criterion: P-component graded by weights {p_weights}, "
                f"unmixed by assertion, dimension {dim_p}, parameter ideal "
                f"graded by weights {i_weights}; no such parameter ideal is "
                "tightly closed"
            )
    return ClosureReport(
        subject=subject,
        mode=TIGHT,
        dc_result=dc,
        status=status,
        witness=None,
        citations=citations,
        notes=tuple(notes),
    )


def bounded_frobenius_check(
    ring: QuotientRing,
    ideal: Ideal,
    x: Poly,
    c: Poly,
    e_min: int = 0,
    e_max: int = 5,
) -> FrobeniusCertificate:
    """Test c*x^q against the quotient bracket powers for q = p^e in a range.

    The quotient bracket power is I^[q] + J in the ambient ring; see
    QuotientRing.bracket_power.
    """
    _validate_subject(ring, ideal)
    if c.is_zero:
        raise InvalidMultiplierError("the multiplier c must be nonzero")
    if not 0 <= e_min <= e_max:
        raise PreconditionError("need 0 <= e_min <= e_max")
    checks = []
    for e in range(e_min, e_max + 1):
        target = ring.bracket_power(ideal, e)
        value = c * frobenius_power(x, e)
        checks.append((e, target.contains(value)))
    verdict = SUPPORTED if all(held for _, held in checks) else REFUTED
    return FrobeniusCertificate(
        subject=ideal, x=x, c=c, checks=tuple(checks), verdict=verdict
    )


def construct_ne_test_data(ring: QuotientRing, multipliers=None, cap: int = 10) -> NeTestData:
    """Assemble the weak NE-test multiplier c from the prime decomposition.

    For each absolutely minimal prime the complementary intersection
    supplies d_i (first reduced-basis generator avoiding the prime; the
    unit ideal convention covers a lone prime).  The exponent e' is the
    least one pushing every generator of the full intersection into the
    defining ideal by the Frobenius, and c is the sum of the
    (c_i d_i)-th Frobenius powers at e'.
    """
    ring.require_primes()
    primes = ring.primes
    abs_idx = [i for i, flag in enumerate(ring.absolutely_minimal) if flag]
    notes = []
    one = ring.ambient.one()
    if multipliers is None:
        cs = [one] * len(abs_idx)
        notes.append(
            "default multipliers c_i = 1; a valid choice only when each "
            "component quotient is regular, override otherwise"
        )
    else:
        cs = [
            ring.ambient.constant(c) if isinstance(c, int) else c
            for c in multipliers
        ]
        if len(cs) != len(abs_idx):
            raise PreconditionError(
                "need exactly one multiplier per absolutely minimal prime"
            )
    ds = []
    for pos, i in enumerate(abs_idx):
        if primes[i].contains(cs[pos]):
            raise InvalidMultiplierError(
                f"multiplier {cs[pos]} lies in its own component"
            )
        others = [primes[j] for j in range(len(primes)) if j != i]
        if not others:
            ds.append(one)
            continue
        d = primes[i].first_outside(meet(others).groebner)
        if d is None:
            raise RedundantDecompositionError(
                f"every generator of the complementary intersection lies in "
                f"component {i}; the decomposition is redundant"
            )
        ds.append(d)
    full = ring.radical
    e_prime = None
    for e in range(cap + 1):
        if all(ring.defining.contains(frobenius_power(n, e)) for n in full.groebner):
            e_prime = e
            break
    if e_prime is None:
        raise NilpotencyBoundError(
            f"no exponent up to {cap} pushes the radical into the defining ideal"
        )
    c = ring.ambient.zero()
    for ci, di in zip(cs, ds):
        c = c + frobenius_power(ci * di, e_prime)
    in_bullet = all(not primes[i].contains(c) for i in abs_idx)
    return NeTestData(
        pairs=tuple(zip(cs, ds)),
        qprime_exponent=e_prime,
        c=c,
        c_in_r_bullet=in_bullet,
        notes=tuple(notes),
    )


def colon_capture_report(ring: QuotientRing, sop) -> ColonCaptureReport:
    """Colon ideals along a parameter sequence against both closure bounds.

    Row k compares (x_1..x_k) : x_{k+1} with the ideal itself and with
    the tight and NE decomposition bounds.  A colon escaping the NE
    bound refutes nothing: the bound is a lower bound for the closure,
    so only containment is evidence.
    """
    sop = require_sop(ring, sop)
    rows = []
    for k in range(len(sop)):
        step_ideal = Ideal(ring.ambient, sop[:k])
        base = step_ideal + ring.defining
        colon = base.colon(sop[k])
        tight_bound = decomposition_closure(ring, step_ideal, TIGHT)
        ne_bound = decomposition_closure(ring, step_ideal, NE)
        rows.append(
            ColonCaptureRow(
                k=k,
                colon=colon,
                in_ideal=base.contains_ideal(colon),
                in_tight_bound=tight_bound.contains_ideal(colon),
                in_ne_bound=ne_bound.contains_ideal(colon),
            )
        )
    return ColonCaptureReport(
        sop=sop,
        rows=tuple(rows),
        notes=(
            "colons escaping the NE bound refute nothing; "
            "the bound only ever underestimates the closure",
        ),
    )
