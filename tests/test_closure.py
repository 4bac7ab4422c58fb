from itertools import product

import pytest

from conftest import ii, surface_avatar

from icalc import (
    Ideal,
    MonomialOrder,
    PolyRing,
    PrimeField,
    bounded_frobenius_check,
    closedness_necessary_test,
    cm_probe,
    colon_capture_report,
    construct_ne_test_data,
    decomposition_closure,
    frobenius_power,
    make_ring,
    normalize_sop_generators,
    structural_verdict,
    theorem_contain_verdict,
)
from icalc.closure import (
    CITE_CM_DVR,
    CITE_GRADED_UNMIXED,
    CITE_NE_DECOMPOSITION,
    CITE_PARAMS_IN_P_PLUS_Q,
    INCONCLUSIVE,
    NE,
    NOT_CLOSED,
    REFUTED,
    SUPPORTED,
    TIGHT,
)
from icalc.errors import (
    InvalidMultiplierError,
    NeedsPrimesError,
    NilpotencyBoundError,
    NormalizationError,
    NotApplicableError,
    PreconditionError,
    RedundantDecompositionError,
)


def piece_dims(ideal, dmax=5):
    """Dimensions of the degree-at-most-d pieces, via standard monomials.

    Valid because grevlex is degree-compatible: the ideal piece's dimension
    is the count of non-standard monomials of degree at most d.
    """
    nvars = ideal.ring.nvars
    leads = [g.lead_monomial for g in ideal.groebner]
    dims = []
    for d in range(dmax + 1):
        count = 0
        for exps in product(range(d + 1), repeat=nvars):
            if sum(exps) > d:
                continue
            if any(all(l <= e for l, e in zip(lead, exps)) for lead in leads):
                count += 1
        dims.append(count)
    return dims


# ---------------------------------------------------------------- dc

def test_dc_axes(axes):
    zero = Ideal(axes.ring, ())
    assert decomposition_closure(axes.qring, zero, TIGHT) == axes.J
    assert decomposition_closure(axes.qring, zero, NE) == ii(axes.ring, "X")


def test_dc_maximal_ideal_is_fixed(axes):
    m = ii(axes.ring, "X", "Y", "Z")
    assert decomposition_closure(axes.qring, m, TIGHT) == m
    assert decomposition_closure(axes.qring, m, NE) == m


def test_dc_needs_primes(axes):
    bare = make_ring(axes.ring, axes.J)
    with pytest.raises(NeedsPrimesError):
        decomposition_closure(bare, Ideal(axes.ring, ()), TIGHT)


def test_dc_idempotent_and_monotone(surface):
    I = ii(surface.ring, "Z")
    D = decomposition_closure(surface.qring, I, TIGHT)
    assert decomposition_closure(surface.qring, D, TIGHT) == D
    bigger = ii(surface.ring, "Z", "X - T")
    assert decomposition_closure(surface.qring, bigger, TIGHT).contains_ideal(D)


# ------------------------------------------------- necessary tests

def test_first_outside_takes_the_first_escaping_generator(axes):
    x, y, z = axes.ring.gens()
    gens = (x * y, y, x * z, z, x)
    assert axes.J.first_outside(gens) == y
    assert axes.J.first_outside(gens[2:]) == z
    assert axes.J.first_outside((x * y, x * z, x * y * z)) is None
    assert axes.J.first_outside(()) is None


def test_closedness_axes_tight_inconclusive(axes):
    report = closedness_necessary_test(axes.qring, Ideal(axes.ring, ()), TIGHT)
    assert report.status == INCONCLUSIVE
    assert report.witness is None


def test_closedness_axes_ne_certified(axes):
    report = closedness_necessary_test(axes.qring, Ideal(axes.ring, ()), NE)
    assert report.status == NOT_CLOSED
    assert str(report.witness) == "X"
    assert CITE_NE_DECOMPOSITION in report.citations
    # witness invariants: inside the bound, outside the ideal
    assert report.witness in report.dc_result
    assert report.witness not in axes.J


def test_closedness_surface_inconclusive(surface):
    I = ii(surface.ring, "Z", "X - T")
    report = closedness_necessary_test(surface.qring, I, TIGHT)
    assert report.status == INCONCLUSIVE


def test_closure_report_json_shape(axes):
    report = closedness_necessary_test(axes.qring, Ideal(axes.ring, ()), NE)
    data = report.to_json_dict()
    assert data["status"] == NOT_CLOSED
    assert data["witness"] == "X"
    assert data["mode"] == NE
    assert isinstance(data["dc_generators"], list)
    inconclusive = closedness_necessary_test(axes.qring, Ideal(axes.ring, ()), TIGHT)
    assert "witness" not in inconclusive.to_json_dict()


# ------------------------------------------------- theorem verdicts

@pytest.fixture
def plane_line():
    ring = PolyRing(PrimeField(2), ("X", "Y1", "Y2"), MonomialOrder.grevlex())
    P, Q = ii(ring, "X"), ii(ring, "Y1", "Y2")
    return ring, make_ring(ring, P.intersect(Q), primes=(P, Q))


def test_contain_verdict_fires_when_parameters_sit_inside(plane_line):
    ring, qring = plane_line
    report = theorem_contain_verdict(qring, ii(ring, "Y1 - X", "Y2"))
    assert report.status == NOT_CLOSED
    assert report.witness is None
    assert CITE_PARAMS_IN_P_PLUS_Q in report.citations


def test_contain_verdict_inconclusive_on_surface(surface):
    I = ii(surface.ring, "Z", "X - T")
    report = theorem_contain_verdict(surface.qring, I)
    assert report.status == INCONCLUSIVE
    assert any("Z" in note for note in report.notes)


def test_contain_verdict_requires_sop(plane_line):
    ring, qring = plane_line
    with pytest.raises(PreconditionError):
        theorem_contain_verdict(qring, ii(ring, "Y1"))


@pytest.mark.parametrize(
    "call",
    [
        lambda axes: cm_probe(axes.qring, sop=(axes.ring.parse("Y"),)),
        lambda axes: theorem_contain_verdict(axes.qring, ii(axes.ring, "Y")),
        lambda axes: structural_verdict(axes.ring, ii(axes.ring, "Z"), (axes.ring.parse("Y"),)),
        lambda axes: colon_capture_report(axes.qring, (axes.ring.parse("Y"),)),
    ],
    ids=["cm_probe", "contain", "structural", "capture"],
)
def test_one_sop_message_for_every_caller(axes, call):
    with pytest.raises(PreconditionError) as err:
        call(axes)
    assert str(err.value) == "the elements are not a system of parameters of the presented ring"


def test_contain_verdict_rejects_equidimensional():
    ring = PolyRing(PrimeField(2), ("X", "Y"), MonomialOrder.grevlex())
    P, Q = ii(ring, "X"), ii(ring, "Y")
    qring = make_ring(ring, P.intersect(Q), primes=(P, Q))
    with pytest.raises(NotApplicableError):
        theorem_contain_verdict(qring, ii(ring, "X - Y"))


# ------------------------------------------------- normalization

def test_normalize_surface_parameters(surface):
    result = normalize_sop_generators(
        surface.ring, (surface.ring.parse("Z"), surface.ring.parse("X - T"))
    )
    assert result.h == 1
    assert str(result.lead) == "Z"
    assert [str(g) for g in result.rest] == ["T + X"]


def test_normalize_division_step(surface):
    gens = tuple(surface.ring.parse(t) for t in ("Z^2 + T", "Z^3", "X"))
    result = normalize_sop_generators(surface.ring, gens)
    assert result.h == 2
    assert str(result.lead) == "Z^2 + T"
    assert sorted(str(g) for g in result.rest) == ["T*Z", "X"]


def test_normalize_division_step_p3():
    ring = PolyRing(PrimeField(3), ("T", "X", "Y", "Z"), MonomialOrder.grevlex())
    gens = tuple(ring.parse(t) for t in ("Z^2 + T", "Z^3", "X"))
    result = normalize_sop_generators(ring, gens)
    # Z^3 - Z*(Z^2 + T) = -T*Z
    assert sorted(str(g) for g in result.rest) == ["2*T*Z", "X"]


def test_normalize_single_generator(surface):
    result = normalize_sop_generators(surface.ring, (surface.ring.parse("Z"),))
    assert result.h == 1
    assert result.rest == ()


def test_normalize_preserves_the_ideal(surface):
    gens = tuple(surface.ring.parse(t) for t in ("Z^2 + T", "Z^3", "X"))
    result = normalize_sop_generators(surface.ring, gens)
    assert Ideal(surface.ring, (result.lead,) + result.rest) == Ideal(
        surface.ring, gens
    )


def test_normalize_rejects_degenerate_leads(surface):
    ring = surface.ring
    with pytest.raises(NormalizationError):
        normalize_sop_generators(ring, (ring.parse("T"), ring.parse("X")))
    with pytest.raises(NormalizationError):
        normalize_sop_generators(ring, (ring.parse("Z + 1"),))
    with pytest.raises(NormalizationError):
        normalize_sop_generators(ring, (ring.parse("Z^2 + Z"),))


# ------------------------------------------------- structural verdicts

def test_structural_surface_certifies_via_grading(surface):
    report = structural_verdict(
        surface.ring,
        surface.P,
        (surface.ring.parse("Z"), surface.ring.parse("X - T")),
        unmixed_asserted=True,
    )
    assert report.status == NOT_CLOSED
    assert CITE_GRADED_UNMIXED in report.citations
    assert any("notCM" in note for note in report.notes)


def test_structural_surface_needs_the_unmixedness_assertion(surface):
    report = structural_verdict(
        surface.ring,
        surface.P,
        (surface.ring.parse("Z"), surface.ring.parse("X - T")),
        unmixed_asserted=False,
    )
    assert report.status == INCONCLUSIVE


def test_structural_cm_branch():
    ring = PolyRing(PrimeField(2), ("X1", "X2", "Y"), MonomialOrder.grevlex())
    report = structural_verdict(
        ring, ii(ring, "Y"), (ring.parse("X1 - Y"), ring.parse("X2"))
    )
    assert report.status == NOT_CLOSED
    assert CITE_CM_DVR in report.citations


def test_structural_heuristic_cm_probe_does_not_certify():
    # The component X = 1 misses the origin, the maximal ideal here, so
    # the probe on the non-graded (X - 1) is heuristic and proves nothing.
    ring = PolyRing(PrimeField(3), ("X", "Y", "Z"), MonomialOrder.grevlex())
    report = structural_verdict(ring, ii(ring, "X - 1"), (ring.parse("Y"), ring.parse("Z")))
    assert report.status == INCONCLUSIVE
    assert report.citations == ()
    assert "cm probe on the P-component: CM (heuristic)" in report.notes
    failed = report.notes[-1]
    assert failed.startswith("failed hypotheses: the CM probe is heuristic; ")
    assert "the P-component admits no positive grading" in failed


def test_structural_rejects_equidimensional_configuration():
    ring = PolyRing(PrimeField(2), ("X", "Y"), MonomialOrder.grevlex())
    with pytest.raises(NotApplicableError):
        structural_verdict(ring, ii(ring, "Y"), (ring.parse("X - Y"),))


def test_structural_requires_parameters():
    ring = PolyRing(PrimeField(2), ("X1", "X2", "Y"), MonomialOrder.grevlex())
    with pytest.raises(PreconditionError):
        structural_verdict(ring, ii(ring, "Y"), (ring.parse("X1"),))


# ------------------------------------------------- frobenius evidence

def test_frobenius_supported(axes):
    cert = bounded_frobenius_check(
        axes.qring,
        Ideal(axes.ring, ()),
        axes.ring.parse("X"),
        axes.ring.parse("Y"),
        0,
        5,
    )
    assert cert.verdict == SUPPORTED
    assert [held for _, held in cert.checks] == [True] * 6
    assert [e for e, _ in cert.checks] == list(range(6))


def test_frobenius_refuted(axes):
    cert = bounded_frobenius_check(
        axes.qring,
        Ideal(axes.ring, ()),
        axes.ring.parse("X"),
        axes.ring.parse("X + Y"),
        0,
        5,
    )
    assert cert.verdict == REFUTED
    assert [held for _, held in cert.checks] == [False] * 6


def test_frobenius_trivial_membership(axes):
    cert = bounded_frobenius_check(
        axes.qring,
        ii(axes.ring, "Y"),
        axes.ring.parse("Y"),
        axes.ring.one(),
        0,
        3,
    )
    assert cert.verdict == SUPPORTED


def test_frobenius_checks_recompute(axes):
    I = Ideal(axes.ring, ())
    x, c = axes.ring.parse("X"), axes.ring.parse("Y")
    cert = bounded_frobenius_check(axes.qring, I, x, c, 0, 3)
    for e, held in cert.checks:
        target = I.bracket_power(e) + axes.J.bracket_power(e) + axes.J
        assert target.contains(c * frobenius_power(x, e)) == held


def test_frobenius_surface_p3_e4():
    # q = 81: the target's reduced basis has 166 elements
    avatar = surface_avatar(3)
    ring = avatar.ring
    cert = bounded_frobenius_check(
        avatar.qring,
        ii(ring, "Z", "X - T"),
        ring.parse("X*Y"),
        ring.parse("T"),
        4,
        4,
    )
    assert cert.checks == ((4, True),)
    assert cert.verdict == SUPPORTED


def test_frobenius_rejects_zero_multiplier(axes):
    with pytest.raises(InvalidMultiplierError):
        bounded_frobenius_check(
            axes.qring,
            Ideal(axes.ring, ()),
            axes.ring.parse("X"),
            axes.ring.zero(),
            0,
            2,
        )


# ------------------------------------------------- NE test assembly

def test_ne_test_data_axes(axes):
    data = construct_ne_test_data(axes.qring)
    assert len(data.pairs) == 1
    c1, d1 = data.pairs[0]
    assert str(c1) == "1"
    assert str(d1) == "Y"
    assert data.qprime_exponent == 0
    assert str(data.c) == "Y"
    assert data.c_in_r_bullet
    assert any("c_i = 1" in note for note in data.notes)


def test_ne_test_data_invariants(axes):
    data = construct_ne_test_data(axes.qring)
    (c1, d1), = data.pairs
    assert d1 in axes.Q and d1 not in axes.P
    radical_gens = axes.P.intersect(axes.Q).groebner
    for n in radical_gens:
        assert frobenius_power(n, data.qprime_exponent) in axes.J
    assert data.c == frobenius_power(c1 * d1, data.qprime_exponent)


def test_ne_test_data_custom_multiplier(axes):
    data = construct_ne_test_data(axes.qring, multipliers=(axes.ring.parse("X + Y"),))
    assert str(data.c) == "X*Y + Y^2"
    assert data.c_in_r_bullet


def test_ne_test_data_rejects_bad_multipliers(axes):
    with pytest.raises(InvalidMultiplierError):
        construct_ne_test_data(axes.qring, multipliers=(axes.ring.zero(),))
    with pytest.raises(InvalidMultiplierError):
        construct_ne_test_data(axes.qring, multipliers=(axes.ring.parse("X"),))


def test_ne_test_data_single_prime_unit_convention():
    ring = PolyRing(PrimeField(2), ("X", "Y"), MonomialOrder.grevlex())
    P = ii(ring, "X")
    qring = make_ring(ring, P, primes=(P,))
    data = construct_ne_test_data(qring)
    assert str(data.pairs[0][1]) == "1"
    assert str(data.c) == "1"
    assert data.qprime_exponent == 0


def test_ne_test_data_non_reduced_exponent():
    ring = PolyRing(PrimeField(2), ("X", "Y"), MonomialOrder.grevlex())
    J = ii(ring, "X^2", "X*Y")
    qring = make_ring(ring, J, primes=(ii(ring, "X"),))
    data = construct_ne_test_data(qring)
    # X itself needs one Frobenius step to land in (X^2, XY)
    assert data.qprime_exponent == 1


def test_ne_test_data_redundant_decomposition():
    ring = PolyRing(PrimeField(2), ("X", "Y"), MonomialOrder.grevlex())
    P = ii(ring, "X")
    with pytest.raises(RedundantDecompositionError):
        construct_ne_test_data(make_ring(ring, P, primes=(P, P)))


def test_ne_test_data_nilpotency_cap():
    ring = PolyRing(PrimeField(2), ("X", "Y"), MonomialOrder.grevlex())
    J = ii(ring, "X^64")
    qring = make_ring(ring, J, primes=(ii(ring, "X"),))
    with pytest.raises(NilpotencyBoundError):
        construct_ne_test_data(qring, cap=3)


# ------------------------------------------------- colon capture

def test_capture_axes_rows(axes):
    report = colon_capture_report(
        axes.qring, (axes.ring.parse("Y"), axes.ring.parse("X - Z"))
    )
    assert [row.k for row in report.rows] == [0, 1]
    first, second = report.rows
    assert first.colon == ii(axes.ring, "X")
    assert (first.in_ideal, first.in_tight_bound, first.in_ne_bound) == (
        False,
        False,
        True,
    )
    assert (second.in_ideal, second.in_tight_bound, second.in_ne_bound) == (
        True,
        True,
        True,
    )


def test_capture_requires_sop(axes):
    with pytest.raises(PreconditionError):
        colon_capture_report(axes.qring, (axes.ring.parse("Y"),))


def test_capture_regular_sequence_is_silent():
    ring = PolyRing(PrimeField(3), ("X", "Y"), MonomialOrder.grevlex())
    qring = make_ring(ring, Ideal(ring, ()), primes=(Ideal(ring, ()),))
    report = colon_capture_report(qring, (ring.parse("X"), ring.parse("Y")))
    assert all(row.in_ideal for row in report.rows)


# ------------------------------------------------- the frozen oracle

def test_surface_colon_oracle(surface):
    """Degree-piece dimensions frozen from an independent brute-force count."""
    ring = surface.ring
    Z = ring.parse("Z")
    J_plus_Z = surface.J + ii(ring, "Z")
    P_plus_Z = surface.P + ii(ring, "Z")
    assert piece_dims(surface.J) == [0, 0, 1, 7, 24, 58]
    assert piece_dims(J_plus_Z) == [0, 1, 6, 21, 52, 104]
    assert piece_dims(P_plus_Z) == [0, 1, 6, 22, 53, 105]
    # C_0 = J : Z is J itself (Z is regular on the first step)
    assert surface.J.colon(Z) == surface.J
    # C_1 = (J + Z) : (X - T) grows to exactly P + (Z)
    C1 = J_plus_Z.colon(ring.parse("X - T"))
    assert piece_dims(C1) == [0, 1, 6, 22, 53, 105]
    assert C1 == P_plus_Z
    # the lowest-degree fresh element
    fresh = ring.parse("T^2*X")
    assert fresh in C1
    assert fresh not in J_plus_Z


def test_surface_capture_rows(surface):
    report = colon_capture_report(
        surface.qring, (surface.ring.parse("Z"), surface.ring.parse("X - T"))
    )
    first, second = report.rows
    assert (first.in_ideal, first.in_tight_bound, first.in_ne_bound) == (
        True,
        True,
        True,
    )
    assert (second.in_ideal, second.in_tight_bound, second.in_ne_bound) == (
        False,
        True,
        True,
    )
    assert second.colon == surface.P + ii(surface.ring, "Z")
