import pytest

from conftest import ii, surface_avatar

from icalc import (
    Ideal,
    MonomialOrder,
    PolyRing,
    PrimeField,
    classify,
    cm_probe,
    is_regular_sequence,
    is_system_of_parameters,
    make_ring,
    normalize_sop_generators,
)
from icalc.closure import construct_ne_test_data
from icalc.errors import (
    BadDecompositionError,
    EmptyRingError,
    NeedsPrimesError,
    RedundantDecompositionError,
    RingMismatchError,
)
from icalc.rings import CM, NO_SOP_FOUND, NOT_CM


def test_make_ring_rejects_unit_quotient():
    ring = PolyRing(PrimeField(2), ("X",), MonomialOrder.grevlex())
    with pytest.raises(EmptyRingError):
        make_ring(ring, Ideal(ring, (ring.one(),)))


def test_make_ring_rejects_a_component_without_the_defining_ideal():
    ring = PolyRing(PrimeField(2), ("X", "Y", "Z"), MonomialOrder.grevlex())
    with pytest.raises(BadDecompositionError, match=r"^defining generator X\*Z escapes the component \(Y\)$"):
        make_ring(ring, ii(ring, "X*Y", "X*Z"), primes=(ii(ring, "X"), ii(ring, "Y")))


@pytest.mark.parametrize(
    "first, second",
    [(("X",), ("X", "Y")), (("X", "Y"), ("X",)), (("X",), ("X",))],
    ids=["smaller-first", "larger-first", "duplicate"],
)
def test_make_ring_rejects_nested_components(first, second):
    # over (X), a component inside another makes the list redundant;
    # the error names both components, whichever comes first
    ring = PolyRing(PrimeField(2), ("X", "Y", "Z"), MonomialOrder.grevlex())
    inner, outer = sorted((first, second), key=len)
    with pytest.raises(RedundantDecompositionError) as caught:
        make_ring(ring, ii(ring, "X"), primes=(ii(ring, *first), ii(ring, *second)))
    assert isinstance(caught.value, BadDecompositionError)
    assert str(caught.value) == f"the component {ii(ring, *inner)} lies inside {ii(ring, *outer)}"


def test_quotient_dimensions(axes, surface):
    assert axes.qring.dim == 2
    assert axes.qring.prime_dims == (2, 1)
    assert surface.qring.dim == 2
    assert surface.qring.prime_dims == (2, 1)


def test_classify_axes(axes):
    split = classify(axes.qring)
    assert not split.equidimensional
    # only the plane is absolutely minimal
    assert split.absolutely_minimal == (0,)
    assert split.top == axes.P
    assert split.low == axes.Q


def test_classify_surface(surface):
    split = classify(surface.qring)
    assert not split.equidimensional
    assert split.top == surface.P
    assert split.low == surface.Q


def test_classify_equidimensional():
    ring = PolyRing(PrimeField(2), ("X", "Y"), MonomialOrder.grevlex())
    P, Q = ii(ring, "X"), ii(ring, "Y")
    qring = make_ring(ring, P.intersect(Q), primes=(P, Q))
    split = classify(qring)
    assert split.equidimensional
    assert split.absolutely_minimal == (0, 1)


def test_classify_requires_primes(axes):
    bare = make_ring(axes.ring, axes.J)
    with pytest.raises(NeedsPrimesError):
        classify(bare)


def test_system_of_parameters(axes):
    good = is_system_of_parameters(
        axes.qring, (axes.ring.parse("Y"), axes.ring.parse("X - Z"))
    )
    assert good.is_sop
    assert good.count_matches_dim
    assert good.quotient_dim == 0

    short = is_system_of_parameters(axes.qring, (axes.ring.parse("Y"),))
    assert not short.is_sop
    assert not short.count_matches_dim

    bad = is_system_of_parameters(
        axes.qring, (axes.ring.parse("Y"), axes.ring.parse("Z"))
    )
    assert not bad.is_sop
    assert bad.quotient_dim == 1  # the X-axis survives


def test_foreign_parameters_are_a_ring_mismatch(axes):
    other = PolyRing(PrimeField(3), axes.ring.variables, axes.ring.order)
    with pytest.raises(RingMismatchError):
        is_system_of_parameters(axes.qring, (axes.ring.parse("Y"), other.parse("Z")))
    with pytest.raises(RingMismatchError):
        normalize_sop_generators(axes.ring, (axes.ring.parse("Y"), other.parse("Z")))


def test_surface_parameters(surface):
    check = is_system_of_parameters(
        surface.qring, (surface.ring.parse("Z"), surface.ring.parse("X - T"))
    )
    assert check.is_sop


def test_regular_sequence_variable_case():
    ring = PolyRing(PrimeField(3), ("X", "Y", "Z"), MonomialOrder.grevlex())
    qring = make_ring(ring, Ideal(ring, ()))
    report = is_regular_sequence(qring, (ring.parse("X"), ring.parse("Y")))
    assert report.regular
    assert report.first_failure == -1


def test_regular_sequence_detects_zerodivisor(axes):
    # Y kills X in the axes ring
    report = is_regular_sequence(
        axes.qring, (axes.ring.parse("Y"), axes.ring.parse("X - Z"))
    )
    assert not report.regular
    assert report.first_failure == 0


def test_regular_sequence_properness():
    ring = PolyRing(PrimeField(2), ("X",), MonomialOrder.grevlex())
    qring = make_ring(ring, Ideal(ring, ()))
    report = is_regular_sequence(qring, (ring.parse("X"), ring.parse("X + 1")))
    assert not report.regular
    assert not report.proper


def test_cm_probe_on_surface_components(surface):
    # the toric surface is not Cohen-Macaulay; the line is
    probe_p = cm_probe(make_ring(surface.ring, surface.P))
    assert probe_p.verdict == NOT_CM
    assert probe_p.failing_step >= 0
    probe_q = cm_probe(make_ring(surface.ring, surface.Q))
    assert probe_q.verdict == CM


def test_cm_probe_is_graded_backed_on_the_surface(surface):
    # weighted-homogeneous data keeps the verdict non-heuristic
    probe = cm_probe(make_ring(surface.ring, surface.P))
    assert not probe.heuristic


def test_cm_probe_polynomial_ring():
    ring = PolyRing(PrimeField(2), ("X", "Y"), MonomialOrder.grevlex())
    probe = cm_probe(make_ring(ring, Ideal(ring, ())))
    assert probe.verdict == CM
    assert not probe.heuristic


def test_cm_probe_dimension_zero():
    ring = PolyRing(PrimeField(2), ("X", "Y"), MonomialOrder.grevlex())
    qring = make_ring(ring, ii(ring, "X", "Y^2"))
    probe = cm_probe(qring)
    assert (probe.verdict, probe.sop, probe.report) == (CM, (), None)
    # the empty sequence is the system of parameters; nothing to test
    assert cm_probe(qring, sop=()) == probe


def test_cm_probe_without_budget_finds_no_sop():
    # neither variable alone cuts the two axes of XY = 0 down to a point
    ring = PolyRing(PrimeField(2), ("X", "Y"), MonomialOrder.grevlex())
    probe = cm_probe(make_ring(ring, ii(ring, "X*Y")), budget=0)
    assert (probe.verdict, probe.sop, probe.report) == (NO_SOP_FOUND, (), None)
    assert not probe.heuristic
    assert probe.failing_step == -1


@pytest.mark.parametrize("seed, form", [(0, "X + Y"), (2, "2*X + Y")])
def test_cm_probe_falls_back_to_seeded_linear_forms(seed, form):
    # no variable is a parameter of XY = 0, so the seeded draw picks one
    ring = PolyRing(PrimeField(3), ("X", "Y"), MonomialOrder.grevlex())
    probe = cm_probe(make_ring(ring, ii(ring, "X*Y")), seed=seed)
    assert probe.sop == (ring.parse(form),)
    assert (probe.verdict, probe.heuristic) == (CM, False)


def test_cm_probe_accepts_explicit_sop(axes):
    probe = cm_probe(axes.qring, sop=(axes.ring.parse("Y"), axes.ring.parse("X - Z")))
    assert probe.verdict == NOT_CM
    assert probe.failing_step == 0


@pytest.mark.parametrize("which", ["axes", 2, 3])
def test_bracket_power_drops_the_redundant_lift_of_j(which, axes):
    # (IR)^[q] lifts to I^[q] + J; adding J^[q], which lies inside J,
    # gives the same ideal and so the same reduced basis.
    avatar = axes if which == "axes" else surface_avatar(which)
    J = avatar.J
    I = ii(avatar.ring, "Z", "X - Y")
    for e in range(3):
        full = I.bracket_power(e) + J.bracket_power(e) + J
        assert avatar.qring.bracket_power(I, e).groebner == full.groebner


@pytest.mark.parametrize("which", ["axes", 2])
def test_ring_keeps_the_meet_of_its_primes(which, axes, monkeypatch):
    avatar = axes if which == "axes" else surface_avatar(which)
    assert avatar.qring.radical == avatar.P.intersect(avatar.Q)
    assert make_ring(avatar.ring, avatar.J).radical is None
    # With two primes the NE test data needs no intersection of its own:
    # the complement of each prime is the other one, and the full meet
    # is the ring's.
    monkeypatch.setattr(Ideal, "intersect", None)
    construct_ne_test_data(avatar.qring)
