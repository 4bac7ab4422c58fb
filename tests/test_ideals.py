import pytest

from conftest import ii, surface_avatar

from icalc import Ideal, MonomialOrder, PolyRing, PrimeField, ring_map_kernel
from icalc.ideals import _aux_name, meet
from icalc.errors import (
    RingMismatchError,
    UnknownVariableError,
    VariableCollisionError,
    ZeroColonError,
)


@pytest.fixture
def ring():
    return PolyRing(PrimeField(2), ("X", "Y", "Z"), MonomialOrder.grevlex())


def test_membership_and_equality(ring):
    I = ii(ring, "X*Y", "X*Z")
    assert ring.parse("X*Y + X*Z") in I
    assert ring.parse("X*Y*Z") in I
    assert ring.parse("X") not in I
    assert I == ii(ring, "X*Z", "X*Y", "X*Y + X*Z")
    assert I != ii(ring, "X")


def test_sum_and_product(ring):
    I = ii(ring, "X")
    J = ii(ring, "Y", "Z")
    assert I + J == ii(ring, "X", "Y", "Z")
    assert I * J == ii(ring, "X*Y", "X*Z")
    assert (I + J).contains_ideal(I)


def test_intersection_of_coordinate_pieces(axes):
    assert axes.P.intersect(axes.Q) == axes.J
    # intersecting with the whole ring changes nothing
    whole = Ideal(axes.ring, (axes.ring.one(),))
    assert axes.P.intersect(whole) == axes.P


def test_meet_is_a_left_fold_of_intersect(ring, monkeypatch):
    pieces = [ii(ring, "X", "Y^2"), ii(ring, "Y", "Z"), ii(ring, "X*Z", "Y^3"), ii(ring, "Z^2")]
    fold = pieces[0]
    for I in pieces[1:]:
        fold = fold.intersect(I)
    calls = []
    original = Ideal.intersect

    def counting(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Ideal, "intersect", counting)
    result = meet(pieces)
    assert result.generators == fold.generators
    assert len(calls) == len(pieces) - 1
    assert [other for _, other in calls] == pieces[1:]
    calls.clear()
    assert meet(pieces[:1]) is pieces[0] and not calls


@pytest.mark.parametrize("p", [2, 3])
def test_surface_meets_line(p):
    # frozen: the four printed generators of P meet Q
    avatar = surface_avatar(p)
    printed = ii(
        avatar.ring, "T*Y - X*Z", "T*X^2 - Y*Z", "X^3 - Y^2", "T^3*X - T*Z^2"
    )
    assert avatar.J == printed


def test_closure_identity_of_the_surface_family(surface):
    ring = surface.ring
    I = ii(ring, "Z", "X - T")
    left = I + surface.J
    right = (I + surface.P).intersect(I + surface.Q)
    assert left == right
    assert left == ii(ring, "Z", "X - T", "X*Y", "X^3", "Y^2")
    assert I + surface.Q == ii(ring, "T", "X", "Y", "Z")


def test_colon(axes):
    # 0 : y picks up the X-plane
    assert axes.J.colon(axes.ring.parse("Y")) == ii(axes.ring, "X")
    I = ii(axes.ring, "X*Y")
    assert I.colon(ii(axes.ring, "X")) == ii(axes.ring, "Y")
    assert I.colon(I) == Ideal(axes.ring, (axes.ring.one(),))


def test_colon_by_zero_rejected(axes):
    with pytest.raises(ZeroColonError):
        axes.J.colon(axes.ring.zero())


def test_eliminate(ring):
    I = ii(ring, "X - Y^2", "Z - Y^3")
    kept = I.eliminate(("Y",))
    # the image curve: Z^2 = X^3
    assert kept == ii(ring, "X^3 - Z^2")
    assert kept.ring == ring


def test_bracket_power(ring):
    I = ii(ring, "X + Y", "Z")
    assert I.bracket_power(0) == I
    assert I.bracket_power(1) == ii(ring, "X^2 + Y^2", "Z^2")
    assert I.bracket_power(2) == ii(ring, "X^4 + Y^4", "Z^4")
    # bracket of the regenerated ideal agrees
    assert Ideal(ring, I.groebner).bracket_power(1) == I.bracket_power(1)


def test_dimension(ring, surface):
    assert Ideal(ring, ()).dimension() == 3
    assert ii(ring, "X", "Y", "Z").dimension() == 0
    assert ii(ring, "X*Y", "X*Z").dimension() == 2
    assert surface.P.dimension() == 2
    assert surface.Q.dimension() == 1
    assert surface.J.dimension() == 2


def test_is_homogeneous(ring):
    assert ii(ring, "X^2 + Y*Z", "Z").is_homogeneous()
    assert not ii(ring, "X^2 + Y").is_homogeneous()
    # homogeneity is a property of the ideal, not the generators
    assert ii(ring, "X + Y", "Y + X^2").is_homogeneous() == ii(
        ring, "X + Y", "X^2 + X"
    ).is_homogeneous()


def test_positive_grading(surface):
    ring = surface.ring
    # the toric prime is graded only under non-standard weights
    weights = surface.P.positive_grading()
    assert weights is not None
    assert all(w > 0 for w in weights)
    for g in surface.P.groebner:
        degrees = {
            sum(w * e for w, e in zip(weights, mono)) for mono in _monos(g)
        }
        assert len(degrees) == 1
    # standard-homogeneous ideals get all ones
    assert ii(ring, "T", "X", "Y").positive_grading() == (1, 1, 1, 1)
    # X + X^2 forces weight zero, so no positive grading exists
    assert ii(ring, "X + X^2").positive_grading() is None


def _monos(f):
    return [mono for _, mono in f.terms]


def test_ring_map_kernel_surface_presentation(surface):
    # the parametrization (u, t) -> (t, u^2, u^3, u*t) cuts out the prime
    target = PolyRing(PrimeField(2), ("U", "T"), MonomialOrder.grevlex())
    kernel = ring_map_kernel(
        surface.ring,
        target,
        {
            "T": target.parse("T"),
            "X": target.parse("U^2"),
            "Y": target.parse("U^3"),
            "Z": target.parse("U*T"),
        },
    )
    assert kernel == surface.P


def test_ring_map_kernel_identity_map(ring):
    images = {v: ring.var(v) for v in ring.variables}
    assert ring_map_kernel(ring, ring, images).is_zero


def test_ring_map_kernel_collisions(ring):
    target = PolyRing(PrimeField(2), ("X", "U"), MonomialOrder.grevlex())
    # shared name X with a non-identity image is ambiguous
    with pytest.raises(VariableCollisionError):
        ring_map_kernel(
            ring,
            target,
            {"X": target.parse("U"), "Y": target.parse("U^2"), "Z": target.parse("X")},
        )
    # identity-mapped shared names are fine
    kernel = ring_map_kernel(
        ring,
        target,
        {"X": target.parse("X"), "Y": target.parse("U"), "Z": target.parse("U")},
    )
    assert kernel == ii(ring, "Y - Z")


def test_aux_names_are_the_first_free_ones():
    ring = PolyRing(PrimeField(2), ("_t0", "_s0", "X"), MonomialOrder.grevlex())
    assert _aux_name(ring) == "_t1"
    assert _aux_name(ring, "_s") == "_s1"
    assert _aux_name(ring, "_s", {"_s1", "_s3"}) == "_s2"


def test_ring_map_kernel_validation(ring):
    target = PolyRing(PrimeField(2), ("U",), MonomialOrder.grevlex())
    with pytest.raises(UnknownVariableError):
        ring_map_kernel(ring, target, {"X": target.parse("U")})
    with pytest.raises(UnknownVariableError):
        ring_map_kernel(
            ring,
            target,
            {
                "X": target.parse("U"),
                "Y": target.parse("U"),
                "Z": target.parse("U"),
                "W": target.parse("U"),
            },
        )
    other = PolyRing(PrimeField(3), ("U",), MonomialOrder.grevlex())
    with pytest.raises(RingMismatchError):
        ring_map_kernel(
            ring,
            other,
            {"X": other.parse("U"), "Y": other.parse("U"), "Z": other.parse("U")},
        )


def test_cross_ring_ideal_operations_rejected(ring):
    other = PolyRing(PrimeField(2), ("X", "Y", "Z"), MonomialOrder.lex())
    with pytest.raises(RingMismatchError):
        ii(ring, "X").intersect(ii(other, "X"))
