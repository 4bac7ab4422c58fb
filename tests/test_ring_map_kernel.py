"""ring_map_kernel against the two-ring path it replaced.

The reference below is the earlier body of ring_map_kernel: build the
graph ideal in a grevlex joint ring (target variables, renamed where
they collide with a source name, then the source variables), let
eliminate_polys re-order it by block_elimination(m), and carry the kept
members back through the joint ring.  The one-ring version builds the
graph ideal directly under the block order and takes the one
elimination step straight into the source ring, so both must hand
groebner_basis equal arguments and return equal generator tuples.
"""

import random

import pytest

from icalc import groebner, ideals
from icalc.field import PrimeField
from icalc.groebner import eliminate_polys
from icalc.ideals import ring_map_kernel
from icalc.monomials import MonomialOrder
from icalc.poly import PolyRing, transport
from icalc.properties import _random_poly


def reference_kernel(source_ring, target_ring, images):
    source_names = set(source_ring.variables)
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
    joint = PolyRing(
        source_ring.field,
        tuple(joint_target_names) + source_ring.variables,
        MonomialOrder.grevlex(),
    )
    m = target_ring.nvars
    target_pos = list(range(m))
    gens = [
        joint.var(v) - transport(images[v], joint, target_pos)
        for v in source_ring.variables
    ]
    kept = eliminate_polys(joint, gens, tuple(joint_target_names))
    back = [None] * joint.nvars
    for i in range(source_ring.nvars):
        back[m + i] = i
    return tuple(transport(g, source_ring, back) for g in kept)


@pytest.fixture
def basis_calls(monkeypatch):
    """Records the (ring, generators) of every groebner_basis call."""
    calls = []
    original = groebner.groebner_basis

    def recording(ring, gens):
        calls.append((ring, tuple(gens)))
        return original(ring, gens)

    monkeypatch.setattr(groebner, "groebner_basis", recording)
    monkeypatch.setattr(ideals, "groebner_basis", recording)
    return calls


def _random_map(rng, p, collide):
    """A seeded map; with collide, some target names are source names
    mapped to themselves, and an internal _s name may be taken too."""
    field = PrimeField(p)
    source_names = ("X", "Y", "Z", "_s0")[: rng.randint(1, 3 + collide)]
    target_pool = ["S", "T", "U"]
    if collide:
        target_pool += rng.sample(source_names, rng.randint(1, len(source_names)))
    rng.shuffle(target_pool)
    target_names = tuple(target_pool[: rng.randint(1, len(target_pool))])
    if collide and not set(target_names) & set(source_names):
        target_names += (source_names[0],)
    order = rng.choice((MonomialOrder.grevlex(), MonomialOrder.lex()))
    source = PolyRing(field, source_names, order)
    target = PolyRing(field, target_names, MonomialOrder.grevlex())
    images = {
        v: target.var(v) if v in target_names else _random_poly(rng, target, 2, 2)
        for v in source_names
    }
    return source, target, images


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("collide", [False, True])
def test_kernel_matches_two_ring_path(p, collide, basis_calls):
    rng = random.Random(f"kernel-{p}-{collide}")
    for _ in range(25):
        source, target, images = _random_map(rng, p, collide)
        basis_calls.clear()
        expected = reference_kernel(source, target, images)
        reference_calls = list(basis_calls)
        basis_calls.clear()
        assert ring_map_kernel(source, target, images).generators == expected
        assert basis_calls == reference_calls
        assert len(basis_calls) == 1
        assert basis_calls[0][0].order == MonomialOrder.block_elimination(target.nvars)
