import random
from itertools import product

import pytest

from adaptorsig.curve import canonical_torsion_basis, has_exact_order
from adaptorsig.errors import LengthMismatch, NonCoprimeDegree
from adaptorsig.isogeny import isogeny_from_kernel, push_forward
from adaptorsig.orientation import (
    orientation_image,
    oriented_kernel,
    sample_orientation,
)
from adaptorsig.relation import witness_chain


def test_sampled_orientation_orders_and_intersections(t0, rng):
    o = sample_orientation(t0.e0, t0.primes, rng)
    for ell, G1, G2 in o.pairs:
        assert has_exact_order(t0.e0, G1, ell)
        assert has_exact_order(t0.e0, G2, ell)
        # exhaustive intersection scan over the tiny cyclic group
        assert G2 not in {t0.e0.mul(k, G1) for k in range(ell)}


def test_empty_orientation(t0, rng):
    o = sample_orientation(t0.e0, (), rng)
    assert o.pairs == [] and o.order() == 1
    assert oriented_kernel(o, []) == []


def test_resampling_same_seed_identical(t0):
    a = sample_orientation(t0.e0, t0.primes, random.Random(7))
    b = sample_orientation(t0.e0, t0.primes, random.Random(7))
    assert a == b


def test_choice_vector_11_lands_in_G1(t0):
    o = t0.orientation
    gens = oriented_kernel(o, [1] * t0.t)
    assert gens == [G1 for _, G1, _ in o.pairs]


def test_choice_vector_length_checked(t0):
    with pytest.raises(LengthMismatch):
        oriented_kernel(t0.orientation, [1])
    with pytest.raises(LengthMismatch):
        oriented_kernel(t0.orientation, [0, 1])


def test_all_choice_vectors_give_distinct_kernels(t0):
    E = t0.e0
    subgroups = []
    for bits in product((1, 2), repeat=t0.t):
        gens = oriented_kernel(t0.orientation, list(bits))
        chain = isogeny_from_kernel(E, gens, t0.B)
        assert chain.degree == t0.B
        subgroups.append(gens)
    # pairwise distinct subgroups: some generator of one is not killed by the other
    for i in range(len(subgroups)):
        for j in range(i + 1, len(subgroups)):
            ci = isogeny_from_kernel(E, subgroups[i], t0.B)
            assert any(not ci.evaluate(g).is_inf for g in subgroups[j])


def test_orientation_image_identity(t0):
    ident = isogeny_from_kernel(t0.e0, [], 1)
    assert orientation_image(ident, t0.orientation) == t0.orientation


def test_orientation_image_under_witness(t0):
    w = witness_chain(t0, 1)
    img = orientation_image(w, t0.orientation)
    assert img.curve == w.codomain
    for ell, G1, G2 in img.pairs:
        assert has_exact_order(w.codomain, G1, ell)
        assert has_exact_order(w.codomain, G2, ell)


def test_orientation_image_noncoprime_rejected(t0):
    E = t0.e0
    P5, _ = canonical_torsion_basis(E, 5, t0.group_order)
    phi5 = isogeny_from_kernel(E, [P5], 5)
    with pytest.raises(NonCoprimeDegree):
        orientation_image(phi5, t0.orientation)


def test_parallel_square_kernel_images(t0):
    """ker(psi2) = phi(ker(psi1)) and equal j for every choice vector."""
    E = t0.e0
    n = t0.group_order
    P3, _ = canonical_torsion_basis(E, 3, n)
    phi = isogeny_from_kernel(E, [P3], 3)
    img = orientation_image(phi, t0.orientation)
    for bits in product((1, 2), repeat=t0.t):
        g1 = oriented_kernel(t0.orientation, list(bits))
        g2 = oriented_kernel(img, list(bits))
        assert [phi.evaluate(g) for g in g1] == g2
        psi1 = isogeny_from_kernel(E, g1, t0.B)
        psi2 = isogeny_from_kernel(phi.codomain, g2, t0.B)
        moved = push_forward(psi1, phi)
        assert psi2.codomain.j_invariant() == moved.codomain.j_invariant()
