"""Permutation-group facts against sympy: groups closed from generators with
their whole-group flags, and the theorem behind prime-cycle class adjacency
(intersecting p- and q-cycles with p + q > N generate a group that is
neither nilpotent nor, save for (2, 3), solvable)."""

import random

import pytest

from supergraphs import perms
from supergraphs.groups import from_perm_generators
from supergraphs.universality import class_adjacency

combinatorics = pytest.importorskip("sympy.combinatorics")
Permutation = combinatorics.Permutation
PermutationGroup = combinatorics.PermutationGroup


def sympy_group(degree, gens):
    return PermutationGroup([Permutation(list(g)) for g in gens] or [Permutation(degree - 1)])


def random_cycle(rng, degree, length):
    return perms.perm_from_cycles(degree, [rng.sample(range(degree), length)], one_based=False)


def random_generators(rng, degree):
    """Whole random permutations (mostly S_n or A_n) or products of short
    cycles on few points (small and intransitive groups)."""
    count = rng.randint(0, 3)
    if rng.random() < 0.3:
        return [tuple(rng.sample(range(degree), degree)) for _ in range(count)]
    gens = []
    for _ in range(count):
        g = perms.identity_perm(degree)
        for _ in range(rng.randint(1, 2)):
            g = perms.compose(g, random_cycle(rng, degree, rng.randint(2, min(4, degree))))
        gens.append(g)
    return gens


def test_generated_groups_and_flags_match_sympy():
    """The capped closure gives the order, and the commutator series walker
    the nilpotent and solvable flags, of groups from random generators."""
    rng = random.Random(23)
    draws = [(4, [(1, 0, 2, 3), (0, 1, 3, 2)])]  # Klein four: abelian, not cyclic
    for _ in range(120):
        degree = rng.randint(2, 7)
        draws.append((degree, random_generators(rng, degree)))
    outcomes = set()
    for degree, gens in draws:
        group = from_perm_generators(degree, gens)
        expected = sympy_group(degree, gens)
        flags = group.whole_group_flags()
        assert group.order == expected.order(), (degree, gens)
        found = (flags.is_abelian, flags.is_cyclic, flags.is_nilpotent, flags.is_solvable)
        assert found == (
            expected.is_abelian, expected.is_cyclic, expected.is_nilpotent, expected.is_solvable
        ), (degree, gens)
        outcomes.add(found)
    # cyclic, abelian only, nilpotent only, solvable only, and neither
    assert len(outcomes) == 5


def test_intersecting_prime_cycles_generate_non_solvable_groups():
    rng = random.Random(13)
    pairs = [
        (degree, p, q)
        for degree in range(3, 10)
        for p in (2, 3, 5, 7)
        for q in (3, 5, 7)
        if p < q <= degree < p + q
    ]
    for _ in range(120):
        degree, p, q = rng.choice(pairs)
        x, y = random_cycle(rng, degree, p), random_cycle(rng, degree, q)
        assert any(x[i] != i != y[i] for i in range(degree))  # forced by p + q > N
        group = sympy_group(degree, [x, y])
        assert group.is_nilpotent is False, (x, y)
        assert group.is_solvable is ((p, q) == (2, 3)), (x, y)
        assert class_adjacency(degree, p, q, "nilpotent") is False
        assert class_adjacency(degree, p, q, "solvable") is ((p, q) == (2, 3))
