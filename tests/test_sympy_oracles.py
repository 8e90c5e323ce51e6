"""Permutation-group facts against sympy: stabilizer-chain orders, the
theorem behind prime-cycle class adjacency (intersecting p- and q-cycles with
p + q > N generate a group that is neither nilpotent nor, save for (2, 3),
solvable), and the exhaustive scan for cycle lengths that are not both
prime."""

import itertools
import random

import pytest

from supergraphs import perms
from supergraphs.universality import class_adjacency

combinatorics = pytest.importorskip("sympy.combinatorics")
sympy_is_prime = pytest.importorskip("sympy").isprime
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


def test_perm_group_order_matches_sympy():
    rng = random.Random(11)
    orders = set()
    for _ in range(150):
        degree = rng.randint(2, 8)
        gens = random_generators(rng, degree)
        order = perms.perm_group_order(degree, gens)
        assert order == sympy_group(degree, gens).order(), (degree, gens)
        orders.add(order)
    assert len(orders) > 10  # the draws reach many different groups


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
        assert perms.support(x) & perms.support(y)  # forced by p + q > N
        group = sympy_group(degree, [x, y])
        assert group.is_nilpotent is False, (x, y)
        assert group.is_solvable is ((p, q) == (2, 3)), (x, y)
        assert class_adjacency(degree, p, q, "nilpotent") is False
        assert class_adjacency(degree, p, q, "solvable") is ((p, q) == (2, 3))


def cycles_of_length(degree, length):
    """Every length-cycle on range(degree) once, written from its least point."""
    for points in itertools.combinations(range(degree), length):
        for rest in itertools.permutations(points[1:]):
            yield perms.perm_from_cycles(degree, [[points[0], *rest]], one_based=False)


def centralizer_of_canonical_cycle(degree, p):
    """<x> times the symmetric group on the fixed points of x = (0 1 ... p-1)."""
    for k in range(p):
        for rest in itertools.permutations(range(p, degree)):
            yield tuple((i + k) % p for i in range(p)) + rest


def test_composite_length_class_adjacency_matches_sympy():
    """At degrees 4-6, for lengths p < q not both prime, the p- and q-cycle
    classes are solvable (nilpotent) adjacent iff some q-cycle y makes
    <x, y> solvable (nilpotent) for the canonical p-cycle x. Conjugating y by
    the centralizer of x conjugates <x, y>, so one y per centralizer orbit
    is asked of sympy."""
    outcomes = set()
    for degree in (4, 5, 6):
        for p, q in itertools.combinations(range(1, degree + 1), 2):
            if sympy_is_prime(p) and sympy_is_prime(q):
                continue
            x = perms.perm_from_cycles(degree, [list(range(p))], one_based=False)
            centralizer = list(centralizer_of_canonical_cycle(degree, p))
            ys = {
                min(perms.conjugate(y, c) for c in centralizer)
                for y in cycles_of_length(degree, q)
            }
            solvable = nilpotent = False
            for y in sorted(ys):
                group = sympy_group(degree, [x, y])
                if group.is_solvable:
                    solvable = True
                    if group.is_nilpotent:
                        nilpotent = True
                        break
            assert class_adjacency(degree, p, q, "solvable") is solvable, (degree, p, q)
            assert class_adjacency(degree, p, q, "nilpotent") is nilpotent, (degree, p, q)
            outcomes.add((solvable, nilpotent))
    assert outcomes == {(True, True), (True, False), (False, False)}
