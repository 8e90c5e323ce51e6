"""Permutation utilities, the order of a group closed from permutation
generators, and the cycle tools the class-adjacency oracles enumerate with."""

import math

import pytest
from cycle_tools import all_cycles, conjugate, cycle_count

from supergraphs import perms
from supergraphs.groups import from_perm_generators


def test_compose_applies_left_first():
    p = (1, 0, 2)  # (1 2) in 1-based terms
    q = (0, 2, 1)
    assert perms.compose(p, q) == tuple(q[i] for i in p)


def test_invert_roundtrip():
    p = (2, 0, 3, 1)
    assert perms.compose(p, perms.invert(p)) == perms.identity_perm(4)
    assert perms.compose(perms.invert(p), p) == perms.identity_perm(4)


def test_conjugate_relabels_cycles():
    p = perms.perm_from_cycles(5, [[1, 2, 3]])
    c = perms.perm_from_cycles(5, [[1, 4]])
    assert conjugate(p, c) == perms.perm_from_cycles(5, [[4, 2, 3]])
    assert conjugate(p, c) == perms.compose(perms.compose(perms.invert(c), p), c)


def test_cycle_notation_roundtrip():
    p = perms.perm_from_cycles(7, [[1, 2, 3], [4, 5]])
    assert perms.cycle_notation(p) == "(1 2 3)(4 5)"
    assert perms.cycle_notation(perms.identity_perm(4)) == "e"


def test_perm_from_cycles_rejects_repeats_and_range():
    with pytest.raises(ValueError):
        perms.perm_from_cycles(4, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        perms.perm_from_cycles(3, [[1, 4]])


def _order(p):
    power, order = p, 1
    while power != perms.identity_perm(len(p)):
        power, order = perms.compose(power, p), order + 1
    return order


def test_perm_order_and_parity():
    p = perms.perm_from_cycles(7, [[1, 2, 3], [4, 5]])
    assert _order(p) == 6
    assert perms.parity(p) == 1
    assert perms.parity(perms.perm_from_cycles(7, [[1, 2, 3]])) == 0


def test_all_cycles_count_and_shape():
    five_cycles = list(all_cycles(7, 5))
    assert len(five_cycles) == cycle_count(7, 5) == 504
    assert len(set(five_cycles)) == 504
    assert all(_order(p) == 5 for p in five_cycles[:25])
    assert all(sum(i != j for i, j in enumerate(p)) == 5 for p in five_cycles[:25])


def _plain_closure(degree, gens):
    """Every product of gens, by breadth-first search from the identity."""
    members = [perms.identity_perm(degree)]
    seen = set(members)
    for a in members:
        for g in gens:
            b = perms.compose(a, g)
            if b not in seen:
                seen.add(b)
                members.append(b)
    return seen


@pytest.mark.parametrize(
    "degree,cycles,expected",
    [
        (7, [[[1, 2]], [list(range(1, 8))]], math.factorial(7)),  # S7
        (5, [[[1, 2, 3]], [[1, 2, 3, 4, 5]]], 60),  # A5
        (6, [[[1, 2, 3, 4, 5]]], 5),  # a single 5-cycle
        (4, [], 1),
        (4, [[[1, 2]], [[3, 4]]], 4),
    ],
)
def test_perm_group_order_known_values(degree, cycles, expected):
    gens = [perms.perm_from_cycles(degree, c) for c in cycles]
    assert from_perm_generators(degree, gens).order == expected


@pytest.mark.parametrize(
    "degree,cycles",
    [
        (3, [[[1, 2]], [[1, 2, 3]]]),
        (4, [[[1, 2]], [[1, 2, 3, 4]]]),
        (4, [[[1, 2, 3]]]),
        (5, [[[1, 2, 3]], [[1, 2, 3, 4, 5]]]),
        (5, [[[1, 2]], [[1, 2, 3, 4, 5]]]),
        (6, [[[1, 2, 3], [4, 5, 6]], [[1, 4]]]),
        (7, [[[1, 2]], [list(range(1, 8))]]),
        (8, [[[1, 2, 3]], [[4, 5, 6, 7, 8]]]),
    ],
)
def test_perm_group_order_matches_closure(degree, cycles):
    """The capped closure's order agrees with a plain breadth-first closure."""
    gens = [perms.perm_from_cycles(degree, c) for c in cycles]
    members = _plain_closure(degree, gens)
    assert len(members) <= 10000
    assert from_perm_generators(degree, gens).order == len(members)


def test_perm_group_order_rejects_non_permutation():
    with pytest.raises(ValueError):
        from_perm_generators(3, [(0, 0, 1)])


def test_perm_group_order_matches_closure_randomized():
    import random

    rng = random.Random(424242)
    for degree in (5, 6, 7):
        points = list(range(degree))
        for _ in range(12):
            gens = []
            for _ in range(rng.randint(1, 3)):
                shuffled = points[:]
                rng.shuffle(shuffled)
                gens.append(tuple(shuffled))
            members = _plain_closure(degree, gens)
            assert from_perm_generators(degree, gens).order == len(members)
