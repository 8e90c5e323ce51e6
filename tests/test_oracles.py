"""The quotient construction path against test-local references written
straight from the definitions, with no pinning and no shared partition code."""

import itertools

import pytest

import supergraphs as sg
from supergraphs.constructions import KINDS, PARTITIONS, base_adjacent, build_supergraph
from supergraphs.generation import invariable_generating_graph


def catalog():
    """The catalog of tests/test_groups.py."""
    return [
        sg.cyclic(6),
        sg.symmetric(3),
        sg.dihedral(4),
        sg.quaternion(2),
        sg.dihedral(5),
        sg.alternating(4),
        sg.symmetric(4),
        sg.product(sg.cyclic(2), sg.cyclic(4)),
    ]


def _conjugates(group, g):
    return frozenset(group.mul(group.mul(group.inv(x), g), x) for x in range(group.order))


def _order(group, g):
    k, acc = 1, g
    while acc != 0:
        acc, k = group.mul(acc, g), k + 1
    return k


def _class_of(group, pkind):
    """Element -> its class as a frozenset, computed independently per element."""
    if pkind == "equality":
        return [frozenset((g,)) for g in range(group.order)]
    if pkind == "conjugacy":
        return [_conjugates(group, g) for g in range(group.order)]
    orders = [_order(group, g) for g in range(group.order)]
    return [frozenset(h for h in range(group.order) if orders[h] == orders[g])
            for g in range(group.order)]


def reference_supergraph_edges(group, kind, pkind):
    """g ~ h iff they share a class, or some x in C(g) and some y in C(h) are
    base-adjacent. Every cross pair is tested; each class pair once."""
    class_of = _class_of(group, pkind)
    adjacent = {}
    edges = set()
    for g, h in itertools.combinations(range(group.order), 2):
        cg, ch = class_of[g], class_of[h]
        if cg == ch:
            edges.add((g, h))
            continue
        key = frozenset((cg, ch))
        if key not in adjacent:
            adjacent[key] = any(
                base_adjacent(group, kind, x, y) for x in cg for y in ch if x != y
            )
        if adjacent[key]:
            edges.add((g, h))
    return edges


def reference_igg_edges(group):
    """x ~ y iff <x, y'> is the whole group for every conjugate y' of y."""
    order = group.order
    edges = set()
    for x, y in itertools.combinations(range(order), 2):
        if all(len(group.pair_subgroup_members(x, y2)) == order for y2 in _conjugates(group, y)):
            edges.add((x, y))
    return edges


@pytest.mark.parametrize("group", catalog(), ids=lambda g: g.label)
def test_supergraphs_match_the_definition(group):
    for kind, pkind in itertools.product(KINDS, PARTITIONS):
        got = set(build_supergraph(group, kind, pkind).edges())
        assert got == reference_supergraph_edges(group, kind, pkind), (kind, pkind)


@pytest.mark.parametrize("group", catalog() + [sg.alternating(5)], ids=lambda g: g.label)
def test_invariable_generating_graph_matches_the_definition(group):
    assert set(invariable_generating_graph(group).edges()) == reference_igg_edges(group)
