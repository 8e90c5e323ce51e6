"""The order deltas against the element-order spectrum, an oracle that shares
no code with the scan over cyclic subgroups. On the order partition the
classes are the element orders present, and two rules hold in every finite
group:

- power: orders i != j are adjacent iff i | j or j | i. An element of order
  j has a power of order i exactly when i | j.
- enhanced and commuting: orders i != j are adjacent iff lcm(i, j) is an
  element order. Commuting elements of orders i and j generate an abelian
  group, which holds an element of order lcm(i, j); an element x of that
  order gives the commuting, even cyclic, pair x^(l/i), x^(l/j).

The small groups' orders are walked from each element's powers; those of C,
D and Q at order 20,000 are read from their presentations."""

import itertools
import math

import pytest
from test_oracles import _close, wide_catalog

import supergraphs as sg
from supergraphs.constructions import build_partition, quotient_supergraph
from supergraphs.graphs import Graph

SPECTRUM_KINDS = ("power", "enhanced", "commuting")


def spectrum_mismatches(delta, orders, kind):
    """The pairs of classes (i, j), i < j, where delta disagrees with the
    rule of kind, orders[i] being the element order of class i."""
    present = set(orders)

    def rule(i, j):
        if kind == "power":
            return i % j == 0 or j % i == 0
        return math.lcm(i, j) in present

    return {(u, v) for u, v in itertools.combinations(range(len(orders)), 2)
            if delta.has_edge(u, v) != rule(orders[u], orders[v])}


def class_orders(group, order_of):
    """The element order of each order class, checked on every member: each
    class holds one order and no two classes share one."""
    orders = []
    for members in build_partition(group, "order").classes:
        (order,) = {order_of(g) for g in members}
        orders.append(order)
    assert len(set(orders)) == len(orders)
    return orders


def presented_order(group):
    """Element orders of C_n, D_2n and Q_4n from their presentations: a^k
    has order m / gcd(m, k) in the rotation subgroup C_m, a reflection of
    D_2n order 2, and every a^k b of Q_4n order 4."""
    m = getattr(group, "m", group.order)

    def order_of(g):
        if g < m:
            return m // math.gcd(m, g)
        return 4 if group.s else 2

    return order_of


def _ids(group):
    return group.label


@pytest.mark.parametrize("group", wide_catalog() + [sg.symmetric(5), sg.alternating(5)], ids=_ids)
def test_order_deltas_follow_the_spectrum(group):
    orders = class_orders(group, lambda g: len(_close(group, [g])))
    for kind in SPECTRUM_KINDS:
        delta = quotient_supergraph(group, kind, "order").delta
        assert spectrum_mismatches(delta, orders, kind) == set(), kind


@pytest.mark.parametrize("make", [lambda: sg.cyclic(20000), lambda: sg.dihedral(10000),
                                  lambda: sg.quaternion(5000)], ids=["C20000", "D20000", "Q20000"])
def test_order_deltas_follow_the_spectrum_at_the_element_cap(make):
    group = make()
    orders = class_orders(group, presented_order(group))
    for kind in SPECTRUM_KINDS:
        delta = quotient_supergraph(group, kind, "order").delta
        assert spectrum_mismatches(delta, orders, kind) == set(), kind


def test_a_swapped_divisibility_fails_the_spectrum():
    """C20000's power order delta with the edge between orders 2 and 4
    moved to orders 4 and 5, which divide neither way: both pairs are
    reported, and nothing else."""
    group = sg.cyclic(20000)
    orders = class_orders(group, presented_order(group))
    delta = quotient_supergraph(group, "power", "order").delta
    two, four, five = map(orders.index, (2, 4, 5))
    assert delta.has_edge(two, four) and not delta.has_edge(four, five)
    edges = set(delta.edges()) - {tuple(sorted((two, four)))} | {tuple(sorted((four, five)))}
    planted = Graph(delta.labels, edges)
    assert spectrum_mismatches(planted, orders, "power") == {
        tuple(sorted((two, four))), tuple(sorted((four, five)))
    }
