"""Base graphs, partitions, supergraphs, compressed and quotient forms, and
the two-dimensional containment hierarchy."""

import itertools

import pytest

import supergraphs as sg
from supergraphs.constructions import (
    KINDS,
    base_adjacent,
    build_compressed,
    build_partition,
    build_supergraph,
    hierarchy_report,
    quotient_supergraph,
)
from supergraphs.graphs import Complete, Empty, Join, compose_graphs, eval_expr


def small_catalog():
    return [
        sg.cyclic(6),
        sg.symmetric(3),
        sg.dihedral(3),
        sg.dihedral(4),
        sg.quaternion(2),
        sg.dihedral(5),
        sg.alternating(4),
    ]


# --- base adjacency ---


def test_power_adjacency_cyclic():
    c6 = sg.cyclic(6)
    assert base_adjacent(c6, "power", 1, 2)  # a, a^2
    assert not base_adjacent(c6, "power", 2, 3)  # a^2, a^3


def test_enhanced_adjacency_quaternion():
    q8 = sg.quaternion(2)
    assert not base_adjacent(q8, "enhanced", 1, 4)  # <a,b> = Q8, not cyclic
    assert base_adjacent(q8, "enhanced", 1, 2)  # a, a^2 inside <a>


def test_solvable_adjacency_dihedral():
    d6 = sg.dihedral(3)
    assert base_adjacent(d6, "solvable", 3, 4)  # <b, ab> = D6, solvable
    assert not base_adjacent(d6, "nilpotent", 3, 4)


def test_enhanced_adjacency_matches_common_power_definition():
    """Generating a cyclic group is the same as both elements being powers of
    a common element; checked by scanning all k."""
    for group in (sg.symmetric(3), sg.quaternion(2), sg.cyclic(6), sg.dihedral(4)):
        for g, h in itertools.combinations(range(group.order), 2):
            exists_k = any(
                g in group.cyclic_subgroup(k) and h in group.cyclic_subgroup(k)
                for k in range(group.order)
            )
            assert base_adjacent(group, "enhanced", g, h) == exists_k


def test_base_adjacent_rejects_equal_elements():
    with pytest.raises(ValueError):
        base_adjacent(sg.cyclic(4), "power", 1, 1)


def test_commuting_graph_of_abelian_is_complete():
    g = sg.cyclic(6)
    assert build_supergraph(g, "commuting", "equality").num_edges == 15


def test_power_graph_cyclic6():
    assert build_supergraph(sg.cyclic(6), "power", "equality").num_edges == 13


def test_solvable_graph_dihedral3_complete():
    assert build_supergraph(sg.dihedral(3), "solvable", "equality").num_edges == 15


# --- partitions ---


def test_equality_partition():
    part = build_partition(sg.dihedral(3), "equality")
    assert part.sizes == (1,) * 6
    assert part.classes == tuple((g,) for g in range(6))


def test_conjugacy_partition_d8():
    part = build_partition(sg.dihedral(4), "conjugacy")
    assert sorted(part.sizes) == [1, 1, 2, 2, 2]
    assert part.classes[0] == (0,)  # identity class first


def test_order_partition_d6():
    part = build_partition(sg.dihedral(3), "order")
    assert part.sizes == (1, 2, 3)
    assert part.classes == ((0,), (1, 2), (3, 4, 5))


def test_partition_accepts_same_order_alias():
    assert build_partition(sg.cyclic(4), "same_order").kind == "order"


def test_partition_refinement_chain():
    """Equality refines conjugacy refines same order."""
    for group in small_catalog():
        conj = build_partition(group, "conjugacy")
        order = build_partition(group, "order")
        for members in conj.classes:
            order_ids = {order.class_of[g] for g in members}
            assert len(order_ids) == 1


# --- supergraphs ---


def test_equality_supercommuting_is_commuting_graph():
    for group in small_catalog():
        commuting = [
            (g, h)
            for g, h in itertools.combinations(range(group.order), 2)
            if group.commutes(g, h)
        ]
        assert build_supergraph(group, "commuting", "equality").edges() == commuting


def test_conjugacy_supercommuting_d6():
    got = build_supergraph(sg.dihedral(3), "commuting", "conjugacy")
    assert got.num_edges == 9
    # e to everything, a ~ a^2, reflections pairwise
    expected = {(0, i) for i in range(1, 6)} | {(1, 2)} | {(3, 4), (3, 5), (4, 5)}
    assert set(got.edges()) == expected


def test_order_superenhanced_equals_order_supercommuting():
    for group in small_catalog():
        assert (
            build_supergraph(group, "enhanced", "order").edges()
            == build_supergraph(group, "commuting", "order").edges()
        )


def _brute_supergraph_edges(group, kind, pkind):
    """Reference construction straight from the definition: an edge when the
    classes coincide or some cross pair is base-adjacent."""
    part = build_partition(group, pkind)
    edges = set()
    for g, h in itertools.combinations(range(group.order), 2):
        if part.class_of[g] == part.class_of[h]:
            edges.add((g, h))
            continue
        members_g = part.classes[part.class_of[g]]
        members_h = part.classes[part.class_of[h]]
        if any(
            base_adjacent(group, kind, x, y) for x in members_g for y in members_h
        ):
            edges.add((g, h))
    return edges


def test_supergraph_matches_definition_brute_force():
    for group in (sg.dihedral(3), sg.quaternion(2), sg.symmetric(3), sg.cyclic(4)):
        for kind in KINDS:
            for pkind in ("equality", "conjugacy", "order"):
                got = set(build_supergraph(group, kind, pkind).edges())
                assert got == _brute_supergraph_edges(group, kind, pkind), (
                    group.label,
                    kind,
                    pkind,
                )


def test_trivial_group_edge_cases():
    c1 = sg.cyclic(1)
    assert build_supergraph(c1, "power", "conjugacy").n == 1
    assert quotient_supergraph(c1, "commuting", "order").sizes == (1,)
    assert hierarchy_report(c1).passed


def test_supergraph_edges_are_class_determined():
    group = sg.dihedral(4)
    part = build_partition(group, "conjugacy")
    graph = build_supergraph(group, "nilpotent", "conjugacy")
    delta = quotient_supergraph(group, "nilpotent", "conjugacy").delta
    for g, h in itertools.combinations(range(group.order), 2):
        ci, cj = part.class_of[g], part.class_of[h]
        if ci == cj:
            assert graph.has_edge(g, h)
        else:
            expected = any(
                base_adjacent(group, "nilpotent", x, y)
                for x in part.classes[ci]
                for y in part.classes[cj]
            )
            assert graph.has_edge(g, h) == delta.has_edge(ci, cj) == expected


# --- compressed ---


def test_compressed_commuting_s3_is_path():
    got = build_compressed(sg.symmetric(3), "commuting")
    assert got.n == 3
    assert got.labels[0] == "e"
    assert set(got.edges()) == {(0, 1), (0, 2)}  # identity class is the centre


def test_compressed_commuting_q8():
    got = build_compressed(sg.quaternion(2), "commuting")
    expected = eval_expr(Join(Complete(2), Empty(3)))
    ok, _ = sg.is_isomorphic(got, expected)
    assert ok


def test_compressed_of_abelian_equals_base_graph():
    g = sg.cyclic(6)
    compressed = build_compressed(g, "power")
    base = build_supergraph(g, "power", "equality")
    assert compressed.edges() == base.edges()


def test_compressed_equals_quotient_delta():
    """One representative per class: the compressed graph and the quotient
    graph coincide exactly."""
    for group in small_catalog():
        for kind in KINDS:
            compressed = build_compressed(group, kind)
            delta = quotient_supergraph(group, kind, "conjugacy").delta
            assert compressed.edges() == delta.edges()
            assert compressed.labels == delta.labels


def test_class_restricted_scan_equals_full_scan():
    """Pinning one representative loses nothing for conjugacy classes."""
    for group in small_catalog():
        if group.order > 24:
            continue
        part = build_partition(group, "conjugacy")
        for kind in KINDS:
            delta = quotient_supergraph(group, kind, "conjugacy").delta
            for a, b in itertools.combinations(range(len(part.classes)), 2):
                first, second = part.classes[a], part.classes[b]
                restricted = delta.has_edge(a, b)
                full = any(base_adjacent(group, kind, x, y) for x in first for y in second)
                assert restricted == full, (group.label, kind, a, b)


# --- quotient ---


def test_quotient_d6_conjugacy_commuting():
    q = quotient_supergraph(sg.dihedral(3), "commuting", "conjugacy")
    assert q.sizes == (1, 2, 3)
    assert set(q.delta.edges()) == {(0, 1), (0, 2)}  # P3 centred on e


def test_quotient_equality_is_base_graph():
    group = sg.symmetric(3)
    q = quotient_supergraph(group, "commuting", "equality")
    assert q.sizes == (1,) * 6
    commuting = [
        (g, h) for g, h in itertools.combinations(range(group.order), 2) if group.commutes(g, h)
    ]
    assert q.delta.edges() == commuting


def test_quotient_q8():
    q = quotient_supergraph(sg.quaternion(2), "commuting", "conjugacy")
    assert q.sizes == (1, 1, 2, 2, 2)
    ok, _ = sg.is_isomorphic(q.delta, eval_expr(Join(Complete(2), Empty(3))))
    assert ok


def test_quotient_composition_reconstructs_supergraph_exactly():
    """Listing the classes' members in class order maps the composition onto
    the supergraph."""
    for group in small_catalog():
        for kind in KINDS:
            for pkind in ("equality", "conjugacy", "order"):
                q = quotient_supergraph(group, kind, pkind)
                composed = compose_graphs(
                    q.delta, [sg.Graph.complete(s) for s in q.sizes]
                )
                supergraph = build_supergraph(group, kind, pkind)
                for (u, mu), (v, mv) in itertools.combinations(
                    enumerate(g for members in q.classes for g in members), 2
                ):
                    assert composed.has_edge(u, v) == supergraph.has_edge(mu, mv)


# --- hierarchy ---


def test_hierarchy_d6():
    report = hierarchy_report(sg.dihedral(3))
    assert report.passed and report.order_coincidence
    assert len(report.kind_chain) == 12
    assert len(report.partition_chain) == 10


def test_hierarchy_prime_cyclic_all_complete():
    group = sg.cyclic(5)
    for kind in KINDS:
        for pkind in ("equality", "conjugacy", "order"):
            assert build_supergraph(group, kind, pkind).num_edges == 10
    assert hierarchy_report(group).passed


def test_hierarchy_s4():
    assert hierarchy_report(sg.symmetric(4)).passed


def test_kind_chain_strict_in_s4():
    """Each base-graph inclusion is strict somewhere in S4 except
    power=enhanced; the solvable graph there is complete."""
    s4 = sg.symmetric(4)
    commuting = build_supergraph(s4, "commuting", "equality")
    nilpotent = build_supergraph(s4, "nilpotent", "equality")
    solvable = build_supergraph(s4, "solvable", "equality")
    assert set(commuting.edges()) < set(nilpotent.edges())
    assert set(nilpotent.edges()) < set(solvable.edges())
    assert solvable.num_edges == 24 * 23 // 2  # S4 itself is solvable
    # a 4-cycle and a reflection generate a dihedral 2-group: nilpotent
    # adjacency without commuting
    four_cycle = s4.index_of((1, 2, 3, 0))
    swap = s4.index_of((2, 1, 0, 3))
    assert not base_adjacent(s4, "commuting", four_cycle, swap)
    assert base_adjacent(s4, "nilpotent", four_cycle, swap)


def test_power_enhanced_distinct_where_an_order_is_not_prime_power():
    # an element of order 6 gives a cyclic pair with neither a power of the other
    group = sg.cyclic(6)
    power = build_supergraph(group, "power", "equality")
    enhanced = build_supergraph(group, "enhanced", "equality")
    assert power.num_edges < enhanced.num_edges
    # S4 only has prime-power element orders, so there the two coincide
    s4 = sg.symmetric(4)
    assert (
        build_supergraph(s4, "power", "equality").edges()
        == build_supergraph(s4, "enhanced", "equality").edges()
    )
