"""Base graphs, partitions, supergraphs, compressed and quotient forms, and
the two-dimensional containment hierarchy."""

import itertools
import math
import tracemalloc

import pytest
from test_groups import index_of
from test_power_edge_counts import cyclic_power_edges

import supergraphs as sg
from supergraphs import constructions
from supergraphs.constructions import (
    KINDS,
    _pair_test,
    base_adjacent,
    build_compressed,
    build_partition,
    build_supergraph,
    class_graph,
    hierarchy_report,
    quotient_supergraph,
)
from supergraphs.graphs import (
    Complete,
    Empty,
    Graph,
    Join,
    compose_graphs,
    contract,
    cotree_isomorphic,
    eval_expr,
    is_subgraph,
)
from supergraphs.groups import make_group


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


EQUALITY_MASK_GROUPS = {
    "S4": lambda: sg.symmetric(4),
    "A5": lambda: sg.alternating(5),
    "D40": lambda: sg.dihedral(20),
    "Q48": lambda: sg.quaternion(12),
    "S3xC4": lambda: sg.product(sg.symmetric(3), sg.cyclic(4)),
}


@pytest.mark.parametrize("name", EQUALITY_MASK_GROUPS)
def test_equality_delta_rows_match_base_adjacency_on_every_pair(name):
    """The rows that the equality scan ORs together, with the transposed
    bits it sets, hold exactly the base adjacency of every pair."""
    group = EQUALITY_MASK_GROUPS[name]()
    for kind in KINDS:
        expected = Graph(group.labels(), [
            (g, h) for g, h in itertools.combinations(range(group.order), 2)
            if base_adjacent(group, kind, g, h)
        ])
        assert quotient_supergraph(group, kind, "equality").delta == expected, kind


def _frobenius20_rows():
    """Cayley table of the Frobenius group Z5 : Z4, (a, b)(c, d) =
    (a + 2^b c, b + d), identity first: an element x of order 4 is not
    conjugate to x^-1."""
    elements = [(a, b) for b in range(4) for a in range(5)]
    index = {x: i for i, x in enumerate(elements)}
    return [[index[(a + pow(2, b, 5) * c) % 5, (b + d) % 4] for c, d in elements]
            for a, b in elements]


# groups whose cyclic subgroups have many generators (C360's whole group has
# 96), or whose conjugacy classes miss some generators of their members'
# subgroups (x^2 is not conjugate to x of order 3 in Z7 : Z3, given by
# permutation generators, nor x^-1 to x of order 4 in the table of Z5 : Z4)
LARGE_CYCLIC_CLASS_GROUPS = {
    "C360": lambda: sg.cyclic(360),
    "C6xC10": lambda: sg.product(sg.cyclic(6), sg.cyclic(10)),
    "D400": lambda: sg.dihedral(200),
    "Q400": lambda: sg.quaternion(100),
    "Q8xS4": lambda: sg.product(sg.quaternion(2), sg.symmetric(4)),
    "Z7:Z3": lambda: make_group(
        {"kind": "permgens", "degree": 7, "gens": [[[1, 2, 3, 4, 5, 6, 7]], [[2, 3, 5], [4, 7, 6]]]}),
    "Z5:Z4": lambda: make_group({"kind": "table", "rows": _frobenius20_rows()}),
}


@pytest.mark.parametrize("name", LARGE_CYCLIC_CLASS_GROUPS)
def test_equality_deltas_match_base_adjacency_where_cyclic_classes_are_large(name):
    """The equality delta of every kind, and the class graph of every
    kind's pair test with no whole-group shortcut, hold exactly the base
    adjacency of every pair. Every group here is solvable, so every pair is
    solvable-adjacent without a closure."""
    group = LARGE_CYCLIC_CLASS_GROUPS[name]()
    assert group.is_solvable()
    partition = build_partition(group, "equality")
    for kind in KINDS:
        if kind == "solvable":
            expected = Graph.complete(group.order, group.labels())
        else:
            expected = Graph(group.labels(), [
                (g, h) for g, h in itertools.combinations(range(group.order), 2)
                if base_adjacent(group, kind, g, h)
            ])
        assert quotient_supergraph(group, kind, "equality").delta == expected, kind
        per_orbit = kind == "solvable"
        assert class_graph(group, _pair_test(group, kind), per_orbit, partition) == expected, kind


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
    assert cotree_isomorphic(got, expected)


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


def test_quotient_labels_come_from_the_label_cache_only_with_one_class_per_element():
    """An equality quotient reads the group's cached labels; a compressed
    quotient labels only its class representatives."""
    group = sg.symmetric(4)
    calls = []
    label = group.element_label
    group.element_label = lambda i: calls.append(i) or label(i)
    compressed = quotient_supergraph(group, "commuting", "conjugacy")
    reps = [members[0] for members in compressed.classes]
    assert sorted(calls) == sorted(reps)
    assert compressed.delta.labels == tuple(label(r) for r in reps)
    calls.clear()
    for kind in ("commuting", "power"):
        q = quotient_supergraph(group, kind, "equality")
        assert q.delta.labels == tuple(label(i) for i in range(24))
    assert sorted(calls) == list(range(24))  # the cache is built once


def test_quotient_q8():
    q = quotient_supergraph(sg.quaternion(2), "commuting", "conjugacy")
    assert q.sizes == (1, 1, 2, 2, 2)
    assert cotree_isomorphic(q.delta, eval_expr(Join(Complete(2), Empty(3))))


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


def test_hierarchy_catches_a_spurious_edge_that_containment_misses(monkeypatch):
    """One spurious edge in S4's nilpotent order delta, which has 4 of 6
    edges, joining the classes of orders 4 and 3. The solvable order delta is
    complete, so the kind chain still holds, and so does the element-level
    containment of the conjugacy supergraph in the order supergraph: only the
    contraction identity breaks, on that one link."""
    s4 = sg.symmetric(4)
    real = constructions.quotient_supergraph
    honest = real(s4, "nilpotent", "order")
    assert honest.delta.labels[1:3] == ("(1 2 3 4)", "(2 3 4)")
    assert honest.delta.num_edges == 4 and not honest.delta.has_edge(1, 2)
    planted = constructions.QuotientDecomposition(
        Graph(honest.delta.labels, [*honest.delta.edges(), (1, 2)]), honest.classes
    )

    def quotient(group, kind, pkind):
        return planted if (kind, pkind) == ("nilpotent", "order") else real(group, kind, pkind)

    monkeypatch.setattr(constructions, "quotient_supergraph", quotient)
    assert is_subgraph(
        build_supergraph(s4, "nilpotent", "conjugacy"), build_supergraph(s4, "nilpotent", "order")
    )
    report = hierarchy_report(s4)
    assert not report.passed and report.order_coincidence
    assert all(link["holds"] for link in report.kind_chain)
    broken = [(link["kind"], link["lower"], link["upper"])
              for link in report.partition_chain if not link["holds"]]
    assert broken == [("nilpotent", "conjugacy", "order")]


def test_hierarchy_catches_a_spurious_edge_of_the_graph_on_cyclic_subgroups(monkeypatch):
    """One spurious edge in every graph on S4's cyclic subgroups, joining
    <(0 1 2)> and <(0 1)>, which generate S3: no base graph but the solvable
    one, complete on S4, joins them. Every equality delta blows up its
    planted graph, while each coarser delta comes from the first-hit sink of
    the same scan, which pulls back the orbits' hits and never reads Gamma,
    so the contraction of the equality delta onto the conjugacy classes
    breaks for each planted kind."""
    s4 = sg.symmetric(4)
    cyclic = s4.cyclic_classes()
    u, v = (cyclic.class_of[index_of(s4, p)] for p in [(1, 2, 0, 3), (1, 0, 2, 3)])
    real = constructions.blow_up

    def planted(delta, classes, labels, factor):
        if classes is cyclic.members:
            assert not delta.has_edge(u, v)
            delta = Graph(delta.labels, [*delta.edges(), (u, v)])
        return real(delta, classes, labels, factor)

    monkeypatch.setattr(constructions, "blow_up", planted)
    report = hierarchy_report(s4)
    assert not report.passed and report.order_coincidence
    assert all(link["holds"] for link in report.kind_chain)
    broken = [(link["kind"], link["lower"], link["upper"])
              for link in report.partition_chain if not link["holds"]]
    assert broken == [(kind, "equality", "conjugacy") for kind in KINDS[:4]]


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
    four_cycle = index_of(s4, (1, 2, 3, 0))
    swap = index_of(s4, (2, 1, 0, 3))
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


@pytest.mark.parametrize("group, kind", [(sg.cyclic(3000), "commuting"),
                                         (sg.dihedral(1500), "solvable")], ids=["C3000", "D3000"])
def test_complete_delta_is_built_in_bounded_memory(group, kind):
    """A complete delta is built with no edge list: one (i, j) tuple per
    pair of 3,000 classes takes about 280 MB."""
    tracemalloc.start()
    try:
        delta = quotient_supergraph(group, kind, "equality").delta
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert delta == Graph.complete(3000, group.labels())


@pytest.mark.parametrize("group, kind, edges", [
    (sg.cyclic(3000), "power", cyclic_power_edges(3000)),
    (sg.dihedral(1500), "commuting", math.comb(1500, 2) + 5 * 1500 // 2),
], ids=["C3000-power", "D3000-commuting"])
def test_dense_equality_delta_is_built_in_bounded_memory(group, kind, edges):
    """A dense delta that is not complete, built from the graph on cyclic
    subgroups: C3000 has 32 of them, and D3000 1,524. The rotations of
    D3000 commute pairwise, and each reflection commutes with e, the
    central a^750 and one other reflection: C(1500, 2) + 1500 / 2 * 5
    edges. C3000's count is the closed form m(P(C_n))."""
    tracemalloc.start()
    try:
        delta = quotient_supergraph(group, kind, "equality").delta
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert delta.num_edges == edges


def test_order_partition_stores_one_set_per_cyclic_subgroup():
    """C2000's order partition walks each cyclic subgroup once and shares
    its set among the subgroup's generators; one set per element took a
    130 MB peak."""
    group = sg.cyclic(2000)
    tracemalloc.start()
    try:
        partition = build_partition(group, "order")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert len(partition.classes) == 20  # one per divisor of 2000


@pytest.mark.parametrize("group", [sg.cyclic(12), sg.quaternion(6), sg.symmetric(4)],
                         ids=["C12", "Q24", "S4"])
def test_cyclic_subgroup_is_one_object_for_its_generators(group):
    """<g> is g's powers, and g^k returns the same object for each k prime
    to the order d of g."""
    for g in range(group.order):
        sub = group.cyclic_subgroup(g)
        d = group.element_order(g)
        powers = [0]
        for _ in range(d - 1):
            powers.append(group.mul(powers[-1], g))
        assert sub == frozenset(powers) and len(sub) == d
        for k, power in enumerate(powers):
            if math.gcd(k, d) == 1:
                assert group.cyclic_subgroup(power) is sub


def _cyclic_subgroups(group):
    """{cyclic subgroup: its generators, increasing}, in order of least
    generator: each element's subgroup is walked from its powers."""
    generators = {}
    for g in range(group.order):
        powers, acc = [0], g
        while acc:
            powers.append(acc)
            acc = group.mul(acc, g)
        generators.setdefault(frozenset(powers), []).append(g)
    return generators


def _conjugate_subgroup(group, sub, x):
    return frozenset(group.mul(group.mul(group.inv(x), h), x) for h in sub)


def _cyclic_subgroup_orbits(group):
    """Each orbit of cyclic subgroups under conjugation, in the order a
    breadth-first walk under conjugation by the group's generators reaches
    it from its subgroup of least generator; orbits in that order. Each
    subgroup is conjugated whole."""
    orbits, reached = [], set()
    for sub in _cyclic_subgroups(group):
        if sub not in reached:
            reached.add(sub)
            orbit = [sub]
            for k in orbit:
                for s in group.generators():
                    image = _conjugate_subgroup(group, k, s)
                    if image not in reached:
                        reached.add(image)
                        orbit.append(image)
            orbits.append(orbit)
    return orbits


def first_hit_scan(group, test, partition, per_orbit):
    """The element pairs that the scan of a coarse partition tests, derived
    from the orbits above: orbits sorted by size; for each orbit b, the
    least generator r of b's first subgroup is tested against r^-1 when <r>
    has two or more generators, and a hit relates every two classes that
    b's elements lie in; then for a <= b, r is tested against the least
    generator of each subgroup of a in walk order, or, with per_orbit, of
    the least subgroup of each orbit of C(r) on a, <r> itself left out, up
    to the first hit. A pair of orbits is skipped when every two classes
    that their elements lie in are related already, and a hit relates all
    of them."""
    generators = _cyclic_subgroups(group)
    orbits = sorted(_cyclic_subgroup_orbits(group), key=len)
    part_of = partition.class_of
    meets = [{part_of[g] for sub in orbit for g in generators[sub]} for orbit in orbits]
    related, calls = set(), []

    def pairs(a, b):
        return {frozenset((i, j)) for i in meets[b] for j in meets[a] if i != j}

    for b, orbit in enumerate(orbits):
        r = generators[orbit[0]][0]
        if len(orbit[0]) > 2:
            calls.append((r, group.inv(r)))
            if test(r, group.inv(r)):
                related |= pairs(b, b)
        centralizer = [x for x in range(group.order) if group.commutes(r, x)]
        for a in range(b + 1):
            if pairs(a, b) <= related:
                continue
            candidates, covered = [], set()
            scanned = sorted(orbits[a], key=generators.get) if per_orbit else orbits[a]
            for sub in scanned:
                if sub not in covered:
                    candidates.append(sub)
                    if per_orbit:
                        covered |= {_conjugate_subgroup(group, sub, c) for c in centralizer}
            for sub in candidates:
                if sub != orbit[0]:
                    calls.append((r, generators[sub][0]))
                    if test(*calls[-1]):
                        related |= pairs(a, b)
                        break
    return calls


@pytest.mark.parametrize("group, element_tests", [(sg.symmetric(5), 353), (sg.dihedral(20), 168),
                                                  (sg.symmetric(6), 2709)], ids=["S5", "D40", "S6"])
def test_equality_scan_tests_each_class_pair_from_its_larger_class(group, element_tests):
    """Each pair of orbits of cyclic subgroups a <= b, sorted by size, is
    decided by pinning b's representative and testing it against one
    generator of each subgroup of a, its own subgroup left out, plus one
    test per orbit of subgroups with two or more generators, whether those
    are joined. Testing every member of every smaller conjugacy class took
    element_tests: sum over a <= b of |C_a|, less one per class."""
    sizes = [c.size for c in group.conjugacy_classes()]
    assert element_tests == sum(sizes[a] for b in range(len(sizes)) for a in range(b + 1)) - len(sizes)
    orbits = sorted(_cyclic_subgroup_orbits(group), key=len)
    tests = sum(len(orbit) * (len(orbits) - a) for a, orbit in enumerate(orbits)) - len(orbits)
    tests += sum(len(orbit[0]) > 2 for orbit in orbits)
    assert tests < element_tests
    calls = []

    def counting_commutes(g, h):
        calls.append((g, h))
        return group.commutes(g, h)

    graph = class_graph(group, counting_commutes, False, build_partition(group, "equality"))
    assert len(calls) == tests
    assert graph == Graph(group.labels(), [
        (g, h) for g, h in itertools.combinations(range(group.order), 2) if group.commutes(g, h)
    ])


@pytest.mark.parametrize("name", [*EQUALITY_MASK_GROUPS, "S5"])
def test_coarse_deltas_are_contractions_of_the_equality_delta(name):
    """A conjugacy or order class is a union of elements, so its delta is the
    equality delta contracted onto the partition. The brute-force check above
    stops at order 8; these groups reach order 120, and their order classes
    hold several conjugacy classes each, whose pairs the scan skips once the
    order classes are related."""
    group = {**EQUALITY_MASK_GROUPS, "S5": lambda: sg.symmetric(5)}[name]()
    for kind in KINDS:
        fine = quotient_supergraph(group, kind, "equality").delta
        for pkind in ("conjugacy", "order"):
            delta = quotient_supergraph(group, kind, pkind).delta
            classes = build_partition(group, pkind).classes
            assert contract(fine, classes, delta.labels) == delta, (kind, pkind)


def _recorded_first_hits(group, kind, pkind):
    """The coarse scan's tests of kind on the pkind partition, each but the
    diagonal tests of r against r^-1 asserted to pair two partition classes
    that no earlier hit related, with the tests `first_hit_scan` derives,
    the pairs of two classes that hit, and delta."""
    partition = build_partition(group, pkind)
    base = _pair_test(group, kind)
    calls, related = [], set()

    def recording_test(g, h):
        pair = frozenset((partition.class_of[g], partition.class_of[h]))
        if h != group.inv(g):
            assert len(pair) == 2 and pair not in related, (g, h)
        calls.append((g, h))
        ok = base(g, h)
        if ok and len(pair) == 2:
            related.add(pair)
        return ok

    delta = class_graph(group, recording_test, False, partition)
    return calls, first_hit_scan(group, base, partition, False), related, delta


@pytest.mark.parametrize("kind, pkind, tests", [("power", "order", 688),
                                                ("commuting", "order", 537),
                                                ("commuting", "conjugacy", 955)])
def test_coarse_scan_stops_at_the_first_hit_of_each_class_pair(kind, pkind, tests):
    """On S6, no test but the diagonal ones, r against r^-1 once per orbit
    of subgroups with two or more generators (7 of S6's 11), pairs two
    elements of one partition class, and no test follows the first hit that
    relates its two partition classes. The tests are exactly those that
    `first_hit_scan` derives from the orbits of cyclic subgroups; scanning
    pairs of conjugacy classes took 1,280, 1,126 and 1,612. The generators
    of a cyclic subgroup of S6 are conjugate, so each hit relates one pair
    of classes."""
    calls, expected, related, delta = _recorded_first_hits(sg.symmetric(6), kind, pkind)
    assert len(expected) == tests
    assert calls == expected
    assert related == {frozenset(e) for e in delta.edges()}


@pytest.mark.parametrize("name", ["D400", "Q400", "Z5:Z4"])
def test_coarse_scan_pairs_two_classes_where_generators_split(name):
    """The generators of a^k's subgroup lie in several conjugacy classes of
    D400 and Q400, and x and x^-1 of order 4 in two of Z5:Z4, so an orbit
    of cyclic subgroups meets several classes: the one test of r against
    r^-1, in r's class (D400, Q400) or not (Z5:Z4), relates every class the
    orbit meets to each other, and one hit relates every class of one orbit
    to every class of the other."""
    group = LARGE_CYCLIC_CLASS_GROUPS[name]()
    part_of = build_partition(group, "conjugacy").class_of
    generators = group.cyclic_classes().members
    within = {frozenset((part_of[g], part_of[h]))
              for orbit in group.cyclic_orbits().orbits
              for g, h in itertools.combinations(generators[orbit[0]], 2)
              if part_of[g] != part_of[h]}
    assert within
    for kind in ("power", "commuting"):
        calls, expected, related, delta = _recorded_first_hits(group, kind, "conjugacy")
        assert calls == expected, kind
        edges = {frozenset(e) for e in delta.edges()}
        assert related < edges and within <= edges, kind
