"""Generating and invariable generating graphs and their containments."""

import itertools
import math

import pytest
from test_constructions import LARGE_CYCLIC_CLASS_GROUPS, first_hit_scan

import supergraphs as sg
from supergraphs import generation
from supergraphs.generation import (
    containment_checks,
    equality_scan,
    generating_graph,
    invariable_generating_graph,
)
from supergraphs.constructions import QuotientDecomposition, build_partition, hierarchy_report
from supergraphs.graphs import Graph, blow_up, edge_difference
from supergraphs.groups import MetacyclicGroup, closure_set, make_group


def test_generating_graph_cyclic5_complete():
    assert generating_graph(sg.cyclic(5)).num_edges == 10


def test_generating_graph_identity_isolated_iff_noncyclic():
    s3 = sg.symmetric(3)
    assert generating_graph(s3).degree(0) == 0
    c6 = sg.cyclic(6)
    assert generating_graph(c6).degree(0) == 2  # e with either generator


def test_generating_graph_s3():
    got = generating_graph(sg.symmetric(3))
    assert got.num_edges == 9
    # transpositions at indices 1,2,5; rotations at 3,4 (lex order of perms)
    transpositions, rotations = {1, 2, 5}, {3, 4}
    expected = {tuple(sorted(p)) for p in itertools.combinations(transpositions, 2)}
    expected |= {tuple(sorted((t, r))) for t in transpositions for r in rotations}
    assert set(got.edges()) == expected


def test_invariable_generating_graph_s3():
    got = invariable_generating_graph(sg.symmetric(3))
    transpositions, rotations = {1, 2, 5}, {3, 4}
    expected = {tuple(sorted((t, r))) for t in transpositions for r in rotations}
    assert set(got.edges()) == expected
    assert got.num_edges == 6


def test_invariable_generating_graph_abelian_equals_generating():
    for group in (sg.cyclic(6), sg.product(sg.cyclic(2), sg.cyclic(4))):
        assert (
            invariable_generating_graph(group).edges()
            == generating_graph(group).edges()
        )


def test_invariable_generating_graph_q8():
    got = invariable_generating_graph(sg.quaternion(2))
    # pairs taken from two different axes {a,a^3}, {b,a^2 b}, {ab, a^3 b}
    axes = [(1, 3), (4, 6), (5, 7)]
    expected = set()
    for first, second in itertools.combinations(axes, 2):
        expected |= {tuple(sorted((x, y))) for x in first for y in second}
    assert set(got.edges()) == expected
    assert got.num_edges == 12


def test_igg_contained_in_generating_graph():
    for group in (sg.symmetric(3), sg.dihedral(4), sg.quaternion(2), sg.alternating(4)):
        igg = set(invariable_generating_graph(group).edges())
        gen = set(generating_graph(group).edges())
        assert igg <= gen


def test_fixed_representative_scan_equals_full_double_scan():
    """Scanning y over its class with x pinned equals the full conjugate scan."""
    for group in (sg.symmetric(3), sg.dihedral(4), sg.quaternion(2), sg.alternating(4)):
        assert group.order <= 24
        order = group.order
        igg = invariable_generating_graph(group)

        def conjugate(g, x):
            return group.mul(group.mul(group.inv(x), g), x)

        for x, y in itertools.combinations(range(order), 2):
            full = all(
                len(group.pair_subgroup_members(conjugate(x, g), conjugate(y, h))) == order
                for g in range(order)
                for h in range(order)
            )
            assert igg.has_edge(x, y) == full


@pytest.mark.parametrize("group", [sg.symmetric(4), sg.dihedral(20)], ids=["S4", "D40"])
def test_generating_graph_rows_match_pairwise_closures(group):
    expected = Graph(group.labels(), [
        (g, h) for g, h in itertools.combinations(range(group.order), 2)
        if len(closure_set(group.mul, 0, [g, h])) == group.order
    ])
    assert generating_graph(group) == expected


def _generates_by_closure(group):
    """Whether g and h generate the group, by closing them over its Cayley
    table; a closure past half the group is the group, by Lagrange."""
    rows = [[group.mul(i, j) for j in range(group.order)] for i in range(group.order)]

    def generates(g, h):
        members, frontier = {0}, [0]
        while frontier and 2 * len(members) <= group.order:
            fresh = []
            for m in frontier:
                for t in (rows[m][g], rows[m][h]):
                    if t not in members:
                        members.add(t)
                        fresh.append(t)
            frontier = fresh
        return 2 * len(members) > group.order

    return generates


def _generates_cyclic(n):
    """a^i and a^j generate C_n iff gcd(i, j, n) = 1."""
    return lambda i, j: math.gcd(i, j, n) == 1


def _generates_metacyclic(m, n):
    """D_2n (m = n) and Q_4n (m = 2n), a^i at index i < m and a^i b at
    m + i. Two powers of a never generate; a^i with a^j b generates iff
    gcd(i, n) = 1, and a^i b with a^j b iff gcd(i - j, n) = 1: each pair
    holds (a^j b)^2, which is e or a^n, and <a^i, a^n> is <a^gcd(i, n)>."""
    def generates(g, h):
        i, j = g % m, h % m
        if g >= m and h >= m:
            return math.gcd(i - j, n) == 1
        if g >= m or h >= m:
            return math.gcd(j if g >= m else i, n) == 1
        return False

    return generates


def _generation_mismatches(group, graph, generates):
    """The pairs on which graph disagrees with generates."""
    return {
        (g, h) for g, h in itertools.combinations(range(group.order), 2)
        if graph.has_edge(g, h) != generates(g, h)
    }


def _generates_by_arithmetic(family, n):
    group = getattr(sg, family)(n)
    if family == "cyclic":
        return group, _generates_cyclic(n)
    return group, _generates_metacyclic(group.m, n)


@pytest.mark.parametrize("family, n", [("cyclic", 1), ("cyclic", 12), ("cyclic", 30), ("dihedral", 3),
                                       ("dihedral", 12), ("quaternion", 2), ("quaternion", 6)])
def test_arithmetic_generation_agrees_with_closures(family, n):
    group, generates = _generates_by_arithmetic(family, n)
    closes = _generates_by_closure(group)
    assert all(generates(g, h) == closes(g, h)
               for g, h in itertools.combinations(range(group.order), 2))


# the groups whose pairs are decided by arithmetic: (family, n)
ARITHMETIC_GENERATION = {"C360": ("cyclic", 360), "D400": ("dihedral", 200), "Q400": ("quaternion", 100)}


@pytest.mark.parametrize("name", LARGE_CYCLIC_CLASS_GROUPS)
def test_generating_graph_matches_generation_where_cyclic_classes_are_large(name):
    """Pairs are closed over the Cayley table, or, on C360, D400 and Q400,
    decided by arithmetic on exponents."""
    if name in ARITHMETIC_GENERATION:
        group, generates = _generates_by_arithmetic(*ARITHMETIC_GENERATION[name])
    else:
        group = LARGE_CYCLIC_CLASS_GROUPS[name]()
        generates = _generates_by_closure(group)
    assert not _generation_mismatches(group, generating_graph(group), generates)


@pytest.mark.parametrize("family, n", [("dihedral", 999), ("dihedral", 1000), ("quaternion", 495),
                                       ("quaternion", 500)],
                         ids=["D1998", "D2000", "Q1980", "Q2000"])
def test_presented_generation_matches_arithmetic_up_to_order_2000(family, n):
    """D_2n and Q_4n read generation from the presentation
    (`pair_generates`); the generating graph and the invariable generating
    graph's classes equal what `_generates_metacyclic` derives pair by pair,
    for odd and even n (in Q_4n with odd n, s = n is all that makes a^2
    and b generate)."""
    group, generates = _generates_by_arithmetic(family, n)
    assert not _generation_mismatches(group, generating_graph(group), generates)
    classes = build_partition(group, "conjugacy").classes
    expected = {(x, y) for x, y in itertools.combinations(range(len(classes)), 2)
                if all(generates(g, h) for g in classes[x] for h in classes[y])}
    assert expected and set(generation._invariable_classes(group).edges()) == expected


def test_generation_oracle_catches_joined_generators_of_one_subgroup(monkeypatch):
    """A generating graph that joins the 8 generators of one cyclic
    subgroup of order 30 in C6 x C10, which is not cyclic, is caught on
    exactly their 28 pairs."""
    group = LARGE_CYCLIC_CLASS_GROUPS["C6xC10"]()
    x = next(g for g in range(group.order) if len(closure_set(group.mul, 0, [g])) == 30)
    powers = [0]
    while len(powers) < 30:
        powers.append(group.mul(powers[-1], x))
    planted = {powers[k] for k in range(30) if math.gcd(k, 30) == 1}
    real = generation._generates

    def planted_generates(group):
        generates = real(group)
        return lambda g, h: (g in planted and h in planted) or generates(g, h)

    monkeypatch.setattr(generation, "_generates", planted_generates)
    mismatches = _generation_mismatches(group, generating_graph(group), _generates_by_closure(group))
    assert mismatches == set(itertools.combinations(sorted(planted), 2))


@pytest.mark.parametrize("group, requests", [(sg.symmetric(4), 6), (sg.alternating(5), 6),
                                             (sg.dihedral(20), 11)], ids=["S4", "A5", "D40"])
def test_invariable_generating_graph_closes_a_fixed_number_of_pairs(group, requests, monkeypatch):
    """The class scan for a pair that fails to generate stops where a scan
    for every pair generating would: it asks `pair_generates` for the pairs,
    none of them commuting, that `first_hit_scan` derives from the orbits of
    cyclic subgroups. Scanning pairs of conjugacy classes asked 7, 16 and
    21. S4 and A5 close each pair asked; D40 reads each from its
    presentation and closes none."""
    def fails(g, h):
        return len(closure_set(group.mul, 0, [g, h])) < group.order

    scanned = first_hit_scan(group, fails, build_partition(group, "conjugacy"), True)
    asked = [(g, h) for g, h in scanned if not group.commutes(g, h)]
    assert len(asked) == requests
    generates, members, asks, closes = group.pair_generates, group.pair_subgroup_members, [], []

    def asking(g, h):
        asks.append((g, h))
        return generates(g, h)

    def closing(g, h):
        closes.append((g, h))
        return members(g, h)

    monkeypatch.setattr(group, "pair_generates", asking)
    monkeypatch.setattr(group, "pair_subgroup_members", closing)
    invariable_generating_graph(group)
    assert asks == asked
    assert closes == ([] if isinstance(group, MetacyclicGroup) else asked)


@pytest.mark.parametrize("build", [generating_graph, invariable_generating_graph])
def test_centralizer_orbits_run_once_per_pinned_subgroup_and_orbit(build, monkeypatch):
    """Each scan walks the centralizer orbits of a pinned subgroup on an
    orbit of cyclic subgroups at most once: D40 has 8 such orbits, one per
    rotation subgroup and two of reflections, so at most 36 pairs of them."""
    group = sg.dihedral(20)
    orbits, real, keys = group.cyclic_orbits().orbits, group.centralizer_orbits, []

    def recording(g, subgroups):
        keys.append((group.cyclic_classes().class_of[g], subgroups))
        return real(g, subgroups)

    monkeypatch.setattr(group, "centralizer_orbits", recording)
    build(group)
    assert len(orbits) == 8
    assert 0 < len(keys) == len(set(keys)) <= 36
    assert {subgroups for _, subgroups in keys} <= set(orbits)


@pytest.mark.parametrize("spec", [{"kind": "symmetric", "n": 5}, {"kind": "dihedral", "n": 20}])
def test_centralizer_orbits_walked_once_per_group(spec, monkeypatch):
    """The hierarchy and the containments ask for the centralizer orbits of
    a pinned element on an orbit of cyclic subgroups once per scan that
    closes subgroups; the group walks each such pair once and serves the
    rest from its cache."""
    group, asked, walked = make_group(spec), [], []
    real_orbits, real_walk = group.centralizer_orbits, group._walk_centralizer

    def asking(g, subgroups):
        asked.append((g, subgroups))
        return real_orbits(g, subgroups)

    def walking(g, subgroups):
        walked.append((g, subgroups))
        return real_walk(g, subgroups)

    monkeypatch.setattr(group, "centralizer_orbits", asking)
    monkeypatch.setattr(group, "_walk_centralizer", walking)
    hierarchy_report(group)
    containment_checks(group)
    assert sorted(walked) == sorted(set(asked))
    assert len(asked) > len(walked)


def test_containment_s3_minimal_non_abelian():
    reports = {(r.kind, r.check): r for r in containment_checks(sg.symmetric(3))}
    r = reports[("abelian", "generating-vs-base")]
    assert r.applicable and r.contained and r.equal
    r = reports[("abelian", "invariable-vs-super")]
    assert r.applicable and r.contained and r.equal
    # S3 is solvable, so the solvable kind is skipped
    assert not reports[("solvable", "generating-vs-base")].applicable


def test_containment_abelian_group_all_skipped():
    for report in containment_checks(sg.cyclic(6)):
        assert not report.applicable


def test_containment_d10_nilpotent_applicable():
    reports = {(r.kind, r.check): r for r in containment_checks(sg.dihedral(5))}
    r = reports[("nilpotent", "generating-vs-base")]
    assert r.applicable and r.contained
    r = reports[("nilpotent", "invariable-vs-super")]
    assert r.applicable and r.contained


def test_containment_a5_solvable_kind():
    reports = {(r.kind, r.check): r for r in containment_checks(sg.alternating(5))}
    for check in ("generating-vs-base", "invariable-vs-super"):
        r = reports[("solvable", check)]
        assert r.applicable and r.contained
        assert not r.violations
    # A5 is minimal non-solvable: equality in the generating-graph containment
    assert reports[("solvable", "generating-vs-base")].equal


def test_planted_class_pair_is_reported_element_by_element(monkeypatch):
    """One extra class pair in A5's conjugacy solvable delta, between two
    classes that the invariable generating graph joins. The check compares
    classes, yet its violations are exactly the element-level ones: the
    edges of the invariable generating graph missing from the complement of
    the planted supergraph."""
    a5 = sg.alternating(5)
    real = generation.quotient_supergraph
    honest = real(a5, "solvable", "conjugacy")
    igg = invariable_generating_graph(a5)
    i, j = next(
        (i, j) for i, j in itertools.combinations(range(honest.delta.n), 2)
        if not honest.delta.has_edge(i, j) and igg.has_edge(honest.classes[i][0], honest.classes[j][0])
    )
    planted = QuotientDecomposition(
        Graph(honest.delta.labels, [*honest.delta.edges(), (i, j)]), honest.classes
    )

    def quotient(group, kind, pkind):
        return planted if (kind, pkind) == ("solvable", "conjugacy") else real(group, kind, pkind)

    monkeypatch.setattr(generation, "quotient_supergraph", quotient)
    reports = {(r.kind, r.check): r for r in containment_checks(a5)}
    supergraph = blow_up(planted.delta, planted.classes, a5.labels(), "complete")
    expected = edge_difference(igg, supergraph.complement()).edges()
    r = reports[("solvable", "invariable-vs-super")]
    assert not r.contained and not r.equal
    assert list(r.violations) == expected
    assert len(expected) == len(honest.classes[i]) * len(honest.classes[j])
    assert all(r.contained for key, r in reports.items() if key != ("solvable", "invariable-vs-super"))


def test_equality_scan_flags_s3():
    report = equality_scan([{"kind": "symmetric", "n": 3}])
    assert report.passed
    assert {"group": "S3", "kind": "abelian"} in report.equality_groups


def test_equality_scan_skips_abelian_entirely():
    report = equality_scan([{"kind": "cyclic", "n": 6}])
    assert report.passed
    assert report.equality_groups == []
    assert all(not r.get("applicable", False) for r in report.records)


def test_equality_scan_records_d10_and_bad_specs():
    report = equality_scan([{"kind": "dihedral", "n": 5}, {"kind": "cyclic", "n": 10**6}])
    kinds = {r["kind"] for r in report.records if r.get("applicable")}
    assert "nilpotent" in kinds and "abelian" in kinds
    assert any("skipped" in r for r in report.records)


def test_equality_scan_builds_only_the_invariable_check(monkeypatch):
    """The scan reads only the invariable-vs-super records, so it builds no
    generating graph and no equality base graph, and its records are those
    of the full containment checks."""
    specs = [{"kind": "symmetric", "n": 4}, {"kind": "alternating", "n": 5}, {"kind": "dihedral", "n": 6}]
    expected = [
        (r.kind, r.applicable, r.contained, r.equal)
        for spec in specs
        for r in containment_checks(make_group(spec))
        if r.check == "invariable-vs-super"
    ]

    def refuse(group):
        raise AssertionError("the scan built a generating graph")

    partitions, build = [], generation.quotient_supergraph
    monkeypatch.setattr(generation, "generating_graph", refuse)
    monkeypatch.setattr(
        generation, "quotient_supergraph",
        lambda group, kind, pkind: partitions.append(pkind) or build(group, kind, pkind),
    )
    report = equality_scan(specs)
    assert set(partitions) == {"conjugacy"}
    assert [(r["kind"], r["applicable"], r["contained"], r["equal"]) for r in report.records] == expected
