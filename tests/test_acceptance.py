"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact-integer (tolerance zero). Runtime budgets are
asserted where stated.
"""

import itertools
import math
import random
import time

import supergraphs as sg
from supergraphs.constructions import (
    KINDS,
    base_adjacent,
    build_partition,
    build_supergraph,
    hierarchy_report,
    quotient_supergraph,
)
from supergraphs.families import family_graph, verify_family, wiener_closed_form
from supergraphs.generation import containment_checks, equality_scan
from supergraphs.graphs import (
    Graph,
    compose_graphs,
    is_comparability,
    wiener_index,
    wiener_supergraph_formula,
    wiener_via_composition,
)
from supergraphs.universality import (
    class_adjacency,
    embed_graph,
    step3_embedding,
    strong_product_identity_check,
)

DIHEDRAL_RANGE = range(3, 21)
QUATERNION_RANGE = range(2, 13)


def catalog():
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


def multiplication_rows(group):
    return [[group.mul(i, j) for j in range(group.order)] for i in range(group.order)]


def is_connected(graph):
    """Whether a walk along edges from vertex 0 reaches every vertex."""
    reached, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in range(graph.n):
            if v not in reached and graph.has_edge(u, v):
                reached.add(v)
                stack.append(v)
    return len(reached) == graph.n


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        budget = f", budget {self.seconds}s" if self.seconds else ""
        print(f"[acceptance] {self.name}: {verdict} ({elapsed:.2f}s{budget})")
        if exc_type is None and self.seconds is not None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_wiener_closed_forms():
    with Budget("criterion 1 (Wiener closed forms)", 5):
        spot = {
            ("cscom-d", 3): 21,
            ("cscom-d", 4): 40,
            ("cscom-d", 6): 90,
            ("escom-d", 3): 24,
            ("escom-q", 2): 40,
            ("cscom-q", 2): 40,
            ("cscom-q", 3): 90,
        }
        for (family, n), expected in spot.items():
            assert wiener_closed_form(family, n) == expected
        for family, ns in (
            ("escom-d", DIHEDRAL_RANGE),
            ("cscom-d", DIHEDRAL_RANGE),
            ("escom-q", QUATERNION_RANGE),
            ("cscom-q", QUATERNION_RANGE),
        ):
            for n in ns:
                assert wiener_index(family_graph(family, n)) == wiener_closed_form(
                    family, n
                ), (family, n)


def test_criterion_2_structure_theorems():
    with Budget("criterion 2 (structure theorems)", 10):
        cases_seen = set()
        for family, ns in (
            ("escom-d", DIHEDRAL_RANGE),
            ("cscom-d", DIHEDRAL_RANGE),
            ("escom-q", QUATERNION_RANGE),
            ("cscom-q", QUATERNION_RANGE),
        ):
            report = verify_family(family, ns)
            assert report.passed, [r for r in report.records if not r["passed"]]
            cases_seen |= {(family, r["case"]) for r in report.records}
        assert ("cscom-d", "odd") in cases_seen
        assert ("cscom-d", "even-even") in cases_seen
        assert ("cscom-d", "even-odd") in cases_seen
        assert ("escom-d", "odd") in cases_seen and ("escom-d", "even") in cases_seen
        assert ("cscom-q", "odd") in cases_seen and ("cscom-q", "even") in cases_seen


def test_criterion_3_composition_formulas():
    with Budget("criterion 3 (composition formulas)", None):
        rng = random.Random(1789)
        for _ in range(100):
            k = rng.randint(1, 8)
            while True:
                edges = [
                    e
                    for e in itertools.combinations(range(k), 2)
                    if rng.random() < 0.6
                ]
                base = Graph([str(i) for i in range(k)], edges)
                if is_connected(base):
                    break
            # arbitrary factors, each with an edge density drawn from [0, 1];
            # one on an isolated base vertex is complete
            factors = []
            for i in range(k):
                size = rng.randint(1, 5)
                density = 1.0 if base.degree(i) == 0 else rng.random()
                pairs = itertools.combinations(range(size), 2)
                edges = [e for e in pairs if rng.random() < density]
                factors.append(Graph([str(v) for v in range(size)], edges))
            sizes = [f.n for f in factors]
            brute = wiener_index(compose_graphs(base, factors))
            assert wiener_via_composition(base, sizes, [f.num_edges for f in factors]) == brute
            completes = [Graph.complete(s) for s in sizes]
            brute = wiener_index(compose_graphs(base, completes))
            assert wiener_supergraph_formula(base, sizes) == brute
        # every quotient decomposition from criterion 2
        jobs = [("dihedral", n) for n in DIHEDRAL_RANGE] + [
            ("quaternion", n) for n in QUATERNION_RANGE
        ]
        for kind_name, n in jobs:
            group = sg.dihedral(n) if kind_name == "dihedral" else sg.quaternion(n)
            for pkind in ("equality", "conjugacy"):
                q = quotient_supergraph(group, "commuting", pkind)
                brute = wiener_index(build_supergraph(group, "commuting", pkind))
                inner_edges = [math.comb(s, 2) for s in q.sizes]
                assert wiener_via_composition(q.delta, q.sizes, inner_edges) == brute
                assert wiener_supergraph_formula(q.delta, q.sizes) == brute


def test_criterion_4_hierarchy_and_coincidence():
    with Budget("criterion 4 (hierarchy and order coincidence)", None):
        for group in catalog():
            report = hierarchy_report(group)
            assert report.passed, (group.label, report.to_json_dict())
            assert report.order_coincidence, group.label


def test_criterion_5_strong_product_identity():
    with Budget("criterion 5 (strong product identity)", 30):
        factors = [
            sg.cyclic(2),
            sg.cyclic(3),
            sg.symmetric(3),
            sg.dihedral(4),
            sg.quaternion(2),
        ]
        for i, left in enumerate(factors):
            for right in factors[i:]:
                for kind in ("commuting", "nilpotent", "solvable"):
                    assert strong_product_identity_check(left, right, kind), (
                        left.label,
                        right.label,
                        kind,
                    )


def test_criterion_6_universality():
    with Budget("criterion 6 (universality)", 120):
        # (a) n=3, N=7: all four kinds induce K3 minus the (3,5) edge; the
        # (3,5) non-adjacency follows from Jordan's theorem (3 + 5 > 7).
        for kind in ("commuting", "nilpotent", "solvable", "enhanced"):
            res = step3_embedding(3, kind, with_nonedge=True)
            assert res.degree == 7
            assert set(res.graph.edges()) == {(0, 1), (0, 2)}, kind
        # (b) n=4, N=11: commuting by the disjointness criterion and the
        # solvable (5,7) nonedge by Jordan's theorem.
        res = step3_embedding(4, "commuting")
        assert res.degree == 11
        assert set(res.graph.edges()) == set(
            itertools.combinations(range(4), 2)
        ) - {(2, 3)}
        assert not class_adjacency(11, 5, 7, "solvable")
        res = step3_embedding(4, "solvable")
        assert set(res.graph.edges()) == set(
            itertools.combinations(range(4), 2)
        ) - {(2, 3)}
        # (c) end-to-end embeddings with verified certificates.
        for kind in ("commuting", "solvable"):
            cert = embed_graph(Graph.path(3), kind)
            assert cert.verified and not cert.arithmetic_only
            cert = embed_graph(Graph.cycle(4), kind)
            assert cert.verified and not cert.arithmetic_only
            assert len(cert.factors) == 2


def test_criterion_7_comparability():
    with Budget("criterion 7 (comparability of power graphs)", None):
        for group in catalog():
            assert is_comparability(build_supergraph(group, "power", "equality")), group.label
            assert is_comparability(
                build_supergraph(group, "power", "conjugacy")
            ), group.label
        assert not is_comparability(Graph.cycle(5))


def test_criterion_8_containments():
    with Budget("criterion 8 (generating-graph containments)", 60):
        groups = catalog() + [sg.alternating(5)]
        equal_s3 = False
        for group in groups:
            for report in containment_checks(group):
                if not report.applicable:
                    continue
                assert report.contained, (group.label, report.kind, report.check)
                assert report.violations == ()
                if (
                    group.label == "S3"
                    and report.kind == "abelian"
                    and report.check == "generating-vs-base"
                ):
                    equal_s3 = report.equal
        assert equal_s3  # S3 is minimal non-abelian
        scan = equality_scan(
            [{"kind": "symmetric", "n": 3}, {"kind": "cyclic", "n": 6}]
        )
        assert scan.passed
        assert {"group": "S3", "kind": "abelian"} in scan.equality_groups


def test_criterion_9_property_suites():
    with Budget("criterion 9 (property suites)", None):
        rng = random.Random(5)
        for group in catalog():
            # group axioms, exhaustively (catalog orders are all <= 200)
            n = group.order
            rows = multiplication_rows(group)
            for i in range(n):
                assert rows[0][i] == i and rows[i][0] == i
                assert rows[i][group.inv(i)] == 0
            for a in range(n):
                ra = rows[a]
                for b in range(n):
                    assert rows[ra[b]] == [ra[rows[b][c]] for c in range(n)]
            # orbit-stabilizer
            for cls in group.conjugacy_classes():
                assert (
                    cls.size * len(group.centralizer(cls.representative))
                    == group.order
                )
            # cyclic => abelian => nilpotent => solvable on pair subgroups
            pairs = list(itertools.combinations(range(n), 2))
            for g, h in rng.sample(pairs, min(25, len(pairs))):
                members = group.pair_subgroup_members(g, h)
                cyclic = any(group.element_order(x) == len(members) for x in members)
                abelian = group.commutes(g, h)
                nilpotent = group.generates_nilpotent((g, h))
                assert (not cyclic or abelian)
                assert (not abelian or nilpotent)
                assert (not nilpotent or group.pair_is_solvable(g, h))
            # class-restricted scans lose nothing (order <= 24 groups)
            if group.order <= 24:
                part = build_partition(group, "conjugacy")
                for kind in KINDS:
                    delta = quotient_supergraph(group, kind, "conjugacy").delta
                    for a, b in itertools.combinations(range(len(part.classes)), 2):
                        first, second = part.classes[a], part.classes[b]
                        assert delta.has_edge(a, b) == any(
                            base_adjacent(group, kind, x, y) for x in first for y in second
                        )
        # composition and identity laws
        for left, right in itertools.combinations(
            [Graph.complete(2), Graph.path(3), Graph.cycle(4), Graph.empty(3)], 2
        ):
            composed = compose_graphs(Graph.complete(2), [left, right])
            cross = left.n * right.n
            assert composed.num_edges == left.num_edges + right.num_edges + cross
            assert all(
                composed.has_edge(u, left.n + v) for u in range(left.n) for v in range(right.n)
            )
        base = Graph.cycle(5)
        assert compose_graphs(base, [Graph.complete(1)] * 5).edges() == base.edges()
        for g, h in itertools.combinations_with_replacement(
            [Graph.complete(2), Graph.path(3), Graph.cycle(4)], 2
        ):
            prod = sg.strong_product(g, h)
            assert prod.num_edges == (
                2 * g.num_edges * h.num_edges
                + g.num_edges * h.n
                + h.num_edges * g.n
            )
