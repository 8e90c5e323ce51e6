"""Graph algebra: expressions, products, distances, Wiener identities,
isomorphism, and comparability."""

import itertools
import json
import random

import pytest

from supergraphs.graphs import (
    Complete,
    Composition,
    DisconnectedGraphError,
    Empty,
    Graph,
    compose_graphs,
    disjoint_union,
    distance_matrix,
    eval_expr,
    intersection,
    is_comparability,
    is_isomorphic,
    join,
    strong_product,
    wiener_index,
    wiener_supergraph_formula,
    wiener_via_composition,
)
from supergraphs.groups import SizeCapError


def k4_minus_matching():
    return Graph("abcd", [(0, 1), (1, 2), (2, 3), (3, 0)])


def corpus():
    return [
        Graph.complete(1),
        Graph.complete(2),
        Graph.complete(3),
        Graph.complete(4),
        Graph.path(3),
        Graph.path(4),
        Graph.cycle(4),
        Graph.cycle(5),
        Graph("abcd", [(0, 1), (0, 2), (0, 3)]),  # star
        Graph.empty(3),
    ]


# --- basics ---


def test_graph_rejects_loops_and_duplicate_labels():
    with pytest.raises(ValueError):
        Graph("ab", [(0, 0)])
    with pytest.raises(ValueError):
        Graph(["x", "x"], [])


def test_edges_are_sorted_and_deduplicated():
    g = Graph("abc", [(2, 0), (0, 1), (1, 0)])
    assert g.edges() == [(0, 1), (0, 2)]
    assert g.num_edges == 2


def test_complement():
    assert Graph.path(3).complement().edges() == [(0, 2)]
    assert Graph.complete(4).complement().num_edges == 0


# --- expressions ---


def test_eval_complete_empty():
    assert eval_expr(Complete(4)).num_edges == 6
    assert eval_expr(Empty(3)).num_edges == 0
    with pytest.raises(ValueError):
        eval_expr(Complete(0))


def test_composition_of_singletons_is_join():
    got = eval_expr(Composition(Complete(2), (Complete(1), Complete(1))))
    assert got.n == 2 and got.num_edges == 1


def test_composition_path_base():
    got = compose_graphs(
        Graph.path(3), [Graph.complete(2), Graph.complete(1), Graph.complete(2)]
    )
    assert (got.n, got.num_edges) == (5, 6)


def test_composition_identity_factors():
    base = Graph.cycle(5)
    got = compose_graphs(base, [Graph.complete(1)] * 5)
    assert got.num_edges == base.num_edges
    assert got.edges() == base.edges()


def test_composition_factor_count_mismatch():
    with pytest.raises(ValueError):
        compose_graphs(Graph.path(3), [Graph.complete(1)] * 2)


def test_composition_k2_base_equals_join():
    for left, right in itertools.combinations(corpus(), 2):
        composed = compose_graphs(Graph.complete(2), [left, right])
        joined = join(left, right)
        assert composed.labels == joined.labels
        assert composed.edges() == joined.edges()


# --- strong product & intersection ---


def test_strong_product_k2_k2():
    got = strong_product(Graph.complete(2), Graph.complete(2))
    assert got.n == 4 and got.num_edges == 6


def test_strong_product_unit():
    h = Graph.path(4)
    got = strong_product(Graph.complete(1), h)
    assert got.num_edges == h.num_edges and got.n == h.n


def test_strong_product_p3_k2():
    got = strong_product(Graph.path(3), Graph.complete(2))
    assert (got.n, got.num_edges) == (6, 11)


def test_strong_product_edge_count_formula():
    for left, right in itertools.combinations_with_replacement(corpus(), 2):
        got = strong_product(left, right)
        el, er = left.num_edges, right.num_edges
        assert got.num_edges == 2 * el * er + el * right.n + er * left.n


def test_intersection_basics():
    k4 = Graph.complete(4)
    minus1 = Graph(k4.labels, [e for e in k4.edges() if e != (0, 1)])
    minus2 = Graph(k4.labels, [e for e in k4.edges() if e != (2, 3)])
    got = intersection(minus1, minus2)
    assert got.num_edges == 4
    assert is_isomorphic(got, Graph.cycle(4))[0]
    g = Graph.path(4)
    assert intersection(g, g) == g
    assert intersection(g, Graph.empty(4, g.labels)).num_edges == 0
    with pytest.raises(ValueError):
        intersection(Graph.path(3), Graph.complete(3, "xyz"))
    with pytest.raises(ValueError):
        intersection(Graph.path(3), Graph.complete(4))


def test_diagonal_of_strong_product_is_intersection():
    """The diagonal of G x H induces the intersection, for same-labelled pairs."""
    same_size = [g for g in corpus() if g.n == 4]
    for left, right in itertools.combinations_with_replacement(same_size, 2):
        right = Graph(left.labels, right.edges())
        prod = strong_product(left, right)
        diag = prod.induced([i * right.n + i for i in range(left.n)])
        expected = intersection(left, right)
        assert diag.edges() == expected.edges()


def test_induced_subgraph():
    assert Graph.complete(5).induced([0, 2, 4]).num_edges == 3
    assert Graph.cycle(4).induced([0, 1, 2]).edges() == [(0, 1), (1, 2)]
    prod = strong_product(Graph.complete(2), Graph.complete(2))
    assert prod.induced([0, 3]).num_edges == 1
    with pytest.raises(ValueError):
        Graph.path(3).induced([0, 5])


# --- distances and Wiener ---


def test_distance_matrix():
    assert distance_matrix(Graph.path(3)) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert all(
        d == 1 for i, row in enumerate(distance_matrix(Graph.complete(4))) for j, d in enumerate(row) if i != j
    )
    assert distance_matrix(Graph.empty(2)) == [[0, -1], [-1, 0]]


def test_wiener_basics():
    for n in range(2, 7):
        assert wiener_index(Graph.complete(n)) == n * (n - 1) // 2
    assert wiener_index(Graph.path(3)) == 4
    with pytest.raises(DisconnectedGraphError):
        wiener_index(Graph.empty(2))


def test_wiener_via_composition_examples():
    assert wiener_via_composition(Graph.complete(2), (1, 2), ("complete", "empty")) == 4  # P3
    assert wiener_via_composition(Graph.complete(2), (1, 3), ("complete", "empty")) == 9  # star
    assert wiener_via_composition(Graph.complete(1), (4,), ("complete",)) == 6


def test_wiener_via_composition_preconditions():
    with pytest.raises(DisconnectedGraphError):
        wiener_via_composition(Graph.empty(2), (1, 1), ("complete",) * 2)
    with pytest.raises(ValueError, match="length-two path"):
        wiener_via_composition(Graph.complete(1), (2,), ("empty",))
    base = Graph.complete(2)
    with pytest.raises(ValueError, match="one factor per base vertex"):
        wiener_via_composition(base, (1,), ("complete",) * 2)
    with pytest.raises(ValueError, match="one factor kind per base vertex"):
        wiener_via_composition(base, (1, 1), ("complete",))
    with pytest.raises(ValueError, match="unknown factor kind 'weird'"):
        wiener_via_composition(base, (1, 1), ("complete", "weird"))
    with pytest.raises(ValueError, match="factor sizes must be positive"):
        wiener_via_composition(base, (1, 0), ("complete", "complete"))


def test_wiener_supergraph_formula_examples():
    delta = Graph("eab", [(0, 1), (0, 2)])  # centre first
    assert wiener_supergraph_formula(delta, (1, 2, 3)) == 21
    assert wiener_supergraph_formula(Graph.complete(1), (5,)) == 10
    assert wiener_supergraph_formula(Graph.complete(2), (2, 2)) == 6
    with pytest.raises(ValueError):
        wiener_supergraph_formula(delta, (1, 2))


def _random_connected_graph(rng, n):
    while True:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.55]
        g = Graph([str(i) for i in range(n)], edges)
        if -1 not in g.bfs_distances(0):
            return g


def test_wiener_composition_agrees_with_bfs_randomized():
    """Formula vs BFS on 100 seeded random compositions with mixed factors."""
    rng = random.Random(20240817)
    for _ in range(100):
        k = rng.randint(1, 8)
        base = _random_connected_graph(rng, k)
        sizes = tuple(rng.randint(1, 5) for _ in range(k))
        kinds = tuple(
            "complete"
            if (k == 1 or base.degree(i) == 0 or rng.random() < 0.5)
            else "empty"
            for i, _ in enumerate(sizes)
        )
        factors = [
            Graph.complete(s) if kd == "complete" else Graph.empty(s)
            for s, kd in zip(sizes, kinds)
        ]
        composed = compose_graphs(base, factors)
        assert wiener_via_composition(base, sizes, kinds) == wiener_index(composed)
        if all(kd == "complete" for kd in kinds):
            assert wiener_supergraph_formula(base, sizes) == wiener_index(composed)


def test_wiener_formula_matches_composition_all_complete():
    rng = random.Random(99)
    for _ in range(100):
        k = rng.randint(1, 8)
        base = _random_connected_graph(rng, k)
        sizes = tuple(rng.randint(1, 5) for _ in range(k))
        via_composition = wiener_via_composition(base, sizes, ("complete",) * k)
        assert wiener_supergraph_formula(base, sizes) == via_composition


# --- isomorphism ---


def test_isomorphic_c4_vs_k4_minus_matching():
    ok, witness = is_isomorphic(Graph.cycle(4), k4_minus_matching())
    assert ok and witness is not None


def test_not_isomorphic_p3_k3():
    assert is_isomorphic(Graph.path(3), Graph.complete(3)) == (False, None)


def test_isomorphism_reflexive_symmetric_and_witness_exact():
    graphs = corpus()
    for g in graphs:
        ok, w = is_isomorphic(g, g)
        assert ok and w is not None
    for left, right in itertools.combinations(graphs, 2):
        fwd, w_fwd = is_isomorphic(left, right)
        bwd, _ = is_isomorphic(right, left)
        assert fwd == bwd
        if fwd:
            for u, v in itertools.combinations(range(left.n), 2):
                assert left.has_edge(u, v) == right.has_edge(w_fwd[u], w_fwd[v])


def test_isomorphism_cap():
    with pytest.raises(SizeCapError):
        is_isomorphic(Graph.empty(65), Graph.empty(65))


def test_isomorphism_distinguishes_same_degree_sequence():
    # C6 vs 2x C3: both 2-regular on 6 vertices
    c6 = Graph.cycle(6)
    two_triangles = disjoint_union([Graph.complete(3), Graph.complete(3)])
    assert is_isomorphic(c6, two_triangles) == (False, None)


# --- comparability ---


def test_comparability_known_cases():
    assert is_comparability(Graph.complete(3))
    assert not is_comparability(Graph.cycle(5))
    assert is_comparability(Graph.cycle(4))  # bipartite
    assert is_comparability(Graph.cycle(6))
    assert not is_comparability(Graph.cycle(7))
    assert is_comparability(Graph.empty(4))
    assert is_comparability(Graph.path(5))


def test_comparability_cap():
    with pytest.raises(SizeCapError):
        is_comparability(Graph.empty(70))


def _brute_force_comparability(graph):
    """Try all 2^m orientations and check transitivity directly."""
    edges = graph.edges()
    for mask in range(2 ** len(edges)):
        arcs = {
            (u, v) if mask >> i & 1 else (v, u) for i, (u, v) in enumerate(edges)
        }
        if all(
            (a, d) in arcs
            for a, b in arcs
            for c, d in arcs
            if b == c and a != d
        ):
            return True
    return len(edges) == 0


def test_comparability_matches_brute_force_on_all_small_graphs():
    labels = list("abcde")
    pairs = list(itertools.combinations(range(5), 2))
    for mask in range(2 ** len(pairs)):
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        g = Graph(labels, edges)
        assert is_comparability(g) == _brute_force_comparability(g), edges


def _brute_force_isomorphic(left, right):
    if left.n != right.n:
        return False
    for perm in itertools.permutations(range(right.n)):
        if all(
            left.has_edge(u, v) == right.has_edge(perm[u], perm[v])
            for u, v in itertools.combinations(range(left.n), 2)
        ):
            return True
    return False


def test_isomorphism_matches_brute_force_on_four_vertex_graphs():
    pairs = list(itertools.combinations(range(4), 2))
    graphs = [
        Graph("abcd", [e for i, e in enumerate(pairs) if mask >> i & 1])
        for mask in range(2 ** len(pairs))
    ]
    for left, right in itertools.combinations(graphs, 2):
        got, witness = is_isomorphic(left, right)
        assert got == _brute_force_isomorphic(left, right)
        if got:
            for u, v in itertools.combinations(range(4), 2):
                assert left.has_edge(u, v) == right.has_edge(witness[u], witness[v])


# --- serialization ---


def test_graph_json_roundtrip():
    g = k4_minus_matching()
    data = json.loads(json.dumps(g.to_json_dict()))
    assert Graph.from_json_dict(data) == g


def test_dot_export_is_deterministic():
    g = Graph.path(3)
    dot = g.to_dot()
    assert dot == g.to_dot()
    assert 'v0 [label="0"];' in dot
    assert "v0 -- v1;" in dot
