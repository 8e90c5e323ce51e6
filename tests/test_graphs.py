"""Graph algebra: expressions, products, distances, Wiener identities,
isomorphism, and comparability."""

import itertools
import json
import random
import time

import pytest

import supergraphs as sg
from supergraphs import graphs
from supergraphs.constructions import build_supergraph
from supergraphs.generation import invariable_generating_graph
from supergraphs.graphs import (
    Complete,
    Composition,
    DisconnectedGraphError,
    Empty,
    Graph,
    Union,
    compose_graphs,
    cotree_isomorphic,
    eval_expr,
    intersection,
    is_comparability,
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
    """Over K2 the composition is the join: each factor keeps its edges and
    every vertex of the left factor meets every vertex of the right."""
    for left, right in itertools.combinations(corpus(), 2):
        composed = compose_graphs(Graph.complete(2), [left, right])
        shift = left.n
        joined = (
            set(left.edges())
            | {(shift + u, shift + v) for u, v in right.edges()}
            | {(u, shift + v) for u in range(left.n) for v in range(right.n)}
        )
        assert composed.labels == tuple(
            [f"0:{lbl}" for lbl in left.labels] + [f"1:{lbl}" for lbl in right.labels]
        )
        assert set(composed.edges()) == joined


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
    assert cotree_isomorphic(got, Graph.cycle(4))
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


def test_wiener_basics():
    for n in range(2, 7):
        assert wiener_index(Graph.complete(n)) == n * (n - 1) // 2
    assert wiener_index(Graph.path(3)) == 4
    with pytest.raises(DisconnectedGraphError):
        wiener_index(Graph.empty(2))


def test_wiener_via_composition_examples():
    assert wiener_via_composition(Graph.complete(2), (1, 2), (0, 0)) == 4  # P3
    assert wiener_via_composition(Graph.complete(2), (1, 3), (0, 0)) == 9  # star
    assert wiener_via_composition(Graph.complete(2), (1, 3), (0, 2)) == 7  # K1 joined to P3
    assert wiener_via_composition(Graph.complete(1), (4,), (6,)) == 6


def test_wiener_via_composition_preconditions():
    """One case per precondition: matching lengths, positive sizes, edge
    counts in [0, C(n, 2)], a connected base, and a complete factor on an
    isolated base vertex."""
    base = Graph.complete(2)
    with pytest.raises(ValueError, match="one factor size and one edge count per base vertex"):
        wiener_via_composition(base, (1,), (0, 0))
    with pytest.raises(ValueError, match="one factor size and one edge count per base vertex"):
        wiener_via_composition(base, (1, 1), (0,))
    with pytest.raises(ValueError, match="factor sizes must be positive"):
        wiener_via_composition(base, (1, 0), (0, 0))
    with pytest.raises(ValueError, match="between 0 and C"):
        wiener_via_composition(base, (1, 3), (0, -1))
    with pytest.raises(ValueError, match="between 0 and C"):
        wiener_via_composition(base, (1, 3), (0, 4))
    with pytest.raises(DisconnectedGraphError):
        wiener_via_composition(Graph.empty(2), (1, 1), (0, 0))
    with pytest.raises(ValueError, match="length-two path"):
        wiener_via_composition(Graph.complete(1), (3,), (2,))


def test_wiener_supergraph_formula_examples():
    delta = Graph("eab", [(0, 1), (0, 2)])  # centre first
    assert wiener_supergraph_formula(delta, (1, 2, 3)) == 21
    assert wiener_supergraph_formula(Graph.complete(1), (5,)) == 10
    assert wiener_supergraph_formula(Graph.complete(2), (2, 2)) == 6
    with pytest.raises(ValueError):
        wiener_supergraph_formula(delta, (1, 2))


def _is_connected(graph):
    """Whether a walk along edges from vertex 0 reaches every vertex."""
    reached, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in range(graph.n):
            if v not in reached and graph.has_edge(u, v):
                reached.add(v)
                stack.append(v)
    return len(reached) == graph.n


def _random_connected_graph(rng, n):
    while True:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.55]
        g = Graph([str(i) for i in range(n)], edges)
        if _is_connected(g):
            return g


def _random_factor(rng, n, complete):
    """A graph on n vertices, complete or with an edge density drawn from [0, 1]."""
    density = 1.0 if complete else rng.random()
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    return Graph([str(i) for i in range(n)], edges)


def test_wiener_composition_agrees_with_bfs_randomized():
    """Formula vs BFS on 100 seeded random compositions with arbitrary
    factors; a factor on an isolated base vertex is complete."""
    rng = random.Random(20240817)
    for _ in range(100):
        k = rng.randint(1, 8)
        base = _random_connected_graph(rng, k)
        factors = [_random_factor(rng, rng.randint(1, 5), base.degree(i) == 0) for i in range(k)]
        composed = compose_graphs(base, factors)
        sizes, inner_edges = [f.n for f in factors], [f.num_edges for f in factors]
        assert wiener_via_composition(base, sizes, inner_edges) == wiener_index(composed)


def test_wiener_formula_matches_composition_all_complete():
    rng = random.Random(99)
    for _ in range(100):
        k = rng.randint(1, 8)
        base = _random_connected_graph(rng, k)
        sizes = tuple(rng.randint(1, 5) for _ in range(k))
        composed = compose_graphs(base, [Graph.complete(s) for s in sizes])
        assert wiener_supergraph_formula(base, sizes) == wiener_index(composed)


# --- isomorphism of cographs ---


def test_isomorphic_c4_vs_k4_minus_matching():
    assert cotree_isomorphic(Graph.cycle(4), k4_minus_matching())


def test_not_isomorphic_p3_k3():
    assert not cotree_isomorphic(Graph.path(3), Graph.complete(3))


def test_cotree_isomorphism_reflexive_and_symmetric():
    """P4 and C5 hold an induced P4: paired with each other or themselves
    they raise, and against a cograph they are not isomorphic."""
    graphs = corpus()
    cographs = [g for g in graphs if g not in (Graph.path(4), Graph.cycle(5))]
    assert len(cographs) == len(graphs) - 2
    for left, right in itertools.product(graphs, repeat=2):
        if left not in cographs and right not in cographs:
            with pytest.raises(ValueError, match="induced P4"):
                cotree_isomorphic(left, right)
            continue
        fwd = cotree_isomorphic(left, right)
        assert fwd == cotree_isomorphic(right, left) == _brute_force_isomorphic(left, right)


def test_isomorphism_distinguishes_same_degree_sequence():
    # C6 vs 2x C3: both 2-regular on 6 vertices, and only C6 holds a P4
    c6 = Graph.cycle(6)
    two_triangles = eval_expr(Union((Complete(3), Complete(3))))
    assert not cotree_isomorphic(c6, two_triangles)
    assert not cotree_isomorphic(two_triangles, c6)


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


def _dense_random_graph(n):
    rng = random.Random(1)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.9]
    return Graph(list(map(str, range(n))), edges)


@pytest.mark.parametrize("n, m, answer", [(22, 213, False), (18, 144, True)])
def test_comparability_of_dense_random_graphs_is_fast(n, m, answer):
    """Dense graphs on which a backtracking orienter searched for seconds to
    a minute are decided at once."""
    graph = _dense_random_graph(n)
    assert graph.num_edges == m
    start = time.perf_counter()
    assert is_comparability(graph) is answer
    assert time.perf_counter() - start < 1.0


def test_comparability_graphs_of_two_dimensional_posets():
    """u ~ v iff (x_u - x_v)(y_u - y_v) > 0: the product order of two
    coordinates orients the edges transitively."""
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(20, 64)
        points = [(rng.random(), rng.random()) for _ in range(n)]
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if (points[u][0] - points[v][0]) * (points[u][1] - points[v][1]) > 0
        ]
        assert is_comparability(Graph(list(map(str, range(n))), edges))


def test_comparability_of_cycles_and_odd_antiholes():
    for n in range(7, 32, 2):
        assert not is_comparability(Graph.cycle(n)), n
        assert not is_comparability(Graph.cycle(n).complement()), n
    for n in range(4, 33, 2):
        assert is_comparability(Graph.cycle(n)), n


def test_comparability_matches_brute_force_on_random_sparse_graphs():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(6, 8)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(list(map(str, range(n))), rng.sample(pairs, rng.randint(0, 12)))
        assert is_comparability(g) == _brute_force_comparability(g), g.edges()


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
    """The 12 labellings of P4 are the only 4-vertex graphs that are not
    cographs: a pair of them raises."""
    pairs = list(itertools.combinations(range(4), 2))
    graphs = [
        Graph("abcd", [e for i, e in enumerate(pairs) if mask >> i & 1])
        for mask in range(2 ** len(pairs))
    ]
    paths = [g for g in graphs if _brute_force_isomorphic(g, Graph.path(4))]
    assert len(paths) == 12
    for left, right in itertools.combinations(graphs, 2):
        if left in paths and right in paths:
            with pytest.raises(ValueError):
                cotree_isomorphic(left, right)
        else:
            assert cotree_isomorphic(left, right) == _brute_force_isomorphic(left, right)


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


@pytest.mark.parametrize("build, distinct", [
    (lambda: build_supergraph(sg.symmetric(6), "commuting", "order"), 5),
    (lambda: invariable_generating_graph(sg.dihedral(100)), 1),
])
def test_edge_rows_decode_each_neighbourhood_once(build, distinct, monkeypatch):
    """Each row is decoded once per twin class, not once per vertex: the S6
    commuting graph on the order partition has 5 classes of true twins with
    a neighbour above them, and in D200's invariable generating graph every
    such vertex is a rotation generating the rotations, adjacent to the 100
    reflections, all false twins. The rows hold the edges of the masks."""
    graph, decoded = build(), []
    real = graphs._bits

    def counting(mask, offset=0):
        decoded.append(mask)
        return real(mask, offset)

    monkeypatch.setattr(graphs, "_bits", counting)
    rows = list(graph.edge_rows())
    closed = {mask | 1 << u for u, mask in enumerate(graph.masks) if mask >> u + 1}
    opened = {mask for u, mask in enumerate(graph.masks) if mask >> u + 1}
    assert len(decoded) == min(len(closed), len(opened)) == distinct < graph.n
    monkeypatch.undo()
    assert sum(map(len, (vs for _, vs in rows))) == graph.num_edges
    assert all(graph.has_edge(u, v) and u < v for u, vs in rows for v in vs)


def test_bits_reads_every_set_bit_on_each_path():
    """_bits against a bit-by-bit read, on masks of widths up to 20,000
    whose bit counts sit on both sides of the lowest-bit walk's threshold
    and reach the sparse and the dense bin() paths."""
    rng, walked = random.Random(7), graphs._WALKED_BITS
    for width in (1, 7, 64, 720, 20000):
        for count in {0, 1, walked, walked + 1, 40, width // 3, width}:
            count = min(count, width)
            mask = sum(1 << b for b in rng.sample(range(width), count))
            offset = rng.randrange(5)
            assert graphs._bits(mask, offset) == [b + offset for b in range(width) if mask >> b & 1]
