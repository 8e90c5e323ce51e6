"""Distance sums against networkx: the Wiener index, Schwenk's identity for
a composition with arbitrary factors and its complete-factor case, the stop
after radius 1 on a graph with a universal vertex, and disconnection from
every entry point."""

import itertools
import math
import random

import pytest

from supergraphs import graphs
from supergraphs.cli import DEFAULT_CATALOG
from supergraphs.constructions import KINDS, PARTITIONS, expand_quotient, quotient_supergraph
from supergraphs.graphs import (
    DisconnectedGraphError,
    Graph,
    compose_graphs,
    wiener_index,
    wiener_supergraph_formula,
    wiener_via_composition,
)
from supergraphs.groups import make_group

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# derandomized: every run draws the same examples, and nothing is stored
SEEDED = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def to_networkx(graph: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(graph.n))
    out.add_edges_from(graph.edges())
    return out


def connected_gnp(n: int, p: float, seed: int) -> Graph:
    """A seeded G(n, p) graph plus a random spanning path, so it is connected."""
    rng = random.Random(seed)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    order = list(range(n))
    rng.shuffle(order)
    return Graph([str(i) for i in range(n)], edges + list(zip(order, order[1:])))


def weighted_sum_oracle(graph: Graph, sizes) -> int:
    """sum of s_i * s_j * d_ij over unordered pairs, from networkx distances."""
    dist = dict(nx.all_pairs_shortest_path_length(to_networkx(graph)))
    return sum(
        sizes[i] * sizes[j] * dist[i][j]
        for i, j in itertools.combinations(range(graph.n), 2)
    )


GNP_CASES = [(n, p, seed) for n in (2, 7, 19, 40) for p in (0.08, 0.3, 0.8) for seed in (1, 2)]


@pytest.mark.parametrize("n, p, seed", GNP_CASES)
def test_wiener_index_matches_networkx_on_gnp(n, p, seed):
    graph = connected_gnp(n, p, seed)
    assert wiener_index(graph) == nx.wiener_index(to_networkx(graph))


@pytest.mark.parametrize("n", [2, 3, 10, 101, 300])
def test_path_wiener_is_binomial(n):
    # the path has the largest diameter on n vertices, so the most radii
    assert wiener_index(Graph.path(n)) == math.comb(n + 1, 3)


@pytest.mark.parametrize("n", [3, 4, 9, 50])
def test_cycles_and_stars(n):
    star = Graph([str(i) for i in range(n)], [(0, i) for i in range(1, n)])
    assert wiener_index(star) == (n - 1) ** 2
    assert wiener_index(Graph.cycle(n)) == nx.wiener_index(nx.cycle_graph(n))


def test_trivial_graphs_have_wiener_zero():
    assert wiener_index(Graph([], [])) == 0
    assert wiener_index(Graph.complete(1)) == 0


@pytest.mark.parametrize("seed", range(8))
def test_supergraph_formula_matches_weighted_oracle(seed):
    rng = random.Random(seed)
    delta = connected_gnp(rng.randint(1, 14), rng.choice([0.15, 0.5]), seed)
    sizes = [rng.randint(1, 6) for _ in range(delta.n)]
    inner = sum(math.comb(s, 2) for s in sizes)
    assert wiener_supergraph_formula(delta, sizes) == inner + weighted_sum_oracle(delta, sizes)


@pytest.mark.parametrize("seed", range(8))
def test_composition_formula_matches_weighted_oracle(seed):
    rng = random.Random(100 + seed)
    base = connected_gnp(rng.randint(2, 14), rng.choice([0.15, 0.5]), seed)
    sizes = [rng.randint(1, 5) for _ in range(base.n)]
    inner_edges = [rng.randint(0, math.comb(s, 2)) for s in sizes]
    inner = sum(2 * math.comb(s, 2) - e for s, e in zip(sizes, inner_edges))
    assert wiener_via_composition(base, sizes, inner_edges) == inner + weighted_sum_oracle(
        base, sizes
    )


def test_composition_with_all_empty_factors():
    base = Graph.cycle(5)
    sizes = [3, 1, 4, 1, 5]
    inner = 2 * sum(math.comb(s, 2) for s in sizes)
    assert wiener_via_composition(base, sizes, [0] * 5) == inner + weighted_sum_oracle(
        base, sizes
    )


def drawn_graph(draw, n: int, complete: bool = False) -> Graph:
    """A graph on n vertices with drawn edges, or complete."""
    pairs = list(itertools.combinations(range(n), 2))
    keep = [True] * len(pairs) if complete else draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    )
    return Graph([str(i) for i in range(n)], itertools.compress(pairs, keep))


@st.composite
def compositions(draw):
    """A connected base on 1-8 vertices (a drawn spanning path plus drawn
    edges) and a factor of 1-6 vertices with drawn edges on each base vertex.
    The factor of a one-vertex base is complete: no other factor shortens
    its non-adjacent pairs to distance 2."""
    k = draw(st.integers(1, 8))
    order = draw(st.permutations(range(k)))
    base = drawn_graph(draw, k)
    base = Graph(base.labels, base.edges() + list(zip(order, order[1:])))
    factors = [drawn_graph(draw, draw(st.integers(1, 6)), complete=k == 1) for _ in range(k)]
    return base, factors


def schwenk_property(formula):
    """The property that formula(base, sizes, inner_edges) is the Wiener index
    of the composition, as the distance kernel and networkx compute it."""

    @SEEDED
    @given(compositions())
    def check(composition):
        base, factors = composition
        composed = compose_graphs(base, factors)
        got = formula(base, [f.n for f in factors], [f.num_edges for f in factors])
        assert got == wiener_index(composed) == nx.wiener_index(to_networkx(composed))

    return check


def test_schwenk_identity_holds_for_arbitrary_factors():
    schwenk_property(wiener_via_composition)()


def test_schwenk_property_catches_a_planted_inner_term():
    """A planted defect: the inner term C(n_i, 2) - e_i in place of
    2 C(n_i, 2) - e_i, wrong by C(n_i, 2) on every factor of two or more
    vertices."""

    def planted(base, sizes, inner_edges):
        right = wiener_via_composition(base, sizes, inner_edges)
        return right - sum(math.comb(s, 2) for s in sizes)

    with pytest.raises(AssertionError):
        schwenk_property(planted)()


def count_ball_growth(monkeypatch) -> list:
    """Record each neighbour read of the distance kernel: it reads
    neighbours only to grow balls past radius 1."""
    reads, bits = [], graphs._bits

    def counting_bits(mask, offset=0):
        reads.append(mask)
        return bits(mask, offset)

    monkeypatch.setattr(graphs, "_bits", counting_bits)
    return reads


@pytest.mark.parametrize("spec", DEFAULT_CATALOG, ids=lambda spec: make_group(spec).label)
def test_supergraph_distance_sums_stop_at_radius_one_and_stay_exact(spec, monkeypatch):
    """The identity is universal in every supergraph and its class in every
    delta, so both sums stop after radius 1: the Wiener index is then
    n(n - 1) - m, and the weighted sum is still the weighted oracle."""
    group = make_group(spec)
    for kind in KINDS:
        for pkind in PARTITIONS:
            q = quotient_supergraph(group, kind, pkind)
            graph = expand_quotient(group, q)
            reads = count_ball_growth(monkeypatch)
            w = wiener_index(graph)
            formula = wiener_supergraph_formula(q.delta, q.sizes)
            assert not reads, (kind, pkind)
            monkeypatch.undo()
            n, m = graph.n, graph.num_edges
            assert w == nx.wiener_index(to_networkx(graph)) == n * (n - 1) - m, (kind, pkind)
            inner = sum(math.comb(s, 2) for s in q.sizes)
            assert formula == inner + weighted_sum_oracle(q.delta, q.sizes), (kind, pkind)


def subdivided_star(leaves: int) -> Graph:
    """A star with one edge subdivided: the centre misses one vertex, and
    the diameter is 3."""
    edges = [(0, i) for i in range(1, leaves + 1)] + [(leaves, leaves + 1)]
    return Graph([str(i) for i in range(leaves + 2)], edges)


NO_UNIVERSAL_VERTEX = {
    "C4": Graph.cycle(4),
    "C5": Graph.cycle(5),
    "K3,3": Graph([str(i) for i in range(6)], [(u, v) for u in range(3) for v in range(3, 6)]),
    "Petersen": Graph([str(i) for i in range(10)], [
        edge for i in range(5) for edge in ((i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5))
    ]),
    "subdivided star": subdivided_star(6),
    "P7": Graph.path(7),
    "C12": Graph.cycle(12),
}


@pytest.mark.parametrize("name", NO_UNIVERSAL_VERTEX)
def test_distance_sums_without_a_universal_vertex_grow_the_balls(name, monkeypatch):
    """With no universal vertex the balls grow past radius 1, on graphs of
    diameter 2 and beyond, and the sums match networkx."""
    graph = NO_UNIVERSAL_VERTEX[name]
    assert all(graph.degree(v) < graph.n - 1 for v in range(graph.n))
    reads = count_ball_growth(monkeypatch)
    w = wiener_index(graph)
    sizes = [v % 3 + 1 for v in range(graph.n)]
    weighted = wiener_supergraph_formula(graph, sizes)
    assert reads
    monkeypatch.undo()
    assert w == nx.wiener_index(to_networkx(graph))
    inner = sum(math.comb(s, 2) for s in sizes)
    assert weighted == inner + weighted_sum_oracle(graph, sizes)


def two_components() -> Graph:
    # a path beside an edge: every ball of the path fills its own component
    return Graph([str(i) for i in range(5)], [(0, 1), (1, 2), (3, 4)])


def test_disconnection_raises_from_every_entry_point():
    graph = two_components()
    with pytest.raises(DisconnectedGraphError, match="Wiener index needs a connected graph"):
        wiener_index(graph)
    with pytest.raises(DisconnectedGraphError, match="composition base must be connected"):
        wiener_supergraph_formula(graph, [1, 2, 3, 4, 5])
    with pytest.raises(DisconnectedGraphError, match="composition base must be connected"):
        wiener_via_composition(graph, [2] * 5, [1] * 5)


def test_isolated_vertex_is_a_disconnection():
    graph = Graph([str(i) for i in range(3)], [(0, 1)])
    with pytest.raises(DisconnectedGraphError):
        wiener_index(graph)
    with pytest.raises(DisconnectedGraphError):
        wiener_via_composition(graph, [1, 1, 2], [0, 0, 0])
