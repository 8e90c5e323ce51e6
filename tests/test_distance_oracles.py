"""Distance sums against networkx: the Wiener index, the composition and
supergraph formulas, and disconnection from every entry point."""

import itertools
import math
import random

import pytest

from supergraphs.graphs import (
    DisconnectedGraphError,
    Graph,
    wiener_index,
    wiener_supergraph_formula,
    wiener_via_composition,
)

nx = pytest.importorskip("networkx")


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
    kinds = [rng.choice(["complete", "empty"]) for _ in range(base.n)]
    inner = sum(
        math.comb(s, 2) * (1 if k == "complete" else 2) for s, k in zip(sizes, kinds)
    )
    assert wiener_via_composition(base, sizes, kinds) == inner + weighted_sum_oracle(base, sizes)


def test_composition_with_all_empty_factors():
    base = Graph.cycle(5)
    sizes = [3, 1, 4, 1, 5]
    inner = 2 * sum(math.comb(s, 2) for s in sizes)
    assert wiener_via_composition(base, sizes, ["empty"] * 5) == inner + weighted_sum_oracle(
        base, sizes
    )


def two_components() -> Graph:
    # a path beside an edge: every ball of the path fills its own component
    return Graph([str(i) for i in range(5)], [(0, 1), (1, 2), (3, 4)])


def test_disconnection_raises_from_every_entry_point():
    graph = two_components()
    with pytest.raises(DisconnectedGraphError, match="Wiener index needs a connected graph"):
        wiener_index(graph)
    with pytest.raises(DisconnectedGraphError, match="delta must be connected"):
        wiener_supergraph_formula(graph, [1, 2, 3, 4, 5])
    with pytest.raises(DisconnectedGraphError, match="composition base must be connected"):
        wiener_via_composition(graph, [2] * 5, ["complete"] * 5)


def test_isolated_vertex_is_a_disconnection():
    graph = Graph([str(i) for i in range(3)], [(0, 1)])
    with pytest.raises(DisconnectedGraphError):
        wiener_index(graph)
    with pytest.raises(DisconnectedGraphError):
        wiener_via_composition(graph, [1, 1, 2], ["complete", "complete", "empty"])
