"""Graph operations against networkx: the isomorphism test and its witness,
and the strong product."""

import itertools
import math
import random

import pytest

from supergraphs.graphs import Graph, is_isomorphic, strong_product

nx = pytest.importorskip("networkx")


def to_networkx(graph: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(graph.n))
    out.add_edges_from(graph.edges())
    return out


def random_graph(rng, n: int, m: int) -> Graph:
    """m edges drawn without replacement from the pairs of n vertices."""
    edges = rng.sample(list(itertools.combinations(range(n), 2)), m)
    return Graph([str(i) for i in range(n)], edges)


def relabelled(rng, graph: Graph) -> Graph:
    """The same graph with its vertices shuffled."""
    image = list(range(graph.n))
    rng.shuffle(image)
    return Graph(graph.labels, [(image[u], image[v]) for u, v in graph.edges()])


@pytest.mark.parametrize("seed", range(40))
def test_is_isomorphic_matches_networkx(seed):
    """A relabelling is isomorphic; a second draw with as many edges may not
    be. Every witness maps edges onto edges."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    m = rng.randint(0, math.comb(n, 2))
    left = random_graph(rng, n, m)
    for right in (relabelled(rng, left), random_graph(rng, n, m)):
        answer, witness = is_isomorphic(left, right)
        assert answer == nx.is_isomorphic(to_networkx(left), to_networkx(right))
        if not answer:
            assert witness is None
            continue
        assert sorted(witness) == list(range(n))
        assert all(right.has_edge(witness[u], witness[v]) for u, v in left.edges())


@pytest.mark.parametrize("seed", range(20))
def test_strong_product_matches_networkx(seed):
    """Vertex (u, v) of the product is u * |right| + v."""
    rng = random.Random(seed)
    n, k = rng.randint(1, 5), rng.randint(1, 5)
    left = random_graph(rng, n, rng.randint(0, math.comb(n, 2)))
    right = random_graph(rng, k, rng.randint(0, math.comb(k, 2)))
    product = strong_product(left, right)
    expected = nx.strong_product(to_networkx(left), to_networkx(right))
    rn = right.n
    assert product.n == expected.number_of_nodes() == left.n * rn
    assert set(product.edges()) == {
        tuple(sorted((u * rn + v, x * rn + y))) for (u, v), (x, y) in expected.edges()
    }
