"""Graph operations against networkx: the isomorphism test and its witness,
the strong product, and the contraction onto classes of vertices."""

import itertools
import math
import random

import pytest

from supergraphs.graphs import Graph, contract, is_isomorphic, strong_product

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


@pytest.mark.parametrize("seed", range(30))
def test_contract_matches_networkx_quotient_graph(seed):
    """Vertex i of the contraction is the block classes[i] of the quotient."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    graph = random_graph(rng, n, rng.randint(0, math.comb(n, 2)))
    vertices = list(range(n))
    rng.shuffle(vertices)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    classes = [sorted(vertices[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    labels = [f"c{i}" for i in range(len(classes))]
    quotient = nx.quotient_graph(to_networkx(graph), [set(c) for c in classes])
    index = {frozenset(c): i for i, c in enumerate(classes)}
    expected = {tuple(sorted((index[b], index[c]))) for b, c in quotient.edges()}
    assert contract(graph, classes, labels) == Graph(labels, expected)
