"""Graph operations against networkx: the cotree isomorphism test, the strong
product, and the contraction onto classes of vertices."""

import itertools
import math
import random

import pytest

from supergraphs.graphs import (
    Complete,
    Empty,
    Graph,
    Join,
    Union,
    contract,
    cotree_isomorphic,
    eval_expr,
    strong_product,
)

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


def random_graph(rng, n: int, m: int) -> Graph:
    """m edges drawn without replacement from the pairs of n vertices."""
    edges = rng.sample(list(itertools.combinations(range(n), 2)), m)
    return Graph([str(i) for i in range(n)], edges)


def relabelled(rng, graph: Graph) -> Graph:
    """The same graph with its vertices shuffled."""
    image = list(range(graph.n))
    rng.shuffle(image)
    return Graph(graph.labels, [(image[u], image[v]) for u, v in graph.edges()])


def has_induced_p4(graph: Graph) -> bool:
    """Some four vertices induce a path: three edges, degrees 1, 1, 2, 2."""
    for quad in itertools.combinations(range(graph.n), 4):
        degrees = sorted(sum(graph.has_edge(u, v) for v in quad) for u in quad)
        if degrees == [1, 1, 2, 2]:
            return True
    return False


def leaves_a_residue(graph: Graph) -> bool:
    try:
        cotree_isomorphic(graph, graph)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("seed", range(40))
def test_is_isomorphic_matches_networkx(seed):
    """On a graph of at most 8 vertices, a relabelling and a second draw with
    as many edges, five times: each leaves a residue iff it holds an induced P4, and the
    cotree test answers as networkx's is_isomorphic unless both do."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    m = rng.randint(0, math.comb(n, 2))
    left = random_graph(rng, n, m)
    for right in (relabelled(rng, left), *(random_graph(rng, n, m) for _ in range(5))):
        assert leaves_a_residue(right) == has_induced_p4(right)
        if has_induced_p4(left) and has_induced_p4(right):
            with pytest.raises(ValueError, match="induced P4"):
                cotree_isomorphic(left, right)
        else:
            answer = cotree_isomorphic(left, right)
            assert answer == nx.is_isomorphic(to_networkx(left), to_networkx(right))


def cotrees():
    """Join and Union trees over complete and empty leaves of 1-3 vertices."""
    leaves = st.builds(Complete, st.integers(1, 3)) | st.builds(Empty, st.integers(1, 3))
    return st.recursive(
        leaves,
        lambda inner: st.builds(Join, inner, inner)
        | st.builds(Union, st.lists(inner, min_size=2, max_size=3).map(tuple)),
        max_leaves=6,
    )


@SEEDED
@given(cotrees(), cotrees(), st.randoms(use_true_random=False))
def test_cotree_isomorphic_decides_join_union_trees(left, right, rng):
    """A tree's graph, relabelled, has the tree's cotree; two trees' graphs
    are cotree-isomorphic iff networkx finds them isomorphic."""
    left, right = eval_expr(left), eval_expr(right)
    assert cotree_isomorphic(relabelled(rng, left), left)
    expected = nx.is_isomorphic(to_networkx(left), to_networkx(right))
    assert cotree_isomorphic(left, right) == expected


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
