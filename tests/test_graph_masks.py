"""Seeded property tests of the bitmask graph operations against set-based
definitions, on random graphs with at most 40 vertices."""

import itertools
import json
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from supergraphs.graphs import (  # noqa: E402
    Graph,
    blow_up,
    compose_graphs,
    edge_difference,
    intersection,
    is_subgraph,
    strong_product,
)

# derandomized: every run draws the same examples, and nothing is stored
SEEDED = settings(derandomize=True, database=None, max_examples=60, deadline=None)


# a drawn seed, not st.randoms(): every call on those is a separate draw
rngs = st.integers(0, 2**32 - 1).map(random.Random)


def random_edges(rng, n, density):
    return [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density]


@st.composite
def edge_lists(draw, max_n=40):
    """A vertex count and a random edge list, each edge in a random orientation,
    some repeated."""
    n = draw(st.integers(0, max_n))
    rng = draw(rngs)
    edges = random_edges(rng, n, rng.random())
    edges += rng.sample(edges, len(edges) // 4)
    return n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


@st.composite
def graphs(draw, max_n=40):
    n, edges = draw(edge_lists(max_n))
    return Graph([f"v{i}" for i in range(n)], edges)


@st.composite
def graph_pairs(draw):
    """Two random graphs on the same labelled vertices."""
    left = draw(graphs())
    rng = draw(rngs)
    return left, Graph(left.labels, random_edges(rng, left.n, rng.random()))


def edge_set(graph):
    return {(u, v) for u, v in itertools.combinations(range(graph.n), 2) if graph.has_edge(u, v)}


def assert_edges(graph, expected):
    """graph has exactly the edge set expected: no more, no fewer, no loops."""
    assert graph.edges() == sorted(expected)
    assert graph == Graph(graph.labels, expected)


@SEEDED
@given(edge_lists())
def test_edges_are_the_sorted_deduplicated_input(case):
    n, edges = case
    graph = Graph(range(n), edges)
    expected = sorted({(min(u, v), max(u, v)) for u, v in edges})
    assert graph.edges() == expected
    assert graph.num_edges == len(expected)
    assert edge_set(graph) == set(expected)
    assert [graph.degree(v) for v in range(n)] == [
        sum(v in e for e in expected) for v in range(n)
    ]


@SEEDED
@given(graphs())
def test_json_round_trip(graph):
    data = json.loads(json.dumps(graph.to_json_dict()))
    assert data["edges"] == [list(e) for e in graph.edges()]
    again = Graph.from_json_dict(data)
    assert again == graph and hash(again) == hash(graph)


@SEEDED
@given(graphs())
def test_complement(graph):
    got = graph.complement()
    every = set(itertools.combinations(range(graph.n), 2))
    assert got.labels == graph.labels
    assert_edges(got, every - edge_set(graph))
    assert got.complement() == graph


@SEEDED
@given(graph_pairs())
def test_intersection_difference_and_subgraph(pair):
    left, right = pair
    assert_edges(intersection(left, right), edge_set(left) & edge_set(right))
    assert_edges(edge_difference(left, right), edge_set(left) - edge_set(right))
    assert is_subgraph(left, right) == (edge_set(left) <= edge_set(right))
    assert is_subgraph(intersection(left, right), left)
    assert (left == right) == (edge_set(left) == edge_set(right))


def pairwise_blow_up(delta, classes, labels, factor):
    edges = []
    if factor == "complete":
        edges = [e for members in classes for e in itertools.combinations(members, 2)]
    for i, j in delta.edges():
        edges.extend(itertools.product(classes[i], classes[j]))
    return Graph(labels, edges)


@SEEDED
@given(graphs(max_n=8), rngs, st.sampled_from(("complete", "empty")))
def test_blow_up_matches_pairwise_expansion(delta, rng, factor):
    sizes = [rng.randint(1, 5) for _ in range(delta.n)]
    vertices = list(range(sum(sizes)))
    rng.shuffle(vertices)
    classes, start = [], 0
    for size in sizes:
        classes.append(tuple(sorted(vertices[start:start + size])))
        start += size
    labels = [f"g{v}" for v in range(len(vertices))]
    expected = pairwise_blow_up(delta, classes, labels, factor)
    assert blow_up(delta, classes, labels, factor) == expected


def test_blow_up_needs_a_partition():
    delta = Graph.complete(2)
    for classes in ([(0,), (1,)], [(0, 1), (1, 2)], [(0,), (1, 3)], [(0, 1, 2)]):
        with pytest.raises(ValueError):
            blow_up(delta, classes, "abc", "complete")
    with pytest.raises(ValueError, match="unknown factor kind 'cycle'"):
        blow_up(delta, [(0,), (1, 2)], "abc", "cycle")


@SEEDED
@given(graphs(max_n=6), st.lists(graphs(max_n=5), min_size=6, max_size=6))
def test_composition_matches_definition(base, factors):
    factors = factors[: base.n]
    got = compose_graphs(base, factors)
    slots = [(i, p) for i, factor in enumerate(factors) for p in range(factor.n)]
    expected = {
        (a, b)
        for a, b in itertools.combinations(range(len(slots)), 2)
        if (slots[a][0] == slots[b][0] and factors[slots[a][0]].has_edge(slots[a][1], slots[b][1]))
        or (slots[a][0] != slots[b][0] and base.has_edge(slots[a][0], slots[b][0]))
    }
    assert_edges(got, expected)
    assert got.labels == tuple(f"{i}:{lbl}" for i, f in enumerate(factors) for lbl in f.labels)


@SEEDED
@given(graphs(max_n=7), graphs(max_n=7))
def test_strong_product_matches_definition(left, right):
    got = strong_product(left, right)
    pairs = list(itertools.product(range(left.n), range(right.n)))

    def close(graph, a, b):
        return a == b or graph.has_edge(a, b)

    expected = {
        (a, b)
        for a, b in itertools.combinations(range(len(pairs)), 2)
        if close(left, pairs[a][0], pairs[b][0]) and close(right, pairs[a][1], pairs[b][1])
    }
    assert_edges(got, expected)
