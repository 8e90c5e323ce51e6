"""The report writer: its bytes are exactly json.dumps(indent=2,
sort_keys=True) on drawn values, a Graph read as its to_json_dict().
tests/test_cli.py checks the same on every command's output."""

import json

import pytest

from supergraphs.cli import _render
from supergraphs.graphs import Graph

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# derandomized: every run draws the same examples, and nothing is stored
SEEDED = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# non-ASCII, control and quote characters are all drawn
texts = st.text(st.characters(), max_size=6) | st.sampled_from(['"', "\\", "\n", "\x00", "é", " "])
ints = st.integers(-(2**70), 2**70)
leaves = st.none() | st.booleans() | ints | st.floats(allow_nan=False, allow_infinity=False) | texts
# int pairs as a graph's edges are, with bools mixed in (json writes those as true/false)
pairs = st.lists(
    st.tuples(ints | st.booleans(), ints) | st.lists(ints | st.booleans(), min_size=2, max_size=2)
)
values = st.recursive(
    leaves | pairs | st.lists(ints) | st.lists(texts),
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(texts, children, max_size=5),
    max_leaves=40,
)


@SEEDED
@given(values)
@example({})
@example([])
@example(())
@example({"": [], "a": {}, "b": [[]], "c": [{}]})
@example([[0, 1], [True, 2]])
@example([(0, 1), [2, 3]])
@example([[0, 1], [2]])
@example([1, True, 2.0, "x", None])
@example([["a", "b"]])
def test_render_equals_json_dumps(value):
    assert _render(value, "") == json.dumps(value, indent=2, sort_keys=True)


@st.composite
def graphs(draw):
    """A graph from random symmetric masks, or an empty or complete one, on
    up to 12 vertices whose labels are drawn texts."""
    n = draw(st.integers(0, 12))
    labels = draw(st.lists(texts, min_size=n, max_size=n, unique=True))
    fill = draw(st.sampled_from(["random", "empty", "complete"]))
    masks = [0] * n
    for u in range(n):
        width = n - u - 1
        if fill == "random":
            above = draw(st.integers(0, (1 << width) - 1))
        else:
            above = (1 << width) - 1 if fill == "complete" else 0
        masks[u] |= above << u + 1
        for v in range(u + 1, n):
            masks[v] |= (above >> v - u - 1 & 1) << u
    return Graph._from_masks(labels, masks)


QUOTED = ['"', "\\", 'a"b\\c', "é", "\u4e2d\u6587", "\n"]


@SEEDED
@given(graphs(), st.lists(ints, max_size=4))
@example(Graph.empty(0), [])
@example(Graph.empty(1, ["only"]), [1])
@example(Graph.empty(4, QUOTED[:4]), [1, 1, 1, 1])
@example(Graph.complete(6, QUOTED), [1, 2, 3, 4, 5, 6])
def test_graph_renders_as_its_json_dict(graph, sizes):
    """Alone, as a quotient's delta beside its sizes, and nested in lists."""
    as_dict = graph.to_json_dict()
    cases = [
        (graph, as_dict),
        ({"delta": graph, "sizes": sizes}, {"delta": as_dict, "sizes": sizes}),
        ([[graph, 0], [], {"g": [graph]}], [[as_dict, 0], [], {"g": [as_dict]}]),
    ]
    for value, expected in cases:
        assert _render(value, "") == json.dumps(expected, indent=2, sort_keys=True)
    rows = list(graph.edge_rows())
    assert all(vs for _, vs in rows)
    pairs = [(u, v) for u in range(graph.n) for v in range(u + 1, graph.n) if graph.has_edge(u, v)]
    assert graph.edges() == [(u, v) for u, vs in rows for v in vs] == pairs
