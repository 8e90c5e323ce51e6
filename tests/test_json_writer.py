"""The report writer: its bytes are exactly json.dumps(indent=2,
sort_keys=True) on drawn values, a Graph read as its to_json_dict().
tests/test_cli.py checks the same on every command's output."""

import itertools
import json

import pytest

from supergraphs.cli import _render
from supergraphs.graphs import Graph, blow_up

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


@st.composite
def twin_graphs(draw):
    """The blow-up of a drawn delta on up to 6 vertices into complete or
    empty factors of 1 to 4 vertices, as (graph, edges), its edges listed by
    brute force from delta and the classes. The vertices of each factor are
    true twins (complete) or false twins (empty), scattered over the vertex
    order by a drawn permutation, and some delta vertices are isolated."""
    k = draw(st.integers(1, 6))
    isolated = draw(st.sets(st.integers(0, k - 1)))
    pairs = [
        (i, j) for i, j in itertools.combinations(range(k), 2)
        if i not in isolated and j not in isolated and draw(st.booleans())
    ]
    delta = Graph([str(i) for i in range(k)], pairs)
    factor = draw(st.sampled_from(["complete", "empty"]))
    sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    order = draw(st.permutations(range(sum(sizes))))
    cuts = list(itertools.accumulate(sizes, initial=0))
    classes = [tuple(order[a:b]) for a, b in zip(cuts, cuts[1:])]
    labels = draw(st.lists(texts, min_size=len(order), max_size=len(order), unique=True))
    class_of = {v: i for i, members in enumerate(classes) for v in members}
    edges = [
        (u, v) for u, v in itertools.combinations(range(len(order)), 2)
        if (factor == "complete" if class_of[u] == class_of[v]
            else delta.has_edge(class_of[u], class_of[v]))
    ]
    return blow_up(delta, classes, labels, factor), edges


@SEEDED
@given(twin_graphs())
@example((blow_up(Graph.empty(2), [(0, 2), (1, 3)], "abcd", "empty"), []))
@example((blow_up(Graph.complete(2), [(1, 3), (0, 2)], "abcd", "empty"),
          [(0, 1), (0, 3), (1, 2), (2, 3)]))
def test_twin_rows_render_as_the_pair_list(drawn):
    """Rows shared by twins write the same text, edge list and DOT as the
    pairs listed one by one."""
    graph, edges = drawn
    expected = {"edges": [list(e) for e in edges], "labels": list(graph.labels)}
    assert _render(graph, "") == json.dumps(expected, indent=2, sort_keys=True)
    nested = {"delta": expected}
    assert _render({"delta": graph}, "") == json.dumps(nested, indent=2, sort_keys=True)
    assert graph.edges() == edges
    quoted = [lbl.replace("\\", "\\\\").replace('"', '\\"') for lbl in graph.labels]
    assert graph.to_dot() == "".join(
        ["graph G {\n"]
        + [f'  v{i} [label="{lbl}"];\n' for i, lbl in enumerate(quoted)]
        + [f"  v{u} -- v{v};\n" for u, v in edges]
        + ["}\n"]
    )
