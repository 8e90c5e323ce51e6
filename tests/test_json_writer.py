"""The report writer: its bytes are exactly json.dumps(indent=2,
sort_keys=True) on drawn values. tests/test_cli.py checks the same on every
command's output."""

import json

import pytest

from supergraphs.cli import _render

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
