"""Drawn group specs against the definitions: for `permgens` groups of degree
at most 4, `product` groups of order at most 24 and `table` groups written
from drawn groups of order at most 16 under a drawn relabelling, every
supergraph, the generating graph and the invariable generating graph equal
the test-local references of `test_oracles`, which use no pinning, no orbits
and no partition code of the library. Malformed tables, mutated from valid
ones, end `graph` with exit 2 and one `error:` line, never a traceback."""

import contextlib
import io
import itertools
import json
import math
import re

import pytest
from test_oracles import (
    _close,
    reference_base_adjacency,
    reference_igg_edges,
    reference_supergraph_edges,
)

from supergraphs.cli import main
from supergraphs.constructions import KINDS, PARTITIONS, build_supergraph
from supergraphs.generation import generating_graph, invariable_generating_graph
from supergraphs.groups import make_group

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# derandomized: every run draws the same examples, and nothing is stored
SEEDED = settings(derandomize=True, database=None, max_examples=12, deadline=None)

MAX_ORDER = 24


def _cycles(images):
    """The disjoint cycles, 1-based and fixed points included, of the
    permutation i -> images[i]."""
    seen, cycles = set(), []
    for start in range(len(images)):
        cycle, point = [], start
        while point not in seen:
            seen.add(point)
            cycle.append(point + 1)
            point = images[point]
        if cycle:
            cycles.append(cycle)
    return cycles


def permgens(max_degree):
    """permgens specs of degree at most max_degree with 1-3 generators; their
    order is at most max_degree!."""
    return st.integers(1, max_degree).flatmap(lambda degree: st.builds(
        lambda gens: {"kind": "permgens", "degree": degree, "gens": gens},
        st.lists(st.permutations(range(degree)).map(_cycles), min_size=1, max_size=3),
    ))


def factors(limit):
    """Cyclic, dihedral or permgens specs of order at most limit."""
    options = [st.builds(lambda n: {"kind": "cyclic", "n": n}, st.integers(1, limit)),
               permgens(max(d for d in range(1, 5) if math.factorial(d) <= limit))]
    if limit >= 2:
        options.append(st.builds(lambda n: {"kind": "dihedral", "n": n},
                                 st.integers(1, limit // 2)))
    return st.one_of(options)


@st.composite
def products(draw):
    left = draw(factors(MAX_ORDER))
    right = draw(factors(MAX_ORDER // make_group(left).order))
    return {"kind": "product", "of": [left, right]}


def assert_matches_the_definitions(spec):
    group = make_group(spec)
    assert group.order <= MAX_ORDER
    for kind in KINDS:
        base = reference_base_adjacency(group, kind)
        for pkind in PARTITIONS:
            got = set(build_supergraph(group, kind, pkind).edges())
            assert got == reference_supergraph_edges(group, base, pkind), (kind, pkind)
    assert set(generating_graph(group).edges()) == {
        (g, h)
        for g, h in itertools.combinations(range(group.order), 2)
        if len(_close(group, [g, h])) == group.order
    }
    assert set(invariable_generating_graph(group).edges()) == reference_igg_edges(group)


@settings(SEEDED, max_examples=30)
@given(permgens(4))
def test_drawn_permgens_groups_match_the_definitions(spec):
    assert_matches_the_definitions(spec)


@SEEDED
@given(products())
def test_drawn_product_groups_match_the_definitions(spec):
    assert_matches_the_definitions(spec)


TABLE_ORDER = 16


@st.composite
def cayley_tables(draw):
    """The Cayley table of a drawn cyclic, dihedral or permgens group of order
    at most TABLE_ORDER, its elements relabelled by a drawn permutation that
    keeps 0, the identity, in place. Cyclic and dihedral specs are sampled
    from a list, as drawn integers crowd at the smallest orders."""
    spec = draw(st.one_of(
        st.sampled_from([{"kind": "cyclic", "n": n} for n in range(1, TABLE_ORDER + 1)]
                        + [{"kind": "dihedral", "n": n} for n in range(1, TABLE_ORDER // 2 + 1)]),
        permgens(4).filter(lambda spec: make_group(spec).order <= TABLE_ORDER),
    ))
    group = make_group(spec)
    label = [0] + draw(st.permutations(range(1, group.order)))
    rows = [[0] * group.order for _ in range(group.order)]
    for i, j in itertools.product(range(group.order), repeat=2):
        rows[label[i]][label[j]] = label[group.mul(i, j)]
    return rows


@settings(SEEDED, max_examples=100)
@given(cayley_tables())
def test_drawn_cayley_tables_match_the_definitions(rows):
    assert_matches_the_definitions({"kind": "table", "rows": rows})


@st.composite
def malformed_tables(draw):
    """A valid table with two entries swapped within a row, one entry
    replaced by a bool, a fractional number, a string or an out-of-range
    index, a row dropped, or one row made ragged. None of these is a group
    table: a swap repeats an entry in both columns it touches, and `true` in
    place of a 1 is refused as a bool, not read as 1. A one-element table
    has no swap, so it gets a replacement."""
    rows = [list(row) for row in draw(cayley_tables())]
    n = len(rows)
    i = draw(st.integers(0, n - 1))
    mutation = draw(st.sampled_from(["swap", "replace", "drop", "ragged"]))
    if mutation == "swap" and n >= 2:
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[i][a], rows[i][b] = rows[i][b], rows[i][a]
    elif mutation == "drop":
        del rows[i]
    elif mutation == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [0]
    else:
        rows[i][draw(st.integers(0, n - 1))] = draw(st.sampled_from([True, 1.5, "1", -1, n]))
    return rows


@settings(SEEDED, max_examples=200)
@given(malformed_tables(), st.sampled_from(KINDS))
def test_malformed_cayley_tables_exit_2(rows, kind):
    out, err = io.StringIO(), io.StringIO()
    spec = json.dumps({"kind": "table", "rows": rows})
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["graph", "--group", spec, "--kind", kind])
    assert code == 2 and not out.getvalue()
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


# a value of each JSON type; a container of a spec is replaced by one of another type
JSON_VALUES = [5, 1.5, "ab", True, None, {"a": 1}, [[1]]]


@st.composite
def wrong_shapes(draw):
    """A valid table, permgens or product spec with one of its containers
    (the rows or a row, the gens, a cycle list or a cycle, the factor list
    or a factor) replaced by a value of another JSON type, and the field the
    error must name."""
    field = draw(st.sampled_from(["rows", "gens", "of"]))
    if field == "rows":
        spec = {"kind": "table", "rows": draw(cayley_tables())}
        places = [(spec["rows"], i) for i in range(len(spec["rows"]))]
    elif field == "gens":
        spec = draw(permgens(4))
        places = [(spec["gens"], i) for i in range(len(spec["gens"]))]
        places += [(cycles, j) for cycles in spec["gens"] for j in range(len(cycles))]
    else:
        spec = draw(products())
        places = [(spec["of"], 0), (spec["of"], 1)]
    container, key = draw(st.sampled_from([(spec, field)] + places))
    kind = type(container[key])
    container[key] = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not kind]))
    return spec, field


COMMANDS = {
    "graph": ["graph", "--kind", "power"],
    "wiener": ["wiener", "--kind", "commuting", "--partition", "conjugacy"],
    "igg": ["igg"],
}


@settings(SEEDED, max_examples=150)
@given(wrong_shapes(), st.sampled_from(sorted(COMMANDS)))
def test_wrong_shaped_spec_containers_exit_2_naming_the_field(case, command):
    spec, field = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(COMMANDS[command] + ["--group", json.dumps(spec)])
    assert code == 2 and not out.getvalue()
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert re.search(rf"\b{field}\b", lines[0]), lines
