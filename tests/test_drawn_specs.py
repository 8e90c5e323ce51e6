"""Drawn group specs against the definitions: for `permgens` groups of degree
at most 4 and `product` groups of order at most 24, every supergraph, the
generating graph and the invariable generating graph equal the test-local
references of `test_oracles`, which use no pinning, no orbits and no
partition code of the library."""

import itertools
import math

import pytest
from test_oracles import (
    _close,
    reference_base_adjacency,
    reference_igg_edges,
    reference_supergraph_edges,
)

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
