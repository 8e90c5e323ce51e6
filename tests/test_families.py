"""Structure expressions and Wiener closed forms for the dihedral and
generalized quaternion families."""

import pytest

from supergraphs import families
from supergraphs.families import (
    family_case,
    family_graph,
    structure_expr,
    verify_family,
    wiener_closed_form,
)
from supergraphs.graphs import (
    Complete,
    Composition,
    Join,
    Union,
    cotree_isomorphic,
    eval_expr,
    wiener_index,
)


def dominant_count(graph):
    return sum(1 for v in range(graph.n) if graph.degree(v) == graph.n - 1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        structure_expr("escom-d", 2)
    with pytest.raises(ValueError):
        wiener_closed_form("cscom-q", 1)
    with pytest.raises(ValueError):
        structure_expr("nope", 5)


def test_structure_expr_escom_d3():
    expr = structure_expr("escom-d", 3)
    assert expr == Join(
        Complete(1), Union((Complete(1), Complete(1), Complete(1), Complete(2)))
    )


def test_structure_expr_cscom_q2():
    expr = structure_expr("cscom-q", 2)
    assert expr == Composition(
        Join(Complete(2), Union((Complete(1), Complete(1), Complete(1)))),
        (Complete(1), Complete(1), Complete(2), Complete(2), Complete(2)),
    )


def test_structure_expr_cscom_d6():
    expr = structure_expr("cscom-d", 6)
    assert expr == Composition(
        Join(Complete(2), Union((Complete(2), Complete(2)))),
        (Complete(1), Complete(1), Complete(2), Complete(2), Complete(3), Complete(3)),
    )


def test_escom_q8_matches_structure():
    actual = family_graph("escom-q", 2)
    expected = eval_expr(
        Join(Complete(2), Union((Complete(2), Complete(2), Complete(2))))
    )
    assert cotree_isomorphic(actual, expected)


@pytest.mark.parametrize(
    "family,n,expected",
    [
        ("cscom-d", 3, 21),
        ("cscom-d", 4, 40),
        ("cscom-d", 6, 90),
        ("cscom-q", 2, 40),
        ("cscom-q", 3, 90),
        ("escom-d", 3, 24),
        ("escom-d", 4, 40),
        ("escom-q", 2, 40),
    ],
)
def test_wiener_closed_form_values(family, n, expected):
    assert wiener_closed_form(family, n) == expected
    assert wiener_index(family_graph(family, n)) == expected


def test_escom_d4_equals_escom_q2():
    assert wiener_closed_form("escom-d", 4) == wiener_closed_form("escom-q", 2) == 40


def test_family_cases():
    assert family_case("cscom-d", 5) == "odd"
    assert family_case("cscom-d", 8) == "even-even"
    assert family_case("cscom-d", 10) == "even-odd"
    assert family_case("escom-q", 7) == "all"


@pytest.mark.parametrize(
    "family,ns",
    [
        ("escom-d", range(3, 13)),
        ("cscom-d", range(3, 13)),
        ("escom-q", range(2, 8)),
        ("cscom-q", range(2, 8)),
    ],
)
def test_verify_family_passes(family, ns):
    report = verify_family(family, ns)
    assert report.passed, [r for r in report.records if not r["passed"]]
    for record in report.records:
        assert record["wiener_bfs"] == record["wiener_formula"] == record["wiener_closed"]
        assert record["isomorphic"]


def test_quaternion_graphs_match_even_dihedral():
    """ESCom and CSCom of the quaternion group of order 4n coincide with those
    of the dihedral group of order 4n."""
    for n in range(2, 7):
        assert cotree_isomorphic(family_graph("escom-q", n), family_graph("escom-d", 2 * n))
        assert cotree_isomorphic(family_graph("cscom-q", n), family_graph("cscom-d", 2 * n))


def test_dominant_vertex_counts():
    assert dominant_count(family_graph("escom-d", 5)) == 1
    assert dominant_count(family_graph("escom-d", 7)) == 1
    assert dominant_count(family_graph("escom-d", 4)) == 2
    assert dominant_count(family_graph("escom-d", 6)) == 2
    for n in range(2, 6):
        assert dominant_count(family_graph("escom-q", n)) == 2


@pytest.mark.parametrize("family", families.FAMILIES)
def test_verify_family_fails_on_a_wrong_expression(monkeypatch, family):
    """A planted defect: the n + 1 expression for every n must fail the
    structure check, and only it, since the Wiener values stay right."""
    wrong = families.structure_expr
    monkeypatch.setattr(families, "structure_expr", lambda family, n: wrong(family, n + 1))
    least = families.FAMILY_RANGES[family][0]
    report = verify_family(family, range(least, least + 4))
    assert not report.passed
    for record in report.records:
        assert not record["isomorphic"] and not record["passed"]
        assert record["wiener_bfs"] == record["wiener_formula"] == record["wiener_closed"]
