"""Closed-form structure and Wiener index for the equality- and conjugacy-
supercommuting graphs of dihedral groups D_2n and generalized quaternion
groups Q_4n, with a verifier that replays every identity against brute force.

Every family graph is a composition of complete graphs over a cograph, so it
is a cograph itself, and the verifier decides its structure by comparing
canonical cotrees (`graphs.cotree_isomorphic`), with no search and no vertex
cap: its cost is the quotient's and the element graph's expansion.

The composition expressions attach factors by class semantics: central classes
first, rotation classes by ascending exponent, reflection classes last. Q_4n
takes the forms of D_4n: in both, each x outside <a> (|a| = 2n) commutes with
just e, a^n, x and a^n x, and the classes have sizes 1, 1, 2 x (n-1), n, n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import graphs
from .constructions import build_supergraph, expand_quotient, quotient_supergraph
from .graphs import Complete, Composition, Graph, GraphExpr, Join, Union
from .groups import FiniteGroup, dihedral, quaternion

# family: (least n of its closed forms, last n of `verify`'s default range)
FAMILY_RANGES = {
    "escom-d": (3, 20),
    "cscom-d": (3, 20),
    "escom-q": (2, 12),
    "cscom-q": (2, 12),
}
# `verify structure|wiener` without --family writes the families in this order
FAMILIES = tuple(FAMILY_RANGES)
# family: the partition of its commuting supergraph
FAMILY_PARTITIONS = {
    "escom-d": "equality",
    "cscom-d": "conjugacy",
    "escom-q": "equality",
    "cscom-q": "conjugacy",
}


def _check_param(family: str, n: int) -> None:
    if family not in FAMILY_RANGES:
        raise ValueError(f"unknown family {family!r}; known {FAMILIES}")
    least = FAMILY_RANGES[family][0]
    if n < least:
        raise ValueError(f"{family} closed forms need n >= {least}, got {n}")


def family_group(family: str, n: int) -> FiniteGroup:
    _check_param(family, n)
    return dihedral(n) if family.endswith("-d") else quaternion(n)


def family_graph(family: str, n: int) -> Graph:
    group = family_group(family, n)
    return build_supergraph(group, "commuting", FAMILY_PARTITIONS[family])


def family_case(family: str, n: int) -> str:
    _check_param(family, n)
    if family == "escom-d":
        return "odd" if n % 2 else "even"
    if family == "escom-q":
        return "all"
    if family == "cscom-d":
        if n % 2:
            return "odd"
        return "even-even" if (n // 2) % 2 == 0 else "even-odd"
    return "even" if n % 2 == 0 else "odd"


def structure_expr(family: str, n: int) -> GraphExpr:
    """Expression tree whose evaluation is isomorphic to the family graph."""
    _check_param(family, n)
    if family.endswith("-q"):
        return structure_expr(family[:-1] + "d", 2 * n)
    if family == "escom-d":
        if n % 2:
            return Join(Complete(1), Union((Complete(1),) * n + (Complete(n - 1),)))
        return Join(
            Complete(2), Union((Complete(2),) * (n // 2) + (Complete(n - 2),))
        )
    # cscom-d
    if n % 2:
        half = (n - 1) // 2
        base = Join(Complete(1), Union((Complete(half), Complete(1))))
        factors = (Complete(1),) + (Complete(2),) * half + (Complete(n),)
        return Composition(base, factors)
    half = n // 2 - 1
    if (n // 2) % 2 == 0:
        tail: tuple = (Complete(1), Complete(1))
    else:
        tail = (Complete(2),)
    base = Join(Complete(2), Union((Complete(half),) + tail))
    factors = (
        (Complete(1), Complete(1))
        + (Complete(2),) * half
        + (Complete(n // 2), Complete(n // 2))
    )
    return Composition(base, factors)


def wiener_closed_form(family: str, n: int) -> int:
    _check_param(family, n)
    if family.endswith("-q"):
        return wiener_closed_form(family[:-1] + "d", 2 * n)
    if family == "escom-d":
        return n * (7 * n - 5) // 2 if n % 2 else n * (7 * n - 8) // 2
    # cscom-d. Quotient class sizes: odd n -> 1, 2 x (n-1)/2, n with the
    # size-n reflection class pendant on the identity; even n -> 1, 1,
    # 2 x (n/2-1), n/2, n/2 with the reflection classes at distance 2 from
    # the rotation classes and at distance 1 from each other only when n/2
    # is odd.
    if n % 2:
        return 3 * n * n - 2 * n
    if (n // 2) % 2 == 0:
        return 13 * n * n // 4 - 3 * n
    return 3 * n * n - 3 * n


@dataclass
class FamilyReport:
    records: list[dict] = field(default_factory=list)
    passed: bool = True


def verify_family(family: str, ns) -> FamilyReport:
    """Replay the structure and Wiener identities for each n.

    For each parameter the element graph must have the canonical cotree of
    the evaluated expression, and three independent Wiener computations must
    agree exactly: the distance sum over the element graph, the
    composition-of-completes formula over the quotient, and the closed form.
    """
    report = FamilyReport()
    for n in ns:
        group = family_group(family, n)
        quotient = quotient_supergraph(group, "commuting", FAMILY_PARTITIONS[family])
        actual = expand_quotient(group, quotient)
        expected = graphs.eval_expr(structure_expr(family, n))
        isomorphic = graphs.cotree_isomorphic(actual, expected)
        w_bfs = graphs.wiener_index(actual)
        w_formula = graphs.wiener_supergraph_formula(quotient.delta, quotient.sizes)
        w_closed = wiener_closed_form(family, n)
        ok = isomorphic and w_bfs == w_formula == w_closed
        report.records.append(
            {
                "n": n,
                "case": family_case(family, n),
                "vertices": actual.n,
                "edges": actual.num_edges,
                "wiener_bfs": w_bfs,
                "wiener_formula": w_formula,
                "wiener_closed": w_closed,
                "isomorphic": isomorphic,
                "passed": ok,
            }
        )
        report.passed &= ok
    return report
