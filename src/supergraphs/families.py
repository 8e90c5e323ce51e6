"""Closed-form structure and Wiener index for the equality- and conjugacy-
supercommuting graphs of dihedral groups D_2n and generalized quaternion
groups Q_4n, with a verifier that replays every identity against brute force.

The composition expressions attach factors by class semantics: central classes
first, rotation classes by ascending exponent, reflection classes last.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import graphs
from .constructions import build_supergraph, expand_quotient, quotient_supergraph
from .graphs import Complete, Composition, Graph, GraphExpr, Join, Union
from .groups import FiniteGroup, dihedral, quaternion

FAMILIES = ("escom-d", "escom-q", "cscom-d", "cscom-q")

_MIN_PARAM = {"escom-d": 3, "cscom-d": 3, "escom-q": 2, "cscom-q": 2}


def escom(group: FiniteGroup) -> Graph:
    """Equality-supercommuting graph (the commuting graph itself)."""
    return build_supergraph(group, "commuting", "equality")


def cscom(group: FiniteGroup) -> Graph:
    """Conjugacy-supercommuting graph."""
    return build_supergraph(group, "commuting", "conjugacy")


def _check_param(family: str, n: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known {FAMILIES}")
    if n < _MIN_PARAM[family]:
        raise ValueError(
            f"{family} closed forms need n >= {_MIN_PARAM[family]}, got {n}"
        )


def family_group(family: str, n: int) -> FiniteGroup:
    _check_param(family, n)
    return dihedral(n) if family.endswith("-d") else quaternion(n)


def family_graph(family: str, n: int) -> Graph:
    group = family_group(family, n)
    return escom(group) if family.startswith("escom") else cscom(group)


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
    if family == "escom-d":
        if n % 2:
            return Join(Complete(1), Union((Complete(1),) * n + (Complete(n - 1),)))
        return Join(
            Complete(2), Union((Complete(2),) * (n // 2) + (Complete(n - 2),))
        )
    if family == "escom-q":
        return Join(Complete(2), Union((Complete(2),) * n + (Complete(2 * n - 2),)))
    if family == "cscom-d":
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
    # cscom-q
    if n % 2 == 0:
        tail = (Complete(1), Complete(1))
    else:
        tail = (Complete(2),)
    base = Join(Complete(2), Union((Complete(n - 1),) + tail))
    factors = (
        (Complete(1), Complete(1)) + (Complete(2),) * (n - 1) + (Complete(n), Complete(n))
    )
    return Composition(base, factors)


def wiener_closed_form(family: str, n: int) -> int:
    _check_param(family, n)
    if family == "escom-d":
        return n * (7 * n - 5) // 2 if n % 2 else n * (7 * n - 8) // 2
    if family == "escom-q":
        return 14 * n * n - 8 * n
    if family == "cscom-d":
        # Quotient class sizes: odd n -> 1, 2 x (n-1)/2, n with the size-n
        # reflection class pendant on the identity; even n -> 1, 1,
        # 2 x (n/2-1), n/2, n/2 with the reflection classes at distance 2
        # from the rotation classes and at distance 1 from each other only
        # when n/2 is odd.
        if n % 2:
            return 3 * n * n - 2 * n
        if (n // 2) % 2 == 0:
            return 13 * n * n // 4 - 3 * n
        return 3 * n * n - 3 * n
    # cscom-q matches cscom-d at 2n: 13(2n)^2/4 - 6n or 3(2n)^2 - 6n.
    return (13 if n % 2 == 0 else 12) * n * n - 6 * n


@dataclass
class FamilyReport:
    family: str
    records: list[dict] = field(default_factory=list)
    passed: bool = True

    def to_json_dict(self) -> dict:
        return {"family": self.family, "records": self.records, "passed": self.passed}


def verify_family(family: str, ns) -> FamilyReport:
    """Replay the structure and Wiener identities for each n.

    For each parameter the brute-force supergraph must be isomorphic to the
    evaluated expression, and four Wiener computations must agree exactly:
    BFS, the composition distance identity, the composition-of-completes
    formula, and the closed form.
    """
    report = FamilyReport(family)
    partition = "equality" if family.startswith("escom") else "conjugacy"
    for n in ns:
        group = family_group(family, n)
        # the element graph has |G| vertices: refuse before building it
        graphs.check_isomorphism_cap(group.order)
        quotient = quotient_supergraph(group, "commuting", partition)
        actual = expand_quotient(group, quotient)
        expected = graphs.eval_expr(structure_expr(family, n))
        isomorphic, witness = graphs.is_isomorphic(actual, expected)
        w_bfs = graphs.wiener_index(actual)
        w_comp = graphs.wiener_via_composition(
            quotient.delta, quotient.sizes, ("complete",) * quotient.delta.n
        )
        w_formula = graphs.wiener_supergraph_formula(quotient.delta, quotient.sizes)
        w_closed = wiener_closed_form(family, n)
        ok = isomorphic and witness is not None and w_bfs == w_comp == w_formula == w_closed
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
