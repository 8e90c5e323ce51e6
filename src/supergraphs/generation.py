"""Generating and invariable generating graphs, and their containment in the
complements of base graphs and conjugacy supergraphs.

Two elements are joined in the generating graph when they generate the whole
group; in the invariable generating graph when every pair of conjugates does.
For a group that is not abelian/nilpotent/solvable, the generating graph sits
inside the complement of the matching base graph (equality exactly for the
minimal non-A groups), and the invariable generating graph sits inside the
complement of the conjugacy supergraph of the same kind.

Generation is invariant under simultaneous conjugation. The generating graph
is decided once per orbit of pairs and expanded through conjugators (see
`constructions.pair_orbit_edges`). The invariable generating graph is decided
once per pair of conjugacy classes by the pinned scan that compares classes
in a conjugacy quotient (`constructions.pinned_class_pairs`), and it is the
blow-up of that graph on the classes with empty factors (`graphs.blow_up`).
The base graph is the equality supergraph and, like the conjugacy
supergraph, is expanded from its quotient (see `constructions`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .constructions import build_supergraph, pair_orbit_edges, pinned_class_pairs
from .graphs import Graph, blow_up, edge_difference
from .groups import FiniteGroup, InvalidGroupSpec, SizeCapError, make_group

GENERATION_KINDS = ("abelian", "nilpotent", "solvable")

_BASE_FOR_KIND = {"abelian": "commuting", "nilpotent": "nilpotent", "solvable": "solvable"}


def _generates(group: FiniteGroup):
    """Test of whether two elements generate the whole group. In a
    non-abelian group a commuting pair never does, and needs no closure."""
    order, commutes = group.order, group.commutes
    abelian = group.is_abelian()

    def generates(g: int, h: int) -> bool:
        if not abelian and commutes(g, h):
            return False
        return len(group.pair_subgroup_members(g, h)) == order

    return generates


def generating_graph(group: FiniteGroup) -> Graph:
    """g ~ h iff the pair generates the whole group, decided once per orbit of
    pairs under simultaneous conjugation (see `pair_orbit_edges`)."""
    group.require_enumerable()
    return Graph(group.labels(), pair_orbit_edges(group, _generates(group), per_orbit=True))


def invariable_generating_graph(group: FiniteGroup) -> Graph:
    """x ~ y iff every conjugate pair generates the group.

    The condition is invariant under simultaneous conjugation, so it holds
    for whole pairs of conjugacy classes: the representative r of one class
    is pinned, the other class is scanned once per orbit of the centralizer
    C(r), and an adjacent pair of classes is joined completely. A class never
    joins itself: the conjugate pairs of x include (x, x), and a class with
    two or more members rules out a cyclic group. So the graph is the
    blow-up, with empty factors, of the graph on the conjugacy classes.
    """
    generates = _generates(group)
    classes = [cls.members for cls in group.conjugacy_classes()]
    adjacent = [
        (i, j)
        for (i, first), (j, second) in itertools.combinations(enumerate(classes), 2)
        if all(
            generates(r, h)
            for r, h in pinned_class_pairs(group, first, second, per_orbit=True)
        )
    ]
    labels = group.labels()
    delta = Graph([labels[members[0]] for members in classes], adjacent)
    return blow_up(delta, classes, labels, "empty")


@dataclass(frozen=True)
class ContainmentReport:
    group_label: str
    kind: str
    check: str  # "generating-vs-base" | "invariable-vs-super"
    applicable: bool
    contained: bool
    equal: bool
    violations: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_label,
            "kind": self.kind,
            "check": self.check,
            "applicable": self.applicable,
            "contained": self.contained,
            "equal": self.equal,
            "violations": [list(v) for v in self.violations],
        }


def _containment(small: Graph, big: Graph) -> tuple[bool, bool, tuple]:
    violations = tuple(edge_difference(small, big).edges())
    return (not violations, small == big, violations)


def _group_has_property(group: FiniteGroup, kind: str) -> bool:
    flags = group.whole_group_flags()
    if kind == "abelian":
        return flags.is_abelian
    if kind == "nilpotent":
        return flags.is_nilpotent
    return flags.is_solvable


def containment_checks(group: FiniteGroup) -> list[ContainmentReport]:
    """Both containments for each applicable kind.

    Kinds whose property the whole group already has are skipped (reported as
    not applicable): the containments are only claimed for non-A groups.
    """
    reports = []
    gen = None
    igg = None
    for kind in GENERATION_KINDS:
        if _group_has_property(group, kind):
            for check in ("generating-vs-base", "invariable-vs-super"):
                reports.append(
                    ContainmentReport(group.label, kind, check, False, True, False, ())
                )
            continue
        if gen is None:
            gen = generating_graph(group)
            igg = invariable_generating_graph(group)
        base_complement = build_supergraph(
            group, _BASE_FOR_KIND[kind], "equality"
        ).complement()
        contained, equal, violations = _containment(gen, base_complement)
        reports.append(
            ContainmentReport(
                group.label, kind, "generating-vs-base", True, contained, equal, violations
            )
        )
        super_complement = build_supergraph(
            group, _BASE_FOR_KIND[kind], "conjugacy"
        ).complement()
        contained, equal, violations = _containment(igg, super_complement)
        reports.append(
            ContainmentReport(
                group.label, kind, "invariable-vs-super", True, contained, equal, violations
            )
        )
    return reports


@dataclass
class ScanReport:
    records: list[dict] = field(default_factory=list)
    equality_groups: list[dict] = field(default_factory=list)
    passed: bool = True

    def to_json_dict(self) -> dict:
        return {
            "records": self.records,
            "equality_groups": self.equality_groups,
            "passed": self.passed,
        }


def equality_scan(specs: list[dict]) -> ScanReport:
    """Empirical scan for groups whose invariable generating graph equals the
    complement of a conjugacy supergraph; no classification is claimed."""
    report = ScanReport()
    for spec in specs:
        try:
            group = make_group(spec)
        except (InvalidGroupSpec, SizeCapError) as exc:
            report.records.append({"spec": spec, "skipped": str(exc)})
            continue
        for rep in containment_checks(group):
            if rep.check != "invariable-vs-super":
                continue
            record = {
                "group": group.label,
                "kind": rep.kind,
                "applicable": rep.applicable,
                "contained": rep.contained,
                "equal": rep.equal,
            }
            report.records.append(record)
            report.passed &= (not rep.applicable) or rep.contained
            if rep.applicable and rep.equal:
                report.equality_groups.append({"group": group.label, "kind": rep.kind})
    return report
