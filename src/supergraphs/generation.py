"""Generating and invariable generating graphs, and their containment in the
complements of base graphs and conjugacy supergraphs.

Two elements are joined in the generating graph when they generate the whole
group; in the invariable generating graph when every pair of conjugates does.
For a group that is not abelian/nilpotent/solvable, the generating graph sits
inside the complement of the matching base graph (equality exactly for the
minimal non-A groups), and the invariable generating graph sits inside the
complement of the conjugacy supergraph of the same kind.

Whether a pair generates is `FiniteGroup.pair_generates`: a closure of the
pair, cached with its members, in general, and arithmetic on exponents in
C_n, D_2n and Q_4n, which close no pair.

Generation depends only on the cyclic subgroups of a pair (it generates the
group or not whatever generators of its two subgroups it holds) and is
invariant under simultaneous conjugation, so both graphs come from the one
scan over orbits of cyclic subgroups (`constructions.class_graph`), each
pair of orbits decided once per orbit of the pinned element's centralizer.
The generating graph is the class graph of "the pair generates" on the
equality partition, from the scan's every-hit sink: the graph on the cyclic
subgroups, blown up onto their generators, which join each other, by the
one test of r against r^-1, only in a cyclic group. The invariable
generating graph is the complement, on the conjugacy classes, of the class
graph of "some pair fails to generate", from the scan's first-hit sink,
which stops each pair of orbits at its first failure and pulls it back onto
the classes they meet; it is blown up on the classes with empty factors
(`graphs.blow_up`).

The containment checks compare each check's relation on classes (on the
equality partition, the generating graph itself) with the supergraph's delta
on the same classes and expand no supergraph: the violations are read from
the blow-up of the class pairs joined in both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constructions import PROPERTY_OF_KIND, build_partition, class_graph, quotient_supergraph
from .graphs import Graph, blow_up, intersection
from .groups import FiniteGroup, InvalidGroupSpec, SizeCapError, make_group

GENERATION_KINDS = ("abelian", "nilpotent", "solvable")

_BASE_FOR_KIND = {prop: kind for kind, prop in PROPERTY_OF_KIND.items() if prop in GENERATION_KINDS}

# each check, and the partition of the supergraph whose complement holds its graph
_CHECKS = (("generating-vs-base", "equality"), ("invariable-vs-super", "conjugacy"))


def _generates(group: FiniteGroup):
    """Test of whether two elements generate the whole group
    (`FiniteGroup.pair_generates`). In a non-abelian group a commuting pair
    never does, and needs no closure."""
    commutes, pair_generates = group.commutes, group.pair_generates
    abelian = group.is_abelian()

    def generates(g: int, h: int) -> bool:
        if not abelian and commutes(g, h):
            return False
        return pair_generates(g, h)

    return generates


def generating_graph(group: FiniteGroup) -> Graph:
    """g ~ h iff the pair generates the whole group, decided once per orbit of
    pairs under simultaneous conjugation (see `constructions.class_graph`)."""
    return class_graph(group, _generates(group), True, build_partition(group, "equality"))


def _invariable_classes(group: FiniteGroup) -> Graph:
    """The conjugacy classes every pair across which generates the group."""
    generates = _generates(group)
    partition = build_partition(group, "conjugacy")
    return class_graph(group, lambda g, h: not generates(g, h), True, partition).complement()


def invariable_generating_graph(group: FiniteGroup) -> Graph:
    """x ~ y iff every conjugate pair generates the group.

    The condition is invariant under simultaneous conjugation, so it holds
    for whole pairs of conjugacy classes, and an adjacent pair of classes is
    joined completely. A class never joins itself: the conjugate pairs of x
    include (x, x), and a class with two or more members rules out a cyclic
    group. So the graph is the blow-up, with empty factors, of the class
    graph `_invariable_classes`.
    """
    classes = build_partition(group, "conjugacy").classes
    return blow_up(_invariable_classes(group), classes, group.labels(), "empty")


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


def containment_checks(group: FiniteGroup, checks=_CHECKS) -> list[ContainmentReport]:
    """The containments of checks (default both) for each applicable kind.

    Kinds whose property the whole group already has are skipped (reported as
    not applicable): the containments are only claimed for non-A groups. A
    check's relation on classes is built once, when the first applicable
    kind needs it. Its graph and the supergraph are blow-ups over the same
    classes, with empty and complete factors, so the graph is the
    supergraph's complement iff the relation is delta's complement, and its
    violations blow up the class pairs joined in both.
    """
    reports = []
    relations = {}
    for kind in GENERATION_KINDS:
        if getattr(group, f"is_{kind}")():
            for check, _ in checks:
                reports.append(
                    ContainmentReport(group.label, kind, check, False, True, False, ())
                )
            continue
        for check, pkind in checks:
            if check not in relations:
                build = generating_graph if check == "generating-vs-base" else _invariable_classes
                relations[check] = build(group)
            relation = relations[check]
            quotient = quotient_supergraph(group, _BASE_FOR_KIND[kind], pkind)
            clash = intersection(relation, quotient.delta)
            violations = tuple(blow_up(clash, quotient.classes, group.labels(), "empty").edges())
            reports.append(ContainmentReport(
                group.label, kind, check, True, not violations,
                relation == quotient.delta.complement(), violations,
            ))
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
    complement of a conjugacy supergraph; no classification is claimed. Only
    the invariable check runs: no generating graph or base graph is built."""
    report = ScanReport()
    for spec in specs:
        try:
            group = make_group(spec)
        except (InvalidGroupSpec, SizeCapError) as exc:
            report.records.append({"spec": spec, "skipped": str(exc)})
            continue
        for rep in containment_checks(group, _CHECKS[1:]):
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
