"""Supergraph constructions on finite groups.

Five base adjacencies (power, enhanced power, commuting, nilpotent, solvable)
and three coarsenings (equality, conjugacy, same order) combine into the
supergraphs: two elements are joined when some members of their classes are
adjacent in the base graph, and classes themselves induce complete subgraphs.

Every supergraph is built from one form, its quotient decomposition
delta[K_n1, ..., K_nk]: a composition of complete factors, one per class, over
the graph delta of class adjacency. The decomposition is delta and the classes
of group elements, nothing more, and it is its own witness:
`expand_quotient` blows it up into the element-level graph (see
`graphs.blow_up`), and the class-compressed conjugacy graph is the delta of
the conjugacy quotient. `quotient_supergraph` is the only code that
partitions a group for a supergraph. The base graph of a kind is its equality
supergraph. The hierarchy report compares the 15 deltas; element graphs are
built only where a command writes one out and where brute force is the point
(the `wiener` distance sum and the family suites).

Every base adjacency, and generation of the group, depends only on the
cyclic subgroups two elements generate and is invariant under simultaneous
conjugation. `class_graph` is the one place that decides which classes of a
partition are related under such a relation, for quotients and for both
generating graphs (see `generation`), by one pinned scan over the orbits of
cyclic subgroups under conjugation (`FiniteGroup.cyclic_orbits`). Of two
orbits, the root of the larger is pinned and tested against the smaller's
subgroups, once per orbit of the pinned element's centralizer for the tests
that close a subgroup (the solvable kind and generation), and whether the
root's own generators are related is one test of r against r^-1. The scan
feeds one of two sinks. The every-hit sink, for the equality partition,
keeps every hit and carries it to the rest of the pinned orbit through the
generators' recorded permutations of the subgroups: elements generating one
cyclic subgroup are closed twins in every base graph, so the delta is the
blow-up of a graph Gamma on the cyclic subgroups. The first-hit sink, for
the conjugacy and order partitions, stops a pair of orbits at its first hit
and pulls it back onto the classes that the orbits meet, which are the
classes of their roots' generators. Two shortcuts skip closures: if the
whole group has the kind's property (`PROPERTY_OF_KIND`: abelian for
commuting, cyclic for enhanced, nilpotent, solvable), a fact the group
computes once, that kind's delta is complete and built as such, with no edge
list; and a commuting pair is nilpotent- and solvable-adjacent.
Only the solvable test closes the subgroup a pair generates
(`FiniteGroup.pair_is_solvable`); the nilpotent test reads the pair's Sylow
parts (`FiniteGroup.generates_nilpotent`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import and_

from .graphs import Graph, blow_up, contract, is_subgraph
from .groups import FiniteGroup

KINDS = ("power", "enhanced", "commuting", "nilpotent", "solvable")
PARTITIONS = ("equality", "conjugacy", "order")

# the whole-group property that makes every pair of a kind adjacent
PROPERTY_OF_KIND = {"commuting": "abelian", "enhanced": "cyclic",
                    "nilpotent": "nilpotent", "solvable": "solvable"}

_PARTITION_ALIASES = {"same_order": "order", "same-order": "order"}


def normalize_partition(pkind: str) -> str:
    pkind = _PARTITION_ALIASES.get(pkind, pkind)
    if pkind not in PARTITIONS:
        raise ValueError(f"unknown partition {pkind!r}; known {PARTITIONS}")
    return pkind


def normalize_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"unknown adjacency kind {kind!r}; known {KINDS}")
    return kind


@dataclass(frozen=True, eq=False)
class Partition:
    kind: str
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)


def _pair_test(group: FiniteGroup, kind: str):
    """The base adjacency of kind as a test on two distinct elements.

    A commuting pair generates an abelian group, which is nilpotent and
    solvable. A pair that does not commute is nilpotent-adjacent by a test on
    the Sylow parts of g and h (see `FiniteGroup.generates_nilpotent`), which
    closes only pairs of p-elements, within |G|_p elements; only the solvable
    test closes the subgroup the pair generates. Commuting g and h generate a
    group of order |<g>||<h>| / |<g> & <h>|, which is cyclic exactly when
    that is lcm(|g|, |h|), that is when |<g> & <h>| = gcd(|g|, |h|).
    """
    commutes, cyclic = group.commutes, group.cyclic_subgroup
    if kind == "commuting":
        return commutes
    if kind == "power":
        return lambda g, h: h in cyclic(g) or g in cyclic(h)
    if kind == "enhanced":
        return lambda g, h: commutes(g, h) and len(cyclic(g) & cyclic(h)) == math.gcd(
            len(cyclic(g)), len(cyclic(h))
        )
    if kind == "nilpotent":
        return lambda g, h: commutes(g, h) or group.generates_nilpotent((g, h))
    return lambda g, h: commutes(g, h) or group.pair_is_solvable(g, h)


def base_adjacent(group: FiniteGroup, kind: str, g: int, h: int) -> bool:
    """Adjacency of two distinct elements in the chosen base graph."""
    kind = normalize_kind(kind)
    if g == h:
        raise ValueError("base adjacency is defined for distinct elements")
    return _pair_test(group, kind)(g, h)


def _complete_on(group: FiniteGroup, kind: str) -> bool:
    """Whether the whole group has the property that makes every pair
    adjacent (`PROPERTY_OF_KIND`). Then every supergraph of kind is complete."""
    return kind in PROPERTY_OF_KIND and getattr(group, f"is_{PROPERTY_OF_KIND[kind]}")()


def build_partition(group: FiniteGroup, pkind: str) -> Partition:
    """Equality, conjugacy, or same-order partition.

    Classes are ordered by (size, least member) and each class lists its
    members in increasing order, so downstream vertex orders are reproducible.
    """
    pkind = normalize_partition(pkind)
    if pkind == "equality":
        classes = [(g,) for g in range(group.order)]
    elif pkind == "conjugacy":
        classes = [c.members for c in group.conjugacy_classes()]
    else:
        by_order: dict[int, list[int]] = {}
        for g in range(group.order):
            by_order.setdefault(group.element_order(g), []).append(g)
        classes = [tuple(sorted(v)) for v in by_order.values()]
    classes.sort(key=lambda c: (len(c), c[0]))
    class_of = [0] * group.order
    for idx, members in enumerate(classes):
        for g in members:
            class_of[g] = idx
    return Partition(pkind, tuple(classes), tuple(class_of))


def _class_labels(group: FiniteGroup, partition: Partition):
    """Each class's representative label; one class per element takes the
    group's cached labels, not one call per element."""
    if len(partition.classes) == group.order:
        return group.labels()
    return [group.element_label(rep) for rep in partition.representatives]


def class_graph(group: FiniteGroup, test, per_orbit: bool, partition: Partition) -> Graph:
    """The graph on the partition's classes, in its order, joining two classes
    when test holds for some pair across them. The test must depend only on
    the cyclic subgroups <g> and <h>, as every base adjacency and generation
    do, and be invariant under simultaneous conjugation. Classes related when
    every pair across them passes a test are the complement of the class
    graph of its negation (see `generation.invariable_generating_graph`).

    This is the one place that decides which classes are related, by one
    pinned scan over the orbits of cyclic subgroups under conjugation
    (`FiniteGroup.cyclic_orbits`) that feeds one of two sinks. The orbits are
    sorted by size; of two orbits a <= b, b's root <r> is pinned, and r is
    tested against one generator of each other subgroup of a if per_orbit is
    not set, else against one per orbit of the centralizer C(r) on a's
    subgroups, since every pair of subgroups across the orbits is conjugate
    to one of these. Whether the generators of <r> are related to each other
    is one test of r against r^-1 per orbit.

    The every-hit sink, for the equality partition, keeps every hit:
    elements generating one cyclic subgroup are closed twins, so the graph
    is the blow-up of a graph Gamma on the cyclic subgroups
    (`FiniteGroup.cyclic_classes`). r's hits are carried to each other
    subgroup of b along the step of the orbit walk that reaches it: a
    subgroup k reached from p by the generator s has the hits of p moved by
    s's permutation of the subgroups, so no element is conjugated. The
    diagonal test always holds for the five base kinds, and for generation
    only when the subgroup is the whole, cyclic, group; a subgroup whose
    generators are apart has an empty factor.

    The first-hit sink, for the conjugacy and order partitions, whose
    classes are unions of conjugacy classes, stops a pair of orbits at its
    first hit and pulls it back: every conjugacy class whose members
    generate subgroups of an orbit holds a generator of its root, so an
    orbit meets exactly the partition classes of its root's generators, and
    one hit relates every class a meets to every class b meets. A pair is
    skipped when those classes are all related already, as when both orbits
    meet one order class. That graph is one int mask per class, with no
    edge list.
    """
    walk, generators = group.cyclic_orbits(), group.cyclic_classes().members
    orbits = sorted(walk.orbits, key=len)
    every_hit = partition.kind == "equality"
    # the first-hit sink: the classes each orbit meets, and one mask per class
    meets = [() if every_hit else tuple({partition.class_of[g] for g in generators[orbit[0]]})
             for orbit in orbits]
    reach = [sum(1 << i for i in classes) for classes in meets]
    masks = [] if every_hit else [1 << i for i in range(len(partition.classes))]
    # the every-hit sink: Gamma, and the subgroups whose generators are apart
    gamma, apart = [0] * len(generators), []

    def relate(a: int, b: int) -> None:
        """Relates every class that orbit a meets to every class b meets."""
        for i in meets[b]:
            masks[i] |= reach[a]
        for j in meets[a]:
            masks[j] |= reach[b]

    def related_to(b: int) -> int:
        """The classes related to every class that orbit b meets."""
        return reduce(and_, map(masks.__getitem__, meets[b]), -1)

    for b, orbit in enumerate(orbits):
        root = orbit[0]
        r = generators[root][0]
        if len(generators[root]) > 1 and not test(r, group.inv(r)):
            apart.extend(orbit)
        else:
            relate(b, b)
        related, hits = related_to(b), []
        for a in range(b + 1):
            if not (every_hit or reach[a] & ~related):
                continue
            for covered in group.centralizer_orbits(r, orbits[a]) if per_orbit else zip(orbits[a]):
                if covered[0] != root and test(r, generators[covered[0]][0]):
                    hits.extend(covered)
                    if not every_hit:
                        relate(a, b)
                        related = related_to(b)
                        break
        if every_hit:
            rows = {root: hits}
            for k in orbit[1:]:  # each reached from a subgroup listed before it
                parent, t = walk.steps[k]
                rows[k] = list(map(walk.permutations[t].__getitem__, rows[parent]))
            for k, row in rows.items():
                bit, mask = 1 << k, 0
                for h in row:
                    gamma[h] |= bit
                    mask |= 1 << h
                gamma[k] |= mask
    if not every_hit:
        masks = [mask ^ 1 << i for i, mask in enumerate(masks)]
        return Graph._from_masks(_class_labels(group, partition), masks)
    labels = group.labels()
    delta = Graph._from_masks([labels[gens[0]] for gens in generators], gamma)
    graph = blow_up(delta, generators, labels, "complete")
    if not apart:
        return graph
    masks = list(graph.masks)
    for k in apart:
        together = sum(1 << g for g in generators[k])
        for g in generators[k]:
            masks[g] &= ~together
    return Graph._from_masks(labels, masks)


@dataclass(frozen=True)
class QuotientDecomposition:
    """delta[K_n1, ..., K_nk]: classes[i] is the sorted tuple of the group
    elements in factor i, which stands on vertex i of delta."""

    delta: Graph
    classes: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.classes))


def quotient_supergraph(group: FiniteGroup, kind: str, pkind: str) -> QuotientDecomposition:
    """Decompose the supergraph as delta[K_n1, ..., K_nk].

    delta is the induced subgraph of the supergraph on class representatives,
    and the classes are the partition's, in its order. delta is complete when
    the whole group has the kind's property, else `class_graph` decides it.
    """
    kind = normalize_kind(kind)
    partition = build_partition(group, pkind)
    if _complete_on(group, kind):
        delta = Graph.complete(len(partition.classes), _class_labels(group, partition))
    else:
        # only the solvable test closes the subgroup a pair generates, worth one test
        # per centralizer orbit; the others cost less than the conjugations that find them
        delta = class_graph(group, _pair_test(group, kind), kind == "solvable", partition)
    return QuotientDecomposition(delta, partition.classes)


def expand_quotient(group: FiniteGroup, q: QuotientDecomposition) -> Graph:
    """The composition delta[K_n1, ..., K_nk] on the group's elements.

    Members of one class are pairwise joined, and every member of a class is
    joined to every member of each class adjacent to it in delta.
    """
    return blow_up(q.delta, q.classes, group.labels(), "complete")


def build_supergraph(group: FiniteGroup, kind: str, pkind: str) -> Graph:
    """Supergraph: g ~ h iff they share a class or their classes contain an
    adjacent pair. Same-class vertices are joined by convention. The equality
    supergraph is the base graph itself."""
    return expand_quotient(group, quotient_supergraph(group, kind, pkind))


def build_compressed(group: FiniteGroup, kind: str) -> Graph:
    """One vertex per conjugacy class; classes joined when some representatives
    are adjacent in the base graph. No convention edges and no loops."""
    return quotient_supergraph(group, kind, "conjugacy").delta


@dataclass
class HierarchyReport:
    """The links of `hierarchy_report`; a partition-chain link holds when
    delta_B is the contraction of delta_A, which implies the containment."""

    group_label: str
    kind_chain: list[dict] = field(default_factory=list)
    partition_chain: list[dict] = field(default_factory=list)
    order_coincidence: bool = False
    passed: bool = False

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_label,
            "kind_chain": self.kind_chain,
            "partition_chain": self.partition_chain,
            "order_coincidence": self.order_coincidence,
            "passed": self.passed,
        }


def hierarchy_report(group: FiniteGroup) -> HierarchyReport:
    """Check both directions of the supergraph hierarchy on the 15 deltas.

    For each partition the graphs must grow, each a subgraph of the next,
    along power, enhanced, commuting, nilpotent, solvable: a subgraph test
    between deltas on shared classes. For each kind they must grow along
    equality, conjugacy, same order, each partition refining the next: delta_B
    must be the contraction of delta_A onto B's classes (`graphs.contract`).
    The equality delta comes from the scan's every-hit sink and each
    coarser delta from its first-hit sink, which pulls back the first hit of
    each pair of orbits and never reads Gamma, so a link from equality to
    conjugacy compares the two sinks, not one graph on the cyclic subgroups
    with itself. Also checks that the order-superenhanced and
    order-supercommuting graphs coincide.
    """
    deltas = {
        (kind, pkind): quotient_supergraph(group, kind, pkind).delta
        for kind in KINDS
        for pkind in PARTITIONS
    }
    partitions = {pkind: build_partition(group, pkind) for pkind in PARTITIONS}
    report = HierarchyReport(group.label)
    for pkind in PARTITIONS:
        for low, high in itertools.pairwise(KINDS):
            holds = is_subgraph(deltas[(low, pkind)], deltas[(high, pkind)])
            report.kind_chain.append(
                {"partition": pkind, "lower": low, "upper": high, "holds": holds}
            )
    for kind in KINDS:
        for low, high in itertools.pairwise(PARTITIONS):
            fine, coarse = deltas[(kind, low)], deltas[(kind, high)]
            class_of = partitions[low].class_of
            merged = [{class_of[g] for g in members} for members in partitions[high].classes]
            holds = contract(fine, merged, coarse.labels) == coarse
            report.partition_chain.append(
                {"kind": kind, "lower": low, "upper": high, "holds": holds}
            )
    report.order_coincidence = deltas[("enhanced", "order")] == deltas[("commuting", "order")]
    report.passed = report.order_coincidence and all(
        link["holds"] for link in report.kind_chain + report.partition_chain
    )
    return report
