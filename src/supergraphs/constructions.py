"""Supergraph constructions on finite groups.

Five base adjacencies (power, enhanced power, commuting, nilpotent, solvable)
and three coarsenings (equality, conjugacy, same order) combine into the
supergraphs: two elements are joined when some members of their classes are
adjacent in the base graph, and classes themselves induce complete subgraphs.

Every supergraph is built from one form, its quotient decomposition
delta[K_n1, ..., K_nk]: a composition of complete factors, one per class, over
the graph delta of class adjacency. `quotient_supergraph` is the only code that
partitions a group and decides class adjacency; `expand_quotient` turns the
quotient into the element-level graph, and the class-compressed conjugacy
graph is the delta of the conjugacy quotient. The base graph of a kind is its
equality supergraph. Also provides the containment hierarchy report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .graphs import CompositionWitness, Graph, witness_for_composition
from .groups import FiniteGroup

KINDS = ("power", "enhanced", "commuting", "nilpotent", "solvable")
PARTITIONS = ("equality", "conjugacy", "order")

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
    group: FiniteGroup
    kind: str
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)


def base_adjacent(group: FiniteGroup, kind: str, g: int, h: int) -> bool:
    """Adjacency of two distinct elements in the chosen base graph."""
    kind = normalize_kind(kind)
    if g == h:
        raise ValueError("base adjacency is defined for distinct elements")
    if kind == "commuting":
        return group.commutes(g, h)
    if kind == "power":
        return h in group.cyclic_subgroup(g) or g in group.cyclic_subgroup(h)
    if kind == "enhanced":
        if not group.commutes(g, h):
            return False
        members = group.pair_subgroup_members(g, h)
        return group.subgroup_flags(members, (g, h)).is_cyclic
    members = group.pair_subgroup_members(g, h)
    flags = group.subgroup_flags(members, (g, h))
    return flags.is_nilpotent if kind == "nilpotent" else flags.is_solvable


def build_partition(group: FiniteGroup, pkind: str) -> Partition:
    """Equality, conjugacy, or same-order partition.

    Classes are ordered by (size, least member) and each class lists its
    members in increasing order, so downstream vertex orders are reproducible.
    """
    pkind = normalize_partition(pkind)
    group.require_enumerable()
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
    return Partition(group, pkind, tuple(classes), tuple(class_of))


def class_pair_adjacent(
    group: FiniteGroup, kind: str, first: tuple[int, ...], second: tuple[int, ...],
    conjugation_invariant: bool,
) -> bool:
    """Whether some member of `first` is base-adjacent to some member of `second`.

    For conjugacy classes the search is class-restricted: adjacency is
    invariant under simultaneous conjugation, so one side may be pinned to a
    single representative while the other class is scanned in full.
    """
    if conjugation_invariant:
        if len(first) <= len(second):
            scan, fixed = first, second[0]
        else:
            scan, fixed = second, first[0]
        return any(base_adjacent(group, kind, fixed, y) for y in scan)
    return any(
        base_adjacent(group, kind, x, y) for x in first for y in second
    )


def _class_adjacency(group: FiniteGroup, kind: str, partition: Partition) -> list[tuple[int, int]]:
    """Pairs of class indices i < j whose classes contain a base-adjacent pair."""
    invariant = partition.kind == "conjugacy"
    classes = partition.classes
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(classes)), 2)
        if class_pair_adjacent(group, kind, classes[i], classes[j], invariant)
    ]


@dataclass(frozen=True)
class QuotientDecomposition:
    delta: Graph
    sizes: tuple[int, ...]
    witness: CompositionWitness
    element_map: tuple[int, ...]  # composed vertex position -> group element


def quotient_supergraph(group: FiniteGroup, kind: str, pkind: str) -> QuotientDecomposition:
    """Decompose the supergraph as delta[K_n1, ..., K_nk].

    delta is the induced subgraph of the supergraph on class representatives,
    the sizes are the class sizes in class order, and the witness maps each
    complete factor onto the members of its class. This is the one place that
    partitions a group and decides which classes are adjacent.
    """
    kind = normalize_kind(kind)
    partition = build_partition(group, pkind)
    labels = [group.element_label(rep) for rep in partition.representatives]
    delta = Graph(labels, _class_adjacency(group, kind, partition))
    sizes = partition.sizes
    witness = witness_for_composition(delta, sizes, ("complete",) * len(sizes))
    element_map = tuple(g for members in partition.classes for g in members)
    return QuotientDecomposition(delta, sizes, witness, element_map)


def expand_quotient(group: FiniteGroup, q: QuotientDecomposition) -> Graph:
    """The composition delta[K_n1, ..., K_nk] on the group's elements.

    Members of one class are pairwise joined, and every member of a class is
    joined to every member of each class adjacent to it in delta.
    """
    ends = itertools.accumulate(q.sizes)
    classes = [q.element_map[end - size:end] for size, end in zip(q.sizes, ends)]
    inside = (itertools.combinations(members, 2) for members in classes)
    across = (itertools.product(classes[i], classes[j]) for i, j in q.delta.edges())
    return Graph(group.labels(), itertools.chain.from_iterable(itertools.chain(inside, across)))


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


def _edge_set(graph: Graph) -> frozenset[tuple[int, int]]:
    return frozenset(graph.edges())


def hierarchy_report(group: FiniteGroup) -> HierarchyReport:
    """Check both directions of the supergraph hierarchy.

    For each partition the edge sets must grow along power, enhanced,
    commuting, nilpotent, solvable; for each kind they must grow along
    equality, conjugacy, same order. Also checks that the order-superenhanced
    and order-supercommuting graphs coincide edge-for-edge.
    """
    grids = {
        (kind, pkind): _edge_set(build_supergraph(group, kind, pkind))
        for kind in KINDS
        for pkind in PARTITIONS
    }
    report = HierarchyReport(group.label)
    ok = True
    for pkind in PARTITIONS:
        for low, high in itertools.pairwise(KINDS):
            holds = grids[(low, pkind)] <= grids[(high, pkind)]
            ok &= holds
            report.kind_chain.append(
                {"partition": pkind, "lower": low, "upper": high, "holds": holds}
            )
    for kind in KINDS:
        for low, high in itertools.pairwise(PARTITIONS):
            holds = grids[(kind, low)] <= grids[(kind, high)]
            ok &= holds
            report.partition_chain.append(
                {"kind": kind, "lower": low, "upper": high, "holds": holds}
            )
    report.order_coincidence = grids[("enhanced", "order")] == grids[("commuting", "order")]
    ok &= report.order_coincidence
    report.passed = ok
    return report
