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
partitions a group and decides class adjacency. The base graph of a kind is
its equality supergraph. Also provides the containment hierarchy report.

Every base adjacency is invariant under simultaneous conjugation, so element
pairs are decided per orbit: `pair_orbit_edges` pins each conjugacy class
representative r, decides (r, h) once per orbit of the centralizer C(r), and
expands the edges through the conjugators the class records. It is the one
element-pair path: it gives the equality delta and the generating graph.
Whole conjugacy classes are compared by one pinned scan,
`pinned_class_pairs`: some pair adjacent for a conjugacy quotient, every pair
generating for the invariable generating graph. Order classes, which are
unions of conjugacy classes, are compared through their conjugacy class
pairs.
Two shortcuts skip closures: if the whole group is abelian (commuting),
cyclic (enhanced), nilpotent or solvable, that kind's delta is complete, and
a commuting pair is nilpotent- and solvable-adjacent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .graphs import Graph, blow_up, is_subgraph
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


def _pair_test(group: FiniteGroup, kind: str):
    """The base adjacency of kind as a test on two distinct elements.

    Only nilpotent and solvable tests close the subgroup a pair generates, and
    only for a pair that does not commute: a commuting pair generates an
    abelian group, which is both. Commuting g and h generate a group of order
    |<g>||<h>| / |<g> & <h>|, which is cyclic exactly when that is
    lcm(|g|, |h|), that is when |<g> & <h>| = gcd(|g|, |h|).
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

    def closes(g, h):
        if commutes(g, h):
            return True
        flags = group.subgroup_flags(group.pair_subgroup_members(g, h), (g, h))
        return flags.is_nilpotent if kind == "nilpotent" else flags.is_solvable

    return closes


# kinds whose test closes a subgroup: worth one test per centralizer orbit;
# the others cost less than the conjugations that find the orbits
_CLOSURE_KINDS = ("nilpotent", "solvable")


def base_adjacent(group: FiniteGroup, kind: str, g: int, h: int) -> bool:
    """Adjacency of two distinct elements in the chosen base graph."""
    kind = normalize_kind(kind)
    if g == h:
        raise ValueError("base adjacency is defined for distinct elements")
    return _pair_test(group, kind)(g, h)


def _complete_on(group: FiniteGroup, kind: str) -> bool:
    """Whether the whole group has the property that makes every pair
    adjacent: abelian for commuting, cyclic for enhanced, nilpotent or
    solvable for those kinds. Then every supergraph of kind is complete."""
    if kind == "power" or (kind in ("commuting", "enhanced") and not group.is_abelian()):
        return False
    flags = group.whole_group_flags()
    return {
        "commuting": flags.is_abelian,
        "enhanced": flags.is_cyclic,
        "nilpotent": flags.is_nilpotent,
        "solvable": flags.is_solvable,
    }[kind]


def _scan_orbits(group: FiniteGroup, pinned: int, members: tuple[int, ...], per_orbit: bool):
    """The parts of one conjugacy class that a test with `pinned` decides at
    once: orbits of the centralizer of `pinned`, or single members."""
    if per_orbit:
        return group.centralizer_orbits(pinned, members)
    return [(h,) for h in members]


def pair_orbit_edges(group: FiniteGroup, test, per_orbit: bool):
    """Every pair {g, h} of distinct elements for which test(g, h) holds, where
    the test is invariant under simultaneous conjugation.

    Each conjugacy class representative r is pinned, and (r, h) is decided for
    h in r's class and the classes after it: once per orbit of the centralizer
    C(r) on each class (its least member stands for it) if per_orbit is set,
    else once per member. Since test(r, h) = test(r^x, h^x), the edges of a
    member m = r^x are the conjugates by x of r's, found through the
    conjugators the class records; the representative itself needs none.
    Every edge comes out once: across classes from the earlier class, inside a
    class from its smaller end.
    """
    mul, inv = group.mul, group.inv
    classes = group.conjugacy_classes()
    for i, cls in enumerate(classes):
        r = cls.representative
        inside: list[int] = []
        later: list[int] = []
        for j in range(i, len(classes)):
            hits = inside if j == i else later
            for orbit in _scan_orbits(group, r, classes[j].members, per_orbit):
                if orbit[0] != r and test(r, orbit[0]):
                    hits.extend(orbit)
        for m, x in zip(cls.members, cls.conjugators):
            if x == 0:
                yield from ((m, h) for h in inside if h > m)
                yield from ((m, h) for h in later)
                continue
            x_inv = inv(x)
            for h in inside:
                t = mul(mul(x_inv, h), x)
                if t > m:
                    yield (m, t)
            for h in later:
                yield (m, mul(mul(x_inv, h), x))


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


def pinned_class_pairs(group: FiniteGroup, first, second, per_orbit: bool):
    """The pairs (r, h) that decide a relation invariant under simultaneous
    conjugation between two conjugacy classes, given as sorted member tuples.

    The larger class is pinned to its representative r, and h stands for one
    orbit of the centralizer C(r) on the smaller class if per_orbit is set,
    else for one member: every pair across the classes is conjugate to one
    of these.
    """
    scan, fixed = (first, second) if len(first) <= len(second) else (second, first)
    pinned = fixed[0]
    return [(pinned, orbit[0]) for orbit in _scan_orbits(group, pinned, scan, per_orbit)]


def _class_adjacency(group: FiniteGroup, kind: str, partition: Partition) -> list[tuple[int, int]]:
    """Pairs of class indices i < j whose classes contain a base-adjacent pair.

    The equality partition's classes are the elements, so its pairs are the
    pair-orbit edges. Conjugacy classes are tested pairwise, and a pair of
    order classes is adjacent when some pair of the conjugacy classes they
    are unions of is.
    """
    k = len(partition.classes)
    if _complete_on(group, kind):
        return list(itertools.combinations(range(k), 2))
    test, per_orbit = _pair_test(group, kind), kind in _CLOSURE_KINDS
    if partition.kind == "equality":
        return list(pair_orbit_edges(group, test, per_orbit))
    if partition.kind == "conjugacy":
        parts = [[members] for members in partition.classes]
    else:
        parts = [[] for _ in range(k)]
        for cls in group.conjugacy_classes():
            parts[partition.class_of[cls.representative]].append(cls.members)
    return [
        (i, j)
        for i, j in itertools.combinations(range(k), 2)
        if any(
            test(r, h)
            for a in parts[i]
            for b in parts[j]
            for r, h in pinned_class_pairs(group, a, b, per_orbit)
        )
    ]


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
    and the classes are the partition's, in its order. This is the one place
    that partitions a group and decides which classes are adjacent.
    """
    kind = normalize_kind(kind)
    partition = build_partition(group, pkind)
    labels = [group.element_label(rep) for rep in partition.representatives]
    delta = Graph(labels, _class_adjacency(group, kind, partition))
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
    """Check both directions of the supergraph hierarchy.

    For each partition the graphs must grow, each a subgraph of the next,
    along power, enhanced, commuting, nilpotent, solvable; for each kind
    they must grow along equality, conjugacy, same order. Also checks that
    the order-superenhanced and order-supercommuting graphs coincide.
    """
    grids = {
        (kind, pkind): build_supergraph(group, kind, pkind)
        for kind in KINDS
        for pkind in PARTITIONS
    }
    report = HierarchyReport(group.label)
    ok = True
    for pkind in PARTITIONS:
        for low, high in itertools.pairwise(KINDS):
            holds = is_subgraph(grids[(low, pkind)], grids[(high, pkind)])
            ok &= holds
            report.kind_chain.append(
                {"partition": pkind, "lower": low, "upper": high, "holds": holds}
            )
    for kind in KINDS:
        for low, high in itertools.pairwise(PARTITIONS):
            holds = is_subgraph(grids[(kind, low)], grids[(kind, high)])
            ok &= holds
            report.partition_chain.append(
                {"kind": kind, "lower": low, "upper": high, "holds": holds}
            )
    report.order_coincidence = grids[("enhanced", "order")] == grids[("commuting", "order")]
    ok &= report.order_coincidence
    report.passed = ok
    return report
