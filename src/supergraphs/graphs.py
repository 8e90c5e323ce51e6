"""Finite simple graphs and the operations the supergraph constructions need:
join, disjoint union, intersection, strong product, generalized composition,
the blow-up of a quotient graph into complete or empty factors, distances,
Wiener index, isomorphism of cographs by their cotrees, and comparability
testing.

Graphs are immutable, vertices carry unique string labels, and every operation
defines a deterministic output order (factors in base order, products in
row-major pair order).

A graph holds its adjacency as one int bitmask per vertex: bit v of
`masks[u]` is set iff u and v are adjacent. This module is the only one that
knows that layout. Complement, intersection, the subgraph test, the edge
difference, compositions, strong products and the blow-up are a few big-int
operations per vertex. `edge_rows()` is the one reader of the bits: one row
of higher neighbours per vertex, in sorted order, for `edges()`, `to_dot`
and the CLI's JSON writer, optionally mapped to the caller's names. It
decodes each distinct neighbourhood once, and twins share the decoded row:
true twins (a complete factor, as in every supergraph) by their closed
neighbourhood, false twins (an empty factor, as in the invariable
generating graph) by their open one, each vertex taking the suffix above
it. A supergraph decodes at most one row per distinct closed neighbourhood
in its quotient delta, not one per vertex.

The Wiener index and the composition formula share one all-sources distance
sum over radius balls held as int bitmasks, the module's only distance
kernel: at most diameter * 2m big-int ORs, and long paths are the slow case.
A graph with a universal vertex has diameter at most 2 and costs n bit counts
and no OR, as every supergraph and every quotient delta does: the identity,
or its class, is universal.

A composition delta[F_1, ..., F_k] whose factors are all complete or all
empty is given by delta and its classes of vertices alone: `blow_up` builds
it, and `contract` reads delta back from a graph and its classes. The Wiener
index of any composition over a connected delta needs only delta, the factor
sizes and the factors' edge counts (Schwenk's identity), and
`wiener_via_composition` reads it from those.

Isomorphism is decided for cographs only, with no search: iterated twin
reduction builds each graph's canonical cotree as one interned id, and a graph
that does not reduce to one vertex holds an induced P4.

Comparability is decided by Gallai's theorem, with no search: one union-find
merges the arcs whose orientations force each other, and the graph is a
comparability graph iff no class holds an arc and its reverse.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .groups import SizeCapError

COMPARABILITY_VERTEX_CAP = 64

FACTOR_KINDS = ("complete", "empty")

# bytes.translate table turning the digits of bin() into 0/1 selectors
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int, offset: int = 0) -> list[int]:
    """Positions of the set bits of mask, increasing, each plus offset.

    Sparse masks are walked by str.rfind over the binary digits, from the
    least significant end, with no reversed copy; dense ones are selected
    in one itertools.compress pass over the digits reversed.
    """
    digits = bin(mask)  # "0b", most significant first
    if mask.bit_count() * 6 >= len(digits) - 2:
        selectors = digits[:1:-1].encode().translate(_BIT_SELECTORS)
        return list(itertools.compress(range(offset, offset + len(selectors)), selectors))
    last = offset + len(digits) - 1  # the position of digit i is last - i
    out = []
    i = digits.rfind("1")
    while i >= 0:
        out.append(last - i)
        i = digits.rfind("1", 0, i)
    return out


def _checked_labels(labels) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise ValueError("vertex labels must be unique")
    return labels


class DisconnectedGraphError(ValueError):
    """Raised when a distance-based quantity is requested on a disconnected graph."""


class Graph:
    __slots__ = ("n", "labels", "masks")

    def __init__(self, labels, edges):
        labels = _checked_labels(labels)
        n = len(labels)
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError("loops are not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.labels = labels
        self.masks = tuple(masks)

    @classmethod
    def _from_masks(cls, labels, masks) -> "Graph":
        """The graph with these vertex masks, which must be symmetric and
        loop-free; the one constructor that skips the edge list."""
        graph = cls.__new__(cls)
        graph.labels = _checked_labels(labels)
        graph.n = len(graph.labels)
        graph.masks = tuple(masks)
        return graph

    # --- constructors ---

    @staticmethod
    def complete(n: int, labels=None) -> "Graph":
        return Graph.empty(n, labels).complement()

    @staticmethod
    def empty(n: int, labels=None) -> "Graph":
        labels = labels if labels is not None else [str(i) for i in range(n)]
        return Graph(labels, [])

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph([str(i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycles need at least 3 vertices")
        edges = [(i, (i + 1) % n) for i in range(n)]
        return Graph([str(i) for i in range(n)], edges)

    # --- basic queries ---

    def has_edge(self, u: int, v: int) -> bool:
        return self.masks[u] >> v & 1 == 1

    def edge_rows(self, names=None):
        """(u, [v, ...]) for each u with a neighbour v > u, those neighbours
        increasing: the edges (u, v), u < v, grouped by u, in increasing
        order. With names, each v is given as names[v].

        Twins share one row, decoded once. True twins share a closed
        neighbourhood (the vertices of a complete factor), false twins an
        open one (those of an empty factor). One dict holds both kinds: the
        closed N[u] is never an open N(w), for u in N(w) would put w in N(u),
        a subset of N[u] = N(w), and graphs have no loops. The row is read
        for the first vertex f with that neighbourhood, as its neighbours
        above f, and a twin u > f gets the slice above u: its neighbours
        above u are a suffix of f's, as many as the bits of its mask above
        u. A row yielded whole is the shared one and must not be changed.
        """
        rows = {}  # a closed or open neighbourhood -> the row read for it
        for u, mask in enumerate(self.masks):
            above = mask >> u + 1
            if not above:
                continue
            closed = mask | 1 << u
            row = rows.get(closed)
            if row is None:
                row = rows.get(mask)
            if row is None:
                row = _bits(above, u + 1)
                if names is not None:
                    row = list(map(names.__getitem__, row))
                rows[closed] = rows[mask] = row
                yield u, row
            else:
                yield u, row[len(row) - above.bit_count():]

    def edges(self) -> list[tuple[int, int]]:
        """Edges (u, v) with u < v, in increasing order."""
        return [(u, v) for u, vs in self.edge_rows() for v in vs]

    @property
    def num_edges(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.labels == other.labels
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((self.labels, self.masks))

    def __repr__(self) -> str:
        return f"<Graph n={self.n} m={self.num_edges}>"

    # --- derived graphs ---

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._from_masks(
            self.labels, [full ^ mask ^ 1 << v for v, mask in enumerate(self.masks)]
        )

    def induced(self, vertices) -> "Graph":
        vertices = list(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("repeated vertex in induced subgraph")
        for v in vertices:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
        masks = [
            sum(1 << i for i, w in enumerate(vertices) if self.masks[v] >> w & 1)
            for v in vertices
        ]
        return Graph._from_masks(tuple(self.labels[v] for v in vertices), masks)

    # --- serialization ---

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels), "edges": self.edges()}

    @staticmethod
    def from_json_dict(data: dict) -> "Graph":
        """Inverse of to_json_dict; malformed input raises ValueError."""
        if not isinstance(data, dict) or not isinstance(data.get("labels"), list):
            raise ValueError("a graph is an object with a 'labels' list and an 'edges' list")
        edges = data.get("edges")
        if not isinstance(edges, list) or not all(
            isinstance(e, (list, tuple))
            and len(e) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in e)
            for e in edges
        ):
            raise ValueError("graph edges must be pairs of integer vertex indices")
        return Graph(data["labels"], [tuple(e) for e in edges])

    def to_dot(self) -> str:
        """The graph in DOT, named G, one quoted label per vertex, with
        backslashes and double quotes escaped so that any label reads back
        unchanged."""
        lines = ["graph G {"]
        for i, lbl in enumerate(self.labels):
            lbl = lbl.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  v{i} [label="{lbl}"];')
        for u, ends in self.edge_rows([f"v{v};" for v in range(self.n)]):
            head = f"  v{u} -- "
            lines.append(head + ("\n" + head).join(ends))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _distance_sum(graph: Graph, weights, message: str) -> int:
    """Sum of w_u * w_v * d(u, v) over unordered vertex pairs, all sources at once.

    d(u, v) counts the radii k >= 0 whose ball R_k(u) misses v, so the sum is
    half of sum_u w_u * sum_k (weight outside R_k(u)). Radius 0 misses all
    but u, and the radius-1 ball is u's mask plus u. Each later ball is the
    OR of its neighbours' balls one radius down, the neighbours read from its
    mask at each step and kept no longer. The weight inside a ball is a few
    bit counts, one per distinct weight. One step per radius up to the
    diameter, each at most 2m big-int ORs, slowest on long paths. If some
    radius-1 ball is full, its vertex is universal and lies in every radius-1
    ball, so every radius-2 ball is full and the sum ends after radius 1:
    n bit counts per distinct weight, no OR. That is every supergraph and
    every quotient delta. A ball that stops growing before it is full marks
    a disconnected graph and raises with `message`.
    """
    by_weight: dict[int, int] = {}
    for v, w in enumerate(weights):
        by_weight[w] = by_weight.get(w, 0) | 1 << v
    total_weight = sum(weights)
    full = (1 << graph.n) - 1
    total = sum(w * (total_weight - w) for w in weights)
    balls = [mask | 1 << v for v, mask in enumerate(graph.masks)]
    frontier = [v for v in range(graph.n) if balls[v] != full]
    universal = len(frontier) < graph.n
    while frontier:
        total += total_weight * sum(weights[v] for v in frontier)
        for w, mask in by_weight.items():
            total -= w * sum(weights[v] * (balls[v] & mask).bit_count() for v in frontier)
        if universal:
            break
        grown = [
            reduce(or_, map(balls.__getitem__, _bits(graph.masks[v])), balls[v])
            for v in frontier
        ]
        for v, ball in zip(frontier, grown):
            if ball == balls[v]:
                raise DisconnectedGraphError(message)
            balls[v] = ball
        frontier = [v for v in frontier if balls[v] != full]
    return total // 2


def wiener_index(graph: Graph) -> int:
    """Sum of shortest-path distances over unordered vertex pairs."""
    return _distance_sum(graph, [1] * graph.n, "Wiener index needs a connected graph")


# --- expressions ---


@dataclass(frozen=True)
class Complete:
    n: int


@dataclass(frozen=True)
class Empty:
    n: int


@dataclass(frozen=True)
class Join:
    left: "GraphExpr"
    right: "GraphExpr"


@dataclass(frozen=True)
class Union:
    parts: tuple


@dataclass(frozen=True)
class Composition:
    base: "GraphExpr"
    factors: tuple


GraphExpr = Complete | Empty | Join | Union | Composition


def eval_expr(expr: GraphExpr) -> Graph:
    """Evaluate an expression to a graph.

    Operand vertices keep their internal order and get position-prefixed
    labels, so repeated evaluation is reproducible.
    """
    if isinstance(expr, Complete):
        if expr.n < 1:
            raise ValueError("complete graphs need n >= 1")
        return Graph.complete(expr.n)
    if isinstance(expr, Empty):
        if expr.n < 1:
            raise ValueError("empty graphs need n >= 1")
        return Graph.empty(expr.n)
    if isinstance(expr, Join):
        return compose_graphs(Graph.complete(2), [eval_expr(expr.left), eval_expr(expr.right)])
    if isinstance(expr, Union):
        return compose_graphs(Graph.empty(len(expr.parts)), [eval_expr(p) for p in expr.parts])
    if isinstance(expr, Composition):
        base = eval_expr(expr.base)
        factors = [eval_expr(f) for f in expr.factors]
        return compose_graphs(base, factors)
    raise TypeError(f"not a graph expression: {expr!r}")


def compose_graphs(base: Graph, factors: list[Graph]) -> Graph:
    """Generalized composition: replace base vertex i by factor i.

    Vertices inside one factor are joined per that factor; vertices in two
    different factors are joined exactly when the base vertices are adjacent.
    Each vertex's mask is its factor mask, shifted into place, ORed with the
    blocks of the factors adjacent to its own in the base.
    """
    if len(factors) != base.n:
        raise ValueError(
            f"composition needs one factor per base vertex "
            f"({base.n} base vertices, {len(factors)} factors)"
        )
    labels = [f"{i}:{lbl}" for i, factor in enumerate(factors) for lbl in factor.labels]
    offsets = list(itertools.accumulate((factor.n for factor in factors), initial=0))
    blocks = [((1 << factor.n) - 1) << offset for factor, offset in zip(factors, offsets)]
    masks = []
    for i, factor in enumerate(factors):
        across = reduce(or_, map(blocks.__getitem__, _bits(base.masks[i])), 0)
        masks.extend(across | mask << offsets[i] for mask in factor.masks)
    return Graph._from_masks(labels, masks)


def blow_up(delta: Graph, classes, labels, factor: str) -> Graph:
    """The composition delta[F_1, ..., F_k] on vertices listed by class:
    classes[i] holds the vertices of factor i, the classes partition
    range(len(labels)), and factor says whether every F_i is complete or
    every one empty.

    Each vertex is joined to every vertex of the classes adjacent to its own
    in delta and, with complete factors, to the rest of its class: its mask
    is the OR of those classes' masks, less its own bit. That OR is taken
    over class i's closed neighbourhood in delta with complete factors, its
    open one with empty factors, so it is built once per distinct
    neighbourhood and read back from a vertex of the first class with it:
    twin classes share it. When classes[i] is (i,) for every i, the blow-up
    is delta under the new labels.
    """
    if factor not in FACTOR_KINDS:
        raise ValueError(f"unknown factor kind {factor!r}")
    if _in_vertex_order(classes, delta.n) and len(labels) == delta.n:
        return Graph._from_masks(labels, delta.masks)
    own = 1 if factor == "complete" else 0
    class_masks = [sum(1 << v for v in members) for members in classes]
    if (
        len(classes) != delta.n
        or sum(map(len, classes)) != len(labels)
        or reduce(or_, class_masks, 0) != (1 << len(labels)) - 1
    ):
        raise ValueError("blow-up needs one class per delta vertex, partitioning the vertices")
    masks = [0] * len(labels)
    built = {}  # neighbourhood in delta -> a vertex whose row it gave
    for i, members in enumerate(classes):
        neighbourhood = delta.masks[i] | own << i
        v = built.get(neighbourhood)
        if v is None:
            row = reduce(or_, map(class_masks.__getitem__, _bits(neighbourhood)), 0)
            if members:
                built[neighbourhood] = members[0]
        else:
            row = masks[v] ^ own << v
        for v in members:
            masks[v] = row ^ own << v
    return Graph._from_masks(labels, masks)


def _in_vertex_order(classes, n: int) -> bool:
    """Whether classes[i] holds vertex i alone, for each of n vertices."""
    return len(classes) == n and all(len(c) == 1 and i in c for i, c in enumerate(classes))


def contract(graph: Graph, classes, labels) -> Graph:
    """The inverse of `blow_up`: vertex i, labelled labels[i], merges the
    vertices of classes[i], which partition graph's vertices. Classes i != j
    are joined when the OR of i's vertex masks, less i's vertices, meets j's:
    the classes that OR meets, less i, read once per distinct OR through a
    table from vertex to class, as `blow_up` builds each distinct row once.
    When classes[i] is {i} for every i, the contraction is graph under the
    new labels."""
    if len(classes) != len(labels) or sorted(itertools.chain(*classes)) != list(range(graph.n)):
        raise ValueError("contraction needs a label per class and a partition of the vertices")
    if _in_vertex_order(classes, graph.n):
        return Graph._from_masks(labels, graph.masks)
    class_of = [0] * graph.n
    for i, members in enumerate(classes):
        for v in members:
            class_of[v] = i
    met, masks = {}, []  # met: an OR of vertex masks -> the classes it meets
    for i, members in enumerate(classes):
        row = reduce(or_, map(graph.masks.__getitem__, members), 0)
        classes_met = met.get(row)
        if classes_met is None:
            classes_met = met[row] = sum(1 << j for j in set(map(class_of.__getitem__, _bits(row))))
        masks.append(classes_met & ~(1 << i))
    return Graph._from_masks(labels, masks)


def strong_product(left: Graph, right: Graph) -> Graph:
    """Pairs adjacent iff each coordinate is equal or adjacent, but not both equal.

    Pair (u, u') is vertex u * |right| + u'; its mask is the closed
    neighbourhood of u' in right, copied into the block of each member of the
    closed neighbourhood of u in left, less its own bit.
    """
    labels = [f"({a},{b})" for a in left.labels for b in right.labels]
    rn = right.n
    closed_right = [mask | 1 << v for v, mask in enumerate(right.masks)]
    masks = []
    for u, mask in enumerate(left.masks):
        shifts = [v * rn for v in _bits(mask | 1 << u)]
        for up, closed in enumerate(closed_right):
            row = reduce(or_, (closed << shift for shift in shifts))
            masks.append(row ^ 1 << u * rn + up)
    return Graph._from_masks(labels, masks)


def _check_same_vertices(left: Graph, right: Graph, operation: str) -> None:
    if left.labels != right.labels:
        raise ValueError(f"{operation} needs identical label sets in identical order")


def intersection(left: Graph, right: Graph) -> Graph:
    """Common edges of two graphs on the same labelled vertex set."""
    _check_same_vertices(left, right, "intersection")
    return Graph._from_masks(left.labels, map(and_, left.masks, right.masks))


def edge_difference(left: Graph, right: Graph) -> Graph:
    """Edges of left that are not edges of right, on the same labelled vertex set."""
    _check_same_vertices(left, right, "edge difference")
    return Graph._from_masks(left.labels, [a & ~b for a, b in zip(left.masks, right.masks)])


def is_subgraph(small: Graph, big: Graph) -> bool:
    """Whether every edge of small is an edge of big, on the same labelled vertex set."""
    return edge_difference(small, big).num_edges == 0


# --- composition-based Wiener identities ---


def wiener_via_composition(base: Graph, sizes, inner_edges) -> int:
    """Wiener index of base[F_1, ..., F_k], factor F_i on sizes[i] vertices
    with inner_edges[i] edges, by Schwenk's identity: two vertices of one
    factor are at distance 1 when adjacent and 2 otherwise (through a
    neighbouring factor), and two vertices of distinct factors at their base
    distance, so W = sum_i (2 C(n_i, 2) - e_i) + sum_{i<j} n_i n_j d(i, j)."""
    sizes, inner_edges = tuple(sizes), tuple(inner_edges)
    if len(sizes) != base.n or len(inner_edges) != base.n:
        raise ValueError("one factor size and one edge count per base vertex required")
    if any(s < 1 for s in sizes):
        raise ValueError("factor sizes must be positive")
    pairs = [math.comb(s, 2) for s in sizes]
    if not all(0 <= e <= p for e, p in zip(inner_edges, pairs)):
        raise ValueError("a factor on n vertices has between 0 and C(n, 2) edges")
    # distances first: an isolated base vertex beside others is a disconnection
    total = _distance_sum(base, sizes, "composition base must be connected")
    if any(e < p and base.degree(i) == 0 for i, (e, p) in enumerate(zip(inner_edges, pairs))):
        raise ValueError(
            "a factor that is not complete on an isolated base vertex has no "
            "length-two path between its non-adjacent vertices"
        )
    return total + sum(2 * p - e for e, p in zip(inner_edges, pairs))


def wiener_supergraph_formula(delta: Graph, sizes) -> int:
    """Wiener index of delta composed with complete factors of the given sizes."""
    sizes = tuple(sizes)
    return wiener_via_composition(delta, sizes, [math.comb(s, 2) for s in sizes])


# --- isomorphism of cographs ---


def cotree_isomorphic(left: Graph, right: Graph) -> bool:
    """Whether two cographs are isomorphic, read from their canonical cotrees.

    Each round merges every twin class of the live vertices into its first
    member: false twins share `mask & alive`, true twins share
    `(mask | 1 << v) & alive`. A class is a module, so the live graph stays
    the quotient by the merged classes. No vertex has twins of both kinds (a
    true twin of u is adjacent to u, hence to every false twin of u, which
    would then be adjacent to u), so both kinds merge in the same round. A
    merge is interned as (0 for a union, 1 for a join, sorted child ids) in
    one table both graphs share, a child of the same kind flattened into its
    parent, so equal ids mean isomorphic subtrees. A graph reduces to one
    vertex iff it is a cograph, and then its id names its canonical cotree,
    which fixes the graph up to isomorphism (Corneil, Lerchs & Stewart,
    Discrete Appl. Math. 3, 1981). A residue of two or more vertices has no
    twins, which every cograph of two or more vertices has, so the graph
    holds an induced P4. A cograph is never isomorphic to a graph with a
    residue; two graphs with residues raise ValueError.
    """
    nodes = [(-1, ())]  # node 0 is a single vertex
    table: dict[tuple, int] = {}
    roots = []
    for graph in (left, right):
        ids = [0] * graph.n
        alive = (1 << graph.n) - 1
        merged = True
        while merged and alive & alive - 1:
            classes: dict[tuple, list[int]] = {}
            for v in _bits(alive):
                closed = (graph.masks[v] | 1 << v) & alive
                classes.setdefault((0, closed ^ 1 << v), []).append(v)
                classes.setdefault((1, closed), []).append(v)
            merged = False
            for (kind, _), members in classes.items():
                if len(members) < 2:
                    continue
                children = itertools.chain.from_iterable(
                    nodes[ids[v]][1] if nodes[ids[v]][0] == kind else (ids[v],)
                    for v in members
                )
                key = (kind, tuple(sorted(children)))
                if key not in table:
                    table[key] = len(nodes)
                    nodes.append(key)
                ids[members[0]] = table[key]
                alive ^= sum(1 << v for v in members[1:])
                merged = True
        if alive & alive - 1:
            roots.append(None)  # a residue: no twins left among its vertices
        else:
            roots.append(ids[alive.bit_length() - 1] if alive else -1)
    if roots == [None, None]:
        raise ValueError("neither graph is a cograph: both hold an induced P4")
    return roots[0] == roots[1]


# --- comparability (transitive orientation) ---


def is_comparability(graph: Graph) -> bool:
    """Whether the edges admit a transitive orientation, by Gallai's theorem.

    Orienting u -> v forces u -> w for each neighbour w of u not adjacent to
    v, and forces v -> u to go with w -> u; a union-find over arcs merges
    each forced pair into its implication class. The graph is a comparability
    graph iff no class holds both u -> v and v -> u (T. Gallai, Acta Math.
    Acad. Sci. Hungar. 18, 1967; Golumbic, Algorithmic Graph Theory and
    Perfect Graphs, ch. 5). No search: two unions per vertex u and pair of
    non-adjacent neighbours v < w of u.
    """
    if graph.n > COMPARABILITY_VERTEX_CAP:
        raise SizeCapError(f"comparability search capped at {COMPARABILITY_VERTEX_CAP} vertices")
    parent = {arc: arc for u, v in graph.edges() for arc in ((u, v), (v, u))}

    def find(arc):
        while parent[arc] != arc:
            parent[arc] = arc = parent[parent[arc]]
        return arc

    for u, mask in enumerate(graph.masks):
        for v in _bits(mask):
            for w in _bits((mask & ~graph.masks[v]) >> v + 1, v + 1):
                parent[find((u, w))] = find((u, v))
                parent[find((w, u))] = find((v, u))
    return all(find((u, v)) != find((v, u)) for u, v in graph.edges())
