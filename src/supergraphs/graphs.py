"""Finite simple graphs and the operations the supergraph constructions need:
join, disjoint union, intersection, strong product, generalized composition,
the blow-up of a quotient graph into complete or empty factors, distances,
Wiener index, isomorphism with witness, and comparability testing.

Graphs are immutable, vertices carry unique string labels, and every operation
defines a deterministic output order (factors in base order, products in
row-major pair order).

A graph holds its adjacency as one int bitmask per vertex: bit v of
`masks[u]` is set iff u and v are adjacent. This module is the only one that
knows that layout. Complement, intersection, the subgraph test, the edge
difference, compositions, strong products and the blow-up are a few big-int
operations per vertex, and `edges()` reads the bits back in sorted order.

The Wiener index and both composition formulas share one all-sources distance
sum over radius balls held as int bitmasks: at most diameter * 2m big-int ORs,
so the supergraphs (diameter at most 2) are cheap and long paths are the
slow case. `bfs_distances` and `distance_matrix` remain for single queries.

A composition delta[F_1, ..., F_k] whose factors are all complete or all
empty is given by delta and its classes of vertices alone: `blow_up` builds
it, and `wiener_via_composition` reads its Wiener index from delta, the
factor sizes and the factor kinds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .groups import SizeCapError

ISO_VERTEX_CAP = 64

FACTOR_KINDS = ("complete", "empty")

# bytes.translate table turning the digits of bin() into 0/1 selectors
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int, offset: int = 0) -> list[int]:
    """Positions of the set bits of mask, increasing, each plus offset.

    Sparse masks are walked by str.find over the binary digits, dense ones
    selected in one itertools.compress pass over them.
    """
    digits = bin(mask)[:1:-1]  # least significant first
    if mask.bit_count() * 6 >= len(digits):
        selectors = digits.encode().translate(_BIT_SELECTORS)
        return list(itertools.compress(range(offset, offset + len(digits)), selectors))
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(offset + i)
        i = digits.find("1", i + 1)
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

    def edges(self) -> list[tuple[int, int]]:
        """Edges (u, v) with u < v, in increasing order."""
        return [
            (u, v) for u, mask in enumerate(self.masks) for v in _bits(mask >> u + 1, u + 1)
        ]

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

    # --- distances ---

    def bfs_distances(self, source: int) -> list[int]:
        """Hop counts from source; -1 marks unreachable vertices."""
        dist = [-1] * self.n
        seen = layer = 1 << source
        d = 0
        while layer:
            members = _bits(layer)
            for v in members:
                dist[v] = d
            layer = reduce(or_, map(self.masks.__getitem__, members)) & ~seen
            seen |= layer
            d += 1
        return dist

    # --- serialization ---

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels), "edges": [list(e) for e in self.edges()]}

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

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        for i, lbl in enumerate(self.labels):
            lines.append(f'  v{i} [label="{lbl}"];')
        for u, v in self.edges():
            lines.append(f"  v{u} -- v{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def distance_matrix(graph: Graph) -> list[list[int]]:
    """All-pairs hop counts via BFS; -1 marks unreachable pairs."""
    return [graph.bfs_distances(v) for v in range(graph.n)]


def _distance_sum(graph: Graph, weights, message: str) -> int:
    """Sum of w_u * w_v * d(u, v) over unordered vertex pairs, all sources at once.

    d(u, v) counts the radii k >= 0 whose ball R_k(u) misses v, so the sum is
    half of sum_u w_u * sum_k (weight outside R_k(u)). Radius 0 misses all
    but u, and the radius-1 ball is u's mask plus u. Each later ball is the
    OR of its neighbours' balls one radius down; a vertex's neighbours are
    read from its mask at most once. The weight inside a ball is a few bit
    counts, one per distinct weight. One step per radius up to the diameter,
    each at most 2m big-int ORs: cheap for the supergraphs (diameter at most
    2), slowest on long paths. A ball that stops growing before it is full
    marks a disconnected graph and raises with `message`.
    """
    by_weight: dict[int, int] = {}
    for v, w in enumerate(weights):
        by_weight[w] = by_weight.get(w, 0) | 1 << v
    total_weight = sum(weights)
    full = (1 << graph.n) - 1
    total = sum(w * (total_weight - w) for w in weights)
    balls = [mask | 1 << v for v, mask in enumerate(graph.masks)]
    frontier = [v for v in range(graph.n) if balls[v] != full]
    neighbours: dict[int, list[int]] = {}
    while frontier:
        total += total_weight * sum(weights[v] for v in frontier)
        for w, mask in by_weight.items():
            total -= w * sum(weights[v] * (balls[v] & mask).bit_count() for v in frontier)
        grown = []
        for v in frontier:
            if v not in neighbours:
                neighbours[v] = _bits(graph.masks[v])
            grown.append(reduce(or_, map(balls.__getitem__, neighbours[v]), balls[v]))
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
        return join(eval_expr(expr.left), eval_expr(expr.right))
    if isinstance(expr, Union):
        return disjoint_union([eval_expr(p) for p in expr.parts])
    if isinstance(expr, Composition):
        base = eval_expr(expr.base)
        factors = [eval_expr(f) for f in expr.factors]
        return compose_graphs(base, factors)
    raise TypeError(f"not a graph expression: {expr!r}")


def disjoint_union(parts: list[Graph]) -> Graph:
    return compose_graphs(Graph.empty(len(parts)), parts)


def join(left: Graph, right: Graph) -> Graph:
    return compose_graphs(Graph.complete(2), [left, right])


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
    is the OR of those classes' masks, less its own bit.
    """
    if factor not in FACTOR_KINDS:
        raise ValueError(f"unknown factor kind {factor!r}")
    own = 1 if factor == "complete" else 0
    class_masks = [sum(1 << v for v in members) for members in classes]
    if (
        len(classes) != delta.n
        or sum(map(len, classes)) != len(labels)
        or reduce(or_, class_masks, 0) != (1 << len(labels)) - 1
    ):
        raise ValueError("blow-up needs one class per delta vertex, partitioning the vertices")
    masks = [0] * len(labels)
    for i, members in enumerate(classes):
        adjacent = map(class_masks.__getitem__, _bits(delta.masks[i]))
        row = reduce(or_, adjacent, class_masks[i] * own)
        for v in members:
            masks[v] = row ^ own << v
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


def wiener_via_composition(base: Graph, sizes, kinds) -> int:
    """Wiener index of base[F_1, ..., F_k], factor F_i complete or empty on
    sizes[i] vertices as kinds[i] says, computed from factor sizes and base
    distances alone: pairs inside a complete factor are at distance 1, inside
    an empty factor at distance 2 (through a neighbouring factor), and pairs
    in distinct factors at the base distance."""
    sizes, kinds = tuple(sizes), tuple(kinds)
    if len(sizes) != base.n:
        raise ValueError("one factor per base vertex required")
    if len(kinds) != base.n:
        raise ValueError("one factor kind per base vertex required")
    for kind in kinds:
        if kind not in FACTOR_KINDS:
            raise ValueError(f"unknown factor kind {kind!r}")
    if any(s < 1 for s in sizes):
        raise ValueError("factor sizes must be positive")
    # distances first: an isolated base vertex beside others is a disconnection
    total = _distance_sum(base, sizes, "composition base must be connected")
    for i, (size, kind) in enumerate(zip(sizes, kinds)):
        if kind == "empty" and size >= 2 and base.degree(i) == 0:
            raise ValueError(
                "empty factor of size >= 2 on an isolated base vertex has no "
                "length-two path between its vertices"
            )
    for size, kind in zip(sizes, kinds):
        inner = math.comb(size, 2)
        total += inner if kind == "complete" else 2 * inner
    return total


def wiener_supergraph_formula(delta: Graph, sizes) -> int:
    """Wiener index of delta composed with complete factors of the given sizes."""
    sizes = tuple(sizes)
    if len(sizes) != delta.n:
        raise ValueError("one size per delta vertex required")
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive")
    inner = sum(math.comb(s, 2) for s in sizes if s > 1)
    return inner + _distance_sum(delta, sizes, "delta must be connected")


# --- isomorphism ---


def _signatures(graph: Graph) -> list[tuple]:
    return [
        (
            graph.degree(v),
            tuple(sorted(graph.degree(u) for u in _bits(graph.masks[v]))),
        )
        for v in range(graph.n)
    ]


def check_isomorphism_cap(n: int) -> None:
    """Raise SizeCapError if an n-vertex graph is beyond the isomorphism search."""
    if n > ISO_VERTEX_CAP:
        raise SizeCapError(f"isomorphism search capped at {ISO_VERTEX_CAP} vertices")


def is_isomorphic(left: Graph, right: Graph) -> tuple[bool, list[int] | None]:
    """Backtracking isomorphism test with degree-signature pruning.

    Returns (answer, witness); the witness maps left vertex i to right vertex
    witness[i]. Capped at 64 vertices per side.
    """
    check_isomorphism_cap(max(left.n, right.n))
    if left.n != right.n or left.num_edges != right.num_edges:
        return False, None
    sig_l = _signatures(left)
    sig_r = _signatures(right)
    if sorted(sig_l) != sorted(sig_r):
        return False, None

    candidates = {
        v: [w for w in range(right.n) if sig_r[w] == sig_l[v]]
        for v in range(left.n)
    }
    order = sorted(range(left.n), key=lambda v: (len(candidates[v]), -left.degree(v), v))
    mapping = [-1] * left.n
    used = [False] * right.n

    def backtrack(pos: int) -> bool:
        if pos == left.n:
            return True
        v = order[pos]
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for u in order[:pos]:
                if left.has_edge(v, u) != right.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if backtrack(pos + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    if backtrack(0):
        return True, mapping
    return False, None


# --- comparability (transitive orientation) ---


def is_comparability(graph: Graph) -> bool:
    """Whether the edges admit a transitive orientation.

    Depth-first assignment of edge directions with eager propagation of the
    orientations forced by transitivity.
    """
    if graph.n > ISO_VERTEX_CAP:
        raise SizeCapError(f"comparability search capped at {ISO_VERTEX_CAP} vertices")
    edges = graph.edges()
    neighbours = [_bits(mask) for mask in graph.masks]
    direction: dict[tuple[int, int], int] = {}

    def orient(u: int, v: int, trail: list) -> bool:
        """Record u -> v and propagate; False on contradiction."""
        key = (u, v) if u < v else (v, u)
        want = 1 if u < v else -1
        cur = direction.get(key)
        if cur is not None:
            return cur == want
        direction[key] = want
        trail.append(key)
        # u -> v with v -> w forces u -> w; x -> u with u -> v forces x -> v.
        for w in neighbours[v]:
            if w == u:
                continue
            kvw = (v, w) if v < w else (w, v)
            dvw = direction.get(kvw)
            if dvw is not None and dvw == (1 if v < w else -1):
                if not graph.has_edge(u, w):
                    return False
                if not orient(u, w, trail):
                    return False
        for x in neighbours[u]:
            if x == v:
                continue
            kxu = (x, u) if x < u else (u, x)
            dxu = direction.get(kxu)
            if dxu is not None and dxu == (1 if x < u else -1):
                if not graph.has_edge(x, v):
                    return False
                if not orient(x, v, trail):
                    return False
        return True

    def solve(idx: int) -> bool:
        while idx < len(edges) and edges[idx] in direction:
            idx += 1
        if idx == len(edges):
            return True
        u, v = edges[idx]
        for first, second in ((u, v), (v, u)):
            trail: list = []
            if orient(first, second, trail) and solve(idx + 1):
                return True
            for key in trail:
                del direction[key]
        return False

    return solve(0)
