"""Finite simple graphs and the operations the supergraph constructions need:
join, disjoint union, intersection, strong product, generalized composition,
distances, Wiener index, isomorphism with witness, and comparability testing.

Graphs are immutable, vertices carry unique string labels, and every operation
defines a deterministic output order (factors in base order, products in
row-major pair order).

The Wiener index and both composition formulas share one all-sources distance
sum over radius balls held as int bitmasks: at most diameter * 2m big-int ORs,
so the supergraphs (diameter at most 2) are cheap and long paths are the
slow case. `bfs_distances` and `distance_matrix` remain for single queries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .groups import SizeCapError

ISO_VERTEX_CAP = 64


class DisconnectedGraphError(ValueError):
    """Raised when a distance-based quantity is requested on a disconnected graph."""


class Graph:
    __slots__ = ("n", "labels", "neighbors")

    def __init__(self, labels, edges):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be unique")
        n = len(labels)
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError("loops are not allowed")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.labels = labels
        self.neighbors = tuple(frozenset(s) for s in nbrs)

    # --- constructors ---

    @staticmethod
    def complete(n: int, labels=None) -> "Graph":
        labels = labels if labels is not None else [str(i) for i in range(n)]
        return Graph(labels, itertools.combinations(range(n), 2))

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
        return v in self.neighbors[u]

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in sorted(self.neighbors[u])
            if u < v
        ]

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.neighbors) // 2

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.labels == other.labels
            and self.neighbors == other.neighbors
        )

    def __hash__(self):
        return hash((self.labels, self.neighbors))

    def __repr__(self) -> str:
        return f"<Graph n={self.n} m={self.num_edges}>"

    # --- derived graphs ---

    def relabeled(self, labels) -> "Graph":
        labels = list(labels)
        if len(labels) != self.n:
            raise ValueError("label count mismatch")
        return Graph(labels, self.edges())

    def complement(self) -> "Graph":
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(self.n), 2)
            if v not in self.neighbors[u]
        ]
        return Graph(self.labels, edges)

    def induced(self, vertices) -> "Graph":
        vertices = list(vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("repeated vertex in induced subgraph")
        for v in vertices:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
        pos = {v: i for i, v in enumerate(vertices)}
        edges = [
            (pos[u], pos[v])
            for u, v in itertools.combinations(vertices, 2)
            if v in self.neighbors[u]
        ]
        return Graph([self.labels[v] for v in vertices], edges)

    # --- distances ---

    def bfs_distances(self, source: int) -> list[int]:
        """Hop counts from source; -1 marks unreachable vertices."""
        dist = [-1] * self.n
        dist[source] = 0
        queue = [source]
        while queue:
            fresh = []
            for u in queue:
                for v in self.neighbors[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        fresh.append(v)
            queue = fresh
        return dist

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return -1 not in self.bfs_distances(0)

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
    half of sum_u w_u * sum_k (weight outside R_k(u)). Each ball is an int
    bitmask grown by one radius per step as the OR of its neighbours' balls;
    the weight inside a ball is a few bit counts, one per distinct weight.
    One step per radius up to the diameter, each at most 2m big-int ORs: cheap
    for the supergraphs (diameter at most 2), slowest on long paths. A ball
    that stops growing before it is full marks a disconnected graph and
    raises with `message`.
    """
    masks: dict[int, int] = {}
    for v, w in enumerate(weights):
        masks[w] = masks.get(w, 0) | 1 << v
    total_weight = sum(weights)
    full = (1 << graph.n) - 1
    balls = [1 << v for v in range(graph.n)]
    frontier = [v for v in range(graph.n) if balls[v] != full]
    total = 0
    while frontier:
        total += total_weight * sum(weights[v] for v in frontier)
        for w, mask in masks.items():
            total -= w * sum(weights[v] * (balls[v] & mask).bit_count() for v in frontier)
        grown = [
            reduce(or_, map(balls.__getitem__, graph.neighbors[v]), balls[v])
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


def expr_size(expr: GraphExpr) -> int:
    if isinstance(expr, (Complete, Empty)):
        return expr.n
    if isinstance(expr, Join):
        return expr_size(expr.left) + expr_size(expr.right)
    if isinstance(expr, Union):
        return sum(expr_size(p) for p in expr.parts)
    if isinstance(expr, Composition):
        return sum(expr_size(f) for f in expr.factors)
    raise TypeError(f"not a graph expression: {expr!r}")


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


def expr_to_json(expr: GraphExpr) -> dict:
    if isinstance(expr, Complete):
        return {"kind": "complete", "n": expr.n}
    if isinstance(expr, Empty):
        return {"kind": "empty", "n": expr.n}
    if isinstance(expr, Join):
        return {
            "kind": "join",
            "left": expr_to_json(expr.left),
            "right": expr_to_json(expr.right),
        }
    if isinstance(expr, Union):
        return {"kind": "union", "parts": [expr_to_json(p) for p in expr.parts]}
    if isinstance(expr, Composition):
        return {
            "kind": "composition",
            "base": expr_to_json(expr.base),
            "factors": [expr_to_json(f) for f in expr.factors],
        }
    raise TypeError(f"not a graph expression: {expr!r}")


def expr_from_json(data: dict) -> GraphExpr:
    kind = data["kind"]
    if kind == "complete":
        return Complete(int(data["n"]))
    if kind == "empty":
        return Empty(int(data["n"]))
    if kind == "join":
        return Join(expr_from_json(data["left"]), expr_from_json(data["right"]))
    if kind == "union":
        return Union(tuple(expr_from_json(p) for p in data["parts"]))
    if kind == "composition":
        return Composition(
            expr_from_json(data["base"]),
            tuple(expr_from_json(f) for f in data["factors"]),
        )
    raise ValueError(f"unknown expression kind {kind!r}")


def disjoint_union(parts: list[Graph]) -> Graph:
    labels = []
    edges = []
    offset = 0
    for i, part in enumerate(parts):
        labels.extend(f"{i}:{lbl}" for lbl in part.labels)
        edges.extend((offset + u, offset + v) for u, v in part.edges())
        offset += part.n
    return Graph(labels, edges)


def join(left: Graph, right: Graph) -> Graph:
    out = disjoint_union([left, right])
    edges = out.edges()
    edges.extend((u, left.n + v) for u in range(left.n) for v in range(right.n))
    return Graph(out.labels, edges)


def compose_graphs(base: Graph, factors: list[Graph]) -> Graph:
    """Generalized composition: replace base vertex i by factor i.

    Vertices inside one factor are joined per that factor; vertices in two
    different factors are joined exactly when the base vertices are adjacent.
    """
    if len(factors) != base.n:
        raise ValueError(
            f"composition needs one factor per base vertex "
            f"({base.n} base vertices, {len(factors)} factors)"
        )
    labels = []
    offsets = []
    offset = 0
    for i, factor in enumerate(factors):
        offsets.append(offset)
        labels.extend(f"{i}:{lbl}" for lbl in factor.labels)
        offset += factor.n
    edges = []
    for i, factor in enumerate(factors):
        edges.extend((offsets[i] + u, offsets[i] + v) for u, v in factor.edges())
    for i, j in base.edges():
        edges.extend(
            (offsets[i] + p, offsets[j] + q)
            for p in range(factors[i].n)
            for q in range(factors[j].n)
        )
    return Graph(labels, edges)


def strong_product(left: Graph, right: Graph) -> Graph:
    """Pairs adjacent iff each coordinate is equal or adjacent, but not both equal."""
    labels = [
        f"({a},{b})" for a in left.labels for b in right.labels
    ]
    edges = []
    rn = right.n
    pairs = list(itertools.product(range(left.n), range(rn)))
    for a, (u, up) in enumerate(pairs):
        for v, vp in pairs[a + 1 :]:
            adj_l = u != v and left.has_edge(u, v)
            adj_r = up != vp and right.has_edge(up, vp)
            if (u == v and adj_r) or (up == vp and adj_l) or (adj_l and adj_r):
                edges.append((u * rn + up, v * rn + vp))
    return Graph(labels, edges)


def intersection(left: Graph, right: Graph) -> Graph:
    """Common edges of two graphs on the same labelled vertex set."""
    if left.labels != right.labels:
        raise ValueError("intersection needs identical label sets in identical order")
    edges = [e for e in left.edges() if right.has_edge(*e)]
    return Graph(left.labels, edges)


# --- composition-based Wiener identities ---


@dataclass(frozen=True)
class CompositionWitness:
    """Replayable record that a graph is base[factor_1, ..., factor_k] with
    complete or empty factors: factor sizes, kinds, and the vertex bijection
    from composed vertices to (base vertex, inner index) pairs."""

    base: Graph
    factor_sizes: tuple[int, ...]
    factor_kinds: tuple[str, ...]
    vertex_map: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.factor_sizes) != self.base.n:
            raise ValueError("one factor per base vertex required")
        if len(self.factor_kinds) != self.base.n:
            raise ValueError("one factor kind per base vertex required")
        for kind in self.factor_kinds:
            if kind not in ("complete", "empty"):
                raise ValueError(f"unknown factor kind {kind!r}")
        if any(s < 1 for s in self.factor_sizes):
            raise ValueError("factor sizes must be positive")
        expected = [
            (i, p) for i, s in enumerate(self.factor_sizes) for p in range(s)
        ]
        if sorted(self.vertex_map) != expected:
            raise ValueError("vertex_map is not a bijection onto factor slots")


def witness_for_composition(base: Graph, sizes, kinds) -> CompositionWitness:
    """Canonical witness with vertices in base order, inner order preserved."""
    sizes = tuple(sizes)
    kinds = tuple(kinds)
    vmap = tuple((i, p) for i, s in enumerate(sizes) for p in range(s))
    return CompositionWitness(base, sizes, kinds, vmap)


def witness_graph(witness: CompositionWitness) -> Graph:
    factors = [
        Graph.complete(s) if k == "complete" else Graph.empty(s)
        for s, k in zip(witness.factor_sizes, witness.factor_kinds)
    ]
    return compose_graphs(witness.base, factors)


def wiener_via_composition(witness: CompositionWitness) -> int:
    """Wiener index of a composition with complete/empty factors, computed from
    factor sizes and base distances alone: pairs inside a complete factor are
    at distance 1, inside an empty factor at distance 2 (through a neighbouring
    factor), and pairs in distinct factors at the base distance."""
    base = witness.base
    # distances first: an isolated base vertex beside others is a disconnection
    total = _distance_sum(base, witness.factor_sizes, "composition base must be connected")
    for i, (size, kind) in enumerate(zip(witness.factor_sizes, witness.factor_kinds)):
        if kind == "empty" and size >= 2 and base.degree(i) == 0:
            raise ValueError(
                "empty factor of size >= 2 on an isolated base vertex has no "
                "length-two path between its vertices"
            )
    for size, kind in zip(witness.factor_sizes, witness.factor_kinds):
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
            tuple(sorted(graph.degree(u) for u in graph.neighbors[v])),
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
        for w in graph.neighbors[v]:
            if w == u:
                continue
            kvw = (v, w) if v < w else (w, v)
            dvw = direction.get(kvw)
            if dvw is not None and dvw == (1 if v < w else -1):
                if not graph.has_edge(u, w):
                    return False
                if not orient(u, w, trail):
                    return False
        for x in graph.neighbors[u]:
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
