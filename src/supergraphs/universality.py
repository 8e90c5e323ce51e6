"""Prime-cycle embeddings into symmetric groups.

Any graph can be realized inside compressed conjugacy supergraphs: represent
the n vertices by the conjugacy classes of p_i-cycles in a symmetric group of
degree N. When p_i + p_j <= N disjoint commuting representatives exist; the
one pair with p_i + p_j > N only has intersecting representatives, which
generate alternating groups, cutting exactly one edge. Intersecting the
per-nonedge graphs recovers the target; the strong-product identity for
compressed graphs of direct products justifies combining factors.

Class adjacency is decided by theorem, at every degree: by arithmetic for
the commuting and enhanced kinds, and for the nilpotent and solvable kinds
by Jordan's theorem and Burnside's theorem on groups of prime degree, which
need both cycle lengths prime (see `class_adjacency`). A 1-cycle is the
identity and joins every class. Nilpotent and solvable adjacency of other
lengths is refused, so class adjacency never builds a group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .constructions import build_compressed, build_partition
from .graphs import Graph, intersection, strong_product
from .groups import FiniteGroup, SizeCapError, product

# Factors up to this degree are labelled "scan" in certificates, above it
# "arithmetic"; recorded embed outputs keep the labels.
DEGREE_CAP = 13

EMBED_KINDS = ("commuting", "nilpotent", "solvable")
SCAN_KINDS = EMBED_KINDS + ("enhanced",)

# A certificate holds one n x n adjacency matrix per non-edge; embed_graph
# refuses a target whose matrices would hold more entries than this.
EMBED_ENTRY_CAP = 1_000_000


def primes_first(n: int) -> list[int]:
    """The first n primes in order."""
    if n < 1:
        raise ValueError("need n >= 1")
    return list(itertools.islice(filter(_is_prime, itertools.count(2)), n))


# Bounded: every answer costs O(1). The wrapper stays because perfbench's
# tracer reads its cache_info().
@lru_cache(maxsize=128)
def class_adjacency(degree: int, p: int, q: int, kind: str) -> bool:
    """Adjacency of the p-cycle and q-cycle conjugacy classes in the compressed
    conjugacy supergraph of the given kind over the symmetric group S_N.

    The commuting and enhanced kinds are decided by arithmetic. Commuting
    cycles of distinct lengths are disjoint, so the classes hold a commuting
    pair iff p + q <= N, and such a pair generates C_p x C_q, which is
    cyclic iff gcd(p, q) = 1. A 1-cycle is the identity, so its class is
    adjacent to every class, for every kind.

    For two distinct primes p < q the nilpotent and solvable kinds are
    decided by arithmetic too: the classes are adjacent iff p + q <= N, save
    that (2, 3) is always solvable-adjacent. Proof:

    - If p + q <= N, a disjoint pair exists; it commutes, so it is adjacent.
    - Otherwise every x (p-cycle) and y (q-cycle) meet, so G = <x, y> is
      transitive on S = supp(x) | supp(y), and |S| <= N < p + q < 2q.
    - G is primitive on S: y has prime order, so on a block system it either
      moves blocks in orbits of q, or fixes every block, and then one block
      holds supp(y). Either way a proper block system needs |S| >= 2q.
    - If |S| >= p + 3, Jordan's theorem (a primitive group containing a
      p-cycle, p prime, p <= |S| - 3, contains Alt(S); Wielandt, Finite
      Permutation Groups, Thm 13.9; Dixon-Mortimer, Permutation Groups,
      Thm 3.3E) gives Alt(S) with |S| >= 5: neither solvable nor nilpotent.
    - Otherwise q <= |S| <= p + 2. Either (p, q) = (2, 3), where G is S_3 or
      S_4 (solvable, not nilpotent), or q = p + 2 = |S| and x fixes 2 of the
      q points. A solvable transitive group of prime degree q lies in
      AGL(1, q) (Burnside; Dixon-Mortimer, Section 3.5), whose non-identity
      elements fix at most one point, so G is not solvable.

    The argument holds at every degree. Nilpotent or solvable adjacency of
    other lengths raises ValueError: an exhaustive scan took 30 s for
    (12, 6, 9) solvable and 48 s for (13, 6, 9) nilpotent on a 2-core host.
    """
    if kind not in SCAN_KINDS:
        raise ValueError(f"unknown scan kind {kind!r}; known {SCAN_KINDS}")
    if p == q:
        raise ValueError("classes must have distinct cycle lengths")
    if p > degree or q > degree:
        raise ValueError("cycle length exceeds degree")
    if min(p, q) < 1:
        raise ValueError("cycle length must be positive")
    if min(p, q) == 1:
        return True
    if kind in ("commuting", "enhanced"):
        return p + q <= degree and (kind == "commuting" or math.gcd(p, q) == 1)
    if not (_is_prime(p) and _is_prime(q)):
        raise ValueError(f"{kind} class adjacency is decided for prime cycle lengths only; "
                         f"got {p} and {q}")
    return p + q <= degree or (kind == "solvable" and {p, q} == {2, 3})


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@dataclass(frozen=True)
class FactorCertificate:
    nonedge: tuple[int, int] | None
    primes: tuple[int, ...]
    degree: int
    vertex_primes: tuple[int, ...]
    graph: Graph
    # "scan" up to degree DEGREE_CAP, "arithmetic" above it; class_adjacency
    # decides every factor alike, and the labels stay for recorded outputs
    checked: str

    def to_json_dict(self) -> dict:
        matrix = [
            [1 if self.graph.has_edge(u, v) else 0 for v in range(self.graph.n)]
            for u in range(self.graph.n)
        ]
        return {
            "nonedge": list(self.nonedge) if self.nonedge else None,
            "primes": list(self.primes),
            "degree": self.degree,
            "vertex_primes": list(self.vertex_primes),
            "graph": self.graph.to_json_dict(),
            "adjacency_matrix": matrix,
            "checked": self.checked,
        }


@dataclass(frozen=True)
class EmbeddingCertificate:
    target: Graph
    kind: str
    factors: tuple[FactorCertificate, ...]
    final_graph: Graph
    witness: tuple[int, ...]
    verified: bool
    arithmetic_only: bool

    def to_json_dict(self) -> dict:
        return {
            "target": self.target.to_json_dict(),
            "kind": self.kind,
            "factors": [f.to_json_dict() for f in self.factors],
            "final": self.final_graph.to_json_dict(),
            "witness": list(self.witness),
            "verified": self.verified,
            "arithmetic_only": self.arithmetic_only,
        }


def _factor_for_nonedge(
    target: Graph, nonedge: tuple[int, int] | None, prime_set: list[int], kind: str
) -> FactorCertificate:
    """One intersection factor: the nonedge's ends carry the two largest
    primes and the other vertices the rest, in order; adjacency by `class_adjacency`."""
    n = target.n
    ps = sorted(prime_set)
    degree = ps[-1] + ps[-2] - (1 if nonedge else 0)
    ends, rest = dict(zip(nonedge or (), ps[-2:])), iter(ps)
    vertex_primes = [ends[v] if v in ends else next(rest) for v in range(n)]
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if class_adjacency(degree, vertex_primes[u], vertex_primes[v], kind)
    ]
    return FactorCertificate(
        nonedge, tuple(ps), degree, tuple(vertex_primes), Graph(target.labels, edges),
        "scan" if degree <= DEGREE_CAP else "arithmetic",
    )


def step3_embedding(n: int, kind: str, with_nonedge: bool = True) -> FactorCertificate:
    """Realize K_n (or K_n minus the edge of its last two vertices) by the
    classes of the first n prime cycles, vertex i carrying the i-th prime.

    With a nonedge the degree is p_{n-1} + p_n - 1, so only the two largest
    prime cycles are forced to intersect; without it the degree p_{n-1} + p_n
    lets every pair commute.
    """
    if n < 3:
        raise ValueError("prime-cycle embeddings need n >= 3")
    ps = primes_first(n)
    target = Graph.complete(n, [f"{p}-cycle" for p in ps])
    nonedge = (n - 2, n - 1) if with_nonedge else None
    return _factor_for_nonedge(target, nonedge, ps, kind)


def embed_graph(target: Graph, kind: str) -> EmbeddingCertificate:
    """Realize the target as an intersection of one K_n-minus-an-edge factor per
    nonedge, every factor living on prime-cycle classes of a symmetric group.

    Complete targets get a single trivial factor. `arithmetic_only` says
    whether some factor's degree is above DEGREE_CAP. A target whose factor
    matrices would hold more than EMBED_ENTRY_CAP entries raises SizeCapError
    before any factor is built.

    The enhanced kind gives each factor its own n primes, pairwise disjoint
    across factors: diagonal representatives then have coordinates of distinct
    prime orders, so commuting coordinates generate a cyclic group of product
    order.
    """
    if kind not in SCAN_KINDS:
        raise ValueError(f"embedding kinds are {SCAN_KINDS}; got {kind!r}")
    n = target.n
    if n < 3:
        raise ValueError("embedding needs at least 3 vertices")
    entries = max(1, math.comb(n, 2) - target.num_edges) * n * n
    if entries > EMBED_ENTRY_CAP:
        raise SizeCapError(f"embedding {n} vertices needs {entries} matrix entries, "
                           f"over the cap of {EMBED_ENTRY_CAP}")
    nonedges = target.complement().edges() or [None]
    if kind == "enhanced":
        pool = primes_first(n * len(nonedges))
        prime_sets = [pool[f * n : (f + 1) * n] for f in range(len(nonedges))]
    else:
        prime_sets = [primes_first(n)] * len(nonedges)
    factors = [
        _factor_for_nonedge(target, ne, ps, kind)
        for ne, ps in zip(nonedges, prime_sets)
    ]
    final = factors[0].graph
    for fac in factors[1:]:
        final = intersection(final, fac.graph)
    return EmbeddingCertificate(
        target,
        kind,
        tuple(factors),
        final,
        tuple(range(n)),
        final == target,
        any(f.checked == "arithmetic" for f in factors),
    )


def strong_product_identity_check(left: FiniteGroup, right: FiniteGroup, kind: str) -> bool:
    """Compressed conjugacy supergraph of a direct product versus the strong
    product of the factors' compressed graphs, compared through the explicit
    class-pairing bijection."""
    if kind not in EMBED_KINDS:
        raise ValueError(f"identity holds for kinds {EMBED_KINDS}; got {kind!r}")
    prod = product(left, right)
    combined = build_compressed(prod, kind)
    left_c = build_compressed(left, kind)
    right_c = build_compressed(right, kind)
    boxed = strong_product(left_c, right_c)
    left_of = build_partition(left, "conjugacy").class_of
    right_of = build_partition(right, "conjugacy").class_of
    mapping = []
    for members in prod.conjugacy_classes():
        g, h = divmod(members[0], right.order)
        mapping.append(left_of[g] * right_c.n + right_of[h])
    if sorted(mapping) != list(range(boxed.n)):
        return False
    return combined == boxed.induced(mapping)
