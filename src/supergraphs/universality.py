"""Prime-cycle embeddings into symmetric groups.

Any graph can be realized inside compressed conjugacy supergraphs: represent
the n vertices by the conjugacy classes of p_i-cycles in a symmetric group of
degree N. When p_i + p_j <= N disjoint commuting representatives exist; the
one pair with p_i + p_j > N only has intersecting representatives, which
generate alternating groups, cutting exactly one edge. Intersecting the
per-nonedge graphs recovers the target; the strong-product identity for
compressed graphs of direct products justifies combining factors.

Class adjacency of two prime lengths is decided by arithmetic for every kind:
p + q <= N, with (2, 3) also solvable-adjacent below degree 5. Jordan's
theorem and Burnside's theorem on groups of prime degree prove the cut (see
`class_adjacency`). Other lengths are scanned exhaustively over one conjugacy
class with the other side pinned to a canonical cycle x (adjacency is
conjugation-invariant), classifying one candidate per orbit of the
centralizer of x. A pair is first sized by a stabilizer chain: alternating or
symmetric orders on its support certify non-solvability, and only smaller
groups are closed and run through their derived or lower central series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from . import perms
from .constructions import build_compressed, build_partition
from .graphs import Graph, intersection, strong_product
from .groups import (
    FiniteGroup,
    SizeCapError,
    is_nilpotent_gens,
    is_solvable_gens,
    product,
)

DEGREE_CAP = 13
FALLBACK_ORDER_CAP = 10**6

EMBED_KINDS = ("commuting", "nilpotent", "solvable")
SCAN_KINDS = EMBED_KINDS + ("enhanced",)


def primes_first(n: int) -> list[int]:
    """The first n primes in order."""
    if n < 1:
        raise ValueError("need n >= 1")
    found: list[int] = []
    candidate = 2
    while len(found) < n:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


def _orbit_key(x_len: int, y: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical conjugate of the cycle y under the centralizer of
    x = (0 1 ... x_len-1), which is <x> times the symmetric group on x's
    fixed points. y must move a point of x's cycle.

    A conjugator in the centralizer rotates x's points and permutes its fixed
    points. Walk y's cycle from each point a it shares with x, labelling x's
    points by their offset from a and x's fixed points in order of first
    appearance; the least walk is the same for every conjugate of y, and the
    key is the cycle it spells, itself a conjugate of y by such a relabelling.
    """
    start = next(a for a in range(x_len) if y[a] != a)
    cycle = [start]
    b = y[start]
    while b != start:
        cycle.append(b)
        b = y[b]
    # x's fixed points all read x_len here: the walk's pattern fixes their labels
    walk = min(
        tuple((b - a) % x_len if b < x_len else x_len for b in cycle[i:] + cycle[:i])
        for i, a in enumerate(cycle)
        if a < x_len
    )
    fresh = itertools.count(x_len)
    labels = [v if v < x_len else next(fresh) for v in walk]
    key = list(range(len(y)))
    for u, v in zip(labels, labels[1:] + labels[:1]):
        key[u] = v
    return tuple(key)


def _pair_adjacent(degree: int, x: tuple[int, ...], y: tuple[int, ...], kind: str) -> bool:
    """Whether the non-commuting pair x, y generates a nilpotent or solvable
    group, as kind says.

    The order of <x, y> comes from a stabilizer chain. If it equals s!/2 or s!
    on a support of size s >= 5 the group is the alternating or symmetric
    group of its support, hence neither. Other orders up to
    FALLBACK_ORDER_CAP are decided by the series of the closure; larger ones
    raise, never pass silently.
    """
    s = len(perms.support(x) | perms.support(y))
    order = perms.perm_group_order(degree, [x, y])
    if s >= 5 and order in (math.factorial(s) // 2, math.factorial(s)):
        return False
    if order > FALLBACK_ORDER_CAP:
        raise SizeCapError(
            f"cannot certify pair with order {order} on support {s}; "
            f"closure fallback is capped at order {FALLBACK_ORDER_CAP}"
        )
    series_test = is_nilpotent_gens if kind == "nilpotent" else is_solvable_gens
    return series_test(perms.compose, perms.invert, perms.identity_perm(degree), (x, y))


# Bounded: prime pairs cost O(1) and no caller repeats a composite scan. The
# wrapper stays because perfbench's tracer reads its cache_info().
@lru_cache(maxsize=128)
def class_adjacency(degree: int, p: int, q: int, kind: str) -> bool:
    """Adjacency of the p-cycle and q-cycle conjugacy classes in the compressed
    conjugacy supergraph of the given kind over the symmetric group S_N.

    The commuting and enhanced kinds are decided by arithmetic. Commuting
    cycles of distinct lengths are disjoint, so the classes hold a commuting
    pair iff p + q <= N (`arithmetic_adjacency`), and such a pair generates
    C_p x C_q, which is cyclic iff gcd(p, q) = 1; a 1-cycle is the identity
    and commutes with everything.

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

    Other lengths are scanned exhaustively (`_scan_adjacency`).
    """
    if kind not in SCAN_KINDS:
        raise ValueError(f"unknown scan kind {kind!r}; known {SCAN_KINDS}")
    if degree > DEGREE_CAP:
        raise SizeCapError(f"scan degree {degree} exceeds cap {DEGREE_CAP}")
    if p == q:
        raise ValueError("classes must have distinct cycle lengths")
    if p > degree or q > degree:
        raise ValueError("cycle length exceeds degree")
    if min(p, q) < 1:
        raise ValueError("cycle length must be positive")
    if kind in ("commuting", "enhanced"):
        if min(p, q) == 1:
            return True
        return arithmetic_adjacency(degree, p, q) and (kind == "commuting" or math.gcd(p, q) == 1)
    if _is_prime(p) and _is_prime(q):
        return arithmetic_adjacency(degree, p, q) or (kind == "solvable" and {p, q} == {2, 3})
    return _scan_adjacency(degree, p, q, kind)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _scan_adjacency(degree: int, p: int, q: int, kind: str) -> bool:
    """Nilpotent or solvable class adjacency by exhaustive scan.

    One class is pinned to a canonical cycle x and the smaller class is
    scanned; conjugation invariance makes the restriction lossless.
    Non-commuting candidates are classified once per orbit of the
    centralizer of x: the scan stops at its first hit, so a candidate whose
    orbit key was already classified cannot be one.
    """
    if perms.cycle_count(degree, p) <= perms.cycle_count(degree, q):
        scan_len, fixed_len = p, q
    else:
        scan_len, fixed_len = q, p
    x = perms.canonical_cycle(degree, fixed_len)

    classified: set[tuple[int, ...]] = set()
    for y in perms.all_cycles(degree, scan_len):
        if perms.compose(x, y) == perms.compose(y, x):
            return True  # abelian, hence nilpotent and solvable
        key = _orbit_key(fixed_len, y)
        if key in classified:
            continue
        classified.add(key)
        if _pair_adjacent(degree, x, key, kind):
            return True
    return False


def arithmetic_adjacency(degree: int, p: int, q: int) -> bool:
    """Disjointness criterion: representatives can commute iff p + q <= N."""
    return p + q <= degree


@dataclass(frozen=True)
class FactorCertificate:
    nonedge: tuple[int, int] | None
    primes: tuple[int, ...]
    degree: int
    vertex_primes: tuple[int, ...]
    graph: Graph
    # "scan": decided by class_adjacency below DEGREE_CAP, which settles prime
    # pairs by theorem and scans no candidate; "arithmetic": by disjointness
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
    target: Graph, nonedge: tuple[int, int] | None, prime_set: list[int], kind: str,
    allow_arithmetic: bool,
) -> FactorCertificate:
    """One intersection factor: primes assigned so the nonedge carries the two
    largest, adjacency decided per prime pair by `class_adjacency` when the
    degree permits ("scan") and by the disjointness criterion otherwise."""
    n = target.n
    ps = sorted(prime_set)
    degree = ps[-1] + ps[-2] - (1 if nonedge else 0)
    vertex_primes = [0] * n
    if nonedge is None:
        for v in range(n):
            vertex_primes[v] = ps[v]
    else:
        i, j = nonedge
        rest = iter(ps[:-2])
        for v in range(n):
            if v == i:
                vertex_primes[v] = ps[-2]
            elif v == j:
                vertex_primes[v] = ps[-1]
            else:
                vertex_primes[v] = next(rest)
    if degree <= DEGREE_CAP:
        checked = "scan"
    elif allow_arithmetic:
        checked = "arithmetic"
    else:
        raise SizeCapError(
            f"factor degree {degree} exceeds cap {DEGREE_CAP} at n={n}; "
            "rerun with the arithmetic fallback to downgrade"
        )
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        pu, pv = vertex_primes[u], vertex_primes[v]
        if checked == "scan":
            hit = class_adjacency(degree, pu, pv, kind)
        else:
            hit = arithmetic_adjacency(degree, pu, pv)
        if hit:
            edges.append((u, v))
    return FactorCertificate(
        nonedge, tuple(ps), degree, tuple(vertex_primes), Graph(target.labels, edges), checked
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
    return _factor_for_nonedge(target, nonedge, ps, kind, allow_arithmetic=False)


def embed_graph(target: Graph, kind: str, arithmetic_fallback: bool = False) -> EmbeddingCertificate:
    """Realize the target as an intersection of one K_n-minus-an-edge factor per
    nonedge, every factor living on prime-cycle classes of a symmetric group.

    Complete targets get a single trivial factor. Factor degrees beyond the
    scan cap raise unless the arithmetic fallback is allowed, in which case the
    factor is certified by the disjointness criterion only.

    The enhanced kind gives each factor its own n primes, pairwise disjoint
    across factors: diagonal representatives then have coordinates of distinct
    prime orders, so commuting coordinates generate a cyclic group of product
    order. Its later factors pass the scan cap by design, so it always allows
    the fallback (disjoint cycles of coprime prime lengths generate cyclic
    groups, and intersecting ones cannot commute).
    """
    if kind not in SCAN_KINDS:
        raise ValueError(f"embedding kinds are {SCAN_KINDS}; got {kind!r}")
    n = target.n
    if n < 3:
        raise ValueError("embedding needs at least 3 vertices")
    nonedges = target.complement().edges() or [None]
    if kind == "enhanced":
        pool = primes_first(n * len(nonedges))
        prime_sets = [pool[f * n : (f + 1) * n] for f in range(len(nonedges))]
        arithmetic_fallback = True
    else:
        prime_sets = [primes_first(n)] * len(nonedges)
    factors = [
        _factor_for_nonedge(target, ne, ps, kind, arithmetic_fallback)
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
    for cls in prod.conjugacy_classes():
        g, h = divmod(cls.representative, right.order)
        mapping.append(left_of[g] * right_c.n + right_of[h])
    if sorted(mapping) != list(range(boxed.n)):
        return False
    return combined == boxed.induced(mapping)
