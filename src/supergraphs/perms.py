"""Permutation utilities: composition, cycles, and stabilizer-chain group
orders.

A permutation on n points is a tuple p of length n with p[i] the image of i.
Points are 0-based internally; cycle notation is printed and parsed 1-based.
"""

from __future__ import annotations

import itertools
import math


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


def invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conjugate(p: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate of p by c, i.e. the permutation sending c(i) to c(p(i))."""
    out = [0] * len(p)
    for i in range(len(p)):
        out[c[i]] = c[p[i]]
    return tuple(out)


def support(p: tuple[int, ...]) -> frozenset[int]:
    return frozenset(i for i, j in enumerate(p) if i != j)


def parity(p: tuple[int, ...]) -> int:
    """0 for even permutations, 1 for odd."""
    return sum(len(c) - 1 for c in cycle_decomposition(p)) % 2


def cycle_decomposition(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nontrivial cycles of p, each starting at its least point, sorted."""
    seen = set()
    cycles = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        j = p[start]
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = p[j]
        cycles.append(tuple(cyc))
    return cycles


def cycle_notation(p: tuple[int, ...]) -> str:
    """Format p in 1-based cycle notation; the identity prints as 'e'."""
    cycles = cycle_decomposition(p)
    if not cycles:
        return "e"
    return "".join("(" + " ".join(str(i + 1) for i in cyc) + ")" for cyc in cycles)


def perm_from_cycles(n: int, cycles: list[list[int]], one_based: bool = True) -> tuple[int, ...]:
    """Build a permutation of 0..n-1 from a list of disjoint cycles."""
    shift = 1 if one_based else 0
    out = list(range(n))
    seen: set[int] = set()
    for cyc in cycles:
        pts = [c - shift for c in cyc]
        for a in pts:
            if not 0 <= a < n:
                raise ValueError(f"cycle point {a + shift} out of range for degree {n}")
            if a in seen:
                raise ValueError(f"point {a + shift} repeated across cycles")
            seen.add(a)
        for a, b in zip(pts, pts[1:]):
            out[a] = b
        if pts:
            out[pts[-1]] = pts[0]
    return tuple(out)


def canonical_cycle(n: int, length: int) -> tuple[int, ...]:
    """The cycle (0 1 ... length-1) inside the symmetric group of degree n."""
    if not 1 <= length <= n:
        raise ValueError("cycle length out of range")
    out = list(range(n))
    for i in range(length - 1):
        out[i] = i + 1
    out[length - 1] = 0
    return tuple(out)


def all_cycles(n: int, length: int):
    """Yield every `length`-cycle of the symmetric group of degree n.

    Deterministic order: supports in lexicographic order, then arrangements of
    the remaining points after the least one.
    """
    base = list(range(n))
    for supp in itertools.combinations(range(n), length):
        first = supp[0]
        for rest in itertools.permutations(supp[1:]):
            out = base.copy()
            prev = first
            for nxt in rest:
                out[prev] = nxt
                prev = nxt
            out[prev] = first
            yield tuple(out)


def cycle_count(n: int, length: int) -> int:
    return math.comb(n, length) * math.factorial(length - 1)


def perm_group_order(degree: int, gens: list[tuple[int, ...]]) -> int:
    """Exact order of the permutation group generated by gens.

    Uses a deterministic Schreier-Sims construction of a base and strong
    generating set; no element enumeration takes place.
    """
    ident = identity_perm(degree)
    gens = [tuple(g) for g in gens]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise ValueError("generator is not a permutation of the given degree")
    gens = [g for g in gens if g != ident]
    if not gens:
        return 1

    base: list[int] = []
    new_gens: list[list[tuple[int, ...]]] = []  # generators introduced per level
    trans: list[dict[int, tuple[int, ...]]] = []

    def add_generator(p: tuple[int, ...]) -> int:
        """Place p at the deepest level whose base prefix it fixes."""
        for i, b in enumerate(base):
            if p[b] != b:
                new_gens[i].append(p)
                return i
        for j in range(degree):
            if p[j] != j:
                base.append(j)
                new_gens.append([p])
                trans.append({})
                return len(base) - 1
        raise AssertionError("identity passed to add_generator")

    def cumulative(i: int) -> list[tuple[int, ...]]:
        return [g for lvl in new_gens[i:] for g in lvl]

    for g in gens:
        add_generator(g)

    level = len(base) - 1
    while level >= 0:
        gs = cumulative(level)
        b = base[level]
        t: dict[int, tuple[int, ...]] = {b: ident}
        queue = [b]
        while queue:
            a = queue.pop(0)
            for g in gs:
                c = g[a]
                if c not in t:
                    t[c] = compose(t[a], g)
                    queue.append(c)
        trans[level] = t

        restart_at = None
        for a in sorted(t):
            ua = t[a]
            for g in gs:
                u_target = t[g[a]]
                schreier = compose(compose(ua, g), invert(u_target))
                if schreier == ident:
                    continue
                residue = schreier
                for j in range(level + 1, len(base)):
                    c = residue[base[j]]
                    tj = trans[j]
                    if c not in tj:
                        break
                    residue = compose(residue, invert(tj[c]))
                    if residue == ident:
                        break
                if residue != ident:
                    restart_at = add_generator(residue)
                    break
            if restart_at is not None:
                break

        if restart_at is not None:
            level = restart_at
        else:
            level -= 1

    order = 1
    for t in trans:
        order *= len(t)
    return order
