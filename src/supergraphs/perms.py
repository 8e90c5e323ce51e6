"""Permutation utilities: composition, inversion, parity and cycle notation.

A permutation on n points is a tuple p of length n with p[i] the image of i.
Points are 0-based internally; cycle notation is printed and parsed 1-based.
"""

from __future__ import annotations


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


def perm_from_cycles(n: int, cycles: list[list[int]]) -> tuple[int, ...]:
    """Build a permutation of 0..n-1 from a list of disjoint cycles of 1-based points."""
    out = list(range(n))
    seen: set[int] = set()
    for cyc in cycles:
        pts = [c - 1 for c in cyc]
        for a in pts:
            if not 0 <= a < n:
                raise ValueError(f"cycle point {a + 1} out of range for degree {n}")
            if a in seen:
                raise ValueError(f"point {a + 1} repeated across cycles")
            seen.add(a)
        for a, b in zip(pts, pts[1:]):
            out[a] = b
        if pts:
            out[pts[-1]] = pts[0]
    return tuple(out)
