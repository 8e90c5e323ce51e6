"""Cycle enumeration for the class-adjacency oracles: every k-cycle of the
symmetric group of degree n, the canonical cycle, class sizes, conjugation,
and one canonical conjugate per orbit of a canonical cycle's centralizer."""

import itertools
import math


def canonical_cycle(n, length):
    """The cycle (0 1 ... length-1) inside the symmetric group of degree n."""
    return tuple(range(1, length)) + (0,) + tuple(range(length, n))


def all_cycles(n, length):
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


def cycle_count(n, length):
    return math.comb(n, length) * math.factorial(length - 1)


def conjugate(p, c):
    """The conjugate of p by c, i.e. the permutation sending c(i) to c(p(i))."""
    out = [0] * len(p)
    for i in range(len(p)):
        out[c[i]] = c[p[i]]
    return tuple(out)


def orbit_key(x_len, y):
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
