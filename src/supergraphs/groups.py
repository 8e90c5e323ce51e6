"""Finite groups with indexed elements.

Elements are indices 0..order-1 and index 0 is always the identity. Groups
come from built-in presentations (cyclic, dihedral, generalized quaternion),
symmetric/alternating groups, direct products, explicit Cayley tables, or
permutation generators. Every group is enumerable up to the element cap (env
var SUPERGRAPH_CAP, default 20000), checked once, at construction: a
constructor refuses a larger order with SizeCapError before it enumerates
anything, the symmetric and alternating constructors stop multiplying out n!
as soon as it passes the cap, a permutation-generator spec whose degree
passes the cap is refused before any permutation is built, and the closure of
permutation generators checks the cap after each frontier member, so it holds
at most cap + len(gens) elements when it stops.

A group keeps each cyclic subgroup once, as one set beside the tuple of its
generators (`FiniteGroup.cyclic_classes`): the first cyclic query walks the
powers of every subgroup, once each. Conjugation is orbit-based, over cyclic
subgroups where it can be, and every orbit walk is one breadth-first walker,
`_orbit_walk`, over the points 0..n-1 under a list of maps, each built by two
products per point: the conjugacy classes, each kept as the increasing tuple
of its members, walk the elements under each generator's conjugation;
`FiniteGroup.cyclic_orbits` walks the indices of the cyclic subgroups under
each generator's permutation of them, and records those permutations and
the step that reaches each subgroup; `centralizer_orbits` splits one of
those orbits under the generators of an element's centralizer. Together
they let a relation that depends only on the cyclic subgroups two elements
generate, and is invariant under simultaneous conjugation, be decided once
per orbit of pairs, by the one pinned scan that serves every partition (see
`constructions.class_graph`). The conjugacy classes are built only for the
conjugacy partition. An abelian group passes no maps, and a central element
walks nothing, so neither costs a conjugation.

The cyclic, dihedral and quaternion groups read their cyclic subgroups and
conjugacy classes, and the conjugations by their own generators, from the
presentation <a, b | a^m, b^2 = a^s, b^-1 a b = a^-1>, with no product
(`CyclicGroup` and `MetacyclicGroup` override `cyclic_classes`,
`conjugacy_classes` and `_conjugates`). They answer the pair tests of the
scans the same way, by arithmetic on exponents: whether two elements
commute, whether a set generates a nilpotent subgroup and whether a pair
generates the group (`commutes`, `generates_nilpotent`, `pair_generates`),
with no product and no closure. The walks, products and closures are the
reference path: the tests compare each closed form with them, and they
serve every other group.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass

from . import perms

DEFAULT_ELEMENT_CAP = 20000


def element_cap() -> int:
    """SUPERGRAPH_CAP if set and non-empty, else DEFAULT_ELEMENT_CAP."""
    raw = os.environ.get("SUPERGRAPH_CAP")
    if not raw:
        return DEFAULT_ELEMENT_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise InvalidGroupSpec(f"SUPERGRAPH_CAP must be a positive integer, got {raw!r}")
    return int(raw)


class InvalidGroupSpec(ValueError):
    """Raised for malformed group specifications or non-group tables, and
    for a SUPERGRAPH_CAP that is not a positive integer."""


class SizeCapError(RuntimeError):
    """Raised when an operation would exceed the element-enumeration cap."""


@dataclass(frozen=True)
class CyclicClasses:
    """The classes of g ~ h when <g> = <h>: members[k] holds the generators
    of the k-th cyclic subgroup, increasing, subgroups in order of least
    generator; subgroups[k] is the set of that subgroup's elements; and
    class_of[g] is the index of <g>."""

    class_of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    subgroups: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class CyclicOrbits:
    """The orbits of the cyclic subgroups (indices of `CyclicClasses`) under
    conjugation. orbits[o] lists one orbit in the order of the walk that
    found it, its least subgroup, the root, first; permutations[t][k] is the
    subgroup s^-1 <k> s for the group's t-th generator s; and steps[k] is
    (p, t) with k = permutations[t][p] for a subgroup p listed before k, or
    None for a root."""

    orbits: tuple[tuple[int, ...], ...]
    steps: tuple[tuple[int, int] | None, ...]
    permutations: tuple[tuple[int, ...], ...]


class FiniteGroup:
    """Base class: subclasses provide mul/inv/element_label.

    Cache policy: a group caches per instance, without bound, and frees its
    caches with itself. It caches only facts that cost a closure, a
    conjugation walk or repeated products: centralizer generators, the
    centralizer orbits of an element on an orbit of cyclic subgroups (keyed
    by the element and the orbit's tuple), the members of the subgroup a
    pair generates (all pairs that generate the group share one tuple; C,
    D and Q decide generation from the presentation and fill it only
    through `pair_is_solvable`, which no scan asks of these solvable
    groups), whether each such proper subgroup is solvable (keyed by its
    members tuple), each element's Sylow parts, the whole group's facts
    (abelian, cyclic, nilpotent, solvable), and the conjugacy classes,
    cyclic classes (with one set per cyclic subgroup, every subgroup walked
    at the first cyclic query), orbits of cyclic subgroups under
    conjugation (with each generator's permutation of them), generators and
    labels, computed once each, whether walked by products or read from a
    presentation. The centralizer orbits read 245 hits against 379 walks
    over the benchmark's element-graphs operations, each in a group of its
    own; the hierarchy and the containments of one group ask up to five
    times for a walk (S5: 163 asks, 28 walks).
    """

    def __init__(self, order: int, label: str):
        self.order = order
        self.label = label
        self._classes: tuple[tuple[int, ...], ...] | None = None
        self._generators: tuple[int, ...] | None = None
        self._centralizer_gens: dict[int, tuple[int, ...]] = {}
        self._centralizer_orbits: dict[tuple, tuple[tuple[int, ...], ...]] = {}
        self._pair_members: dict[tuple[int, int], tuple[int, ...]] = {}
        self._whole: tuple[int, ...] | None = None
        self._parts: dict[int, tuple[tuple[int, int], ...]] = {}
        self._solvable: dict[tuple[int, ...], bool] = {}
        self._facts: dict[str, bool] = {}
        self._cyclic_classes: CyclicClasses | None = None
        self._cyclic_orbits: CyclicOrbits | None = None
        self._labels: tuple[str, ...] | None = None

    def mul(self, i: int, j: int) -> int:
        raise NotImplementedError

    def inv(self, i: int) -> int:
        raise NotImplementedError

    def element_label(self, i: int) -> str:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.order)

    def labels(self) -> tuple[str, ...]:
        """Every element's label, in index order; computed once per group."""
        if self._labels is None:
            self._labels = tuple(self.element_label(i) for i in self.elements())
        return self._labels

    # --- element-level structure ---

    def element_order(self, g: int) -> int:
        return len(self.cyclic_subgroup(g))

    def cyclic_subgroup(self, g: int) -> frozenset[int]:
        """<g>: the one set of its cyclic subgroup (`cyclic_classes`)."""
        # no call once built: every power and enhanced pair test reads this
        cyclic = self._cyclic_classes or self.cyclic_classes()
        return cyclic.subgroups[cyclic.class_of[g]]

    def cyclic_classes(self) -> CyclicClasses:
        """The elements grouped by the cyclic subgroup they generate, and
        each subgroup's set, computed once per group, at the first cyclic
        query: the least element g not yet placed generates the next
        subgroup, walked once from g's powers, |<g>| - 1 products, and its
        generators are the powers g^k with k prime to |g|."""
        if self._cyclic_classes is None:
            mul, class_of = self.mul, [-1] * self.order
            members, subgroups = [], []
            for g in range(self.order):
                if class_of[g] < 0:
                    powers, acc = [0], g
                    while acc != 0:
                        powers.append(acc)
                        acc = mul(acc, g)
                    # k = 0 is prime to |g| only for the identity
                    gens = sorted(power for k, power in enumerate(powers)
                                  if math.gcd(k, len(powers)) == 1)
                    for h in gens:
                        class_of[h] = len(members)
                    members.append(tuple(gens))
                    subgroups.append(frozenset(powers))
            self._cyclic_classes = CyclicClasses(tuple(class_of), tuple(members), tuple(subgroups))
        return self._cyclic_classes

    def cyclic_orbits(self) -> CyclicOrbits:
        """The orbits of the cyclic subgroups under conjugation, found by one
        orbit walk over subgroup indices (`_orbit_walk`); computed once per
        group. Each generator s of the group permutes the subgroups, k to the
        subgroup of s^-1 g s for one generator g of k: two products per
        subgroup and generator. An abelian group conjugates nothing."""
        if self._cyclic_orbits is None:
            cyclic = self.cyclic_classes()
            class_of, members = cyclic.class_of, cyclic.members
            permutations = tuple(
                tuple(map(class_of.__getitem__, images))
                for images in self._conjugates([gens[0] for gens in members])
            )
            orbits, steps = _orbit_walk(len(members), permutations)
            self._cyclic_orbits = CyclicOrbits(tuple(map(tuple, orbits)), tuple(steps),
                                               permutations)
        return self._cyclic_orbits

    def _conjugates(self, elements, gens=None) -> list[list[int]]:
        """For each s of gens, by default the group's generators or none in
        an abelian group, the list of s^-1 y s over y of elements: two
        products each."""
        if gens is None:
            gens = () if self.is_abelian() else self.generators()
        mul = self.mul
        return [[mul(mul(s_inv, y), s) for y in elements]
                for s_inv, s in zip(map(self.inv, gens), gens)]

    def commutes(self, g: int, h: int) -> bool:
        return self.mul(g, h) == self.mul(h, g)

    def centralizer(self, g: int) -> tuple[int, ...]:
        """The sorted members of C(g)."""
        return tuple(h for h in self.elements() if self.commutes(g, h))

    def generators(self) -> tuple[int, ...]:
        """A small generating set of the whole group: the one the group was
        built from, if its constructor knows one, else a greedy set. Every
        conjugation walk costs two products per generator and point."""
        if self._generators is None:
            self._generators = _greedy_generators(self, tuple(self.elements()))
        return self._generators

    # --- whole-group facts, each computed once ---

    def _fact(self, name: str, compute) -> bool:
        if name not in self._facts:
            self._facts[name] = compute()
        return self._facts[name]

    def is_abelian(self) -> bool:
        return self._fact("abelian", lambda: all(
            self.commutes(a, b) for a, b in itertools.combinations(self.generators(), 2)))

    def is_cyclic(self) -> bool:
        """Abelian with exponent |G|: the exponent of an abelian group is the
        lcm of its generators' orders, and some element has that order."""
        return self._fact("cyclic", lambda: self.is_abelian() and math.lcm(
            *map(self.element_order, self.generators())) == self.order)

    def is_nilpotent(self) -> bool:
        return self._fact("nilpotent", lambda: self.generates_nilpotent(self.generators()))

    def is_solvable(self) -> bool:
        return self._fact("solvable", lambda: self.is_abelian() or is_solvable_gens(
            self, self.generators(), self.order))

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """The conjugacy classes, each the increasing tuple of its members, in
        order of (size, least member); computed once per group.

        Each class is the orbit of its least member under conjugation by the
        group's generators (`_orbit_walk`). An abelian group has one class
        per element and costs no conjugation.
        """
        if self._classes is None:
            orbits = _orbit_walk(self.order, self._conjugates(self.elements()))[0]
            for orbit in orbits:  # in place: a sorted copy of each costs C20000 a third more
                orbit.sort()
            # the roots increase, so a stable sort by size orders by (size, root)
            self._classes = tuple(map(tuple, sorted(orbits, key=len)))
        return self._classes

    def centralizer_orbits(self, g: int, subgroups: tuple) -> tuple[tuple[int, ...], ...]:
        """Orbits of the centralizer C(g), acting by conjugation, on one orbit
        of cyclic subgroups under the whole group (`cyclic_orbits`); each
        orbit sorted, in order of least subgroup, and the walk made once per
        (g, subgroups). A central g has C(g) = G, whose one orbit is the
        whole of subgroups, so it costs no conjugation; otherwise C(g) is
        generated by a small set found once per g, and each of its
        generators moves each subgroup by two products.
        """
        key = (g, subgroups)
        cached = self._centralizer_orbits.get(key)
        if cached is None:
            cached = self._centralizer_orbits[key] = self._walk_centralizer(g, subgroups)
        return cached

    def _walk_centralizer(self, g: int, subgroups: tuple) -> tuple[tuple[int, ...], ...]:
        points = sorted(subgroups)
        if len(points) == 1 or all(self.commutes(g, s) for s in self.generators()):
            return (tuple(points),)
        gens = self._centralizer_gens.get(g)
        if gens is None:
            gens = self._centralizer_gens[g] = _greedy_generators(self, self.centralizer(g))
        cyclic, position = self.cyclic_classes(), dict(zip(points, range(len(points))))
        maps = [list(map(position.__getitem__, map(cyclic.class_of.__getitem__, images)))
                for images in self._conjugates([cyclic.members[k][0] for k in points], gens)]
        orbits = _orbit_walk(len(points), maps)[0]
        return tuple(tuple(map(points.__getitem__, sorted(orbit))) for orbit in orbits)

    def pair_subgroup_members(self, g: int, h: int) -> tuple[int, ...]:
        """Members of the subgroup generated by {g, h}, cached per pair.

        By Lagrange's theorem a proper subgroup has at most |G|/p elements, p
        the least prime dividing |G|, so the closure stops as soon as it
        passes that bound, and every pair that generates G gets the group's
        one whole-group tuple.
        """
        key = (g, h) if g <= h else (h, g)
        cached = self._pair_members.get(key)
        if cached is None:
            limit = self.order // min(_prime_factors(self.order), default=1)
            try:
                cached = tuple(sorted(closure_set(self.mul, 0, key, limit=limit)))
            except SizeCapError:
                if self._whole is None:
                    self._whole = tuple(self.elements())
                cached = self._whole
            self._pair_members[key] = cached
        return cached

    def pair_generates(self, g: int, h: int) -> bool:
        """Whether g and h generate the whole group: the closure of the pair
        (`pair_subgroup_members`), cached with its members."""
        return len(self.pair_subgroup_members(g, h)) == self.order

    def pair_is_solvable(self, g: int, h: int) -> bool:
        """Whether <g, h> is solvable: the group's fact for a generating
        pair, else the derived series of (g, h), walked once per subgroup."""
        members = self.pair_subgroup_members(g, h)
        if len(members) == self.order:
            return self.is_solvable()
        solvable = self._solvable.get(members)
        if solvable is None:
            solvable = self._solvable[members] = is_solvable_gens(self, (g, h), len(members))
        return solvable

    def generates_nilpotent(self, gens) -> bool:
        """Whether <gens> is nilpotent, decided from the Sylow parts of the
        generators with no closure of <gens>.

        Write s_p for the p-part of s, the power of s of p-power order with
        s = prod s_p over the primes p dividing |s|. Then <gens> is nilpotent
        iff (i) for all primes p != q, s_p commutes with t_q for any two
        generators s != t, and (ii) for each prime p such that two p-parts do
        not commute, the p-parts of all generators generate a p-group. If (i)
        and (ii) hold, each P_p = <s_p : s in gens> is a p-group (abelian and
        generated by p-elements when its generators commute), and the
        generators of P_p and P_q, p != q, commute: by (i), or as powers of
        one element. So the P_p commute elementwise, their product is a
        direct product of p-groups, hence nilpotent, and it contains every
        generator and lies in <gens>, so it is <gens>. Conversely a nilpotent
        <gens> is the direct product of its Sylow subgroups: each p-part lies
        in the Sylow subgroup of its prime, so parts of distinct primes
        commute and the p-parts generate a p-group. A p-subgroup of G has at
        most |G|_p elements, so the closure of (ii) stops past that bound,
        with the answer no. Each part costs at most 2 log2 |s| products.
        """
        commutes, parts, clashes = self.commutes, list(map(self._p_parts, gens)), {}
        for s_parts, t_parts in itertools.combinations(parts, 2):
            for p, x in s_parts:
                for q, y in t_parts:
                    if not commutes(x, y):
                        if p != q:
                            return False
                        clashes[p] = True
        return all(self._generates_p_group([x for s_parts in parts for q, x in s_parts if q == p], p)
                   for p in clashes)

    def _p_parts(self, g: int) -> tuple[tuple[int, int], ...]:
        """The pairs (p, g_p) over the primes p dividing |g|, cached per
        element: with |g| = q k, q the p-power part, g_p = g^(k (k^-1 mod q)),
        by binary powering."""
        parts = self._parts.get(g)
        if parts is None:
            n = self.element_order(g)
            parts = []
            for p in _prime_factors(n):
                q = _prime_power_part(n, p)
                k = n // q
                parts.append((p, self._power(g, k * pow(k, -1, q) % n)))
            parts = self._parts[g] = tuple(parts)
        return parts

    def _power(self, g: int, e: int) -> int:
        mul = self.mul
        result = 0
        while e:
            if e & 1:
                result = mul(result, g)
            e >>= 1
            if e:
                g = mul(g, g)
        return result

    def _generates_p_group(self, xs: list[int], p: int) -> bool:
        """Whether the p-elements xs generate a p-group: their closure stays
        within |G|_p elements and its size is a power of p."""
        try:
            size = len(closure_set(self.mul, 0, xs, limit=_prime_power_part(self.order, p)))
        except SizeCapError:
            return False
        return _prime_power_part(size, p) == size

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.label} order={self.order}>"


def _orbit_walk(count, maps):
    """The orbits of the points 0..count-1 under the maps (each a list from
    point to point, together generating a group), walked breadth first from
    each point not yet reached, in increasing order: each orbit lists its
    points in the order reached, its root, the least, first, and steps[k] is
    (p, t) with k = maps[t][p] for a point p listed before k, or None for a
    root. With no maps every point is an orbit of its own."""
    steps, orbits = [False] * count, []  # False: not reached yet
    indexed = list(enumerate(maps))
    for root in range(count):
        if steps[root] is False:
            steps[root] = None
            orbit = [root]
            for k in orbit:  # grows while it is walked
                for t, images in indexed:
                    image = images[k]
                    if steps[image] is False:
                        steps[image] = (k, t)
                        orbit.append(image)
            orbits.append(orbit)
    return orbits, steps


# --- closure (elements may be ints or tuples) and the derived series ---


def closure_set(mul, identity, gens, limit=None):
    """Closure of gens under mul; breadth-first over right multiplication.

    With a limit, raises SizeCapError after the first frontier member whose
    products take the closure past it, so the closure never holds more than
    limit + len(gens) elements and makes at most limit * len(gens) products.
    """
    members = {identity}
    frontier = [identity]
    gens = [g for g in gens if g != identity]
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                t = mul(m, g)
                if t not in members:
                    members.add(t)
                    fresh.append(t)
            if limit is not None and len(members) > limit:
                raise SizeCapError(f"closure exceeds {limit} elements")
        frontier = fresh
    return members


def _prime_factors(n: int) -> list[int]:
    """The primes dividing n, increasing, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _prime_power_part(n: int, p: int) -> int:
    """The largest power of the prime p dividing n."""
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


def _greedy_generators(group: FiniteGroup, members) -> tuple[int, ...]:
    """Small generating set of the subgroup of group that members close to:
    each member not yet generated joins, until all of them are."""
    gens: list[int] = []
    have = {0}
    for g in members:
        if len(have) == len(members):
            break
        if g not in have:
            gens.append(g)
            have = closure_set(group.mul, 0, gens)
    return tuple(gens)


def _normal_closure(group: FiniteGroup, ambient_gens, seeds):
    """Subgroup generated by seeds and closed under conjugation by ambient_gens.

    Returns (member set, generating list). Each generator addition at least
    doubles the subgroup, so the number of re-closures is logarithmic.
    """
    mul, inv = group.mul, group.inv
    gens = list(dict.fromkeys(s for s in seeds if s != 0))
    members = closure_set(mul, 0, gens)
    queue = list(gens)
    while queue:
        z = queue.pop()
        for g in ambient_gens:
            w = mul(mul(inv(g), z), g)
            if w not in members:
                gens.append(w)
                queue.append(w)
                members = closure_set(mul, 0, gens)
    return members, gens


def is_solvable_gens(group: FiniteGroup, gens, order: int) -> bool:
    """Whether the derived series of the subgroup generated by gens, of the
    given order, reaches e.

    Each term is the normal closure, in the term before it, of the
    commutators of pairs of that term's generators. A term as large as the
    one before it is the limit. Every caller knows the subgroup's order (a
    pair's members, or the whole group), so the first term is not closed.
    """
    if order == 1:
        return True
    mul, inv = group.mul, group.inv
    cur_gens, cur_size = [g for g in gens if g != 0], order
    while True:
        seeds = [mul(mul(inv(a), inv(b)), mul(a, b)) for a, b in itertools.combinations(cur_gens, 2)]
        members, next_gens = _normal_closure(group, cur_gens, seeds)
        if len(members) == 1:
            return True
        if len(members) == cur_size:
            return False
        cur_gens, cur_size = next_gens, len(members)


# --- concrete representations ---


def _power_subgroups(m: int):
    """The subgroups of <a> = C_m, a^r at index r, as cyclic_classes lists
    them, in order of least generator: class_of[r] for r < m, and each
    subgroup's generators and set. The subgroups are <a^d> for d | m, of
    order m/d, whose generators are the a^r with gcd(r, m) = d; e = <a^m>
    comes first, then d increasing."""
    divisors = [d for d in range(1, m) if m % d == 0]
    class_of = [0] * m
    for k, d in enumerate(divisors, 1):
        # the last divisor written over a multiple r of d is gcd(r, m)
        class_of[d::d] = [k] * (m // d - 1)
    members = [[0]] + [[] for _ in divisors]
    for r in range(1, m):
        members[class_of[r]].append(r)
    subgroups = [frozenset(range(0, m, d)) for d in [m] + divisors]
    return class_of, members, subgroups


class CyclicGroup(FiniteGroup):
    """C_n = <a | a^n = e>, a^r at index r. Its cyclic subgroups, its
    conjugacy classes, one per element, and its pair tests come from the
    presentation, with no product."""

    def __init__(self, n: int):
        super().__init__(n, f"C{n}")
        self.n = n
        self._generators = (1,) if n > 1 else ()  # the presentation's a

    def cyclic_classes(self) -> CyclicClasses:
        if self._cyclic_classes is None:
            class_of, members, subgroups = _power_subgroups(self.n)
            self._cyclic_classes = CyclicClasses(tuple(class_of), tuple(map(tuple, members)),
                                                 tuple(subgroups))
        return self._cyclic_classes

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        if self._classes is None:
            self._classes = tuple(zip(range(self.n)))
        return self._classes

    def commutes(self, g: int, h: int) -> bool:
        return True

    def generates_nilpotent(self, gens) -> bool:
        """Every subgroup of a cyclic group is cyclic, hence nilpotent."""
        return True

    def pair_generates(self, g: int, h: int) -> bool:
        """<a^g, a^h> = <a^gcd(g, h, n)>, the whole group iff that is a."""
        return math.gcd(g, h, self.n) == 1

    def mul(self, i, j):
        return (i + j) % self.n

    def inv(self, i):
        return (-i) % self.n

    def element_label(self, i):
        if i == 0:
            return "e"
        return "a" if i == 1 else f"a^{i}"


class MetacyclicGroup(FiniteGroup):
    """<a, b | a^m = e, b^2 = a^s, b^-1 a b = a^-1> with s = 0 or s = m/2:
    the dihedral group D_2n (m = n, s = 0) and the generalized quaternion
    group Q_4n (m = 2n, s = n). Order 2m; elements e, a, ..., a^(m-1) are
    indices 0..m-1 and b, ab, ..., a^(m-1)b are m..2m-1.
    """

    def __init__(self, m: int, s: int, label: str):
        super().__init__(2 * m, label)
        self.m = m
        self.s = s
        self._generators = (1, m) if m > 1 else (m,)  # a and b; D2 is <b>

    def cyclic_classes(self) -> CyclicClasses:
        """The subgroups of <a> (`_power_subgroups`), then those that hold an
        a^j b, in order of j: {e, a^j b} in D_2n, where every a^j b has order
        2, and {e, a^j b, a^s, a^(j+s) b}, j < s, in Q_4n, where a^j b has
        order 4, square a^s and inverse a^(j+s) b."""
        if self._cyclic_classes is None:
            m, s = self.m, self.s
            class_of, members, subgroups = _power_subgroups(m)
            if s == 0:
                class_of += range(len(members), len(members) + m)
                members += [(m + j,) for j in range(m)]
                subgroups += [frozenset((0, m + j)) for j in range(m)]
            else:
                class_of += range(len(members), len(members) + s)
                class_of += class_of[m:]
                members += [(m + j, m + j + s) for j in range(s)]
                subgroups += [frozenset((0, s, m + j, m + j + s)) for j in range(s)]
            self._cyclic_classes = CyclicClasses(tuple(class_of), tuple(map(tuple, members)),
                                                 tuple(subgroups))
        return self._cyclic_classes

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """{a^r, a^-r} for each r, and the a^j b: one class for odd m, two
        (j even, j odd) for even m, as a and b conjugate them (`_conjugates`)."""
        if self._classes is None:
            m = self.m
            classes = [(0,)] + [(r, m - r) if 2 * r < m else (r,) for r in range(1, m // 2 + 1)]
            if m % 2:
                classes.append(tuple(range(m, 2 * m)))
            else:
                classes += [tuple(range(m, 2 * m, 2)), tuple(range(m + 1, 2 * m, 2))]
            # built in order of least member: a stable sort by size orders by (size, least)
            self._classes = tuple(sorted(classes, key=len))
        return self._classes

    def _conjugates(self, elements, gens=None) -> list[list[int]]:
        """By the group's generators a and b, read from the presentation:
        a^-1 a^r a = a^r and a^-1 (a^j b) a = a^(j-2) b; b^-1 a^r b = a^-r
        and b^-1 (a^j b) b = a^-j b. Other gens, and D2 and D4, which are
        abelian, take the generic products."""
        m = self.m
        if gens is not None or m <= 2:
            return super()._conjugates(elements, gens)
        return [[y if y < m else m + (y - 2) % m for y in elements],
                [(-y) % m if y < m else m + (-y) % m for y in elements]]

    def commutes(self, g: int, h: int) -> bool:
        """Read from the presentation: powers of a commute; a^r a^j b =
        a^(r+j) b and a^j b a^r = a^(j-r) b agree iff 2r = 0 mod m; a^i b a^j b
        = a^(i-j+s) and a^j b a^i b = a^(j-i+s) agree iff 2(i - j) = 0 mod m."""
        m = self.m
        if g < m:
            return h < m or 2 * g % m == 0
        return 2 * (h if h < m else g - h) % m == 0

    def _rotation_step(self, gens) -> int | None:
        """None if every element of gens is a power of a; otherwise the d
        with <gens> = <a^d> u <a^d> a^j b, a^j b any element of gens outside
        <a>: d = gcd(m, s, every r of an a^r in gens, every i - j of two
        a^i b, a^j b in gens), where the differences from one a^j b suffice.

        Proof. Let H = <gens>. H & <a> holds each a^r of gens, (a^j b)^2 =
        a^s, and a^i b (a^j b)^-1 = a^i b a^(j+s) b = a^(i-j), so it holds
        <a^d>. Conversely <a^d> is normal in G (a subgroup of the cyclic
        normal <a>), a^j b normalizes it and squares into it (d | s), so K =
        <a^d> u <a^d> a^j b is a subgroup; it holds each a^r of gens (d | r)
        and each a^i b = a^(i-j) a^j b (d | i - j), hence K = H.
        """
        m, d, flip = self.m, math.gcd(self.m, self.s), None
        for g in gens:
            if g < m:
                d = math.gcd(d, g)
            elif flip is None:
                flip = g
            else:
                d = math.gcd(d, g - flip)
        return None if flip is None else d

    def generates_nilpotent(self, gens) -> bool:
        """Whether <gens> is nilpotent, read from the presentation with no
        product and no closure. If gens lie in <a>, <gens> is cyclic.
        Otherwise <gens> = <a^d> u <a^d> a^j b (`_rotation_step`), of order
        2m/d. If m/d is a power of 2, so is that order, and a p-group is
        nilpotent. If an odd prime p divides m/d, x = a^(m/p) of order p lies
        in <gens>, and y = a^j b, of order 2 or 4, inverts it: y^-1 x y = x^-1
        != x. In a nilpotent group elements of coprime orders commute, so
        <gens> is not nilpotent."""
        d = self._rotation_step(gens)
        if d is None:
            return True
        e = self.m // d
        return e & (e - 1) == 0

    def pair_generates(self, g: int, h: int) -> bool:
        """The pair generates G iff it holds an a^j b and <a^d> = <a>, that is
        d = 1 (`_rotation_step`): <a^d> has index 2 in <g, h>."""
        return self._rotation_step((g, h)) == 1

    def mul(self, i, j):
        m = self.m
        ri, fi = i % m, i >= m
        rj, fj = j % m, j >= m
        if not fi and not fj:
            return (ri + rj) % m
        if not fi and fj:
            return m + (ri + rj) % m
        if fi and not fj:
            return m + (ri - rj) % m
        # a^ri b a^rj b = a^(ri - rj) b^2
        return (ri - rj + self.s) % m

    def inv(self, i):
        m = self.m
        if i < m:
            return (-i) % m
        # (a^r b)^-1 = b^-1 a^-r = a^(r - s) b, and -s = s mod m
        return m + (i + self.s) % m

    def element_label(self, i):
        r, flip = i % self.m, i >= self.m
        if not flip:
            if r == 0:
                return "e"
            return "a" if r == 1 else f"a^{r}"
        if r == 0:
            return "b"
        return "ab" if r == 1 else f"a^{r}b"


class CayleyTableGroup(FiniteGroup):
    def __init__(self, rows: list[list[int]]):
        n = len(rows)
        if n == 0:
            raise InvalidGroupSpec("empty table")
        for row in rows:
            if len(row) != n or sorted(row) != list(range(n)):
                raise InvalidGroupSpec("table rows must form a Latin square")
        for j in range(n):
            if rows[0][j] != j or rows[j][0] != j:
                raise InvalidGroupSpec("element 0 must be a two-sided identity")
            if sorted(rows[i][j] for i in range(n)) != list(range(n)):
                raise InvalidGroupSpec("table columns must form a Latin square")
        super().__init__(n, "table")
        self.rows = rows
        self._inverses = [row.index(0) for row in rows]
        _check_associative(rows, self.generators())

    def mul(self, i, j):
        return self.rows[i][j]

    def inv(self, i):
        return self._inverses[i]

    def element_label(self, i):
        return "e" if i == 0 else f"g{i}"


def _check_associative(rows: list[list[int]], gens) -> None:
    """Light's test: a Latin square with identity (a loop) is associative iff
    (x a) y = x (a y) for every x, y and every a of a set S whose closure
    under multiplication is the whole table, such as gens, the table's greedy
    generators. The a that pass are closed under multiplication, so testing S
    suffices: O(n^2 |S|) lookups in place of O(n^3)."""
    for a in gens:
        row_a = rows[a]
        for x, row_x in enumerate(rows):
            if rows[row_x[a]] != [row_x[v] for v in row_a]:
                raise InvalidGroupSpec("table is not associative")


class PermutationGroup(FiniteGroup):
    """Group whose elements are explicitly enumerated permutations; gens, if
    given, are permutations that generate it, and become its generators."""

    def __init__(self, degree: int, elements: list[tuple[int, ...]], label: str, gens=None):
        ident = perms.identity_perm(degree)
        if elements[0] != ident:
            raise InvalidGroupSpec("element 0 must be the identity permutation")
        super().__init__(len(elements), label)
        self.degree = degree
        self.perm_elements = elements
        self._index = {p: i for i, p in enumerate(elements)}
        if len(self._index) != len(elements):
            raise InvalidGroupSpec("duplicate permutations in element list")
        # perms.compose(p, q) is itemgetter(*p)(q); an itemgetter of a single
        # index returns a bare item, so degree 1 copies the whole tuple instead
        self._compose_with = [
            operator.itemgetter(*p) if degree > 1 else operator.itemgetter(slice(None))
            for p in elements
        ]
        self._inverses = [self._index[perms.invert(p)] for p in elements]
        if gens is not None:
            self._generators = tuple(dict.fromkeys(self._index[p] for p in gens if p != ident))

    def mul(self, i, j):
        return self._index[self._compose_with[i](self.perm_elements[j])]

    def inv(self, i):
        return self._inverses[i]

    def element_label(self, i):
        return perms.cycle_notation(self.perm_elements[i])


class ProductGroup(FiniteGroup):
    """Direct product with componentwise multiplication; index = g*|H| + h."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup):
        super().__init__(left.order * right.order, f"{left.label}x{right.label}")
        self.left = left
        self.right = right

    def mul(self, i, j):
        r = self.right.order
        gi, hi = divmod(i, r)
        gj, hj = divmod(j, r)
        return self.left.mul(gi, gj) * r + self.right.mul(hi, hj)

    def inv(self, i):
        r = self.right.order
        g, h = divmod(i, r)
        return self.left.inv(g) * r + self.right.inv(h)

    def element_label(self, i):
        g, h = divmod(i, self.right.order)
        return f"({self.left.element_label(g)},{self.right.element_label(h)})"


# --- constructors ---


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidGroupSpec("cyclic groups need n >= 1")
    _check_order(n, "cyclic")
    return CyclicGroup(n)


def dihedral(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidGroupSpec("dihedral groups need n >= 1")
    _check_order(2 * n, "dihedral")
    return MetacyclicGroup(n, 0, f"D{2 * n}")


def quaternion(n: int) -> FiniteGroup:
    if n < 2:
        raise InvalidGroupSpec("generalized quaternion groups need n >= 2")
    _check_order(4 * n, "quaternion")
    return MetacyclicGroup(2 * n, n, f"Q{4 * n}")


def _check_factorial_order(n: int, label: str, halved: bool) -> None:
    """Refuse S_n (order n!) or, halved, A_n (order n!/2) beyond the element
    cap. The order is multiplied out only while it stays within the cap, so a
    huge degree costs a few products and prints no huge number."""
    cap = element_cap()
    order = 1
    for k in range(3 if halved else 2, n + 1):
        order *= k
        if order > cap:
            raise SizeCapError(
                f"{label}: order {n}!{'/2' if halved else ''} exceeds the element cap "
                f"{cap}; set SUPERGRAPH_CAP to raise it"
            )


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidGroupSpec("symmetric groups need n >= 1")
    _check_factorial_order(n, f"S{n}", halved=False)
    elements = [tuple(p) for p in itertools.permutations(range(n))]
    # (1 2) and (1 2 ... n) generate S_n; the greedy set is n - 1 transpositions
    gens = [perms.perm_from_cycles(n, [cycle])
            for cycle in ([1, 2], list(range(1, n + 1)))] if n >= 2 else []
    return PermutationGroup(n, elements, f"S{n}", gens)


def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidGroupSpec("alternating groups need n >= 1")
    _check_factorial_order(n, f"A{n}", halved=True)
    elements = [
        tuple(p) for p in itertools.permutations(range(n)) if perms.parity(tuple(p)) == 0
    ]
    # (1 2 3) and the even cycle (1 2 ... n), or (2 3 ... n) for even n,
    # generate A_n for n >= 3
    gens = [perms.perm_from_cycles(n, [cycle])
            for cycle in ([1, 2, 3], list(range(2 - n % 2, n + 1)))] if n >= 3 else []
    return PermutationGroup(n, elements, f"A{n}", gens)


def product(left: FiniteGroup, right: FiniteGroup) -> FiniteGroup:
    _check_order(left.order * right.order, "product")
    return ProductGroup(left, right)


def from_table(rows: list[list[int]]) -> FiniteGroup:
    _check_order(len(rows), "table")
    return CayleyTableGroup(rows)


def from_perm_generators(degree: int, gens: list[tuple[int, ...]]) -> FiniteGroup:
    """Enumerated group generated by permutations. Its closure is the one
    pass over the group and the cap check: it stops after the first
    frontier member whose products pass the cap, so an over-cap group is
    never enumerated in full and its order is never computed."""
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise InvalidGroupSpec("generator is not a permutation of the given degree")
    ident = perms.identity_perm(degree)
    cap = element_cap()
    try:
        members = closure_set(perms.compose, ident, [tuple(g) for g in gens], limit=cap)
    except SizeCapError:
        raise SizeCapError(
            f"permutation group of degree {degree}: order exceeds the element cap "
            f"{cap}; set SUPERGRAPH_CAP to raise it"
        ) from None
    elements = [ident] + sorted(members - {ident})
    return PermutationGroup(degree, elements, f"perm({degree})")


def _check_order(order: int, kind: str) -> None:
    if order > element_cap():
        raise SizeCapError(
            f"{kind} group of order {order} exceeds the element cap {element_cap()}"
        )


def _integer(value, field: str) -> int:
    """A number of a spec: an int, or a float with no fractional part read as
    its int. Anything else, a bool included, is refused rather than coerced."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidGroupSpec(f"{field} must be an integer, got {value!r}")
    return value


def _list(value, field: str) -> list:
    """A list of a spec; anything else, a string or an object included, is
    refused by its field rather than iterated."""
    if not isinstance(value, list):
        raise InvalidGroupSpec(f"{field} must be a list, got {type(value).__name__}")
    return value


# the kinds a spec gives by one integer, n
_BY_N = {"cyclic": cyclic, "dihedral": dihedral, "quaternion": quaternion,
         "symmetric": symmetric, "alternating": alternating}


def make_group(spec) -> FiniteGroup:
    """Build a group from a JSON-style spec dict.

    Shapes: {"kind":"cyclic","n":6} | {"kind":"dihedral","n":5} |
    {"kind":"quaternion","n":3} | {"kind":"symmetric","n":7} |
    {"kind":"alternating","n":5} | {"kind":"product","of":[spec,spec]} |
    {"kind":"permgens","degree":7,"gens":[[[1,2,3]],[[1,2],[3,4]]]} |
    {"kind":"table","rows":[[...]]}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidGroupSpec("group spec must be a dict with a 'kind' field")
    kind = spec["kind"]
    try:
        # a list or object kind is unhashable: it is no key, and unknown below
        if isinstance(kind, str) and kind in _BY_N:
            return _BY_N[kind](_integer(spec["n"], "n"))
        if kind == "product":
            parts = _list(spec["of"], "of")
            if len(parts) != 2 or not all(isinstance(part, dict) and "kind" in part
                                          for part in parts):
                raise InvalidGroupSpec("of must list exactly two group specs")
            return product(make_group(parts[0]), make_group(parts[1]))
        if kind == "permgens":
            degree = _integer(spec["degree"], "degree")
            if degree < 1:
                raise InvalidGroupSpec("permgens needs degree >= 1")
            # every permutation is a degree-length tuple: refuse before building one
            if degree > element_cap():
                raise SizeCapError(
                    f"permgens: degree {degree} exceeds the element cap "
                    f"{element_cap()}; set SUPERGRAPH_CAP to raise it"
                )
            gens = [
                perms.perm_from_cycles(degree, [
                    [_integer(p, "cycle point") for p in _list(cyc, "each cycle in gens")]
                    for cyc in _list(cyc_list, "each cycle list in gens")
                ])
                for cyc_list in _list(spec["gens"], "gens")
            ]
            return from_perm_generators(degree, gens)
        if kind == "table":
            return from_table([
                [_integer(x, "table entry") for x in _list(row, "each row of rows")]
                for row in _list(spec["rows"], "rows")
            ])
    except KeyError as exc:
        raise InvalidGroupSpec(f"missing field {exc} in {kind} spec") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidGroupSpec):
            raise
        raise InvalidGroupSpec(f"bad {kind} spec: {exc}") from exc
    raise InvalidGroupSpec(f"unknown group kind {kind!r}")
