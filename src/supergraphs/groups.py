"""Finite groups with indexed elements.

Elements are indices 0..order-1 and index 0 is always the identity. Groups
come from built-in presentations (cyclic, dihedral, generalized quaternion),
symmetric/alternating groups, direct products, explicit Cayley tables, or
permutation generators. Every group is enumerable up to the element cap (env
var SUPERGRAPH_CAP, default 20000): a constructor refuses a larger order with
SizeCapError before it enumerates anything, the symmetric and alternating
constructors stop multiplying out n! as soon as it passes the cap, and a
permutation-generator spec whose degree passes the cap is refused before any
permutation is built.

Conjugation is orbit-based. Conjugacy classes are orbits of a breadth-first
search under conjugation by a small generating set of the group, which
records one conjugator per class member; `centralizer_orbits` splits a class
into the orbits of one element's centralizer. Together they let a relation
that is invariant under simultaneous conjugation be decided once per orbit of
pairs (see `constructions.pair_orbit_edges`). Abelian groups and central
elements cost no conjugation.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True, eq=False)
class Subgroup:
    parent: "FiniteGroup"
    members: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple[int, ...]
    # conjugators[i] = x with members[i] = x^-1 * representative * x
    conjugators: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SubgroupFlags:
    is_cyclic: bool
    is_abelian: bool
    is_nilpotent: bool
    is_solvable: bool


class FiniteGroup:
    """Base class: subclasses provide mul/inv/element_label."""

    rep = "cayley"

    def __init__(self, order: int, label: str):
        self.order = order
        self.label = label
        self._classes: list[ConjugacyClass] | None = None
        self._class_of: list[int] = []
        self._generators: tuple[int, ...] | None = None
        self._centralizer_gens: dict[int, tuple[int, ...]] = {}
        self._pair_members: dict[tuple[int, int], tuple[int, ...]] = {}
        self._flags_cache: dict[frozenset[int], SubgroupFlags] = {}
        self._cyclic_cache: dict[int, frozenset[int]] = {}
        self._labels: tuple[str, ...] | None = None

    def mul(self, i: int, j: int) -> int:
        raise NotImplementedError

    def inv(self, i: int) -> int:
        raise NotImplementedError

    def element_label(self, i: int) -> str:
        raise NotImplementedError

    def elements(self) -> range:
        self.require_enumerable()
        return range(self.order)

    def labels(self) -> tuple[str, ...]:
        """Every element's label, in index order; computed once per group."""
        if self._labels is None:
            self._labels = tuple(self.element_label(i) for i in self.elements())
        return self._labels

    def require_enumerable(self) -> None:
        if self.order > element_cap():
            raise SizeCapError(
                f"{self.label}: order {self.order} exceeds the element cap "
                f"{element_cap()}; set SUPERGRAPH_CAP to raise it"
            )

    # --- element-level structure ---

    def element_order(self, g: int) -> int:
        return len(self.cyclic_subgroup(g))

    def cyclic_subgroup(self, g: int) -> frozenset[int]:
        cached = self._cyclic_cache.get(g)
        if cached is not None:
            return cached
        members = {0}
        acc = g
        while acc != 0:
            members.add(acc)
            acc = self.mul(acc, g)
        result = frozenset(members)
        self._cyclic_cache[g] = result
        return result

    def commutes(self, g: int, h: int) -> bool:
        return self.mul(g, h) == self.mul(h, g)

    def conjugate(self, g: int, x: int) -> int:
        """x^-1 * g * x."""
        return self.mul(self.mul(self.inv(x), g), x)

    def centralizer(self, g: int) -> Subgroup:
        members = tuple(h for h in self.elements() if self.commutes(g, h))
        return Subgroup(self, members, _greedy_generators(self.mul, members))

    def generators(self) -> tuple[int, ...]:
        """A small generating set of the whole group."""
        if self._generators is None:
            self._generators = _greedy_generators(self.mul, tuple(self.elements()))
        return self._generators

    def is_abelian(self) -> bool:
        return all(self.commutes(a, b) for a, b in itertools.combinations(self.generators(), 2))

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        """Classes sorted by (size, least member); representative = least member.

        Each class is the orbit of its least member under conjugation by the
        group's generators, found breadth first; the search records for every
        member m a conjugator x with m = x^-1 r x. An abelian group has one
        class per element and costs no conjugation.
        """
        if self._classes is not None:
            return self._classes
        self.require_enumerable()
        if self.is_abelian():
            classes = [ConjugacyClass(g, (g,), (0,)) for g in range(self.order)]
        else:
            classes = []
            mul = self.mul
            gens = [(self.inv(s), s) for s in self.generators()]
            seen = [False] * self.order
            for g in range(self.order):
                if seen[g]:
                    continue
                conjugator = {g: 0}
                orbit = [g]
                for y in orbit:  # grows while it is walked
                    x = conjugator[y]
                    for s_inv, s in gens:
                        z = mul(mul(s_inv, y), s)
                        if z not in conjugator:
                            conjugator[z] = mul(x, s)
                            orbit.append(z)
                members = tuple(sorted(conjugator))
                for m in members:
                    seen[m] = True
                classes.append(ConjugacyClass(g, members, tuple(conjugator[m] for m in members)))
            classes.sort(key=lambda c: (c.size, c.representative))
        self._class_of = [0] * self.order
        for idx, cls in enumerate(classes):
            for m in cls.members:
                self._class_of[m] = idx
        self._classes = classes
        return classes

    def centralizer_orbits(self, g: int, members: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Orbits of the centralizer C(g), acting by conjugation, on the sorted
        members of one conjugacy class; each orbit sorted, in order of least
        member. A central g has C(g) = G, whose one orbit is the whole class,
        so it costs no conjugation; otherwise C(g) is generated by a small set
        found once per g.
        """
        classes = self.conjugacy_classes()
        if classes[self._class_of[g]].size == 1 or len(members) == 1:
            return [members]
        gens = self._centralizer_gens.get(g)
        if gens is None:
            gens = self._centralizer_gens[g] = self.centralizer(g).generators
        mul = self.mul
        gens = [(self.inv(c), c) for c in gens]
        unseen = set(members)
        orbits = []
        for h in members:
            if h not in unseen:
                continue
            unseen.discard(h)
            orbit = [h]
            for y in orbit:  # grows while it is walked
                for c_inv, c in gens:
                    z = mul(mul(c_inv, y), c)
                    if z in unseen:
                        unseen.discard(z)
                        orbit.append(z)
            orbits.append(tuple(sorted(orbit)))
        return orbits

    def pair_subgroup_members(self, g: int, h: int) -> tuple[int, ...]:
        """Members of the subgroup generated by {g, h}, cached per pair."""
        key = (g, h) if g <= h else (h, g)
        cached = self._pair_members.get(key)
        if cached is None:
            cached = tuple(sorted(closure_set(self.mul, 0, key)))
            self._pair_members[key] = cached
        return cached

    def subgroup_flags(self, members: tuple[int, ...], gens: tuple[int, ...]) -> SubgroupFlags:
        key = frozenset(members)
        cached = self._flags_cache.get(key)
        if cached is None:
            cached = self._classify(members, gens)
            self._flags_cache[key] = cached
        return cached

    def _classify(self, members: tuple[int, ...], gens: tuple[int, ...]) -> SubgroupFlags:
        size = len(members)
        if size == 1:
            return SubgroupFlags(True, True, True, True)
        gens = gens or members
        abelian = all(self.commutes(a, b) for a, b in itertools.combinations(gens, 2))
        cyclic = abelian and any(self.element_order(g) == size for g in members)
        if abelian:
            return SubgroupFlags(cyclic, True, True, True)
        solvable = is_solvable_gens(self.mul, self.inv, 0, gens)
        nilpotent = solvable and is_nilpotent_gens(self.mul, self.inv, 0, gens)
        return SubgroupFlags(False, False, nilpotent, solvable)

    def whole_group_flags(self) -> SubgroupFlags:
        return self.subgroup_flags(tuple(self.elements()), self.generators())

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.label} order={self.order} rep={self.rep}>"


# --- generic closure / series machinery (elements may be ints or tuples) ---


def closure_set(mul, identity, gens, limit=None):
    """Closure of gens under mul; breadth-first over right multiplication.

    With a limit, aborts as soon as the closure grows past it.
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


def _greedy_generators(mul, members) -> tuple[int, ...]:
    """Small generating set of the closure of members under mul (identity 0):
    each member not yet generated joins, until all of them are."""
    gens: list[int] = []
    have = {0}
    for g in members:
        if len(have) == len(members):
            break
        if g not in have:
            gens.append(g)
            have = closure_set(mul, 0, gens)
    return tuple(gens)


def _commutator(mul, inv, a, b):
    return mul(mul(inv(a), inv(b)), mul(a, b))


def _normal_closure(mul, inv, identity, ambient_gens, seeds):
    """Subgroup generated by seeds and closed under conjugation by ambient_gens.

    Returns (member set, generating list). Each generator addition at least
    doubles the subgroup, so the number of re-closures is logarithmic.
    """
    gens = list(dict.fromkeys(s for s in seeds if s != identity))
    members = closure_set(mul, identity, gens)
    queue = list(gens)
    while queue:
        z = queue.pop()
        for g in ambient_gens:
            w = mul(mul(inv(g), z), g)
            if w not in members:
                gens.append(w)
                queue.append(w)
                members = closure_set(mul, identity, gens)
    return members, gens


def is_solvable_gens(mul, inv, identity, gens) -> bool:
    """Whether the derived series of the group generated by gens reaches e."""
    cur_gens = [g for g in gens if g != identity]
    if not cur_gens:
        return True
    cur_size = len(closure_set(mul, identity, cur_gens))
    while True:
        seeds = [
            _commutator(mul, inv, a, b)
            for a, b in itertools.combinations(cur_gens, 2)
        ]
        members, dgens = _normal_closure(mul, inv, identity, cur_gens, seeds)
        if len(members) == 1:
            return True
        if len(members) == cur_size:
            return False
        cur_gens, cur_size = dgens, len(members)


def is_nilpotent_gens(mul, inv, identity, gens) -> bool:
    """Whether the lower central series of the group generated by gens reaches e."""
    top_gens = [g for g in gens if g != identity]
    if not top_gens:
        return True
    cur_gens = top_gens
    cur_size = len(closure_set(mul, identity, cur_gens))
    while True:
        seeds = [
            _commutator(mul, inv, x, h) for x in cur_gens for h in top_gens
        ]
        members, ngens = _normal_closure(mul, inv, identity, top_gens, seeds)
        if len(members) == 1:
            return True
        if len(members) == cur_size:
            return False
        cur_gens, cur_size = ngens, len(members)


# --- concrete representations ---


class CyclicGroup(FiniteGroup):
    def __init__(self, n: int):
        super().__init__(n, f"C{n}")
        self.n = n

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
    def __init__(self, rows: list[list[int]], label: str = "table"):
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
        _check_associative(rows)
        super().__init__(n, label)
        self.rows = rows
        self._inverses = [row.index(0) for row in rows]

    def mul(self, i, j):
        return self.rows[i][j]

    def inv(self, i):
        return self._inverses[i]

    def element_label(self, i):
        return "e" if i == 0 else f"g{i}"


def _check_associative(rows: list[list[int]]) -> None:
    """Light's test: a Latin square with identity (a loop) is associative iff
    (x a) y = x (a y) for every x, y and every a of a set S whose closure
    under multiplication is the whole table. The a that pass are closed
    under multiplication, so testing S suffices: O(n^2 |S|) lookups in place
    of O(n^3)."""
    for a in _greedy_generators(lambda i, j: rows[i][j], range(len(rows))):
        row_a = rows[a]
        for x, row_x in enumerate(rows):
            if rows[row_x[a]] != [row_x[v] for v in row_a]:
                raise InvalidGroupSpec("table is not associative")


class PermutationGroup(FiniteGroup):
    """Group whose elements are explicitly enumerated permutations."""

    rep = "permutation"

    def __init__(self, degree: int, elements: list[tuple[int, ...]], label: str):
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

    def mul(self, i, j):
        return self._index[self._compose_with[i](self.perm_elements[j])]

    def inv(self, i):
        return self._inverses[i]

    def element_label(self, i):
        return perms.cycle_notation(self.perm_elements[i])

    def perm(self, i) -> tuple[int, ...]:
        return self.perm_elements[i]

    def index_of(self, p: tuple[int, ...]) -> int:
        return self._index[p]


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
    return PermutationGroup(n, elements, f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidGroupSpec("alternating groups need n >= 1")
    _check_factorial_order(n, f"A{n}", halved=True)
    elements = [
        tuple(p) for p in itertools.permutations(range(n)) if perms.parity(tuple(p)) == 0
    ]
    return PermutationGroup(n, elements, f"A{n}")


def product(left: FiniteGroup, right: FiniteGroup) -> FiniteGroup:
    _check_order(left.order * right.order, "product")
    return ProductGroup(left, right)


def from_table(rows: list[list[int]], label: str = "table") -> FiniteGroup:
    _check_order(len(rows), "table")
    return CayleyTableGroup(rows, label)


def from_perm_generators(degree: int, gens: list[tuple[int, ...]], label: str | None = None) -> FiniteGroup:
    """Enumerated group generated by permutations; order checked before closure."""
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise InvalidGroupSpec("generator is not a permutation of the given degree")
    order = perms.perm_group_order(degree, list(gens))
    if order > element_cap():
        raise SizeCapError(
            f"permutation group of order {order} exceeds the element cap"
        )
    ident = perms.identity_perm(degree)
    members = closure_set(perms.compose, ident, [tuple(g) for g in gens])
    elements = [ident] + sorted(members - {ident})
    return PermutationGroup(degree, elements, label or f"perm({degree})")


def _check_order(order: int, kind: str) -> None:
    if order > element_cap():
        raise SizeCapError(
            f"{kind} group of order {order} exceeds the element cap {element_cap()}"
        )


def _integer(spec: dict, field: str) -> int:
    """An integer field of a spec; a bool or a number with a fractional part
    is refused rather than truncated."""
    value = spec[field]
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidGroupSpec(f"{field} must be an integer, got {value!r}")
    return int(value)


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
        if kind == "cyclic":
            return cyclic(_integer(spec, "n"))
        if kind == "dihedral":
            return dihedral(_integer(spec, "n"))
        if kind == "quaternion":
            return quaternion(_integer(spec, "n"))
        if kind == "symmetric":
            return symmetric(_integer(spec, "n"))
        if kind == "alternating":
            return alternating(_integer(spec, "n"))
        if kind == "product":
            parts = spec["of"]
            if not isinstance(parts, list) or len(parts) != 2:
                raise InvalidGroupSpec("product spec needs exactly two factors")
            return product(make_group(parts[0]), make_group(parts[1]))
        if kind == "permgens":
            degree = _integer(spec, "degree")
            if degree < 1:
                raise InvalidGroupSpec("permgens needs degree >= 1")
            # every permutation is a degree-length tuple: refuse before building one
            if degree > element_cap():
                raise SizeCapError(
                    f"permgens: degree {degree} exceeds the element cap "
                    f"{element_cap()}; set SUPERGRAPH_CAP to raise it"
                )
            gens = [
                perms.perm_from_cycles(degree, cyc_list) for cyc_list in spec["gens"]
            ]
            return from_perm_generators(degree, gens)
        if kind == "table":
            return from_table(spec["rows"])
    except KeyError as exc:
        raise InvalidGroupSpec(f"missing field {exc} in {kind} spec") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidGroupSpec):
            raise
        raise InvalidGroupSpec(f"bad {kind} spec: {exc}") from exc
    raise InvalidGroupSpec(f"unknown group kind {kind!r}")
