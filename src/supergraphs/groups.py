"""Finite groups with indexed elements.

Elements are indices 0..order-1 and index 0 is always the identity. Groups
come from built-in presentations (cyclic, dihedral, generalized quaternion),
symmetric/alternating groups, direct products, explicit Cayley tables, or
permutation generators. Symmetric groups of any degree are supported through
lexicographic ranking; everything that must enumerate elements is guarded by
the element cap (env var SUPERGRAPH_CAP, default 20000).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

from . import perms

DEFAULT_ELEMENT_CAP = 20000


def element_cap() -> int:
    raw = os.environ.get("SUPERGRAPH_CAP")
    return int(raw) if raw else DEFAULT_ELEMENT_CAP


class InvalidGroupSpec(ValueError):
    """Raised for malformed group specifications or non-group tables."""


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
        self._pair_members: dict[tuple[int, int], tuple[int, ...]] = {}
        self._flags_cache: dict[frozenset[int], SubgroupFlags] = {}
        self._cyclic_cache: dict[int, frozenset[int]] = {}

    def mul(self, i: int, j: int) -> int:
        raise NotImplementedError

    def inv(self, i: int) -> int:
        raise NotImplementedError

    def element_label(self, i: int) -> str:
        raise NotImplementedError

    def elements(self) -> range:
        self.require_enumerable()
        return range(self.order)

    def labels(self) -> list[str]:
        return [self.element_label(i) for i in self.elements()]

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
        return Subgroup(self, members, self._reduce_generators(members))

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        """Classes sorted by (size, least member); representative = least member."""
        if self._classes is not None:
            return self._classes
        self.require_enumerable()
        seen = [False] * self.order
        classes = []
        for g in range(self.order):
            if seen[g]:
                continue
            orbit = {self.conjugate(g, x) for x in range(self.order)}
            for h in orbit:
                seen[h] = True
            members = tuple(sorted(orbit))
            classes.append(ConjugacyClass(members[0], members))
        classes.sort(key=lambda c: (c.size, c.representative))
        self._classes = classes
        return classes

    def generated_subgroup(self, gens) -> Subgroup:
        gens = tuple(dict.fromkeys(g for g in gens if g != 0))
        members = closure_set(self.mul, 0, gens, limit=element_cap())
        return Subgroup(self, tuple(sorted(members)), gens)

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
        abelian = all(
            self.commutes(a, b) for a, b in itertools.combinations(members, 2)
        )
        cyclic = abelian and any(self.element_order(g) == size for g in members)
        if abelian:
            return SubgroupFlags(cyclic, True, True, True)
        gens = gens or members
        solvable = is_solvable_gens(self.mul, self.inv, 0, gens)
        nilpotent = solvable and is_nilpotent_gens(self.mul, self.inv, 0, gens)
        return SubgroupFlags(False, False, nilpotent, solvable)

    def whole_group_flags(self) -> SubgroupFlags:
        members = tuple(self.elements())
        return self.subgroup_flags(members, self._reduce_generators(members))

    def _reduce_generators(self, members: tuple[int, ...]) -> tuple[int, ...]:
        """Greedy small generating set for a subgroup given by its members."""
        gens: list[int] = []
        have = {0}
        for g in members:
            if g not in have:
                gens.append(g)
                have = closure_set(self.mul, 0, gens)
        return tuple(gens)

    def multiplication_row(self, i: int) -> list[int]:
        return [self.mul(i, j) for j in range(self.order)]

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.label} order={self.order} rep={self.rep}>"


def classify_subgroup(sub: Subgroup) -> SubgroupFlags:
    """Cyclic/abelian/nilpotent/solvable flags for a subgroup.

    Nilpotency is decided by the lower central series and solvability by the
    derived series, each computed through normal closures of generator
    commutators.
    """
    return sub.parent.subgroup_flags(sub.members, sub.generators)


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


class DihedralGroup(FiniteGroup):
    """Order 2n, elements e, a, ..., a^(n-1), b, ab, ..., a^(n-1)b."""

    def __init__(self, n: int):
        super().__init__(2 * n, f"D{2 * n}")
        self.n = n

    def mul(self, i, j):
        n = self.n
        ri, fi = i % n, i >= n
        rj, fj = j % n, j >= n
        if not fi and not fj:
            return (ri + rj) % n
        if not fi and fj:
            return n + (ri + rj) % n
        if fi and not fj:
            return n + (ri - rj) % n
        return (ri - rj) % n

    def inv(self, i):
        n = self.n
        if i < n:
            return (-i) % n
        return i

    def element_label(self, i):
        n = self.n
        r, flip = i % n, i >= n
        if not flip:
            if r == 0:
                return "e"
            return "a" if r == 1 else f"a^{r}"
        if r == 0:
            return "b"
        return "ab" if r == 1 else f"a^{r}b"


class QuaternionGroup(FiniteGroup):
    """Generalized quaternion group of order 4n: a has order 2n, b^2 = a^n."""

    def __init__(self, n: int):
        super().__init__(4 * n, f"Q{4 * n}")
        self.n = n

    def mul(self, i, j):
        m = 2 * self.n
        ri, fi = i % m, i >= m
        rj, fj = j % m, j >= m
        if not fi and not fj:
            return (ri + rj) % m
        if not fi and fj:
            return m + (ri + rj) % m
        if fi and not fj:
            return m + (ri - rj) % m
        return (ri - rj + self.n) % m

    def inv(self, i):
        m = 2 * self.n
        if i < m:
            return (-i) % m
        return m + (i - self.n) % m

    def element_label(self, i):
        m = 2 * self.n
        r, flip = i % m, i >= m
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
        # Latin square + identity does not imply associativity; verify.
        for a, b, c in itertools.product(range(n), repeat=3):
            if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                raise InvalidGroupSpec("table is not associative")
        super().__init__(n, label)
        self.rows = rows
        self._inverses = [row.index(0) for row in rows]

    def mul(self, i, j):
        return self.rows[i][j]

    def inv(self, i):
        return self._inverses[i]

    def element_label(self, i):
        return "e" if i == 0 else f"g{i}"


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

    def mul(self, i, j):
        return self._index[perms.compose(self.perm_elements[i], self.perm_elements[j])]

    def inv(self, i):
        return self._index[perms.invert(self.perm_elements[i])]

    def element_label(self, i):
        return perms.cycle_notation(self.perm_elements[i])

    def perm(self, i) -> tuple[int, ...]:
        return self.perm_elements[i]

    def index_of(self, p: tuple[int, ...]) -> int:
        return self._index[p]


class SymmetricGroup(FiniteGroup):
    """Full symmetric group indexed by lexicographic rank; any degree.

    Element enumeration is never required for multiplication, so degrees whose
    factorial exceeds the cap are still usable for order and small closures.
    """

    rep = "permutation"

    def __init__(self, degree: int):
        super().__init__(math.factorial(degree), f"S{degree}")
        self.degree = degree

    def mul(self, i, j):
        p = perms.lehmer_unrank(i, self.degree)
        q = perms.lehmer_unrank(j, self.degree)
        return perms.lehmer_rank(perms.compose(p, q))

    def inv(self, i):
        return perms.lehmer_rank(perms.invert(perms.lehmer_unrank(i, self.degree)))

    def element_label(self, i):
        return perms.cycle_notation(perms.lehmer_unrank(i, self.degree))

    def perm(self, i) -> tuple[int, ...]:
        return perms.lehmer_unrank(i, self.degree)

    def index_of(self, p: tuple[int, ...]) -> int:
        return perms.lehmer_rank(p)


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
    return DihedralGroup(n)


def quaternion(n: int) -> FiniteGroup:
    if n < 2:
        raise InvalidGroupSpec("generalized quaternion groups need n >= 2")
    _check_order(4 * n, "quaternion")
    return QuaternionGroup(n)


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidGroupSpec("symmetric groups need n >= 1")
    if math.factorial(n) <= element_cap():
        elements = [tuple(p) for p in itertools.permutations(range(n))]
        return PermutationGroup(n, elements, f"S{n}")
    return SymmetricGroup(n)


def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidGroupSpec("alternating groups need n >= 1")
    order = max(1, math.factorial(n) // 2)
    if order > element_cap():
        raise SizeCapError(f"A{n}: order {order} exceeds the element cap")
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
            return cyclic(int(spec["n"]))
        if kind == "dihedral":
            return dihedral(int(spec["n"]))
        if kind == "quaternion":
            return quaternion(int(spec["n"]))
        if kind == "symmetric":
            return symmetric(int(spec["n"]))
        if kind == "alternating":
            return alternating(int(spec["n"]))
        if kind == "product":
            parts = spec["of"]
            if not isinstance(parts, list) or len(parts) != 2:
                raise InvalidGroupSpec("product spec needs exactly two factors")
            return product(make_group(parts[0]), make_group(parts[1]))
        if kind == "permgens":
            degree = int(spec["degree"])
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
