"""Group construction, element structure, and subgroup classification."""

import functools
import inspect
import itertools
import random
import textwrap
import types

import pytest

import supergraphs as sg
from supergraphs import groups, perms
from supergraphs.groups import (
    CyclicGroup,
    FiniteGroup,
    InvalidGroupSpec,
    MetacyclicGroup,
    SizeCapError,
    _greedy_generators,
    closure_set,
    make_group,
)

def index_of(group, perm):
    """The index of the permutation perm among the elements of group."""
    return group.perm_elements.index(perm)


NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def catalog():
    return [
        sg.cyclic(6),
        sg.symmetric(3),
        sg.dihedral(4),
        sg.quaternion(2),
        sg.dihedral(5),
        sg.alternating(4),
        sg.symmetric(4),
        sg.product(sg.cyclic(2), sg.cyclic(4)),
    ]


# --- constructors ---


def test_dihedral_presentation():
    d = sg.dihedral(5)
    assert d.order == 10
    assert d.element_order(1) == 5  # a
    assert d.element_order(5) == 2  # b
    # b a b^-1 = a^-1
    b, a = 5, 1
    assert d.mul(d.mul(b, a), d.inv(b)) == d.inv(a)
    labels = ("e", "a", "a^2", "a^3", "a^4", "b", "ab", "a^2b", "a^3b", "a^4b")
    assert d.labels() == labels
    assert d.labels() is d.labels()  # built once per group


def test_quaternion_presentation():
    q = sg.quaternion(2)
    a, b = 1, 4
    assert q.order == 8
    assert q.mul(a, a) == q.mul(b, b)  # a^n = b^2
    sq = q.mul(a, a)
    assert q.mul(sq, sq) == 0  # (a^n)^2 = e
    assert q.mul(q.mul(b, a), q.inv(b)) == q.inv(a)
    assert q.element_order(b) == 4


def test_quaternion_requires_n_at_least_two():
    with pytest.raises(InvalidGroupSpec):
        sg.quaternion(1)


def test_product_order_multiplies():
    g = sg.product(sg.dihedral(3), sg.cyclic(2))
    assert g.order == 12
    assert g.element_label(0) == "(e,e)"


def test_make_group_specs():
    assert make_group({"kind": "dihedral", "n": 5}).order == 10
    assert make_group({"kind": "quaternion", "n": 3}).order == 12
    assert make_group({"kind": "symmetric", "n": 4}).order == 24
    assert make_group({"kind": "alternating", "n": 5}).order == 60
    assert (
        make_group({"kind": "product", "of": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 4}]}).order
        == 8
    )
    g = make_group({"kind": "permgens", "degree": 3, "gens": [[[1, 2]], [[1, 2, 3]]]})
    assert g.order == 6
    # generators acting on a subset of the points: <(123),(12)(34)> = A4 in S7
    g = make_group(
        {"kind": "permgens", "degree": 7, "gens": [[[1, 2, 3]], [[1, 2], [3, 4]]]}
    )
    assert g.order == 12
    nested = make_group(
        {
            "kind": "product",
            "of": [
                {"kind": "cyclic", "n": 2},
                {"kind": "product", "of": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]},
            ],
        }
    )
    assert nested.order == 8 and nested.is_abelian()
    with pytest.raises(InvalidGroupSpec):
        make_group({"kind": "nonsense"})
    with pytest.raises(InvalidGroupSpec):
        make_group({"kind": "cyclic"})
    with pytest.raises(InvalidGroupSpec):
        make_group({"kind": "permgens", "degree": 3, "gens": [[[1, 5]]]})


def test_table_group_validation():
    c3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert make_group({"kind": "table", "rows": c3}).order == 3
    with pytest.raises(InvalidGroupSpec):
        make_group({"kind": "table", "rows": [[0, 1], [1, 1]]})
    with pytest.raises(InvalidGroupSpec):
        make_group({"kind": "table", "rows": [[1, 0], [0, 1]]})  # 0 not identity
    with pytest.raises(InvalidGroupSpec):
        make_group({"kind": "table", "rows": NON_ASSOCIATIVE_LOOP})


def _loops(n):
    """Every Latin square of order n with 0 as a two-sided identity."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield [row.copy() for row in rows]
            return
        i, j = divmod(cell, n)
        if rows[i][j] is not None:
            yield from fill(cell + 1)
            return
        for v in range(n):
            if v not in rows[i] and all(rows[k][j] != v for k in range(n)):
                rows[i][j] = v
                yield from fill(cell + 1)
                rows[i][j] = None

    yield from fill(0)


# element 1 generates {0, 1} and associates with every pair; only the
# second generator, 2, shows that the loop is not associative
LOOP_FAILING_AT_SECOND_GENERATOR = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0],
    [4, 5, 0, 1, 3, 2],
    [5, 4, 1, 0, 2, 3],
]


def test_table_associativity_check_matches_brute_force():
    """Light's test over a generating set against all n^3 triples, on every
    loop of order 4 and 5 (the smallest non-associative loops have order 5)
    and on one of order 6 that needs two generators."""
    seen = {True: 0, False: 0}
    for rows in itertools.chain(_loops(4), _loops(5), [LOOP_FAILING_AT_SECOND_GENERATOR]):
        associative = all(
            rows[rows[a][b]][c] == rows[a][rows[b][c]]
            for a, b, c in itertools.product(range(len(rows)), repeat=3)
        )
        try:
            make_group({"kind": "table", "rows": rows})
            accepted = True
        except InvalidGroupSpec:
            accepted = False
        assert accepted == associative, rows
        seen[associative] += 1
    assert seen[True] and seen[False]


def test_integer_fields_are_checked():
    for spec in (
        {"kind": "cyclic", "n": 2.5},
        {"kind": "cyclic", "n": True},
        {"kind": "dihedral", "n": False},
        {"kind": "permgens", "degree": -1, "gens": []},
        {"kind": "permgens", "degree": 0, "gens": []},
        {"kind": "permgens", "degree": 2.5, "gens": []},
    ):
        with pytest.raises(InvalidGroupSpec):
            make_group(spec)
    assert make_group({"kind": "cyclic", "n": 4.0}).order == 4
    assert make_group({"kind": "permgens", "degree": 1, "gens": [[[1]]]}).order == 1


def multiplication_rows(group):
    return [[group.mul(i, j) for j in range(group.order)] for i in range(group.order)]


def test_table_group_inverses_and_classes():
    """A Cayley table copy of S4 has the inverses and classes of S4."""
    s4 = sg.symmetric(4)
    table = make_group({"kind": "table", "rows": multiplication_rows(s4)})
    assert [table.inv(i) for i in range(24)] == [s4.inv(i) for i in range(24)]
    assert table.conjugacy_classes() == s4.conjugacy_classes()


def test_element_cap_and_env_override(monkeypatch):
    with pytest.raises(SizeCapError):
        sg.cyclic(30000)
    monkeypatch.setenv("SUPERGRAPH_CAP", "50000")
    assert sg.cyclic(30000).order == 30000
    # a permutation group's degree is held to the cap too
    monkeypatch.setenv("SUPERGRAPH_CAP", "6")
    assert make_group({"kind": "permgens", "degree": 6, "gens": [[[1, 6]]]}).order == 2
    with pytest.raises(SizeCapError, match="permgens: degree 7 exceeds the element cap 6"):
        make_group({"kind": "permgens", "degree": 7, "gens": []})


def test_permgens_closure_stops_at_the_element_cap(monkeypatch):
    """A group of order exactly the cap is built; one element more is refused."""
    s4 = {"kind": "permgens", "degree": 4, "gens": [[[1, 2]], [[1, 2, 3, 4]]]}
    monkeypatch.setenv("SUPERGRAPH_CAP", "24")
    assert make_group(s4).order == 24
    monkeypatch.setenv("SUPERGRAPH_CAP", "23")
    with pytest.raises(SizeCapError, match=r"exceeds the element cap 23; set SUPERGRAPH_CAP"):
        make_group(s4)


def test_symmetric_and_alternating_degrees_beyond_cap_are_refused(monkeypatch):
    """The cap is checked on a running product, so no huge factorial is
    formed or printed; A_n is held to n!/2."""
    with pytest.raises(SizeCapError, match=r"S8: order 8! exceeds"):
        sg.symmetric(8)  # 40320 > default cap
    assert sg.alternating(7).order == 2520
    with pytest.raises(SizeCapError, match=r"A8: order 8!/2 exceeds .*SUPERGRAPH_CAP"):
        sg.alternating(8)  # 20160 > default cap
    with pytest.raises(SizeCapError, match=r"S2000000: order 2000000! exceeds"):
        sg.symmetric(2_000_000)
    monkeypatch.setenv("SUPERGRAPH_CAP", "12")
    assert sg.alternating(4).order == 12
    with pytest.raises(SizeCapError, match=r"S4: order 4! exceeds the element cap 12"):
        sg.symmetric(4)


# --- element structure ---


def test_element_orders():
    d = sg.dihedral(5)
    assert d.element_order(0) == 1
    assert d.element_order(1) == 5
    q = sg.quaternion(2)
    assert all(q.element_order(i) == 4 for i in (4, 5, 6, 7))


def test_centralizers_dihedral():
    d5 = sg.dihedral(5)
    c_b = d5.centralizer(5)
    assert c_b == (0, 5)
    d4 = sg.dihedral(4)
    assert len(d4.centralizer(2)) == 8  # a^2 is central
    assert len(d4.centralizer(0)) == 8


def test_conjugacy_class_sizes():
    assert sorted(map(len, sg.dihedral(5).conjugacy_classes())) == [1, 2, 2, 5]
    assert sorted(map(len, sg.quaternion(2).conjugacy_classes())) == [1, 1, 2, 2, 2]
    assert list(map(len, sg.cyclic(6).conjugacy_classes())) == [1] * 6


def test_class_ordering_and_representatives():
    classes = sg.quaternion(2).conjugacy_classes()
    assert classes == ((0,), (2,), (1, 3), (4, 6), (5, 7))
    assert all(members[0] == min(members) for members in classes)


@pytest.mark.parametrize("n", range(1, 8))
def test_symmetric_and_alternating_groups_have_two_generators(n):
    """S_n and A_n keep the two permutations they are built from as their
    generators, which close to the whole group."""
    for group in (sg.symmetric(n), sg.alternating(n)):
        gens = group.generators()
        assert len(gens) <= 2 and 0 not in gens
        assert len(closure_set(group.mul, 0, gens)) == group.order, group.label


@pytest.mark.parametrize("n", range(1, 60))
def test_presented_generators_are_the_greedy_ones(n):
    """C_n, D_2n and Q_4n take their generators from the presentation, a
    and b, with no closure; those are the set the greedy search picks."""
    groups = [sg.cyclic(n), sg.dihedral(n)] + ([sg.quaternion(n)] if n > 1 else [])
    for group in groups:
        greedy = _greedy_generators(group, tuple(group.elements()))
        assert group.generators() == greedy, group.label


def test_generated_subgroups():
    d5 = sg.dihedral(5)
    assert len(d5.pair_subgroup_members(0, 1)) == 5
    s3 = sg.symmetric(3)
    t = index_of(s3, (1, 0, 2))
    r = index_of(s3, (1, 2, 0))
    assert len(s3.pair_subgroup_members(t, r)) == 6


def test_classify_subgroup_flags():
    s3 = sg.symmetric(3)
    assert s3.is_solvable() and not s3.is_nilpotent()
    q8 = sg.quaternion(2)
    assert q8.is_nilpotent()
    s5 = sg.symmetric(5)
    pair = (index_of(s5, (1, 2, 0, 3, 4)), index_of(s5, (1, 2, 3, 4, 0)))
    members = s5.pair_subgroup_members(*pair)
    assert len(members) == 60
    assert not s5.pair_is_solvable(*pair) and not s5.generates_nilpotent(pair)


@pytest.mark.parametrize(
    "group_fn,cyclic,abelian,nilpotent,solvable",
    [
        (lambda: sg.cyclic(6), True, True, True, True),
        (lambda: sg.product(sg.cyclic(2), sg.cyclic(3)), True, True, True, True),
        (lambda: sg.product(sg.cyclic(2), sg.cyclic(4)), False, True, True, True),
        (lambda: sg.dihedral(4), False, False, True, True),  # 2-group
        (lambda: sg.dihedral(8), False, False, True, True),
        (lambda: sg.quaternion(2), False, False, True, True),
        (lambda: sg.quaternion(4), False, False, True, True),
        (lambda: sg.dihedral(3), False, False, False, True),
        (lambda: sg.dihedral(6), False, False, False, True),
        (lambda: sg.alternating(4), False, False, False, True),
        (lambda: sg.symmetric(4), False, False, False, True),
        (lambda: sg.alternating(5), False, False, False, False),
    ],
)
def test_whole_group_flags_known_values(group_fn, cyclic, abelian, nilpotent, solvable):
    group = group_fn()
    facts = (group.is_cyclic(), group.is_abelian(), group.is_nilpotent(), group.is_solvable())
    assert facts == (cyclic, abelian, nilpotent, solvable)


def test_classify_flag_monotonicity():
    """cyclic => abelian => nilpotent => solvable on a spread of subgroups."""
    for group in catalog():
        rng = random.Random(7)
        pairs = list(itertools.combinations(range(group.order), 2))
        for g, h in rng.sample(pairs, min(40, len(pairs))):
            members = group.pair_subgroup_members(g, h)
            cyclic = any(group.element_order(x) == len(members) for x in members)
            abelian = group.commutes(g, h)
            nilpotent = group.generates_nilpotent((g, h))
            assert (not cyclic or abelian)
            assert (not abelian or nilpotent)
            assert (not nilpotent or group.pair_is_solvable(g, h))


def test_orbit_stabilizer():
    """|class| * |centralizer| = |G| for every class of every catalog group."""
    for group in catalog():
        for members in group.conjugacy_classes():
            assert len(members) * len(group.centralizer(members[0])) == group.order


def _axiom_check(group):
    n = group.order
    rows = multiplication_rows(group)
    for i in range(n):
        assert rows[0][i] == i and rows[i][0] == i
        assert rows[i][group.inv(i)] == 0 and rows[group.inv(i)][i] == 0
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            rab = rows[ra[b]]
            rb = rows[b]
            assert rab == [ra[rb[c]] for c in range(n)], (a, b)


def test_group_axioms_exhaustive_small():
    """Associativity/identity/inverse checked exhaustively up to order 200."""
    groups = catalog() + [sg.dihedral(50), sg.quaternion(3), sg.symmetric(4)]
    for group in groups:
        assert group.order <= 200
        _axiom_check(group)


def test_group_axioms_spot_checked_larger():
    group = sg.cyclic(2048)
    rng = random.Random(11)
    for _ in range(500):
        a, b, c = (rng.randrange(group.order) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


def test_product_classes_are_pairwise_products():
    g, h = sg.symmetric(3), sg.cyclic(4)
    prod = sg.product(g, h)
    expected = set()
    for cg in g.conjugacy_classes():
        for ch in h.conjugacy_classes():
            expected.add(
                frozenset(a * h.order + b for a in cg for b in ch)
            )
    actual = set(map(frozenset, prod.conjugacy_classes()))
    assert actual == expected


def test_closure_set_generic():
    members = closure_set(lambda a, b: (a + b) % 7, 0, [3])
    assert members == set(range(7))


def test_capped_closure_stops_within_one_frontier_member_of_the_limit():
    """S10 from its 45 transpositions passes a limit of 2,000 partway through
    a breadth-first layer of 9,450 elements; the closure holds at most
    limit + len(gens) elements and makes at most (limit + 1) * len(gens)
    products when it stops."""
    degree, limit = 10, 2000
    gens = [
        perms.perm_from_cycles(degree, [[i, j]])
        for i, j in itertools.combinations(range(1, degree + 1), 2)
    ]
    products = []

    def mul(a, b):
        products.append(perms.compose(a, b))
        return products[-1]

    with pytest.raises(SizeCapError, match="closure exceeds 2000 elements"):
        closure_set(mul, perms.identity_perm(degree), gens, limit=limit)
    assert len(products) <= (limit + 1) * len(gens)
    assert len(set(products)) <= limit + len(gens)


@pytest.mark.parametrize("group", [
    sg.symmetric(5), sg.dihedral(20), sg.quaternion(12), sg.product(sg.symmetric(3), sg.cyclic(4)),
    sg.cyclic(12), sg.product(sg.cyclic(6), sg.cyclic(10)),
], ids=lambda group: group.label)
def test_orbit_walks_make_two_products_per_point_and_generator(group, monkeypatch):
    """The conjugacy classes conjugate each element, and the orbits of cyclic
    subgroups one generator of each subgroup, by each generator of the
    group: two products each. An abelian group makes none, and neither do
    C, D and Q groups, which read both from the presentation."""
    presented = isinstance(group, (CyclicGroup, MetacyclicGroup))
    gens = () if presented or group.is_abelian() else group.generators()
    subgroups = len(group.cyclic_classes().members)
    real, products = group.mul, []

    def counting(i, j):
        products.append((i, j))
        return real(i, j)

    monkeypatch.setattr(group, "mul", counting)
    group.conjugacy_classes()
    assert len(products) == 2 * group.order * len(gens)
    products.clear()
    group.cyclic_orbits()
    assert len(products) == 2 * subgroups * len(gens)
    assert group.is_abelian() == (group.label in ("C12", "C6xC10"))


def _walked(group):
    """group with FiniteGroup's generic walks in place of its own cyclic
    classes, conjugacy classes and conjugations: the oracle of the
    presentations' closed forms."""
    for name in ("cyclic_classes", "conjugacy_classes", "_conjugates"):
        setattr(group, name, types.MethodType(getattr(FiniteGroup, name), group))
    return group


@pytest.mark.parametrize("makes", [
    [functools.partial(sg.cyclic, n) for n in range(1, 201)],
    [functools.partial(sg.dihedral, n) for n in range(1, 201)],
    [functools.partial(sg.quaternion, n) for n in range(2, 151)],
    [functools.partial(sg.cyclic, 20000), functools.partial(sg.dihedral, 10000),
     functools.partial(sg.quaternion, 5000)],
], ids=["C1-C200", "D2-D400", "Q8-Q600", "order-20000"])
def test_presentations_equal_the_generic_walks(makes):
    """C_n, D_2n and Q_4n read their cyclic classes, conjugacy classes and
    generators' conjugations from the presentation; each equals what the
    generic walks find by products, and so do the orbits of cyclic
    subgroups, with their steps and permutations."""
    for make in makes:
        group, walked = make(), _walked(make())
        assert group.cyclic_classes() == walked.cyclic_classes(), group.label
        assert group.conjugacy_classes() == walked.conjugacy_classes(), group.label
        assert group._conjugates(group.elements()) == walked._conjugates(group.elements()), group.label
        assert group.cyclic_orbits() == walked.cyclic_orbits(), group.label


def _multiplied(group):
    """group with FiniteGroup's generic pair tests in place of its own
    commutation, nilpotency and generation: two products, closures of
    p-parts and the pair's closure, the oracle of the presentations'
    arithmetic."""
    for name in ("commutes", "generates_nilpotent", "pair_generates"):
        setattr(group, name, types.MethodType(getattr(FiniteGroup, name), group))
    return group


def _pair_test_mismatches(group, oracle, pairs, sets):
    """The pairs on which group's commutes or pair_generates, and the sets
    on which its generates_nilpotent, disagree with oracle's, lazily."""
    for pair in pairs:
        for name in ("commutes", "pair_generates"):
            if getattr(group, name)(*pair) != getattr(oracle, name)(*pair):
                yield group.label, name, pair
    for gens in sets:
        if group.generates_nilpotent(gens) != oracle.generates_nilpotent(gens):
            yield group.label, "generates_nilpotent", gens


def _first_exhaustive_mismatch(makes):
    """The first mismatch of _pair_test_mismatches over every pair of each
    group, each pair also a generator set, or None."""
    for make in makes:
        group, oracle = make(), _multiplied(make())
        pairs = list(itertools.combinations_with_replacement(range(group.order), 2))
        for wrong in _pair_test_mismatches(group, oracle, pairs, pairs):
            return wrong
    return None


PRESENTED_PAIR_RANGES = {
    "C1-C60": [functools.partial(sg.cyclic, n) for n in range(1, 61)],
    "D2-D120": [functools.partial(sg.dihedral, n) for n in range(1, 61)],
    "Q8-Q120": [functools.partial(sg.quaternion, n) for n in range(2, 31)],
}


@pytest.mark.parametrize("name", PRESENTED_PAIR_RANGES)
def test_presented_pair_tests_equal_the_generic_ones(name):
    """C_n, D_2n and Q_4n decide commutation, nilpotency and generation of
    every pair from the presentation, as the generic tests do by products
    and closures."""
    assert _first_exhaustive_mismatch(PRESENTED_PAIR_RANGES[name]) is None


def _drawn_in_subgroups(rng, group, count):
    """count sets of 1 to 4 elements, each drawn from one subgroup <a^d> or
    <a^d> u <a^d> a^j b, d = 1 half the time and otherwise a divisor of m
    drawn at random, so that the sets generate subgroups of every kind:
    cyclic, nilpotent or not, the whole group or not."""
    m = group.order if isinstance(group, CyclicGroup) else group.m
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    sets = []
    for _ in range(count):
        d, j = rng.choice([1, rng.choice(divisors)]), rng.randrange(m)
        pool = list(range(0, m, d))
        if not isinstance(group, CyclicGroup) and rng.random() < 0.8:
            pool += [m + (j + r) % m for r in pool]
        sets.append(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
    return sets


@pytest.mark.parametrize("make", [functools.partial(sg.cyclic, 20000),
                                  functools.partial(sg.dihedral, 10000),
                                  functools.partial(sg.quaternion, 5000)],
                         ids=["C20000", "D20000", "Q20000"])
def test_presented_pair_tests_equal_the_generic_ones_on_drawn_sets(make):
    """The presentations' arithmetic against the generic tests on drawn
    pairs and generator sets of order-20000 groups, both verdicts of each
    test seen (but commutation and nilpotency in C20000, always true)."""
    group, oracle, rng = make(), _multiplied(make()), random.Random(31)
    pairs = [gens[:2] * (3 - len(gens[:2])) for gens in _drawn_in_subgroups(rng, group, 60)]
    sets = _drawn_in_subgroups(rng, group, 200)
    assert next(_pair_test_mismatches(group, oracle, pairs, sets), None) is None
    expected = {True} if isinstance(group, CyclicGroup) else {True, False}
    assert {group.commutes(*pair) for pair in pairs} == expected
    assert {group.pair_generates(*pair) for pair in pairs} == {True, False}
    assert {group.generates_nilpotent(gens) for gens in sets} == expected


def _mutant(cls, name, old, new):
    """cls's method name compiled from its source with old put as new, in
    the module namespace of groups."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, name)))
    assert old in source, (name, old)
    namespace = {}
    exec(source.replace(old, new), vars(groups), namespace)
    return namespace[name]


@pytest.mark.parametrize("name, old, new", [
    ("_rotation_step", "math.gcd(self.m, self.s)", "math.gcd(self.m, self.m)"),
    ("_rotation_step", "return None if flip is None else d", "return d"),
    ("generates_nilpotent", "e & (e - 1) == 0", "e % 2 == 0"),
    ("commutes", "2 * g % m", "g % m"),
    ("commutes", "2 * (h if h < m else g - h) % m", "(h if h < m else g - h) % m"),
], ids=["m-for-s", "rotations-generate", "m/d-even", "commutes-g-no-2", "commutes-h-no-2"])
def test_presented_pair_oracle_catches_planted_defects(name, old, new, monkeypatch):
    """Each defect planted in MetacyclicGroup's source: m in place of s in
    Q's gcd, two rotations that generate, m/d even in place of a power of 2,
    and commutation without the factor 2, fails the exhaustive comparison
    on Q8-Q120 and D2-D120 (m in place of s only on Q, where s != 0)."""
    monkeypatch.setattr(MetacyclicGroup, name, _mutant(MetacyclicGroup, name, old, new))
    makes = PRESENTED_PAIR_RANGES["Q8-Q120"] + PRESENTED_PAIR_RANGES["D2-D120"]
    assert _first_exhaustive_mismatch(makes) is not None
