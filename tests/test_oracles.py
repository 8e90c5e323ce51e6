"""The orbit-based construction path against test-local references written
straight from the definitions: closures, commutator series and conjugates are
computed here from the group's multiplication alone, with no pinning, no
orbits and no shared partition or classification code."""

import itertools

import pytest

import supergraphs as sg
from supergraphs import perms
from supergraphs.constructions import KINDS, PARTITIONS, PROPERTY_OF_KIND, build_supergraph
from supergraphs.generation import generating_graph, invariable_generating_graph
from supergraphs.groups import PermutationGroup, make_group


def _sl23_rows():
    """Cayley table of SL(2, 3): 24 matrices over F_3, identity first."""
    mats = [
        m for m in itertools.product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3 == 1
    ]
    mats.sort(key=lambda m: m != (1, 0, 0, 1))
    index = {m: i for i, m in enumerate(mats)}

    def mul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % 3,
            (a[0] * b[1] + a[1] * b[3]) % 3,
            (a[2] * b[0] + a[3] * b[2]) % 3,
            (a[2] * b[1] + a[3] * b[3]) % 3,
        )

    return [[index[mul(a, b)] for b in mats] for a in mats]


def catalog():
    """The catalog of tests/test_groups.py."""
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


def wide_catalog():
    """Every constructor at order <= 24, trivial groups and nested products."""
    return catalog() + [
        sg.symmetric(1),
        make_group({"kind": "permgens", "degree": 1, "gens": [[[1]]]}),
        sg.cyclic(1),
        sg.symmetric(2),
        sg.dihedral(6),
        sg.dihedral(8),
        sg.quaternion(3),
        sg.quaternion(6),
        sg.alternating(3),
        make_group({"kind": "permgens", "degree": 5, "gens": [[[1, 2, 3, 4, 5]], [[2, 5], [3, 4]]]}),
        make_group({"kind": "permgens", "degree": 7, "gens": [[[1, 2, 3]], [[1, 2], [3, 4]]]}),
        make_group({"kind": "table", "rows": _sl23_rows()}),
        sg.product(sg.cyclic(2), sg.product(sg.cyclic(2), sg.symmetric(3))),
        sg.product(sg.product(sg.symmetric(3), sg.cyclic(1)), sg.cyclic(3)),
    ]


def _ids(group):
    return group.label


# --- test-local group theory ---


def _close(group, gens):
    members = {0}
    frontier = [0]
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                t = group.mul(m, g)
                if t not in members:
                    members.add(t)
                    fresh.append(t)
        frontier = fresh
    return frozenset(members)


def _conj(group, g, x):
    return group.mul(group.mul(group.inv(x), g), x)


def _commutators(group, left, right):
    return _close(
        group,
        {group.mul(group.mul(group.inv(a), group.inv(b)), group.mul(a, b)) for a in left for b in right},
    )


def _is_solvable(group, members):
    while len(members) > 1:
        derived = _commutators(group, members, members)
        if derived == members:
            return False
        members = derived
    return True


def _is_nilpotent(group, members):
    term = members
    while len(term) > 1:
        nxt = _commutators(group, term, members)
        if nxt == term:
            return False
        term = nxt
    return True


def _is_cyclic(group, members):
    return any(len(_close(group, [g])) == len(members) for g in members)


def _is_abelian(group, members):
    return all(group.mul(a, b) == group.mul(b, a) for a in members for b in members)


PROPERTY = {
    "commuting": _is_abelian,
    "enhanced": _is_cyclic,
    "nilpotent": _is_nilpotent,
    "solvable": _is_solvable,
}


def reference_base_adjacency(group, kind):
    """Set of base-adjacent pairs (g, h), g < h, from the definitions."""
    pairs = set()
    for g, h in itertools.combinations(range(group.order), 2):
        if kind == "power":
            hit = h in _close(group, [g]) or g in _close(group, [h])
        else:
            hit = PROPERTY[kind](group, _close(group, [g, h]))
        if hit:
            pairs.add((g, h))
    return pairs


def _conjugates(group, g):
    return frozenset(_conj(group, g, x) for x in range(group.order))


def _class_of(group, pkind):
    """Element -> its class as a frozenset, computed independently per element."""
    if pkind == "equality":
        return [frozenset((g,)) for g in range(group.order)]
    if pkind == "conjugacy":
        return [_conjugates(group, g) for g in range(group.order)]
    orders = [len(_close(group, [g])) for g in range(group.order)]
    return [frozenset(h for h in range(group.order) if orders[h] == orders[g])
            for g in range(group.order)]


def reference_supergraph_edges(group, base, pkind):
    """g ~ h iff they share a class, or some x in C(g) and some y in C(h) are
    base-adjacent. Every cross pair is tested."""
    class_of = _class_of(group, pkind)
    edges = set()
    for g, h in itertools.combinations(range(group.order), 2):
        cg, ch = class_of[g], class_of[h]
        if cg == ch or any((min(x, y), max(x, y)) in base for x in cg for y in ch):
            edges.add((g, h))
    return edges


def reference_igg_edges(group):
    """x ~ y iff <x, y'> is the whole group for every conjugate y' of y."""
    return {
        (x, y)
        for x, y in itertools.combinations(range(group.order), 2)
        if all(len(_close(group, [x, y2])) == group.order for y2 in _conjugates(group, y))
    }


# --- the library against the references ---


@pytest.mark.parametrize("group", wide_catalog(), ids=_ids)
def test_supergraphs_match_the_definition(group):
    for kind in KINDS:
        base = reference_base_adjacency(group, kind)
        for pkind in PARTITIONS:
            got = set(build_supergraph(group, kind, pkind).edges())
            assert got == reference_supergraph_edges(group, base, pkind), (kind, pkind)


@pytest.mark.parametrize("group", wide_catalog() + [sg.alternating(5)], ids=_ids)
def test_invariable_generating_graph_matches_the_definition(group):
    assert set(invariable_generating_graph(group).edges()) == reference_igg_edges(group)


@pytest.mark.parametrize("group", wide_catalog() + [sg.alternating(5)], ids=_ids)
def test_generating_graph_matches_the_definition(group):
    expected = {
        (g, h)
        for g, h in itertools.combinations(range(group.order), 2)
        if len(_close(group, [g, h])) == group.order
    }
    assert set(generating_graph(group).edges()) == expected


def _subgroup_index(group):
    """Each cyclic subgroup of cyclic_classes, closed here from its first
    generator, and its index there."""
    subgroups = [_close(group, [gens[0]]) for gens in group.cyclic_classes().members]
    return subgroups, {sub: k for k, sub in enumerate(subgroups)}


def _conj_subgroup(group, index, sub, x):
    return index[frozenset(_conj(group, h, x) for h in sub)]


@pytest.mark.parametrize("group", wide_catalog(), ids=_ids)
def test_conjugacy_classes_and_conjugators(group):
    """The conjugacy classes, and the conjugation of cyclic subgroups that
    the orbit walk records: each generator's permutation of the subgroups
    is conjugation by it, the orbits are those under conjugation by every
    element, and each subgroup is reached by its recorded step."""
    classes = group.conjugacy_classes()
    assert {frozenset(c.members) for c in classes} == {
        _conjugates(group, g) for g in range(group.order)
    }
    assert [(c.size, c.representative) for c in classes] == sorted(
        (c.size, c.representative) for c in classes
    )
    for cls in classes:
        assert cls.members == tuple(sorted(cls.members))
        assert cls.representative == cls.members[0]
    subgroups, index = _subgroup_index(group)
    assert len(index) == len(subgroups)
    walk = group.cyclic_orbits()
    conjugators = () if group.is_abelian() else group.generators()
    assert len(walk.permutations) == len(conjugators)
    for s, permutation in zip(conjugators, walk.permutations):
        assert permutation == tuple(_conj_subgroup(group, index, sub, s) for sub in subgroups)
    assert sorted(k for orbit in walk.orbits for k in orbit) == list(range(len(subgroups)))
    assert {frozenset(orbit) for orbit in walk.orbits} == {
        frozenset(_conj_subgroup(group, index, sub, x) for x in range(group.order))
        for sub in subgroups
    }
    for orbit in walk.orbits:
        assert orbit[0] == min(orbit) and walk.steps[orbit[0]] is None
        for position, k in enumerate(orbit[1:], 1):
            parent, t = walk.steps[k]
            assert parent in orbit[:position] and walk.permutations[t][parent] == k


@pytest.mark.parametrize("group", wide_catalog(), ids=_ids)
def test_centralizer_orbits_partition_each_class(group):
    """The orbits of C(r), for every element r, on each orbit of cyclic
    subgroups under conjugation, against conjugating each subgroup by every
    member of C(r)."""
    subgroups, index = _subgroup_index(group)
    for r in range(group.order):
        centralizer = [x for x in range(group.order) if group.mul(r, x) == group.mul(x, r)]
        for scanned in group.cyclic_orbits().orbits:
            expected = {
                frozenset(_conj_subgroup(group, index, subgroups[k], c) for c in centralizer)
                for k in scanned
            }
            orbits = group.centralizer_orbits(r, scanned)
            assert {frozenset(o) for o in orbits} == expected
            assert [o[0] for o in orbits] == sorted(o[0] for o in orbits)
            assert all(o == tuple(sorted(o)) for o in orbits)


@pytest.mark.parametrize(
    "group", [g for g in wide_catalog() if isinstance(g, PermutationGroup)], ids=_ids
)
def test_permutation_multiplication_matches_perms(group):
    for i in range(group.order):
        p = group.perm(i)
        assert group.perm(group.inv(i)) == perms.invert(p)
        for j in range(group.order):
            assert group.perm(group.mul(i, j)) == perms.compose(p, group.perm(j))


@pytest.mark.parametrize("group", wide_catalog(), ids=_ids)
def test_whole_group_shortcut_fires_only_when_the_property_holds(group, monkeypatch):
    """Every supergraph is complete when the whole group has the kind's
    property, and the nilpotent and solvable base graphs close no pair
    exactly then: neither a pair nor, for the nilpotent kind, a pair of
    p-parts. A group that is not nilpotent has a Sylow subgroup that is not
    abelian or not normal, so two of its p-elements do not commute, and the
    nilpotent scan closes them. The whole-group facts are computed, and
    checked against the definitions, before the hooks go in: the nilpotent
    one may close p-parts itself."""
    whole = frozenset(range(group.order))
    for kind, holds in PROPERTY.items():
        assert getattr(group, f"is_{PROPERTY_OF_KIND[kind]}")() == holds(group, whole), kind
    closed = []
    close_pair, close_parts = group.pair_subgroup_members, group._generates_p_group
    monkeypatch.setattr(
        group, "pair_subgroup_members", lambda g, h: closed.append((g, h)) or close_pair(g, h)
    )
    monkeypatch.setattr(
        group, "_generates_p_group", lambda xs, p: closed.append(tuple(xs)) or close_parts(xs, p)
    )
    for kind, holds in PROPERTY.items():
        has_property = holds(group, whole)
        for pkind in PARTITIONS:
            closed.clear()
            graph = build_supergraph(group, kind, pkind)
            if has_property:
                assert graph.num_edges == group.order * (group.order - 1) // 2, (kind, pkind)
            if kind in ("nilpotent", "solvable") and pkind == "equality":
                assert (not closed) == has_property, kind


def test_shortcut_separates_solvable_from_nilpotent():
    s4 = sg.symmetric(4)
    assert s4.is_solvable() and not s4.is_nilpotent()  # before the hooks
    closed = []
    close_pair, close_parts = s4.pair_subgroup_members, s4._generates_p_group
    s4.pair_subgroup_members = lambda g, h: closed.append((g, h)) or close_pair(g, h)
    s4._generates_p_group = lambda xs, p: closed.append(tuple(xs)) or close_parts(xs, p)
    assert build_supergraph(s4, "solvable", "equality").num_edges == 24 * 23 // 2
    assert not closed
    nilpotent = build_supergraph(s4, "nilpotent", "equality")
    assert closed and nilpotent.num_edges < 24 * 23 // 2
