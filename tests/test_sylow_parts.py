"""The nilpotent pair test read from Sylow parts, and pair closures stopped at
the Lagrange bound, against closures and series written here from the
group's multiplication alone, and against sympy."""

import itertools
import random

import pytest

import supergraphs as sg
from supergraphs import constructions, groups
from supergraphs.groups import closure_set, make_group


def _table(group):
    """The group as a Cayley table group."""
    return make_group({"kind": "table", "rows": [
        [group.mul(i, j) for j in range(group.order)] for i in range(group.order)
    ]})


def catalog():
    return [
        sg.symmetric(4),
        sg.symmetric(5),
        sg.alternating(5),
        sg.dihedral(12),
        sg.quaternion(6),
        sg.product(sg.symmetric(3), sg.cyclic(4)),
        make_group({"kind": "permgens", "degree": 7, "gens": [[[1, 2, 3]], [[1, 2], [3, 4]]]}),
        _table(sg.product(sg.alternating(4), sg.cyclic(2))),
    ]


def _ids(group):
    return group.label


def _close(group, gens):
    members, frontier = {0}, [0]
    while frontier:
        fresh = [group.mul(m, g) for m in frontier for g in gens]
        frontier = [t for t in dict.fromkeys(fresh) if t not in members]
        members.update(frontier)
    return frozenset(members)


def _is_nilpotent(group, members):
    """The lower central series of members reaches the identity."""
    term = members
    while len(term) > 1:
        mul, inv = group.mul, group.inv
        nxt = _close(group, {mul(mul(inv(a), inv(b)), mul(a, b)) for a in term for b in members})
        if nxt == term:
            return False
        term = nxt
    return True


@pytest.mark.parametrize("group", catalog(), ids=_ids)
def test_nilpotent_pair_test_matches_the_closure_definition(group):
    verdicts = {}
    for g, h in itertools.combinations(range(group.order), 2):
        members = _close(group, (g, h))
        if members not in verdicts:
            verdicts[members] = _is_nilpotent(group, members)
        assert group.pair_is_nilpotent(g, h) == verdicts[members], (g, h)
    assert set(verdicts.values()) == {True, False}


def test_nilpotent_pair_test_matches_sympy_on_drawn_pairs_of_s6():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    s6 = sg.symmetric(6)
    rng = random.Random(18)
    seen = set()
    for _ in range(400):
        g, h = rng.sample(range(s6.order), 2)
        expected = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(s6.perm(g))), combinatorics.Permutation(list(s6.perm(h)))]
        ).is_nilpotent
        assert s6.pair_is_nilpotent(g, h) == expected, (s6.perm(g), s6.perm(h))
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("group", [sg.symmetric(4), sg.alternating(5), sg.dihedral(12)], ids=_ids)
def test_pair_members_stop_at_the_lagrange_bound_and_share_the_whole_group(group):
    whole = None
    for g, h in itertools.combinations_with_replacement(range(group.order), 2):
        members = group.pair_subgroup_members(g, h)
        assert members == tuple(sorted(closure_set(group.mul, 0, (g, h)))), (g, h)
        if len(members) == group.order:
            whole = whole or members
            assert members is whole, (g, h)
    assert whole is not None


@pytest.mark.parametrize("group", catalog(), ids=_ids)
def test_p_part_closures_hold_at_most_the_sylow_order_plus_two(group, monkeypatch):
    """Every closure of the nilpotent test is capped at |G|_p and holds at
    most |G|_p + 2 elements: the identity and each distinct product."""
    sylow, n, p = set(), group.order, 2
    while n > 1:
        q = 1
        while n % p == 0:
            n, q = n // p, q * p
        if q > 1:
            sylow.add(q)
        p += 1
    sizes, capped = [], []

    def counting(mul, identity, gens, limit=None):
        products = {identity}

        def tracked(a, b):
            t = mul(a, b)
            products.add(t)
            return t

        try:
            return closure_set(tracked, identity, gens, limit=limit)
        except groups.SizeCapError:
            capped.append(limit)
            raise
        finally:
            sizes.append((limit, len(products)))

    monkeypatch.setattr(groups, "closure_set", counting)
    for g, h in itertools.combinations(range(group.order), 2):
        group.pair_is_nilpotent(g, h)
    assert sizes and capped
    for limit, size in sizes:
        assert limit in sylow and size <= limit + 2, (limit, size)


def test_nilpotent_kind_scans_once_per_member():
    assert "nilpotent" not in constructions._CLOSURE_KINDS
