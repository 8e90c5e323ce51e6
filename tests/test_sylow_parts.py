"""The nilpotent test read from Sylow parts, pair solvability, the
whole-group facts, and pair closures stopped at the Lagrange bound, against
closures and series written here from the group's multiplication alone, and
against sympy."""

import collections
import itertools
import json
import random

import pytest

import supergraphs as sg
from supergraphs import cli, constructions, groups
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


def _is_solvable(group, members):
    """The derived series of members reaches the identity."""
    term = members
    while len(term) > 1:
        mul, inv = group.mul, group.inv
        nxt = _close(group, {mul(mul(inv(a), inv(b)), mul(a, b)) for a in term for b in term})
        if nxt == term:
            return False
        term = nxt
    return True


def _sylow(group, p):
    """A Sylow p-subgroup: elements join while they keep a p-group."""
    members, limit = {0}, groups._prime_power_part(group.order, p)
    for g in range(group.order):
        try:
            bigger = closure_set(group.mul, 0, members | {g}, limit=limit)
        except groups.SizeCapError:
            continue
        if groups._prime_power_part(len(bigger), p) == len(bigger):
            members = bigger
    return sorted(members)


def _draw_sets(rng, group, count):
    """count generating sets of 1 to 4 elements, drawn from the whole group,
    from the centralizer of an element, from the elements of prime-power
    order of one prime or from a Sylow subgroup, so that many of them
    generate nilpotent groups."""
    n, pools = group.order, [range(group.order)]
    for p in groups._prime_factors(n):
        pools.append([g for g in range(n) if (q := group.element_order(g)) == groups._prime_power_part(q, p)])
        pools.append(_sylow(group, p))
    sets = []
    for _ in range(count):
        pool = rng.choice(pools + [group.centralizer(rng.randrange(n))])
        sets.append(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
    return sets


@pytest.mark.parametrize("group", catalog(), ids=_ids)
def test_generates_nilpotent_matches_the_closure_definition_on_drawn_sets(group):
    rng = random.Random(19)
    verdicts, outcomes = {}, collections.Counter()
    for gens in _draw_sets(rng, group, 80):
        members = _close(group, gens)
        if members not in verdicts:
            verdicts[members] = _is_nilpotent(group, members)
        assert group.generates_nilpotent(gens) == verdicts[members], gens
        abelian = all(group.commutes(a, b) for a in gens for b in gens)
        outcomes[verdicts[members], abelian, len(set(gens)) > 2] += 1
    assert outcomes[False, False, True] and outcomes[True, True, True]
    # the groups with a nilpotent subgroup that is not abelian: D8 or Q8
    assert bool(outcomes[True, False, True]) == (group.label in ("S4", "S5", "D24", "Q24"))


def test_generates_nilpotent_matches_sympy_on_drawn_sets_of_s6():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    s6 = sg.symmetric(6)
    rng = random.Random(19)
    seen = collections.Counter()
    for gens in _draw_sets(rng, s6, 300):
        expected = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(s6.perm(g))) for g in gens]
        ).is_nilpotent
        assert s6.generates_nilpotent(gens) == expected, [s6.perm(g) for g in gens]
        seen[expected, len(set(gens)) > 2] += 1
    assert len(seen) == 4


@pytest.mark.parametrize("group", catalog(), ids=_ids)
def test_pair_is_solvable_matches_the_derived_series_definition(group):
    verdicts = {}
    for g, h in itertools.combinations(range(group.order), 2):
        members = _close(group, (g, h))
        if members not in verdicts:
            verdicts[members] = _is_solvable(group, members)
        assert group.pair_is_solvable(g, h) == verdicts[members], (g, h)
    assert group.is_solvable() == verdicts[frozenset(range(group.order))]  # every one is 2-generated
    assert set(verdicts.values()) == ({True, False} if group.label in ("S5", "A5") else {True})


def test_whole_group_facts_are_computed_once_per_group(monkeypatch, tmp_path, capsys):
    """verify hierarchy and igg --check on one S4 compute each whole-group
    fact once, and walk its derived series and read its generators' Sylow
    parts once."""
    s4, stored, walks = sg.symmetric(4), collections.Counter(), collections.Counter()

    class CountingFacts(dict):
        def __setitem__(self, name, value):
            stored[name] += 1
            super().__setitem__(name, value)

    is_solvable_gens, generates_nilpotent = groups.is_solvable_gens, s4.generates_nilpotent

    def solvable_walk(group, gens, order):
        walks["solvable"] += gens is group.generators()
        return is_solvable_gens(group, gens, order)

    def nilpotent_test(gens):
        walks["nilpotent"] += gens is s4.generators()
        return generates_nilpotent(gens)

    monkeypatch.setattr(s4, "_facts", CountingFacts())
    monkeypatch.setattr(groups, "is_solvable_gens", solvable_walk)
    monkeypatch.setattr(s4, "generates_nilpotent", nilpotent_test)
    monkeypatch.setattr(cli, "make_group", lambda spec: s4)
    spec = {"kind": "symmetric", "n": 4}
    catalog_file = tmp_path / "catalog.json"
    catalog_file.write_text(json.dumps([spec]))
    assert cli.main(["verify", "hierarchy", "--catalog", str(catalog_file)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert cli.main(["igg", "--group", json.dumps(spec), "--check"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert stored == {"abelian": 1, "cyclic": 1, "nilpotent": 1, "solvable": 1}
    assert walks == {"solvable": 1, "nilpotent": 1}


@pytest.mark.parametrize("group", catalog(), ids=_ids)
def test_nilpotent_pair_test_matches_the_closure_definition(group):
    verdicts = {}
    for g, h in itertools.combinations(range(group.order), 2):
        members = _close(group, (g, h))
        if members not in verdicts:
            verdicts[members] = _is_nilpotent(group, members)
        assert group.generates_nilpotent((g, h)) == verdicts[members], (g, h)
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
        assert s6.generates_nilpotent((g, h)) == expected, (s6.perm(g), s6.perm(h))
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
        group.generates_nilpotent((g, h))
    assert sizes and capped
    for limit, size in sizes:
        assert limit in sylow and size <= limit + 2, (limit, size)


def test_nilpotent_kind_scans_once_per_member(monkeypatch):
    """The nilpotent test closes no subgroup, so its scan tests each member
    of an orbit of cyclic subgroups and walks no centralizer orbits; the
    solvable test, which closes one, is made once per centralizer orbit."""
    group, calls = sg.alternating(5), []
    real = group.centralizer_orbits

    def recording(g, subgroups):
        calls.append(g)
        return real(g, subgroups)

    monkeypatch.setattr(group, "centralizer_orbits", recording)
    for pkind in constructions.PARTITIONS:
        constructions.quotient_supergraph(group, "nilpotent", pkind)
    assert not calls
    constructions.quotient_supergraph(group, "solvable", "equality")
    assert calls
