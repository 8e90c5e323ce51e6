"""Prime-cycle class adjacency, the K_n-minus-an-edge construction, the
intersection embeddings, and the strong product identity."""

import itertools
import json
import math
import random
import time

import pytest
from cycle_tools import all_cycles, canonical_cycle, conjugate, cycle_count, orbit_key

import supergraphs as sg
from supergraphs import perms
from supergraphs.graphs import Graph
from supergraphs.universality import (
    SCAN_KINDS,
    arithmetic_adjacency,
    class_adjacency,
    embed_graph,
    primes_first,
    step3_embedding,
    strong_product_identity_check,
)


def test_primes_first():
    assert primes_first(1) == [2]
    assert primes_first(3) == [2, 3, 5]
    assert primes_first(4) == [2, 3, 5, 7]
    assert primes_first(8) == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        primes_first(0)


def test_class_adjacency_known_pairs():
    assert class_adjacency(7, 2, 5, "commuting")
    assert not class_adjacency(7, 3, 5, "commuting")
    assert not class_adjacency(7, 3, 5, "solvable")
    assert not class_adjacency(7, 3, 5, "nilpotent")
    assert not class_adjacency(7, 3, 5, "enhanced")
    assert class_adjacency(7, 2, 3, "solvable")
    assert class_adjacency(8, 3, 5, "enhanced")


def test_class_adjacency_validation():
    with pytest.raises(ValueError):
        class_adjacency(12, 6, 9, "solvable")
    with pytest.raises(ValueError):
        class_adjacency(7, 3, 3, "commuting")
    with pytest.raises(ValueError):
        class_adjacency(7, 3, 5, "power")


def test_commuting_scan_equals_disjointness_criterion():
    """p + q <= N, which decides commuting scans, against an exhaustive
    search of the smaller class for a cycle commuting with a pinned one."""
    for p, q in itertools.combinations((2, 3, 5, 7), 2):
        for degree in range(max(p, q), 14):
            small, large = sorted((p, q), key=lambda n: cycle_count(degree, n))
            x = canonical_cycle(degree, large)
            exists = any(
                perms.compose(x, y) == perms.compose(y, x) for y in all_cycles(degree, small)
            )
            assert class_adjacency(degree, p, q, "commuting") == exists, (degree, p, q)
            assert arithmetic_adjacency(degree, p, q) == exists, (degree, p, q)


def test_commuting_and_enhanced_scans_are_arithmetic():
    """Up to 283 M candidate 11-cycles at (13, 11, 13); decided at once."""
    class_adjacency.cache_clear()
    start = time.perf_counter()
    assert class_adjacency(13, 11, 13, "commuting") is False
    assert class_adjacency(13, 11, 13, "enhanced") is False
    assert class_adjacency(13, 2, 11, "enhanced") is True
    assert time.perf_counter() - start < 0.5
    assert class_adjacency(5, 1, 5, "commuting") is True  # a 1-cycle is the identity
    assert class_adjacency(14, 11, 13, "commuting") is False
    with pytest.raises(ValueError):
        class_adjacency(13, 0, 5, "enhanced")
    with pytest.raises(ValueError):
        class_adjacency(13, 5, 14, "commuting")


def test_enhanced_implies_commuting_and_coincides_here():
    for p, q in itertools.combinations((2, 3, 5), 2):
        for degree in range(max(p, q), 9):
            enhanced = class_adjacency(degree, p, q, "enhanced")
            commuting = class_adjacency(degree, p, q, "commuting")
            assert not enhanced or commuting
            assert enhanced == commuting


def test_enhanced_needs_coprime_cycle_lengths():
    # disjoint 2- and 4-cycles commute but generate C2 x C4, which is not cyclic
    assert class_adjacency(6, 2, 4, "commuting") is True
    assert class_adjacency(6, 2, 4, "enhanced") is False
    assert class_adjacency(7, 3, 4, "enhanced") is True


def test_commuting_cycles_generate_a_cyclic_group_iff_coprime():
    """The arithmetic rule behind enhanced scans, against closures."""
    for degree in range(2, 7):
        for p, q in itertools.combinations(range(1, degree + 1), 2):
            x = canonical_cycle(degree, p)
            for y in all_cycles(degree, q):
                if perms.compose(x, y) != perms.compose(y, x):
                    continue
                members = _close((x, y), degree)
                cyclic = any(_order(m) == len(members) for m in members)
                assert cyclic == (math.gcd(p, q) == 1), (degree, x, y)


def _order(p):
    power, order = p, 1
    while power != tuple(range(len(p))):
        power, order = perms.compose(power, p), order + 1
    return order


def _close(gens, degree):
    members = {tuple(range(degree))}
    frontier = list(members)
    for a in frontier:
        for g in gens:
            b = tuple(map(g.__getitem__, a))
            if b not in members:
                members.add(b)
                frontier.append(b)
    return members


def _bracket(members, gens, degree):
    """[N, H] for a subgroup N (given by its members) normalized by
    H = <gens>: the subgroup generated by the H-conjugates of the
    commutators [n, t], n in N, t in gens."""
    sub_gens, sub = [], {tuple(range(degree))}
    pending = [
        perms.compose(perms.compose(perms.invert(n), perms.invert(t)), perms.compose(n, t))
        for n in members
        for t in gens
    ]
    while pending:
        c = pending.pop()
        if c in sub:
            continue
        sub_gens.append(c)
        sub = _close(sub_gens, degree)
        pending += [conjugate(c, t) for t in gens]
    return sub_gens, sub


def _series_flags(x, y):
    """(nilpotent, solvable) of <x, y>: its closed lower central and derived
    series, each run until it reaches e or stops shrinking."""
    degree = len(x)
    top = [x, y]
    group = _close(top, degree)
    flags = []
    for lower_central in (True, False):
        gens, members = top, group
        while len(members) > 1:
            next_gens, next_members = _bracket(members, top if lower_central else gens, degree)
            if len(next_members) == len(members):
                break
            gens, members = next_gens, next_members
        flags.append(len(members) == 1)
    return tuple(flags)


def _brute_adjacency(degree, p, q):
    """(nilpotent, solvable) class adjacency from the closure of every pair
    of the pinned cycle with a cycle of the smaller class; the series run
    once per distinct generated group."""
    if cycle_count(degree, p) > cycle_count(degree, q):
        p, q = q, p
    x = canonical_cycle(degree, q)
    flags_of = {}
    found = (False, False)
    for y in all_cycles(degree, p):
        members = frozenset(_close([x, y], degree))
        if members not in flags_of:
            flags_of[members] = _series_flags(x, y)
        found = tuple(f or g for f, g in zip(found, flags_of[members]))
        if all(found):
            break
    return found


# candidates generate A7 or S7 hundreds of times, or A8 or S8: seconds each
BRUTE_FORCE_SKIPPED = {(7, 5, 7), (8, 2, 7), (8, 3, 7), (8, 5, 7)}


def test_scan_matches_brute_force_closures():
    for p, q in itertools.combinations((2, 3, 5, 7), 2):
        for degree in range(q, 9):
            if (degree, p, q) in BRUTE_FORCE_SKIPPED:
                continue
            nilpotent, solvable = _brute_adjacency(degree, p, q)
            assert class_adjacency(degree, p, q, "nilpotent") == nilpotent, (degree, p, q)
            assert class_adjacency(degree, p, q, "solvable") == solvable, (degree, p, q)


def _orbit_scan(degree, p, q):
    """(nilpotent, solvable) class adjacency of a p- and a q-cycle class,
    p and q prime, by exhaustive scan: the smaller class against a pinned
    cycle x of the other length. A commuting pair generates an abelian group.
    Otherwise sympy classifies one candidate y per orbit of the normalizer of
    <x>: conjugating y by it conjugates <x, y>, as x goes to a generator of
    <x>. The normalizer is x's centralizer times the maps i -> k*i mod q on
    x's points, so a normalizer orbit's key is the least centralizer-orbit
    key over those maps."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    if cycle_count(degree, p) > cycle_count(degree, q):
        p, q = q, p
    x = canonical_cycle(degree, q)
    candidates = list(all_cycles(degree, p))
    if any(perms.compose(x, y) == perms.compose(y, x) for y in candidates):
        return True, True
    scalings = [tuple(k * i % q for i in range(q)) + tuple(range(q, degree)) for k in range(1, q)]
    keys = {orbit_key(q, y) for y in candidates}
    keys = {min(orbit_key(q, conjugate(key, m)) for m in scalings) for key in keys}
    solvable = False
    for key in sorted(keys):
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(x)), combinatorics.Permutation(list(key))]
        )
        if group.is_solvable:  # only a solvable group can be nilpotent
            solvable = True
            if group.is_nilpotent:
                return True, True
    return False, solvable


def test_prime_rule_matches_exhaustive_scan():
    """Jordan's and Burnside's rule against the normalizer-orbit scan, for
    every prime pair and both kinds at degrees 3-10."""
    for degree in range(3, 11):
        primes = [p for p in (2, 3, 5, 7) if p <= degree]
        for p, q in itertools.combinations(primes, 2):
            scanned = dict(zip(("nilpotent", "solvable"), _orbit_scan(degree, p, q)))
            for kind, adjacent in scanned.items():
                assert class_adjacency(degree, p, q, kind) == adjacent, (degree, p, q, kind)
                assert class_adjacency(degree, q, p, kind) == adjacent, (degree, q, p, kind)


def test_prime_pairs_are_decided_at_once_below_the_cap():
    """Pairs whose scans took from 12 s to over 180 s."""
    start = time.perf_counter()
    for degree, p, q in ((11, 5, 11), (12, 7, 11), (13, 7, 13), (13, 11, 13)):
        for kind in ("nilpotent", "solvable"):
            assert class_adjacency(degree, p, q, kind) is False
    assert class_adjacency(13, 2, 11, "nilpotent") is True
    assert time.perf_counter() - start < 0.5
    assert class_adjacency(14, 3, 5, "solvable") is True


def _centralizer_conjugator(x_len, y, key):
    """Some c commuting with x = (0 ... x_len-1) with key = y^c, or None.
    c carries y's cycle onto key's cycle and rotates x's points."""
    degree = len(y)
    x = canonical_cycle(degree, x_len)
    a = next(i for i in range(x_len) if y[i] != i)
    for r in range(x_len):
        image = {}
        u, v = a, (a + r) % x_len
        while u not in image:
            image[u] = v
            u, v = y[u], key[v]
        for i in range(x_len):
            image.setdefault(i, (i + r) % x_len)
        spare = iter(sorted(set(range(degree)) - set(image.values())))
        c = tuple(image[i] if i in image else next(spare) for i in range(degree))
        if (
            sorted(c) == list(range(degree))
            and perms.compose(c, x) == perms.compose(x, c)
            and conjugate(y, c) == key
        ):
            return c
    return None


def test_orbit_key_is_a_centralizer_invariant_conjugate():
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        degree = rng.randint(7, 11)
        x_len = rng.randint(2, degree)
        x = canonical_cycle(degree, x_len)
        y = perms.perm_from_cycles(
            degree, [rng.sample(range(degree), rng.randint(2, degree))], one_based=False
        )
        if perms.compose(x, y) == perms.compose(y, x):
            continue  # the scan never keys commuting candidates
        checked += 1
        r = rng.randrange(x_len)
        c = tuple((i + r) % x_len for i in range(x_len)) + tuple(
            rng.sample(range(x_len, degree), degree - x_len)
        )
        key = orbit_key(x_len, y)
        assert orbit_key(x_len, conjugate(y, c)) == key, (x_len, y, c)
        assert _centralizer_conjugator(x_len, y, key) is not None, (x_len, y)


def test_step3_with_nonedge_n3():
    for kind in ("commuting", "enhanced", "nilpotent", "solvable"):
        res = step3_embedding(3, kind, with_nonedge=True)
        assert res.degree == 7
        assert res.primes == (2, 3, 5)
        assert set(res.graph.edges()) == {(0, 1), (0, 2)}  # nonedge on (3,5)


def test_step3_without_nonedge_n3():
    res = step3_embedding(3, "solvable", with_nonedge=False)
    assert res.degree == 8
    assert res.graph.num_edges == 3  # K3


def test_step3_n4_commuting():
    res = step3_embedding(4, "commuting")
    assert res.degree == 11
    assert set(res.graph.edges()) == set(
        itertools.combinations(range(4), 2)
    ) - {(2, 3)}


def test_step3_degree_cap_reports_n():
    res = step3_embedding(5, "commuting")
    assert (res.degree, res.checked, res.graph.n) == (17, "arithmetic", 5)
    assert set(res.graph.edges()) == set(itertools.combinations(range(5), 2)) - {(3, 4)}
    with pytest.raises(ValueError):
        step3_embedding(2, "commuting")


def test_embed_p3():
    cert = embed_graph(Graph.path(3), "solvable")
    assert len(cert.factors) == 1
    assert cert.factors[0].degree == 7
    assert cert.factors[0].checked == "scan"
    assert cert.verified and not cert.arithmetic_only
    assert cert.final_graph == cert.target


def test_embed_c4():
    cert = embed_graph(Graph.cycle(4), "commuting")
    assert len(cert.factors) == 2
    assert all(f.degree == 11 for f in cert.factors)
    assert {f.nonedge for f in cert.factors} == {(0, 2), (1, 3)}
    for factor in cert.factors:
        i, j = factor.nonedge
        assert {factor.vertex_primes[i], factor.vertex_primes[j]} == {5, 7}
    assert cert.verified


def test_embed_complete_target_trivial_certificate():
    cert = embed_graph(Graph.complete(3), "commuting")
    assert len(cert.factors) == 1
    assert cert.factors[0].nonedge is None
    assert cert.factors[0].degree == 8
    assert cert.verified


def test_embed_validation():
    with pytest.raises(ValueError):
        embed_graph(Graph.complete(2), "commuting")
    with pytest.raises(ValueError):
        embed_graph(Graph.path(3), "power")


def test_embed_arithmetic_fallback():
    cert = embed_graph(Graph.cycle(5), "commuting")
    assert cert.arithmetic_only
    assert cert.verified
    assert all(f.checked == "arithmetic" for f in cert.factors)


def test_enhanced_embed_p3():
    cert = embed_graph(Graph.path(3), "enhanced")
    assert len(cert.factors) == 1
    assert cert.factors[0].primes == (2, 3, 5)
    assert cert.factors[0].degree == 7
    assert cert.factors[0].checked == "scan"
    assert cert.verified


def test_enhanced_embed_two_nonedges():
    target = Graph("abcd", [(0, 1), (0, 2), (0, 3), (1, 2)])  # nonedges (1,3),(2,3)
    cert = embed_graph(target, "enhanced")
    assert [f.primes for f in cert.factors] == [(2, 3, 5, 7), (11, 13, 17, 19)]
    assert [f.degree for f in cert.factors] == [11, 35]
    assert [f.checked for f in cert.factors] == ["scan", "arithmetic"]
    assert cert.verified and cert.arithmetic_only


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    labels = [str(i) for i in range(n)]
    for mask in range(2 ** len(pairs)):
        yield Graph(labels, [e for i, e in enumerate(pairs) if mask >> i & 1])


def test_embed_every_three_vertex_graph_every_kind():
    """Connected or not, every 3-vertex target embeds with a verified
    certificate, for all three subgroup kinds and the enhanced variant."""
    for target in _all_graphs(3):
        for kind in ("commuting", "nilpotent", "solvable"):
            cert = embed_graph(target, kind)
            assert cert.verified, (target.edges(), kind)
            assert cert.final_graph == target
        cert = embed_graph(target, "enhanced")
        assert cert.verified, target.edges()


def test_embed_every_four_vertex_graph_commuting():
    """All 64 labelled 4-vertex targets, including the disconnected ones."""
    for target in _all_graphs(4):
        cert = embed_graph(target, "commuting")
        assert cert.verified, target.edges()
        assert cert.final_graph == target
        assert len(cert.factors) == max(1, 6 - target.num_edges)


def test_embed_every_graph_on_five_and_six_vertices_every_kind():
    """The 34 and 156 graphs on 5 and 6 vertices, up to isomorphism, from
    networkx's atlas, and K_3 to K_12, each embedded in under a second:
    factors above degree 13 are decided by theorem like those below it."""
    nx = pytest.importorskip("networkx")
    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() in (5, 6)]
    assert len(atlas) == 34 + 156
    targets = [Graph([str(v) for v in range(g.number_of_nodes())], g.edges) for g in atlas]
    targets += [Graph.complete(n) for n in range(3, 13)]
    for target in targets:
        for kind in SCAN_KINDS:
            start = time.perf_counter()
            cert = embed_graph(target, kind)
            assert time.perf_counter() - start < 1.0, (target.n, target.edges(), kind)
            assert cert.verified, (target.n, target.edges(), kind)
            assert cert.final_graph == target


def test_prime_rule_holds_beyond_degree_thirteen():
    primes = primes_first(12)  # up to 37
    for degree in range(14, 41):
        for p, q in itertools.permutations([p for p in primes if p <= degree], 2):
            for kind in SCAN_KINDS:
                assert class_adjacency(degree, p, q, kind) == (p + q <= degree), (degree, p, q)


def test_composite_nilpotent_and_solvable_lengths_raise():
    """Lengths not both prime have no rule; their scans took 30 s and more."""
    for degree, p, q in ((5, 2, 4), (6, 4, 5), (12, 6, 9), (13, 9, 6), (40, 4, 9)):
        for kind in ("nilpotent", "solvable"):
            with pytest.raises(ValueError, match="prime cycle lengths only"):
                class_adjacency(degree, p, q, kind)
        assert class_adjacency(degree, p, q, "commuting") == (p + q <= degree)


def test_one_cycles_are_adjacent_for_every_kind():
    for degree in range(2, 41):
        for q in range(2, degree + 1):
            for kind in SCAN_KINDS:
                assert class_adjacency(degree, 1, q, kind), (degree, q, kind)
                assert class_adjacency(degree, q, 1, kind), (degree, q, kind)


def test_certificate_json_roundtrip():
    cert = embed_graph(Graph.path(3), "commuting")
    data = json.loads(json.dumps(cert.to_json_dict()))
    assert data["kind"] == "commuting"
    assert data["verified"] is True
    assert Graph.from_json_dict(data["final"]) == cert.final_graph
    matrix = data["factors"][0]["adjacency_matrix"]
    assert matrix == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]  # K3 minus the (0,2) nonedge


@pytest.mark.parametrize(
    "left,right,kind",
    [
        ("s3", "s3", "commuting"),
        ("c2", "c3", "commuting"),
        ("c2", "c3", "nilpotent"),
        ("c2", "c3", "solvable"),
        ("s3", "q8", "nilpotent"),
        ("d8", "q8", "solvable"),
    ],
)
def test_strong_product_identity(left, right, kind):
    groups = {
        "c2": sg.cyclic(2),
        "c3": sg.cyclic(3),
        "s3": sg.symmetric(3),
        "d8": sg.dihedral(4),
        "q8": sg.quaternion(2),
    }
    assert strong_product_identity_check(groups[left], groups[right], kind)


def test_strong_product_identity_s3_s3_shape():
    s3 = sg.symmetric(3)
    left = sg.build_compressed(s3, "commuting")
    boxed = sg.strong_product(left, left)
    combined = sg.build_compressed(sg.product(s3, s3), "commuting")
    ok, _ = sg.is_isomorphic(combined, boxed)
    assert ok
