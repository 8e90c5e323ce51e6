"""Closed-form edge counts of power graphs, an oracle that uses no distance
kernel: m(P(C_n)) = 1/2 sum over d | n of phi(d)(2d - phi(d) - 1), and the
dihedral and generalized quaternion groups add n and 5n to the count of
their cyclic subgroup of index 2. A power graph has diameter at most 2, so
its Wiener index is n(n - 1) - m."""

import json

import pytest

import supergraphs as sg
from supergraphs.cli import main
from supergraphs.constructions import build_supergraph


def totient(n: int) -> int:
    """Euler's phi by trial division."""
    out, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    return out - out // rest if rest > 1 else out


def cyclic_power_edges(n: int) -> int:
    """Each element of order d is joined to the d - 1 other members of its
    cyclic subgroup, and to every element whose subgroup holds its own; a
    pair of generators of one subgroup is counted from both ends."""
    twice = sum(
        totient(d) * (2 * d - totient(d) - 1) for d in range(1, n + 1) if n % d == 0
    )
    return twice // 2


def dihedral_power_edges(n: int) -> int:
    """D_2n: the rotations form C_n, each reflection is joined to the identity only."""
    return cyclic_power_edges(n) + n


def quaternion_power_edges(n: int) -> int:
    """Q_4n: the cyclic subgroup C_2n, and 2n elements of order 4 outside it,
    each joined to its inverse (n pairs), the identity and the central involution."""
    return cyclic_power_edges(2 * n) + 5 * n


# family: (constructor, closed form, least n)
FAMILIES = {
    "cyclic": (sg.cyclic, cyclic_power_edges, 1),
    "dihedral": (sg.dihedral, dihedral_power_edges, 1),
    "quaternion": (sg.quaternion, quaternion_power_edges, 2),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_power_graph_edge_counts_match_the_closed_forms(family):
    make, count, least = FAMILIES[family]
    for n in range(least, 61):
        assert build_supergraph(make(n), "power", "equality").num_edges == count(n), n


@pytest.mark.parametrize("family, n", [("dihedral", 200), ("quaternion", 100)],
                         ids=["D400", "Q400"])
def test_power_graph_wiener_index_is_twice_the_pairs_less_the_edges(capsys, family, n):
    make, count, _ = FAMILIES[family]
    order = make(n).order
    spec = json.dumps({"kind": family, "n": n})
    code = main(["wiener", "--group", spec, "--kind", "power", "--partition", "equality"])
    (record,) = json.loads(capsys.readouterr().out)["records"]
    assert code == 0 and record["vertices"] == order
    assert record["wiener_bfs"] == order * (order - 1) - count(n)
