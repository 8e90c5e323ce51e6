"""Operation domains of the benchmark workloads and their seeded sampler.

Every workload draws its operations from a finite domain listed here. An
operation is a user-facing entry point: a `supergraphs` CLI invocation run
in-process through `cli.main(argv)`, or a direct `universality.class_adjacency`
scan (the CLI reaches scans only through `embed`). CLI arguments written as
`@name` stand for input files that set-up writes before the first operation.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    call: str  # "cli" or "scan"
    args: tuple

    @property
    def key(self) -> str:
        return json.dumps([self.call, list(self.args)], separators=(",", ":"))

    @property
    def files(self) -> tuple[str, ...]:
        return tuple(a[1:] for a in self.args if isinstance(a, str) and a.startswith("@"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str
    bypasses: str
    # (operation, cost measured at the seed commit): advertised range the
    # domain leaves out, kept visible instead of dropped silently
    out_of_reach: tuple[tuple[str, str], ...]
    ops: tuple[Op, ...]


def _spec(raw: dict) -> str:
    return json.dumps(raw, separators=(",", ":"), sort_keys=True)


GROUPS = {
    "S4": {"kind": "symmetric", "n": 4},
    "S5": {"kind": "symmetric", "n": 5},
    "S6": {"kind": "symmetric", "n": 6},
    "A5": {"kind": "alternating", "n": 5},
    "D40": {"kind": "dihedral", "n": 20},
    "D200": {"kind": "dihedral", "n": 100},
    "Q48": {"kind": "quaternion", "n": 12},
    "S3xC4": {"kind": "product", "of": [{"kind": "symmetric", "n": 3}, {"kind": "cyclic", "n": 4}]},
}

# embedding targets on 3 and 4 vertices
TARGETS = {
    "K3": (3, ((0, 1), (0, 2), (1, 2))),
    "P3": (3, ((0, 1), (1, 2))),
    "K2+K1": (3, ((0, 1),)),
    "E3": (3, ()),
    "K4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "P4": (4, ((0, 1), (1, 2), (2, 3))),
    "K13": (4, ((0, 1), (0, 2), (0, 3))),
    "paw": (4, ((0, 1), (0, 2), (1, 2), (2, 3))),
    "diamond": (4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))),
    "2K2": (4, ((0, 1), (2, 3))),
    "E4": (4, ()),
}


def input_files() -> dict[str, str]:
    """Contents of every `@name` input: one-group catalogs and targets."""
    files = {f"catalog-{g}": json.dumps([spec]) for g, spec in GROUPS.items()}
    for name, (n, edges) in TARGETS.items():
        graph = {"labels": [f"v{i}" for i in range(n)], "edges": [list(e) for e in edges]}
        files[f"target-{name}"] = json.dumps(graph)
    return files


# --- element-graphs ---

KINDS = ("power", "enhanced", "commuting", "nilpotent", "solvable")
FORMS = (
    "equality", "conjugacy", "order", "compressed",
    "equality/quotient", "conjugacy/quotient", "order/quotient",
)
# S6 element-level nilpotent and solvable graphs need the 258,840-pair
# closure sweep (323 s, 882 MB at the seed), so only class-level forms run.
S6_CLASS_FORMS = ("conjugacy", "compressed", "conjugacy/quotient")
# (group, forms per kind): every kind on every group, with the form rotating
# along the ladder so each group meets a spread of partitions and outputs.
ELEMENT_LADDER = (
    ("S4", 3), ("A5", 3), ("S3xC4", 3), ("D40", 3), ("Q48", 3),
    ("S5", 2), ("D200", 2), ("S6", 1),
)
# one-group catalogs: 15 supergraphs (hierarchy) or the containment checks
# (igg) sharing one group's caches, versus the single-shot graph operations
HIERARCHY_GROUPS = ("S4", "A5", "S3xC4", "D40", "Q48", "S5")
IGG_GROUPS = ("S4", "A5", "S3xC4", "D40", "Q48", "D200")


def _graph_op(group: str, kind: str, form: str) -> Op:
    argv = ["graph", "--group", _spec(GROUPS[group]), "--kind", kind]
    if form == "compressed":
        argv.append("--compressed")
    else:
        partition, _, quotient = form.partition("/")
        argv += ["--partition", partition]
        if quotient:
            argv.append("--quotient")
    return Op("cli", tuple(argv))


def element_graph_ops() -> tuple[Op, ...]:
    ops = []
    for gi, (group, count) in enumerate(ELEMENT_LADDER):
        for ki, kind in enumerate(KINDS):
            forms = S6_CLASS_FORMS if group == "S6" and kind in ("nilpotent", "solvable") else FORMS
            start = 3 * gi + ki
            for f in range(count):
                ops.append(_graph_op(group, kind, forms[(start + f) % len(forms)]))
    ops += [Op("cli", ("verify", "hierarchy", "--catalog", f"@catalog-{g}")) for g in HIERARCHY_GROUPS]
    ops += [Op("cli", ("igg", "--group", _spec(GROUPS[g]), "--check")) for g in IGG_GROUPS]
    return tuple(ops)


# --- wiener-distances ---

WIENER_GROUPS = tuple(
    [{"kind": "dihedral", "n": n} for n in (20, 50, 100, 200)]
    + [{"kind": "quaternion", "n": n} for n in (12, 25, 50, 100)]
    + [GROUPS["S5"], GROUPS["S6"]]
)
# S6 runs the power kind on equality and conjugacy only, and the order-400
# groups skip the order partition: together 2-7 s each, over a pass budget
WIENER_SKIPPED = {
    ("symmetric", 6): {("commuting", "equality"), ("commuting", "conjugacy"),
                       ("commuting", "order"), ("power", "order")},
    ("dihedral", 200): {("commuting", "order"), ("power", "order")},
    ("quaternion", 100): {("commuting", "order"), ("power", "order")},
}
FAMILY_SUBRANGES = {
    "escom-d": tuple(f"{n}..{n + 1}" for n in range(3, 20, 2)),
    "cscom-d": tuple(f"{n}..{n + 1}" for n in range(3, 20, 2)),
    "escom-q": ("2..3", "4..5", "6..7", "8..9", "10..11", "12"),
    "cscom-q": ("2..3", "4..5", "6..7", "8..9", "10..11", "12"),
}


def wiener_ops() -> tuple[Op, ...]:
    ops = []
    for spec in WIENER_GROUPS:
        skipped = WIENER_SKIPPED.get((spec["kind"], spec["n"]), ())
        for kind, partition in itertools.product(("commuting", "power"), ("equality", "conjugacy", "order")):
            if (kind, partition) not in skipped:
                ops.append(Op("cli", ("wiener", "--group", _spec(spec), "--kind", kind,
                                      "--partition", partition)))
    for suite in ("structure", "wiener"):
        for family, ranges in FAMILY_SUBRANGES.items():
            for r in ranges:
                ops.append(Op("cli", ("verify", suite, "--family", family, "--n", r)))
    return tuple(ops)


# --- prime-cycle ---

SCAN_KINDS = ("commuting", "nilpotent", "solvable", "enhanced")
SCAN_DEGREES = {7: (2, 3, 5, 7), 11: (2, 3, 5, 7, 11), 12: (2, 3, 5, 7, 11)}
# (degree, p, q, kinds) left out of the domain; costs are cold, at the seed
SCAN_EXCLUDED = {
    (11, 7, 11): ("nilpotent", "solvable"),
    (12, 2, 3): ("nilpotent",),
    (12, 5, 7): ("nilpotent", "solvable"),
    (12, 5, 11): ("nilpotent", "solvable"),
    (12, 7, 11): ("commuting", "nilpotent", "solvable", "enhanced"),
    (11, 5, 11): ("nilpotent", "solvable"),
    (12, 3, 5): ("nilpotent", "solvable"),
    (7, 5, 7): ("nilpotent",),
    (11, 2, 3): ("nilpotent",),
    (11, 3, 5): ("nilpotent", "solvable"),
    (11, 5, 7): ("nilpotent",),
    (12, 2, 5): ("nilpotent", "solvable"),
}
EMBED_OPS = (
    [(t, k) for t in ("K3", "P3", "K2+K1", "E3") for k in ("commuting", "nilpotent", "solvable", "enhanced")]
    + [(t, k) for t in ("K4", "C4", "P4", "K13", "paw", "diamond", "2K2", "E4") for k in ("commuting", "enhanced")]
    + [("C4", "solvable")]
)


def prime_cycle_ops() -> tuple[Op, ...]:
    ops = []
    for degree, primes in SCAN_DEGREES.items():
        for p, q in itertools.combinations(primes, 2):
            for kind in SCAN_KINDS:
                if kind not in SCAN_EXCLUDED.get((degree, p, q), ()):
                    ops.append(Op("scan", (degree, p, q, kind)))
    ops += [Op("cli", ("embed", "--graph", f"@target-{t}", "--kind", k)) for t, k in EMBED_OPS]
    return tuple(ops)


# Costs below are cold single runs at the seed commit on a 2-core machine
# whose speed drifts by up to about 30% from minute to minute. "Cannot finish"
# means the operation alone takes 10 s or more, over a quarter of a 36 s run,
# or hits the 60 s hang guard; "over the pass budget" means it is faster, but a
# whole pass over the domain must fit in one run with room for repetitions,
# which caps a domain at roughly 20 s of operations.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="element-graphs",
            why=(
                "Element-level supergraphs over the ladder S4, S5, S6, A5, D40, D200, Q48 and "
                "S3xC4, all five kinds, every partition, compressed and quotient forms, plus "
                "one-group hierarchy and containment suites: pair closures and subgroup "
                "classification dominate, so orbit-reduced pair enumeration shows here. "
                "Single-shot graphs and the cache-sharing suites (15 graphs on one group) "
                "meet the same group caches in different ways."
            ),
            loads="groups (pair closures, subgroup flags, series), perms.compose via "
                  "PermutationGroup.mul, constructions (pair tests, edge expansion), generation",
            bypasses="universality scans and perms.conjugate; graphs distances are a small share",
            out_of_reach=(
                ("graph S6 nilpotent|solvable on the equality and order partitions and their "
                 "quotients", "cannot finish in a run: base graph 323 s and 882 MB; each form over 12 s"),
                ("verify hierarchy and igg --check on S6",
                 "cannot finish in a run: they build the S6 element-level graphs above"),
                ("igg --check on S5, verify hierarchy on D200", "2.0 s and 2.4 s; over the pass budget"),
            ),
            ops=element_graph_ops(),
        ),
        Workload(
            name="wiener-distances",
            why=(
                "Wiener index by BFS against the quotient formula on dihedral and quaternion "
                "groups up to order 400 and on S5, S6, plus family structure and Wiener "
                "suites: BFS distances and edge expansion dominate while adjacency only "
                "tests commutation, so pair-closure work is bypassed."
            ),
            loads="graphs (BFS, Graph construction, isomorphism), constructions (partitions, "
                  "class adjacency, edge expansion), families, cli JSON rendering",
            bypasses="groups pair closures and series, universality and perms.conjugate",
            out_of_reach=(
                ("wiener S6 commuting on every partition, S6 power on the order partition",
                 "1.6-4.3 s and 4.8 s; over the pass budget"),
                ("wiener D400 and Q400 on the order partition", "1.3-2.4 s each; over the pass budget"),
            ),
            ops=wiener_ops(),
        ),
        Workload(
            name="prime-cycle",
            why=(
                "Prime-pair class scans at degrees 7, 11 and 12 over the four scan kinds and "
                "embeddings of 3- and 4-vertex targets: centralizer minima over "
                "perms.conjugate and Schreier-Sims dominate, so centralizer-orbit scans show here."
            ),
            loads="universality (scans, canonical conjugates, certified flags), perms.conjugate, "
                  "perms.perm_group_order, groups.closure_set and series on raw permutations",
            bypasses="the indexed FiniteGroup kernel, constructions and graphs distances",
            out_of_reach=(
                ("class_adjacency(11,7,11|12,7,11, nilpotent|solvable)", "cannot finish in a run: over 60 s"),
                ("class_adjacency(12,2,3,nilpotent)", "cannot finish in a run: 35 s, 173 MB"),
                ("class_adjacency(12,5,7|12,5,11, nilpotent|solvable)", "cannot finish in a run: 16-29 s"),
                ("embed K4 nilpotent|solvable (degree 12)", "cannot finish in a run: over 60 s and 40 s (182 MB)"),
                ("class_adjacency(11,5,11|12,3,5, nilpotent|solvable)", "cannot finish in a run: 10-13.5 s"),
                ("embed 4-vertex targets nilpotent, and solvable except C4",
                 "5.6-9.1 s and 3.0-5.4 s each; over the pass budget"),
                ("class_adjacency nilpotent (7,5,7), (11,2,3), (11,5,7); both kinds (11,3,5), "
                 "(12,2,5); every kind (12,7,11)", "1.0-3.3 s each; over the pass budget"),
            ),
            ops=prime_cycle_ops(),
        ),
    )
}


def schedule(workload: Workload, seed: int):
    """Endless closed-loop schedule of passes over the whole domain, each pass
    in a fresh seeded order. The same seed always gives the same sequence."""
    rng = random.Random(seed)
    while True:
        order = list(workload.ops)
        rng.shuffle(order)
        yield from order
