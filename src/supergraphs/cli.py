"""Command-line interface.

Subcommands: graph, verify, embed, igg, scan, wiener. Reports are JSON-first
(stdout or --out), with an optional human-readable table on --table; JSON
output is byte-stable across runs, so timing goes to stderr only.

Exit codes: 0 pass, 1 verification failure, 2 usage or input error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

from . import families, generation, universality
from .constructions import (
    KINDS,
    PARTITIONS,
    build_compressed,
    build_supergraph,
    expand_quotient,
    hierarchy_report,
    normalize_partition,
    quotient_supergraph,
)
from .graphs import Graph, wiener_index, wiener_supergraph_formula
from .groups import InvalidGroupSpec, SizeCapError, make_group

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DEFAULT_CATALOG = [
    {"kind": "cyclic", "n": 6},
    {"kind": "symmetric", "n": 3},
    {"kind": "dihedral", "n": 4},
    {"kind": "quaternion", "n": 2},
    {"kind": "dihedral", "n": 5},
    {"kind": "alternating", "n": 4},
    {"kind": "symmetric", "n": 4},
    {"kind": "product", "of": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 4}]},
]

CONTAINMENT_CATALOG = DEFAULT_CATALOG + [{"kind": "alternating", "n": 5}]

PRODUCT_CATALOG = [
    {"kind": "cyclic", "n": 2},
    {"kind": "cyclic", "n": 3},
    {"kind": "symmetric", "n": 3},
    {"kind": "dihedral", "n": 4},
    {"kind": "quaternion", "n": 2},
]

FAMILY_RANGES = {
    "escom-d": (3, 20),
    "cscom-d": (3, 20),
    "escom-q": (2, 12),
    "cscom-q": (2, 12),
}


def _render(value, pad: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, with
    pad before every line but the first. Dict keys are strings.

    Lists of ints, of strings and of int pairs (a graph's edges) are each
    one join, so no per-item encoder call is made for them; `type(x) is int`
    keeps bools, which json writes as true/false, off those paths.
    """
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_render(value[k], inner)}" for k in sorted(value)]
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    types = set(map(type, value))
    if types == {int}:
        body = sep.join(map(str, value))
    elif types == {str}:
        body = sep.join(map(json.dumps, value))
    elif (
        types <= {list, tuple}
        and set(map(len, value)) == {2}
        and set(map(type, itertools.chain.from_iterable(value))) == {int}
    ):
        pair = f"[\n{inner}  %d,\n{inner}  %d\n{inner}]"
        body = sep.join([pair] * len(value)) % tuple(itertools.chain.from_iterable(value))
    else:
        body = sep.join([_render(v, inner) for v in value])
    return "[\n" + inner + body + "\n" + pad + "]"


def _dump_json(data, out: str | None) -> None:
    """Write a report to out, or to stdout without one.

    Every indented report goes through here. The bytes are exactly those of
    json.dumps(data, indent=2, sort_keys=True) + "\n", which the tests check
    on every command; _render writes them directly because json's indenting
    encoder is pure Python and cost more than building a dense graph.
    """
    text = _render(data, "") + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_spec(raw: str) -> dict:
    """An inline JSON object, or the path of a file holding one."""
    if raw.lstrip().startswith("{"):
        return json.loads(raw)
    return json.loads(Path(raw).read_text())


def _parse_range(raw: str) -> range:
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        ns = range(int(lo), int(hi) + 1)
        if not ns:
            raise UsageError(f"empty range {raw!r}: the lower end exceeds the upper")
        return ns
    value = int(raw)
    return range(value, value + 1)


def _render_table(rows: list[dict]) -> str:
    if not rows:
        return "(no records)\n"
    columns = list(dict.fromkeys(key for row in rows for key in row))
    table = [columns] + [[str(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _emit(report: dict, args, rows: list[dict]) -> None:
    _dump_json(report, args.out)
    if getattr(args, "table", False):
        sys.stderr.write(_render_table(rows))


def cmd_graph(args) -> int:
    group = make_group(_load_spec(args.group))
    if args.compressed and args.quotient:
        raise UsageError("--compressed and --quotient are mutually exclusive")
    if args.compressed:
        graph = build_compressed(group, args.kind)
        payload = graph.to_json_dict()
    elif args.quotient:
        decomposition = quotient_supergraph(group, args.kind, args.partition)
        graph = decomposition.delta
        payload = graph.to_json_dict()
        if args.json:
            sidecar = Path(args.json).with_suffix(".sizes.json")
            sidecar.write_text(json.dumps(list(decomposition.sizes)) + "\n")
        else:
            payload = {"delta": payload, "sizes": list(decomposition.sizes)}
    else:
        graph = build_supergraph(group, args.kind, args.partition)
        payload = graph.to_json_dict()
    if args.json or not args.dot:
        _dump_json(payload, args.json)
    if args.dot:
        Path(args.dot).write_text(graph.to_dot())
    return EXIT_OK


def cmd_verify(args) -> int:
    start = time.perf_counter()
    records: list[dict] = []
    if args.suite in ("structure", "wiener"):
        fams = [args.family] if args.family else list(FAMILY_RANGES)
        for family in fams:
            ns = (
                _parse_range(args.n)
                if args.n
                else range(FAMILY_RANGES[family][0], FAMILY_RANGES[family][1] + 1)
            )
            report = families.verify_family(family, ns)
            for record in report.records:
                record = dict(record)
                record["family"] = family
                if args.suite == "wiener":
                    record.pop("isomorphic", None)
                records.append(record)
    elif args.suite == "hierarchy":
        for spec in _catalog_specs(args):
            rep = hierarchy_report(make_group(spec))
            records.append(rep.to_json_dict())
    elif args.suite == "strong-product":
        specs = _catalog_specs(args, PRODUCT_CATALOG)
        groups = [make_group(s) for s in specs]
        for i, left in enumerate(groups):
            for right in groups[i:]:
                for kind in ("commuting", "nilpotent", "solvable"):
                    holds = universality.strong_product_identity_check(left, right, kind)
                    records.append(
                        {
                            "left": left.label,
                            "right": right.label,
                            "kind": kind,
                            "passed": holds,
                        }
                    )
    elif args.suite == "containment":
        for spec in _catalog_specs(args, CONTAINMENT_CATALOG):
            group = make_group(spec)
            for rep in generation.containment_checks(group):
                record = rep.to_json_dict()
                record["passed"] = rep.contained
                records.append(record)
    else:
        raise UsageError(f"unknown suite {args.suite!r}")
    verdict = all(r.get("passed", True) for r in records)
    elapsed = time.perf_counter() - start
    report = {
        "command": ["verify", args.suite],
        "records": records,
        "verdict": "pass" if verdict else "fail",
    }
    _emit(report, args, records)
    sys.stderr.write(f"# verify {args.suite}: {elapsed:.2f}s\n")
    return EXIT_OK if verdict else EXIT_VERIFICATION


def _catalog_specs(args, default=None) -> list[dict]:
    if getattr(args, "catalog", None) and args.catalog != "default":
        specs = json.loads(Path(args.catalog).read_text())
        if not isinstance(specs, list):
            raise UsageError(f"catalog {args.catalog} must hold a JSON list of group specs")
        return specs
    return default if default is not None else DEFAULT_CATALOG


def cmd_embed(args) -> int:
    target = Graph.from_json_dict(json.loads(Path(args.graph).read_text()))
    certificate = universality.embed_graph(target, args.kind, arithmetic_fallback=True)
    # enhanced factors pass the scan cap by design; a downgrade means not
    # even the first factor could be scanned
    downgraded = all(f.checked == "arithmetic" for f in certificate.factors)
    payload = certificate.to_json_dict()
    payload["downgraded"] = downgraded
    _dump_json(payload, args.out)
    if not certificate.verified:
        return EXIT_VERIFICATION
    return EXIT_CAP if downgraded else EXIT_OK


def cmd_igg(args) -> int:
    group = make_group(_load_spec(args.group))
    if args.check:
        reports = generation.containment_checks(group)
        records = [r.to_json_dict() for r in reports]
        verdict = all(r.contained for r in reports)
        payload = {
            "command": ["igg", group.label],
            "records": records,
            "verdict": "pass" if verdict else "fail",
        }
        _emit(payload, args, records)
        return EXIT_OK if verdict else EXIT_VERIFICATION
    graph = generation.invariable_generating_graph(group)
    _dump_json(graph.to_json_dict(), args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    report = generation.equality_scan(_catalog_specs(args, CONTAINMENT_CATALOG))
    _emit(report.to_json_dict(), args, report.records)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_wiener(args) -> int:
    group = make_group(_load_spec(args.group))
    decomposition = quotient_supergraph(group, args.kind, args.partition)
    graph = expand_quotient(group, decomposition)
    w_bfs = wiener_index(graph)
    w_formula = wiener_supergraph_formula(decomposition.delta, decomposition.sizes)
    record = {
        "group": group.label,
        "kind": args.kind,
        "partition": normalize_partition(args.partition),
        "vertices": graph.n,
        "edges": graph.num_edges,
        "wiener_bfs": w_bfs,
        "wiener_formula": w_formula,
        "passed": w_bfs == w_formula,
    }
    _emit({"command": ["wiener"], "records": [record],
           "verdict": "pass" if record["passed"] else "fail"}, args, [record])
    return EXIT_OK if record["passed"] else EXIT_VERIFICATION


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supergraphs",
        description="Graphs on finite groups: construction, verification, embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="build a supergraph and export JSON/DOT")
    p_graph.add_argument("--group", required=True, help="group spec JSON (inline or path)")
    p_graph.add_argument("--kind", required=True, choices=KINDS)
    p_graph.add_argument("--partition", default="equality",
                         choices=PARTITIONS + ("same_order",))
    p_graph.add_argument("--compressed", action="store_true",
                         help="class-compressed conjugacy graph")
    p_graph.add_argument("--quotient", action="store_true",
                         help="quotient graph plus class-size sidecar")
    p_graph.add_argument("--json", help="write graph JSON here")
    p_graph.add_argument("--dot", help="write DOT here")
    p_graph.set_defaults(func=cmd_graph)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "suite",
        choices=["structure", "wiener", "hierarchy", "strong-product", "containment"],
    )
    p_verify.add_argument("--family", choices=list(FAMILY_RANGES))
    p_verify.add_argument("--n", help="range like 3..20")
    p_verify.add_argument("--catalog", default="default",
                          help="'default' or a JSON file of group specs")
    p_verify.add_argument("--out", help="write the report JSON here")
    p_verify.add_argument("--table", action="store_true",
                          help="also render a table to stderr")
    p_verify.set_defaults(func=cmd_verify)

    p_embed = sub.add_parser("embed", help="prime-cycle embedding certificate")
    p_embed.add_argument("--graph", required=True, help="target graph JSON file")
    p_embed.add_argument("--kind", required=True,
                         choices=["commuting", "nilpotent", "solvable", "enhanced"])
    p_embed.add_argument("--out", help="write the certificate JSON here")
    p_embed.set_defaults(func=cmd_embed)

    p_igg = sub.add_parser("igg", help="invariable generating graph / containments")
    p_igg.add_argument("--group", required=True)
    p_igg.add_argument("--check", action="store_true",
                       help="run containment checks instead of emitting the graph")
    p_igg.add_argument("--out")
    p_igg.add_argument("--table", action="store_true")
    p_igg.set_defaults(func=cmd_igg)

    p_scan = sub.add_parser("scan", help="equality scan over a catalog")
    p_scan.add_argument("--catalog", default="default")
    p_scan.add_argument("--out")
    p_scan.add_argument("--table", action="store_true")
    p_scan.set_defaults(func=cmd_scan)

    p_wiener = sub.add_parser("wiener", help="Wiener index, brute force vs formula")
    p_wiener.add_argument("--group", required=True)
    p_wiener.add_argument("--kind", required=True, choices=KINDS)
    p_wiener.add_argument("--partition", default="equality",
                          choices=PARTITIONS + ("same_order",))
    p_wiener.add_argument("--out")
    p_wiener.add_argument("--table", action="store_true")
    p_wiener.set_defaults(func=cmd_wiener)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except (InvalidGroupSpec, UsageError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
