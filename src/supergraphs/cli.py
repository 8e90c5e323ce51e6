"""Command-line interface.

Subcommands: graph, verify, embed, igg, scan, wiener. Reports are JSON-first
(stdout or --out), with an optional human-readable table on --table; JSON
output is byte-stable across runs, so timing goes to stderr only.

Exit codes: 0 pass, 1 verification failure, 2 usage or input error,
3 resource cap exceeded.

Command lines are read from one table, COMMANDS, which also writes the `-h`
help, the way argparse read them; a bad one is a UsageError like any other
input error. argparse is not used: building its seven parsers, with their
gettext lookups, took about 7 ms of every command in a forked process (as
the benchmark and in-process callers run them), more than the median
benchmark operation's own work; parsing from the table takes 0.25 ms.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

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
from .groups import SizeCapError, make_group

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


def _render(value, pad: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, with
    pad before every line but the first. Dict keys are strings, and a Graph
    stands for its to_json_dict().

    A Graph is written from its adjacency masks, one Graph.edge_rows() row
    per vertex: each row is one str.join of vertex-number strings, with the
    row's fixed head and close as separator, and the whole object is one
    final join. No list of edge pairs is made. The reader maps each
    distinct neighbourhood to its strings once and hands a twin the slice
    above it, so a supergraph, whose complete factors are twin classes,
    costs one join per vertex and one decoding per class of delta.

    An int is written by str() and a string by encode_basestring_ascii,
    the function json.dumps calls on a str, with none of json.dumps's
    per-call set-up: alone, as a dict key, or joined once for a whole list
    of either. Matching on the exact types keeps bools, which json writes
    as true/false, off those paths. Only floats and other types still call
    json.dumps.
    """
    leaf = type(value)
    if leaf is int:
        return str(value)
    if leaf is str:
        return encode_basestring_ascii(value)
    if leaf is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, Graph):
        return _render_graph(value, pad)
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_render(value[k], inner)}"
                 for k in sorted(value)]
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    types = set(map(type, value))
    if types == {int}:
        body = sep.join(map(str, value))
    elif types == {str}:
        body = sep.join(map(encode_basestring_ascii, value))
    else:
        body = sep.join([_render(v, inner) for v in value])
    return "[\n" + inner + body + "\n" + pad + "]"


def _render_graph(graph: Graph, pad: str) -> str:
    """_render of graph.to_json_dict(), read from the masks row by row."""
    inner = pad + "  "
    row = inner + "  "  # an edge's brackets
    cell = row + "  "  # an edge's two vertex numbers
    close = "\n" + row + "]"
    parts = ["{\n", inner, '"edges": [']
    for u, tails in graph.edge_rows(list(map(str, range(graph.n)))):
        head = f",\n{row}[\n{cell}{u},\n{cell}"
        parts += [head, (close + head).join(tails), close]
    if len(parts) > 3:
        parts[3] = parts[3][1:]  # no comma before the first edge
        parts.append("\n" + inner)
    parts += ["],\n", inner, '"labels": ', _render(list(graph.labels), inner), "\n", pad, "}"]
    return "".join(parts)


def _dump_json(data, out: str | None) -> None:
    """Write a report to out, or to stdout without one.

    Every indented report goes through here, graphs included: `graph` and
    `igg` hand over the Graph itself, alone or as the "delta" of a quotient,
    and _render writes it row by row from its masks. The bytes are exactly
    those of json.dumps(data, indent=2, sort_keys=True) + "\n", a Graph read
    as its to_json_dict(), which the tests check on every command. _render
    writes them directly because json's indenting encoder is pure Python and
    cost more than building a dense graph.
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
    """--n as N or A..B, both ends included."""
    try:
        lo, hi = map(int, raw.split("..", 1)) if ".." in raw else (int(raw),) * 2
    except ValueError:
        raise UsageError(f"argument --n: expected N or A..B with integers, got {raw!r}") from None
    if lo > hi:
        raise UsageError(f"empty range {raw!r}: the lower end exceeds the upper")
    return range(lo, hi + 1)


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


def _emit_verdict(args, command: list, records: list[dict], passed: bool) -> int:
    """Write a checking command's records and verdict; exit 1 unless it passed."""
    verdict = "pass" if passed else "fail"
    _emit({"command": command, "records": records, "verdict": verdict}, args, records)
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_graph(args) -> int:
    if args.compressed and args.quotient:
        raise UsageError("--compressed and --quotient are mutually exclusive")
    if args.compressed and "partition" in args.given and args.partition != "conjugacy":
        raise UsageError(f"--partition {args.partition} does not apply to --compressed, "
                         "whose vertices are the conjugacy classes")
    group = make_group(_load_spec(args.group))
    if args.compressed:
        graph = build_compressed(group, args.kind)
    elif args.quotient:
        decomposition = quotient_supergraph(group, args.kind, args.partition)
        graph = decomposition.delta
    else:
        graph = build_supergraph(group, args.kind, args.partition)
    payload = graph
    if args.quotient and args.json:
        sidecar = Path(args.json).with_suffix(".sizes.json")
        sidecar.write_text(json.dumps(list(decomposition.sizes)) + "\n")
    elif args.quotient:
        payload = {"delta": graph, "sizes": list(decomposition.sizes)}
    if args.json or not args.dot:
        _dump_json(payload, args.json)
    if args.dot:
        Path(args.dot).write_text(graph.to_dot())
    return EXIT_OK


def cmd_verify(args) -> int:
    start = time.perf_counter()
    records: list[dict] = []
    if args.suite in ("structure", "wiener"):
        for family in [args.family] if args.family else families.FAMILIES:
            least, most = families.FAMILY_RANGES[family]
            ns = _parse_range(args.n) if args.n else range(least, most + 1)
            report = families.verify_family(family, ns)
            for record in report.records:
                record = dict(record)
                record["family"] = family
                if args.suite == "wiener":
                    # the wiener verdict reads only the three values it prints
                    del record["isomorphic"]
                    record["passed"] = (
                        record["wiener_bfs"] == record["wiener_formula"] == record["wiener_closed"]
                    )
                records.append(record)
    elif args.suite == "hierarchy":
        for spec in _catalog_specs(args):
            records.append(hierarchy_report(make_group(spec)).to_json_dict())
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
    elapsed = time.perf_counter() - start
    passed = all(r.get("passed", True) for r in records)
    code = _emit_verdict(args, ["verify", args.suite], records, passed)
    sys.stderr.write(f"# verify {args.suite}: {elapsed:.2f}s\n")
    return code


def _catalog_specs(args, default=None) -> list[dict]:
    if args.catalog != "default":
        specs = json.loads(Path(args.catalog).read_text())
        if not isinstance(specs, list):
            raise UsageError(f"catalog {args.catalog} must hold a JSON list of group specs")
        return specs
    return default if default is not None else DEFAULT_CATALOG


def cmd_embed(args) -> int:
    target = Graph.from_json_dict(json.loads(Path(args.graph).read_text()))
    certificate = universality.embed_graph(target, args.kind)
    # every factor above universality.DEGREE_CAP; recorded outputs hold the
    # flag and its exit 3
    downgraded = all(f.checked == "arithmetic" for f in certificate.factors)
    payload = certificate.to_json_dict()
    payload["downgraded"] = downgraded
    _dump_json(payload, args.out)
    if not certificate.verified:
        return EXIT_VERIFICATION
    return EXIT_CAP if downgraded else EXIT_OK


def cmd_igg(args) -> int:
    if args.table and not args.check:
        raise UsageError("--table needs --check: the graph has no table")
    group = make_group(_load_spec(args.group))
    if args.check:
        reports = generation.containment_checks(group)
        records = [r.to_json_dict() for r in reports]
        return _emit_verdict(args, ["igg", group.label], records, all(r.contained for r in reports))
    graph = generation.invariable_generating_graph(group)
    _dump_json(graph, args.out)
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
    return _emit_verdict(args, ["wiener"], [record], record["passed"])


class UsageError(ValueError):
    pass


class Option:
    """A command's `--name` option. A default of False makes it a flag, which
    takes no value; any other option takes one value, from choices if any."""

    def __init__(self, help: str, choices: tuple = (), required=False, default=None):
        self.help, self.choices, self.required, self.default = help, choices, required, default


class Command:
    """A command's handler, help line, positional (name, choices) or None,
    and options by name."""

    def __init__(self, handler, help: str, positional: tuple | None, options: dict):
        self.handler, self.help, self.positional, self.options = handler, help, positional, options


SUITES = ("structure", "wiener", "hierarchy", "strong-product", "containment")
GROUP = Option("group spec JSON (inline or path)", required=True)
KIND = Option("supergraph kind", KINDS, required=True)
PARTITION = Option("element partition", PARTITIONS + ("same_order",), default="equality")
CATALOG = Option("'default' or a JSON file of group specs", default="default")
OUT = Option("write the JSON here instead of stdout")
TABLE = Option("also render a table to stderr", default=False)
HELP = Option("show this help and exit", default=False)

COMMANDS = {
    "graph": Command(cmd_graph, "build a supergraph and export JSON/DOT", None, {
        "group": GROUP, "kind": KIND, "partition": PARTITION,
        "compressed": Option("class-compressed conjugacy graph", default=False),
        "quotient": Option("quotient graph plus class-size sidecar", default=False),
        "json": Option("write graph JSON here"), "dot": Option("write DOT here")}),
    "verify": Command(cmd_verify, "run a verification suite", ("suite", SUITES), {
        "family": Option("family of the structure and wiener suites", families.FAMILIES),
        "n": Option("range like 3..20"), "catalog": CATALOG, "out": OUT, "table": TABLE}),
    "embed": Command(cmd_embed, "prime-cycle embedding certificate", None, {
        "graph": Option("target graph JSON file", required=True),
        "kind": Option("supergraph kind", ("commuting", "nilpotent", "solvable", "enhanced"),
                       required=True),
        "out": OUT}),
    "igg": Command(cmd_igg, "invariable generating graph / containments", None, {
        "group": GROUP, "out": OUT, "table": TABLE,
        "check": Option("run containment checks instead of emitting the graph", default=False)}),
    "scan": Command(cmd_scan, "equality scan over a catalog", None,
                    {"catalog": CATALOG, "out": OUT, "table": TABLE}),
    "wiener": Command(
        cmd_wiener, "Wiener index, element-graph distance sum vs quotient formula", None,
        {"group": GROUP, "kind": KIND, "partition": PARTITION, "out": OUT, "table": TABLE}),
}


def _option(token: str, options: dict) -> tuple[str | None, str | None]:
    """The option a token names, as argparse reads it, and the value given
    after `=`: an exact name or a unique prefix after `--`, or help for `-h`
    (`-hh` is two of them). The name is "" for an unknown option or `--`, and
    None for a positional: no leading dash, a lone `-`, a negative number, or
    a space in it."""
    if token[:2] == "-h":
        return "help", None if re.fullmatch(r"-h(=?h+)?", token) else token[2:]
    head, eq, value = token.partition("=")
    names = [head[2:]] if head[2:] in options else [n for n in options if n.startswith(head[2:])]
    if token[:2] == "--" and token != "--" and names:
        if len(names) > 1:
            raise UsageError(f"ambiguous option: {head} could match --{', --'.join(names)}")
        return names[0], value if eq else None
    positional = (token[:1] != "-" or token == "-" or " " in token
                  or re.match(r"-\d+$|-\d*\.\d+$", token))
    return None if positional else "", None


def _choice(name: str, value: str, choices: tuple) -> str:
    if choices and value not in choices:
        raise UsageError(f"argument {name}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    return value


def parse_args(argv) -> SimpleNamespace:
    """The handler (`func`) and arguments of a command line, read by the
    COMMANDS table, with the names given on it in `given`; `-h` selects the
    help handler. Bad argv raises UsageError.

    Every token after the first `--` is a positional, and that `--` must
    touch the command's positional, as argparse has it."""
    options, values, pending, unknown = {"help": HELP}, {}, [("command", tuple(COMMANDS))], []
    tokens, command, after_dashes, positional_last = iter(argv), None, False, False
    for token in tokens:
        if token == "--" and not after_dashes:
            after_dashes = True
            if not (command and (pending or positional_last)):
                unknown.append(token)
            continue
        name, value = (None, None) if after_dashes else _option(token, options)
        positional_last = name is None and bool(pending) and command is not None
        if name is None and pending:
            key, choices = pending.pop()
            values[key] = _choice(key, token, choices)
            if key == "command":
                command = COMMANDS[token]
                options.update(command.options)
                pending = [command.positional] if command.positional else []
        elif not name:
            unknown.append(token)
        elif options[name].default is False:
            if value is not None:
                raise UsageError(f"argument --{name}: ignored explicit argument {value!r}")
            if name == "help":
                for token in itertools.takewhile("--".__ne__, tokens):
                    _option(token, options)  # argparse reads them all before acting
                return SimpleNamespace(command=values.get("command"), func=_help)
            values[name] = True
        else:
            if value is None:
                value = next(tokens, "--")  # at the end, as after it: no value
                if _option(value, options)[0] is not None:
                    raise UsageError(f"argument --{name}: expected one argument")
            if not value:
                raise UsageError(f"argument --{name}: expected a non-empty value")
            values[name] = _choice(f"--{name}", value, options[name].choices)
    missing = [key for key, _ in pending]
    missing += [f"--{n}" for n, o in options.items() if o.required and n not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    defaults = {n: o.default for n, o in command.options.items()}
    return SimpleNamespace(func=command.handler, given=frozenset(values), **(defaults | values))


def _help(args) -> int:
    """Write the usage of args.command, or of the whole CLI, to stdout."""
    rows = [("-h, --help", HELP.help)]
    if args.command is None:
        usage = "{%s} [options]" % ",".join(COMMANDS)
        about = "Graphs on finite groups: construction, verification, embeddings."
        rows += [(name, command.help) for name, command in COMMANDS.items()]
    else:
        command = COMMANDS[args.command]
        about, positional = command.help, command.positional
        suite = " {%s}" % ",".join(positional[1]) if positional else ""
        usage = f"{args.command}{suite} [options]"
        for name, opt in command.options.items():
            value = "{%s}" % ",".join(opt.choices) if opt.choices else name.upper()
            value = "" if opt.default is False else " " + value
            note = (" (required)" if opt.required
                    else f" (default: {opt.default})" if opt.default else "")
            rows.append((f"--{name}{value}", opt.help + note))
    sys.stdout.write(f"usage: supergraphs {usage}\n\n{about}\n\n"
                     + "".join(f"  {left}\n      {right}\n" for left, right in rows))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except SizeCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    # InvalidGroupSpec, UsageError and json.JSONDecodeError are ValueErrors
    except (ValueError, KeyError, OSError, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
