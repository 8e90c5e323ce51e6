"""Command-line surface: subcommands, outputs, exit codes, determinism."""

import collections
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from supergraphs import cli, families
from supergraphs.cli import COMMANDS, main
from supergraphs.constructions import build_supergraph
from supergraphs.graphs import Graph
from supergraphs.groups import make_group

D3 = '{"kind":"dihedral","n":3}'
S3 = '{"kind":"symmetric","n":3}'
D12 = '{"kind":"dihedral","n":6}'
S4 = '{"kind":"symmetric","n":4}'
D8 = '{"kind":"dihedral","n":4}'
S6 = '{"kind":"symmetric","n":6}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_command_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "graph", "--group", D3, "--kind", "commuting", "--partition", "conjugacy"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["labels"]) == 6
    assert len(data["edges"]) == 9


def test_graph_command_files(tmp_path, capsys):
    out_json = tmp_path / "g.json"
    out_dot = tmp_path / "g.dot"
    code, _, _ = run_cli(
        capsys,
        "graph", "--group", S3, "--kind", "commuting", "--compressed",
        "--json", str(out_json), "--dot", str(out_dot),
    )
    assert code == 0
    data = json.loads(out_json.read_text())
    assert len(data["labels"]) == 3
    assert sorted(data["edges"]) == [[0, 1], [0, 2]]
    dot = out_dot.read_text()
    assert dot.startswith("graph G {") and "v0 -- v1;" in dot


def test_graph_quotient_sidecar(tmp_path, capsys):
    out_json = tmp_path / "delta.json"
    code, _, _ = run_cli(
        capsys,
        "graph", "--group", D3, "--kind", "commuting", "--partition", "conjugacy",
        "--quotient", "--json", str(out_json),
    )
    assert code == 0
    sizes = json.loads((tmp_path / "delta.sizes.json").read_text())
    assert sizes == [1, 2, 3]
    delta = json.loads(out_json.read_text())
    assert len(delta["labels"]) == 3


def test_graph_quotient_inline_payload(capsys):
    code, out, _ = run_cli(
        capsys,
        "graph", "--group", D3, "--kind", "commuting", "--partition", "conjugacy",
        "--quotient",
    )
    assert code == 0
    data = json.loads(out)
    assert data["sizes"] == [1, 2, 3]


def test_graph_rejects_compressed_plus_quotient(capsys):
    code, _, err = run_cli(
        capsys,
        "graph", "--group", D3, "--kind", "commuting", "--compressed", "--quotient",
    )
    assert code == 2 and "exclusive" in err


def test_invalid_spec_exit_2(capsys):
    code, _, err = run_cli(capsys, "graph", "--group", '{"kind":"bogus"}', "--kind", "power")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "spec",
    [
        '{"kind":"cyclic","n":2.5}',
        '{"kind":"cyclic","n":true}',
        '{"kind":"permgens","degree":-1,"gens":[]}',
    ],
)
def test_malformed_integer_fields_exit_2(capsys, spec):
    code, out, err = run_cli(capsys, "graph", "--group", spec, "--kind", "power")
    assert code == 2 and not out
    assert "error" in err


@pytest.mark.parametrize(
    "spec, error",
    [
        ('{"kind":"product","of":[{"a":1},{"kind":"cyclic","n":2}]}',
         "of must list exactly two group specs"),
        ('{"kind":"product","of":[3,{"kind":"cyclic","n":2}]}',
         "of must list exactly two group specs"),
        ('{"kind":["cyclic"],"n":3}', "unknown group kind ['cyclic']"),
        ('{"kind":{"a":1}}', "unknown group kind {'a': 1}"),
    ],
    ids=["factor-without-kind", "factor-not-an-object", "list-kind", "object-kind"],
)
def test_malformed_spec_names_its_fault(capsys, spec, error):
    """A product factor with no kind is an `of` error, and a kind that is
    not a string is unknown, not an unhashable-type error."""
    code, out, err = run_cli(capsys, "graph", "--group", spec, "--kind", "commuting")
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_non_associative_table_exit_2(capsys):
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    spec = json.dumps({"kind": "table", "rows": loop})
    code, out, err = run_cli(capsys, "graph", "--group", spec, "--kind", "commuting")
    assert code == 2 and not out
    assert "not associative" in err


def test_graph_long_inline_spec_and_spec_file(tmp_path, capsys):
    rows = [[(i + j) % 12 for j in range(12)] for i in range(12)]
    spec = json.dumps({"kind": "table", "rows": rows})
    assert len(spec) > 255  # longer than a file name may be
    code, out, _ = run_cli(capsys, "graph", "--group", spec, "--kind", "commuting")
    assert code == 0
    assert len(json.loads(out)["labels"]) == 12
    path = tmp_path / "c12.json"
    path.write_text(spec)
    code, from_file, _ = run_cli(capsys, "graph", "--group", str(path), "--kind", "commuting")
    assert code == 0 and from_file == out


def test_cap_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "graph", "--group", '{"kind":"cyclic","n":30000}', "--kind", "power"
    )
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "kind,n,order",
    [("symmetric", 2000, "2000!"), ("alternating", 2000, "2000!/2"),
     ("symmetric", 2_000_000, "2000000!")],
)
def test_huge_symmetric_and_alternating_degrees_exit_3_at_once(capsys, kind, n, order):
    """The cap is met by a running product: no n! is formed or printed."""
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "graph", "--group", json.dumps({"kind": kind, "n": n}), "--kind", "power"
    )
    assert code == 3 and not out
    assert f"order {order} exceeds the element cap" in err
    assert "set SUPERGRAPH_CAP" in err
    assert time.perf_counter() - start < 1.0


def test_huge_permgens_degree_exits_3_at_once(capsys):
    """The degree is held to the element cap before any degree-length
    permutation is built."""
    start = time.perf_counter()
    spec = json.dumps({"kind": "permgens", "degree": 10**9, "gens": []})
    code, out, err = run_cli(
        capsys, "graph", "--group", spec, "--kind", "commuting", "--compressed"
    )
    assert code == 3 and not out
    assert "degree 1000000000 exceeds the element cap" in err
    assert "set SUPERGRAPH_CAP" in err
    assert time.perf_counter() - start < 1.0


def test_over_cap_permgens_closure_exits_3_at_once(capsys):
    """S60 from a transposition and a 60-cycle: the closure stops once it
    holds more elements than the cap, and the order is never computed."""
    start = time.perf_counter()
    spec = json.dumps({"kind": "permgens", "degree": 60, "gens": [[[1, 2]], [list(range(1, 61))]]})
    code, out, err = run_cli(capsys, "graph", "--group", spec, "--kind", "power")
    assert code == 3 and not out
    assert "exceeds the element cap" in err
    assert "SUPERGRAPH_CAP" in err
    assert time.perf_counter() - start < 1.0


def test_verify_wiener_small_range(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "wiener", "--family", "cscom-d", "--n", "3..8"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert len(report["records"]) == 6
    assert all("isomorphic" not in r for r in report["records"])


def test_verify_structure_small_range(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "structure", "--family", "escom-q", "--n", "2..5"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("suite", ["structure", "wiener"])
def test_verify_empty_range_exit_2(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--family", "escom-d", "--n", "10..3")
    assert code == 2 and not out
    assert "empty range" in err


@pytest.mark.parametrize("suite", ["structure", "wiener"])
@pytest.mark.parametrize("family,n,order", [("escom-d", 33, 66), ("cscom-q", 17, 68)])
def test_verify_runs_past_64_vertices(capsys, suite, family, n, order):
    """D66 and Q68: the family suites have no vertex cap."""
    code, out, _ = run_cli(capsys, "verify", suite, "--family", family, "--n", str(n))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert [(r["n"], r["vertices"], r["passed"]) for r in report["records"]] == [(n, order, True)]


def test_verify_structure_exits_1_on_a_wrong_expression(capsys, monkeypatch):
    """A planted defect: the n + 1 expression for every n."""
    wrong = families.structure_expr
    monkeypatch.setattr(families, "structure_expr", lambda family, n: wrong(family, n + 1))
    code, out, _ = run_cli(capsys, "verify", "structure", "--family", "cscom-d", "--n", "5..6")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert [(r["isomorphic"], r["passed"]) for r in report["records"]] == [(False, False)] * 2


@pytest.mark.parametrize("family, ns", [("escom-d", "5"), ("cscom-q", "2..4")])
def test_verify_wiener_passes_on_a_wrong_expression(capsys, monkeypatch, family, ns):
    """The same planted defect leaves every Wiener value right: `verify wiener`
    judges only the three values it prints and exits 0, while `verify
    structure` on the same parameters exits 1."""
    wrong = families.structure_expr
    monkeypatch.setattr(families, "structure_expr", lambda family, n: wrong(family, n + 1))
    code, out, _ = run_cli(capsys, "verify", "wiener", "--family", family, "--n", ns)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["records"] and all(r["passed"] for r in report["records"])
    assert all("isomorphic" not in r for r in report["records"])
    code, out, _ = run_cli(capsys, "verify", "structure", "--family", family, "--n", ns)
    assert code == 1 and json.loads(out)["verdict"] == "fail"


@pytest.mark.parametrize("cap", ["abc", "-5", "0", "1.5"])
def test_bad_element_cap_exit_2(capsys, monkeypatch, cap):
    monkeypatch.setenv("SUPERGRAPH_CAP", cap)
    code, out, err = run_cli(capsys, "graph", "--group", D3, "--kind", "commuting")
    assert code == 2 and not out
    assert "SUPERGRAPH_CAP must be a positive integer" in err


def test_verify_hierarchy_custom_catalog(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps([{"kind": "dihedral", "n": 3}, {"kind": "cyclic", "n": 5}]))
    code, out, _ = run_cli(capsys, "verify", "hierarchy", "--catalog", str(cat))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert len(report["records"]) == 2


def test_verify_containment_custom_catalog(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps([{"kind": "symmetric", "n": 3}]))
    code, out, _ = run_cli(capsys, "verify", "containment", "--catalog", str(cat))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_table_rendering(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps([{"kind": "symmetric", "n": 3}]))
    code, out, err = run_cli(
        capsys, "verify", "containment", "--catalog", str(cat), "--table"
    )
    assert code == 0
    assert "group" in err and "kind" in err  # table header on stderr


def test_embed_p3(tmp_path, capsys):
    target = tmp_path / "p3.json"
    target.write_text(json.dumps({"labels": ["0", "1", "2"], "edges": [[0, 1], [1, 2]]}))
    code, out, _ = run_cli(capsys, "embed", "--graph", str(target), "--kind", "solvable")
    assert code == 0
    cert = json.loads(out)
    assert cert["verified"] is True
    assert cert["downgraded"] is False
    assert len(cert["factors"]) == 1


def test_embed_large_target_downgrades_exit_3(tmp_path, capsys):
    c5 = {"labels": [str(i) for i in range(5)],
          "edges": [[i, (i + 1) % 5] for i in range(4)] + [[0, 4]]}
    target = tmp_path / "c5.json"
    target.write_text(json.dumps(c5))
    code, out, _ = run_cli(capsys, "embed", "--graph", str(target), "--kind", "commuting")
    assert code == 3
    cert = json.loads(out)
    assert cert["downgraded"] is True
    assert cert["arithmetic_only"] is True
    assert cert["verified"] is True


def test_embed_enhanced(tmp_path, capsys):
    target = tmp_path / "p3.json"
    target.write_text(json.dumps({"labels": ["0", "1", "2"], "edges": [[0, 1], [1, 2]]}))
    code, out, _ = run_cli(capsys, "embed", "--graph", str(target), "--kind", "enhanced")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_embed_enhanced_large_target_downgrades(tmp_path, capsys):
    p5 = {"labels": [str(i) for i in range(5)],
          "edges": [[i, i + 1] for i in range(4)]}
    target = tmp_path / "p5.json"
    target.write_text(json.dumps(p5))
    code, out, _ = run_cli(capsys, "embed", "--graph", str(target), "--kind", "enhanced")
    assert code == 3
    cert = json.loads(out)
    assert cert["downgraded"] is True and cert["verified"] is True


def test_embed_over_the_entry_cap_exits_3_at_once(tmp_path, capsys):
    """45 isolated vertices: 990 factor matrices of 45 x 45 entries, over
    twice the cap of 1,000,000."""
    target = tmp_path / "e45.json"
    target.write_text(json.dumps({"labels": [str(i) for i in range(45)], "edges": []}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "embed", "--graph", str(target), "--kind", "commuting")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "target",
    [
        {"labels": ["a", "b", "c"], "edges": [[0, 1.0]]},
        {"labels": ["a", "b", "c"], "edges": [["0", "1"]]},
        [1, 2],
    ],
)
def test_embed_malformed_graph_exit_2(tmp_path, capsys, target):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(target))
    code, out, err = run_cli(capsys, "embed", "--graph", str(path), "--kind", "solvable")
    assert code == 2 and not out
    assert "error" in err


def test_verify_strong_product_default(capsys):
    code, out, _ = run_cli(capsys, "verify", "strong-product")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert len(report["records"]) == 45  # 15 unordered pairs x 3 kinds


def test_igg_graph_output(capsys):
    code, out, _ = run_cli(capsys, "igg", "--group", S3)
    assert code == 0
    assert len(json.loads(out)["edges"]) == 6


def test_igg_check(capsys):
    code, out, _ = run_cli(capsys, "igg", "--group", S3, "--check")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_scan(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps([{"kind": "symmetric", "n": 3}, {"kind": "cyclic", "n": 6}]))
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "scan", "--catalog", str(cat), "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert {"group": "S3", "kind": "abelian"} in report["equality_groups"]


def test_scan_skips_symmetric_group_beyond_cap(tmp_path, capsys):
    """S8 is skipped like any group over the cap, not fatal to the catalog."""
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps([{"kind": "symmetric", "n": 8}, {"kind": "symmetric", "n": 3}]))
    code, out, _ = run_cli(capsys, "scan", "--catalog", str(cat))
    assert code == 0
    records = json.loads(out)["records"]
    assert "8! exceeds the element cap" in records[0]["skipped"]
    assert {r.get("group") for r in records[1:]} == {"S3"}


@pytest.mark.parametrize(
    "argv", [("verify", "hierarchy"), ("verify", "strong-product"),
             ("verify", "containment"), ("scan",)],
)
def test_catalog_that_is_not_a_list_exit_2(tmp_path, capsys, argv):
    cat = tmp_path / "cat.json"
    cat.write_text("5")
    code, out, err = run_cli(capsys, *argv, "--catalog", str(cat))
    assert code == 2 and not out
    assert "must hold a JSON list of group specs" in err


def test_wiener_command(capsys):
    code, out, _ = run_cli(
        capsys, "wiener", "--group", D3, "--kind", "commuting", "--partition", "conjugacy"
    )
    assert code == 0
    record = json.loads(out)["records"][0]
    assert record["wiener_bfs"] == record["wiener_formula"] == 21


def test_wiener_accepts_same_order_alias(capsys):
    code, out, _ = run_cli(
        capsys, "wiener", "--group", D3, "--kind", "enhanced", "--partition", "same_order"
    )
    assert code == 0
    record = json.loads(out)["records"][0]
    assert record["partition"] == "order"
    assert record["passed"]


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ["graph", "--group", D3, "--kind", "commuting", "--partition", "conjugacy"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "supergraphs.cli", "graph", "--group", D3, "--kind", "commuting"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["labels"][0] == "e"


def test_usage_error_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "supergraphs.cli", "graph"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


# a product spec nested 600 levels deep, and a file of 2,000 nested "[":
# both nest JSON deeper than the decoder's recursion limit
DEEP_SPEC = '{"kind":"cyclic","n":1}'
for _ in range(600):
    DEEP_SPEC = f'{{"kind":"product","of":[{DEEP_SPEC},{{"kind":"cyclic","n":1}}]}}'
BAD_ARGV = {
    "no command": [],
    "unknown command": ["frobnicate"],
    "unknown option": ["wiener", "--group", D8, "--kind", "power", "--bogus"],
    "ambiguous option": ["wiener", "--=x", "--group", D8, "--kind", "power"],
    "missing required option": ["graph", "--kind", "power"],
    "value outside choices": ["wiener", "--group", D8, "--kind", "bogus"],
    "option without value": ["wiener", "--group", D8, "--kind"],
    "option before an option": ["wiener", "--group", "--kind", "power"],
    "flag given a value": ["igg", "--group", D8, "--check=yes"],
    "help given a value": ["graph", "--help=yes"],
    "missing positional": ["verify", "--table"],
    "bad positional": ["verify", "bogus"],
    "extra positional": ["verify", "hierarchy", "extra"],
    "positional without a slot": ["wiener", "stray", "--group", D8, "--kind", "power"],
    "stray --": ["wiener", "--group", D8, "--kind", "power", "--"],
    "igg table without check": ["igg", "--group", D8, "--table"],
    "compressed with a partition": ["graph", "--group", D8, "--kind", "power", "--compressed",
                                    "--partition", "equality"],
    "empty group": ["graph", "--group", "", "--kind", "power"],
    "empty group after =": ["wiener", "--group=", "--kind", "power"],
    "empty graph": ["embed", "--graph", "", "--kind", "solvable"],
    "empty catalog": ["verify", "hierarchy", "--catalog", ""],
    "empty catalog after =": ["verify", "hierarchy", "--catalog="],
    "deeply nested group": ["graph", "--group", DEEP_SPEC, "--kind", "power"],
    "deeply nested catalog": ["verify", "hierarchy", "--catalog", "DEEP"],
    "deeply nested scan catalog": ["scan", "--catalog", "DEEP"],
    "deeply nested graph": ["embed", "--graph", "DEEP", "--kind", "solvable"],
}
# the option or options each case above must name in its error line
NAMED = {
    "igg table without check": ("--table", "--check"),
    "compressed with a partition": ("--partition", "--compressed"),
    "empty group": ("--group",),
    "empty group after =": ("--group",),
    "empty graph": ("--graph",),
    "empty catalog": ("--catalog",),
    "empty catalog after =": ("--catalog",),
}


@pytest.mark.parametrize("case", BAD_ARGV)
def test_bad_argv_returns_2_with_one_error_line(tmp_path, capsys, case):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 2000)
    code, out, err = run_cli(capsys, *[str(deep) if a == "DEEP" else a for a in BAD_ARGV[case]])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(name in err for name in NAMED.get(case, ()))


WIENER_D8 = ["wiener", "--group", D8, "--kind", "power", "--partition", "conjugacy"]
HIERARCHY = ["verify", "hierarchy", "--catalog", "CATALOG"]
EQUIVALENT_ARGV = {
    "equals form": (WIENER_D8, ["wiener", f"--group={D8}", "--kind=power",
                                "--partition=conjugacy"]),
    "unique prefixes": (WIENER_D8, ["wiener", "--gr", D8, "--k", "power", "--part", "conjugacy"]),
    "repeated option": (WIENER_D8, WIENER_D8[:3] + ["--kind", "commuting"] + WIENER_D8[3:]),
    "reordered options": (WIENER_D8, ["wiener", "--partition", "conjugacy", "--kind", "power",
                                      "--group", D8]),
    "default partition": (WIENER_D8[:5], WIENER_D8[:5] + ["--partition", "equality"]),
    "flag prefix": (["igg", "--group", D8, "--check"], ["igg", "--ch", "--group", D8]),
    "compressed on conjugacy": (["graph", "--group", D8, "--kind", "power", "--compressed"],
                                ["graph", "--group", D8, "--kind", "power", "--compressed",
                                 "--partition", "conjugacy"]),
    "moved positional": (HIERARCHY, ["verify", "--catalog", "CATALOG", "hierarchy"]),
    "positional after --": (HIERARCHY, ["verify", "--catalog", "CATALOG", "--", "hierarchy"]),
}


@pytest.mark.parametrize("canonical, variant", EQUIVALENT_ARGV.values(), ids=EQUIVALENT_ARGV)
def test_equivalent_argv_give_identical_bytes(tmp_path, capsys, canonical, variant):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([json.loads(D8)]))
    outputs = []
    for argv in (canonical, variant):
        code, out, _ = run_cli(capsys, *[str(catalog) if a == "CATALOG" else a for a in argv])
        assert code == 0 and out
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [["-h"], ["graph", "--help"], ["verify", "-h"],
                                  ["wiener", "--group", D8, "--he"]])
def test_help_names_every_option_of_its_command(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and out.startswith("usage: supergraphs ")
    command = argv[0] if argv[0] in COMMANDS else None
    names = list(COMMANDS) if command is None else [f"--{n}" for n in COMMANDS[command].options]
    assert all(name in out for name in names)


def test_cli_imports_no_argparse_gettext_or_locale():
    """Parsing costs no import: argparse and its gettext and locale took
    milliseconds per command."""
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import supergraphs\n"
        "from supergraphs import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['wiener', '--group', {D8!r}, '--kind', 'power'])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout == "0 []\n", proc.stderr


REPORT_COMMANDS = {
    "graph": ["graph", "--group", S4, "--kind", "commuting", "--partition", "conjugacy"],
    "graph-quotient": ["graph", "--group", S4, "--kind", "nilpotent", "--partition", "order",
                       "--quotient"],
    "graph-compressed": ["graph", "--group", S4, "--kind", "power", "--compressed"],
    "igg": ["igg", "--group", D12],
    "igg-check": ["igg", "--group", D12, "--check"],
    "verify-hierarchy": ["verify", "hierarchy", "--catalog", "CATALOG"],
    "embed": ["embed", "--graph", "TARGET", "--kind", "nilpotent"],
    "scan": ["scan", "--catalog", "CATALOG"],
    "wiener": ["wiener", "--group", D12, "--kind", "enhanced", "--partition", "conjugacy"],
}


def assert_json_dumps_bytes(text: str) -> None:
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", REPORT_COMMANDS)
def test_command_output_is_json_dumps_bytes(name, tmp_path, capsys):
    """stdout and the --json/--out file each hold json.dumps's bytes."""
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([json.loads(S4), json.loads(D12)]))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"labels": ["a", "b", "c"], "edges": [[0, 1], [1, 2]]}))
    files = {"CATALOG": str(catalog), "TARGET": str(target)}
    argv = [files.get(a, a) for a in REPORT_COMMANDS[name]]
    code = main(argv)
    stdout = capsys.readouterr().out
    assert_json_dumps_bytes(stdout)
    out = tmp_path / "out.json"
    assert main(argv + ["--json" if argv[0] == "graph" else "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert_json_dumps_bytes(out.read_text())
    if name != "graph-quotient":  # its stdout also carries the class sizes
        assert out.read_text() == stdout


def test_graph_reports_are_written_from_the_masks(tmp_path, monkeypatch, capsys):
    """graph and igg write their graphs row by row from the masks.

    No graph report lists the edges as pairs: neither Graph.edges nor
    Graph.to_json_dict is called. The S6 commuting graph on the order
    partition has 118,440 edges and 4.0 MB of JSON; written from
    to_json_dict()'s list of edge pairs, its traced peak was 5.7 times the
    text (22.9 MB), and row by row it is about 2.0 times."""
    calls = collections.Counter()
    for name in ("edges", "to_json_dict"):
        def spy(self, _name=name, _original=getattr(Graph, name)):
            calls[_name] += 1
            return _original(self)
        monkeypatch.setattr(Graph, name, spy)
    graph = ["graph", "--group", S4, "--kind", "commuting", "--partition", "conjugacy"]
    files = [str(tmp_path / name) for name in ("g.json", "g.dot")]
    for argv in (graph, graph + ["--quotient"], graph + ["--quotient", "--json", files[0]],
                 graph + ["--json", files[0], "--dot", files[1]],
                 ["graph", "--group", S4, "--kind", "power", "--compressed"],
                 ["igg", "--group", D12], ["igg", "--group", D12, "--out", files[0]]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert not calls

    s6 = make_group(json.loads(S6))
    s6_graph = build_supergraph(s6, "commuting", "order")
    monkeypatch.setattr(cli, "make_group", lambda spec: s6)
    monkeypatch.setattr(cli, "build_supergraph", lambda *args: s6_graph)
    out = tmp_path / "s6.json"
    tracemalloc.start()
    try:
        code = main(["graph", "--group", S6, "--kind", "commuting", "--partition", "order",
                     "--json", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and not calls
    text = out.read_text()
    assert s6_graph.num_edges == 118440
    assert peak < 2.5 * len(text), (peak, len(text))
