"""Command-line surface: subcommands, outputs, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from supergraphs import universality
from supergraphs.cli import main
from supergraphs.graphs import Graph
from supergraphs.groups import SizeCapError

D3 = '{"kind":"dihedral","n":3}'
S3 = '{"kind":"symmetric","n":3}'


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


def test_uncertifiable_pair_exit_3(tmp_path, capsys, monkeypatch):
    """A pair the order test cannot decide, with a closure over the fallback
    cap, is a resource cap: SizeCapError in the library, exit 3 in the CLI."""
    monkeypatch.setattr(universality, "FALLBACK_ORDER_CAP", 1)
    universality.class_adjacency.cache_clear()
    try:
        with pytest.raises(SizeCapError):
            universality.class_adjacency(7, 2, 3, "solvable")
        target = tmp_path / "p3.json"
        target.write_text(json.dumps(Graph.path(3).to_json_dict()))
        code, _, err = run_cli(capsys, "embed", "--graph", str(target), "--kind", "solvable")
        assert code == 3
        assert "cannot certify" in err
    finally:
        universality.class_adjacency.cache_clear()


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
