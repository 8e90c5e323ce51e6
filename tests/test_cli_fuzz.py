"""Drawn command lines: `main` ends every one with an exit code (0 pass,
1 verification failure, 2 usage or input error, 3 resource cap), never with
a traceback. Tokens come from the command table (names, option prefixes,
`=` forms, choices), tiny group specs, malformed and missing files, and
junk. `scan` and the default catalogs are left out, so that each example
takes milliseconds."""

import contextlib
import io
import json
import os

import pytest

from supergraphs.cli import COMMANDS, main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# derandomized: every run draws the same examples, and nothing is stored
SEEDED = settings(derandomize=True, database=None, max_examples=150, deadline=None)

SPECS = [
    json.dumps(spec, separators=(",", ":"))
    for spec in (
        {"kind": "cyclic", "n": 6},
        {"kind": "dihedral", "n": 4},
        {"kind": "quaternion", "n": 2},
        {"kind": "symmetric", "n": 4},
        {"kind": "alternating", "n": 4},
        {"kind": "product", "of": [{"kind": "cyclic", "n": 2}, {"kind": "symmetric", "n": 3}]},
        {"kind": "permgens", "degree": 3, "gens": [[[1, 2, 3]], [[1, 2]]]},
        {"kind": "table", "rows": [[0, 1], [1, 0]]},
        {"kind": "dihedral"},
        {"kind": "nope", "n": 3},
        {"kind": "cyclic", "n": -1},
        {"kind": "cyclic", "n": "x"},
    )
] + ["{", "{}"]
FILES = {
    "catalog.json": json.dumps([{"kind": "cyclic", "n": 4}, {"kind": "symmetric", "n": 3}]),
    "spec.json": SPECS[1],
    "target.json": json.dumps({"labels": ["a", "b", "c"], "edges": [[0, 1], [1, 2]]}),
    "malformed.json": '{"labels": [',
}
PATHS = list(FILES) + ["missing.json", ".", "-"]
OPTIONS = sorted({f"--{name}" for command in COMMANDS.values() for name in command.options}
                 | {"--help"})
CHOICES = sorted({c for command in COMMANDS.values() for o in command.options.values()
                  for c in o.choices} | set(COMMANDS["verify"].positional[1]))
JUNK = ["", "-", "--", "-h", "-x", "-5", "--x", "--=x", "3..5", "5..3", "2", "x", "a b", "-hh"]
VALUES = SPECS + PATHS + CHOICES + JUNK
# the default catalogs and full family ranges take seconds; these come first
# and a drawn repeat can only replace them with a drawn value
VERIFY_GUARD = ["--catalog", "catalog.json", "--n", "3..4"]

prefixes = st.sampled_from(OPTIONS).flatmap(
    lambda option: st.integers(3, len(option)).map(lambda k: option[:k]))
tokens = (
    st.sampled_from(OPTIONS + VALUES)
    | prefixes
    | st.tuples(prefixes, st.sampled_from(VALUES)).map("=".join)
)
COMMAND_NAMES = [c for c in COMMANDS if c != "scan"]


@st.composite
def command_lines(draw):
    """A command with most of its options, each spelled in full, by a
    prefix or with `=`, its value mostly apt, in drawn order, with junk
    tokens dropped in."""
    command = draw(st.sampled_from(COMMAND_NAMES))
    positional, options = COMMANDS[command].positional, COMMANDS[command].options

    def value(apt):  # one time in ten, any value
        return draw(st.sampled_from(VALUES if draw(st.integers(0, 9)) == 9 else apt))

    pieces = [[value(positional[1])]] if positional else []
    for name, option in options.items():
        if draw(st.integers(0, 9)) >= (9 if option.required else 3):
            continue
        spelling = "--" + name[:draw(st.integers(1, len(name)))]
        if option.default is False:
            pieces.append([spelling])
            continue
        apt = option.choices or {"group": SPECS[:8], "graph": ["target.json"] + PATHS,
                                 "n": ["3", "3..4", "4..3"]}.get(name, PATHS)
        drawn = value(apt)
        pieces.append([f"{spelling}={drawn}"] if draw(st.booleans()) else [spelling, drawn])
    argv = [token for piece in draw(st.permutations(pieces)) for token in piece]
    for at, token in draw(st.lists(st.tuples(st.integers(0, len(argv)), tokens), max_size=1)):
        argv.insert(at, token)
    return [command] + (VERIFY_GUARD if command == "verify" else []) + argv


loose_lines = st.tuples(st.sampled_from(COMMAND_NAMES + ["scan-less", "-h", ""]),
                        st.lists(tokens, max_size=8)).map(
    lambda drawn: [drawn[0]] + (VERIFY_GUARD if drawn[0] == "verify" else []) + drawn[1])


@SEEDED
@given(command_lines() | loose_lines)
def test_drawn_argv_end_with_an_exit_code(tmp_path_factory, argv):
    here = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("argv"))
    try:
        for name, text in FILES.items():
            with open(name, "w") as handle:
                handle.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(here)
    assert code in (0, 1, 2, 3)
