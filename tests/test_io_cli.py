"""Chain file parsing, serialization, and the command line front end."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatchains.boxes import BoxCell, BoxChain
from flatchains.cli import COMMANDS, _chain_doc, build_parser, main
from flatchains.cone import SimplicialChain
from flatchains.core import PreconditionError
from flatchains.fileio import (ChainFile, ParseError, format_number, load_chainfile,
                               parse_chainfile, save_chainfile,
                               serialize_chainfile)
from genutil import mixed_simplicial_items, ref_simplicial, ref_simplicial_boundary

cone_module = sys.modules["flatchains.cone"]  # flatchains.cone is the function
FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"

# Every fixture written in canonical form; broken.chain is deliberately not.
CANONICAL = [
    "square", "square_rim", "parallel_paths", "fine_edge", "empty_box",
    "path3", "rim_skeleton", "bad_complex", "curves_pair", "curves_mixed",
    "segment",
]

# One pinned invocation per subcommand.  Paths are absolute but only the
# basename lands in the output, so the goldens stay location independent.
GOLDEN_CASES = [
    ("validate", ["validate", "path3.chain"]),
    ("mass", ["mass", "square.chain"]),
    ("massp", ["massp", "square_rim.chain", "--p", "3"]),
    ("reduce", ["reduce", "path3.chain", "--p", "2"]),
    ("boundary", ["boundary", "square.chain"]),
    ("flatnorm", ["flatnorm", "path3.chain"]),
    ("flatnormp", ["flatnormp", "square_rim.chain", "--p", "2"]),
    ("fill", ["fill", "square_rim.chain", "--p", "2"]),
    ("isoratio", ["isoratio", "square_rim.chain", "--p", "2"]),
    ("restrict", ["restrict", "square.chain", "--axis", "0", "--r", "1/2"]),
    ("slice", ["slice", "square.chain", "--axis", "0", "--r", "1/2"]),
    ("islice", ["islice", "square.chain", "--axis", "0,1", "--r", "1/2,1/2"]),
    ("slicemass", ["slicemass", "square.chain", "--axis", "0", "--p", "2"]),
    ("slicestar", ["slicestar", "square.chain", "--p", "2"]),
    ("deform", ["deform", "fine_edge.chain", "--eta", "1", "--rho", "1/2,1/2"]),
    ("refinecompare", ["refinecompare", "square_rim.chain", "--p", "2",
                       "--subdiv", "2"]),
    ("sysboundary", ["sysboundary", "curves_pair.chain"]),
    ("preprocess", ["preprocess", "curves_mixed.chain"]),
    ("cyclecut", ["cyclecut", "curves_pair.chain"]),
    ("decompose", ["decompose", "square_rim.chain"]),
    ("cyclerep", ["cyclerep", "parallel_paths.chain"]),
    ("cone", ["cone", "segment.chain", "--apex", "0,0"]),
    ("conereport", ["conereport", "segment.chain", "--apex", "0,0",
                    "--p", "2"]),
]


def run_cli(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


def fixture_argv(argv):
    return [argv[0], str(FIXTURES / argv[1])] + argv[2:] + ["--json"]


@pytest.fixture(scope="module")
def schema():
    text = resources.files("flatchains").joinpath("schema.json").read_text()
    return json.loads(text)


# ---- number formatting ----

def test_format_number_pinned():
    assert format_number(3) == "3"
    assert format_number(-17) == "-17"
    assert format_number(Fraction(3, 4)) == "3/4"
    assert format_number(Fraction(-3, 4)) == "-3/4"
    assert format_number(Fraction(8, 4)) == "2"
    assert format_number(0.5) == "0.5"
    assert format_number(2.0 ** 0.5) == "1.4142135623730951"
    assert format_number(1e-6) == "1e-06"


def test_format_number_rejects_non_numbers():
    with pytest.raises(PreconditionError, match="boolean is not a number"):
        format_number(True)
    with pytest.raises(PreconditionError, match="cannot format"):
        format_number("5")


# ---- round trips ----

@pytest.mark.parametrize("name", CANONICAL)
def test_round_trip_is_byte_identical(name):
    text = (FIXTURES / f"{name}.chain").read_text()
    assert serialize_chainfile(parse_chainfile(text)) == text


def test_save_load_round_trip(tmp_path):
    cf = load_chainfile(FIXTURES / "parallel_paths.chain")
    out = tmp_path / "copy.chain"
    save_chainfile(cf, out)
    again = load_chainfile(out)
    assert again.carrier == cf.carrier
    assert again.p == cf.p == 2
    assert serialize_chainfile(again) == serialize_chainfile(cf)


def test_comments_and_blank_lines_are_skipped():
    text = "# header comment\n\nchainfile 1 box\n# a cell\ncell 0 1 0 1 2\n"
    cf = parse_chainfile(text)
    assert cf.payload.mass() == 2


# ---- parse errors ----

PARSE_ERRORS = [
    ("", 1, "empty file"),
    ("chain 1 box\n", 1, "expected header `chainfile 1 <carrier>`"),
    ("chainfile 2 box\n", 1, "unsupported format version '2'"),
    ("chainfile 1 blobs\n", 1, "unknown carrier 'blobs'"),
    ("chainfile 1 box\np\n", 2, "expected `p <int>`"),
    ("chainfile 1 box\np one\n", 2, "integer expected, got 'one'"),
    ("chainfile 1 box\np 1\n", 2, "modulus must be at least 2, got 1"),
    ("chainfile 1 box\ncell 0 one 0 1 1\n", 2, "number expected, got 'one'"),
    ("chainfile 1 box\ncell 0 1 0 1\n", 2, "expected `cell lo1 hi1 ... coeff`"),
    ("chainfile 1 box\nambient 2\nambient 2\n", 3, "duplicate ambient line"),
    ("chainfile 1 box\nambient -1\n", 2, "ambient must be nonnegative, got -1"),
    ("chainfile 1 box\nambient 2\ncell 0 1 1\n", 3,
     "cell has 1 axes, ambient is 2"),
    ("chainfile 1 box\ncurve 1 a b 1\n", 2, "unexpected 'curve' in a box file"),
    ("chainfile 1 box\ncell 1 0 0 1 1\n", 2, "interval [1, 0] is reversed"),
    ("chainfile 1 box\n", 1, "an empty box chain needs ambient and dim lines"),
    ("chainfile 1 curves\ncurve 2 a b 1\n", 2,
     "curve ids must be consecutive from 1, got 2"),
    ("chainfile 1 curves\ncurve 1 a b -1\n", 2, "negative mass -1"),
    ("chainfile 1 curves\ncurve 1 a b\n", 2, "expected `curve id start end mass`"),
    ("chainfile 1 simplicial\nsimplex 0,0 ; 1 ; 1\n", 2,
     "vertices have mixed coordinate counts"),
    ("chainfile 1 simplicial\nsimplex 0,0 ; 1,0 ; 0,1 ; 1,1 ; 1\n", 2,
     "a 3-simplex does not fit in dimension 2"),
    ("chainfile 1 simplicial\n", 1,
     "an empty simplicial chain needs ambient and dim lines"),
    ("chainfile 1 abstract\ndim x\n", 2, "integer expected, got 'x'"),
    ("chainfile 1 abstract\ncell a 1\n", 2, "cell line before any dim line"),
    ("chainfile 1 abstract\ndim 0\ncell a 1\ncell a 1\n", 4,
     "duplicate cell id 'a'"),
    ("chainfile 1 abstract\ndim 0\ncell a 1\nface a b 1\n", 4,
     "face references undeclared cell 'b'"),
    ("chainfile 1 abstract\ndim 0\ncell a 1\ncoeff a 1\n", 4,
     "coeff line before the chain line"),
    ("chainfile 1 abstract\ndim 0\ncell a 1\nchain 0\nchain 0\n", 5,
     "duplicate chain line"),
    ("chainfile 1 abstract\ndim 0\ncell a 1\nchain 0\ncoeff a 1\ncoeff a 1\n",
     6, "duplicate coefficient for 'a'"),
]


@pytest.mark.parametrize("text,line,message", PARSE_ERRORS,
                         ids=[m[:40] for _, _, m in PARSE_ERRORS])
def test_parse_errors(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_chainfile(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_parse_error_is_a_precondition_error():
    with pytest.raises(PreconditionError):
        load_chainfile(FIXTURES / "broken.chain")
    with pytest.raises(ParseError) as err:
        load_chainfile(FIXTURES / "broken.chain")
    assert err.value.line == 2
    assert "number expected, got 'one'" in str(err.value)


# ---- golden outputs ----

@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, argv, capsys):
    rc, out = run_cli(fixture_argv(argv), capsys)
    assert rc == 0
    assert out == (GOLDENS / f"{name}.json").read_text()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_matches_schema(name, argv, schema):
    doc = json.loads((GOLDENS / f"{name}.json").read_text())
    jsonschema.Draft7Validator(schema).validate(doc)


def test_output_is_deterministic(capsys):
    argv = fixture_argv(["cyclerep", "parallel_paths.chain"])
    first = run_cli(argv, capsys)
    second = run_cli(argv, capsys)
    assert first == second


# ---- one chain interface for every carrier ----

def _path3_chain():
    return load_chainfile(FIXTURES / "path3.chain").payload


# (chain, its document as the CLI printed it before the carriers shared
# one interface)
CHAIN_DOCS = [
    (lambda: _path3_chain()[1],
     {"carrier": "abstract", "dim": 0, "items": [["q0", -1], ["q3", 1]]}),
    (lambda: _path3_chain()[0].zero_chain(0),
     {"carrier": "abstract", "dim": 0, "items": []}),
    (lambda: (5 * _path3_chain()[1]).reduce_mod_p(3),
     {"carrier": "abstract", "dim": 0, "items": [["q0", 1], ["q3", -1]], "p": 3}),
    (lambda: (3 * _path3_chain()[1]).reduce_mod_p(3),
     {"carrier": "abstract", "dim": 0, "items": [], "p": 3}),
    (lambda: BoxChain(2, 1, [(BoxCell(((0, Fraction(3, 2)), (Fraction(1, 3), Fraction(1, 3)))), 2),
                             (BoxCell(((1, 1), (0, 1))), -1)]),
     {"ambient": 2, "carrier": "box", "dim": 1,
      "items": [["b1[0..1;1/3]", 2], ["b1[1;0..1/3]", -1], ["b1[1;1/3..1]", -1],
                ["b1[1..3/2;1/3]", 2]]}),
    (lambda: BoxChain(3, 2, ()),
     {"ambient": 3, "carrier": "box", "dim": 2, "items": []}),
    (lambda: SimplicialChain(2, 1, [(((0, 0), (Fraction(1, 2), 1)), -3),
                                    (((2, Fraction(-1, 3)), (0, 0)), 1)]),
     {"ambient": 2, "carrier": "simplicial", "dim": 1,
      "items": [["0,0 ; 1/2,1", -3], ["0,0 ; 2,-1/3", -1]]}),
    (lambda: SimplicialChain(2, 1, ()),
     {"ambient": 2, "carrier": "simplicial", "dim": 1, "items": []}),
]


@pytest.mark.parametrize("make,doc", CHAIN_DOCS,
                         ids=["int", "int-zero", "modp", "modp-zero", "box", "box-zero",
                              "simplicial", "simplicial-zero"])
def test_chain_doc_of_every_carrier(make, doc):
    assert _chain_doc(make()) == doc


def _residue(g, p):
    r = g % p
    return r - p if 2 * r > p else r


def _simplicial_doc(ambient, dim, ref):
    return {"carrier": "simplicial", "ambient": ambient, "dim": dim,
            "items": [[" ; ".join(",".join(format_number(c) for c in v) for v in vertices), g]
                      for vertices, g in ref]}


def _check_simplicial_calls(path, ambient, dim, ref, capsys):
    for p in (2, 3, 4):
        rc, out = run_cli(["reduce", str(path), "--p", str(p), "--json"], capsys)
        assert rc == 0
        reduced = [(v, _residue(g, p)) for v, g in ref if _residue(g, p)]
        assert json.loads(out)["result"]["chain"] == _simplicial_doc(ambient, dim, reduced)
    rc, out = run_cli(["boundary", str(path), "--json"], capsys)
    if dim == 0:
        assert rc == 2
        assert json.loads(out)["error"]["message"] == "0-dimensional chains have no boundary"
    else:
        assert rc == 0
        assert json.loads(out)["result"]["chain"] == _simplicial_doc(
            ambient, dim - 1, ref_simplicial_boundary(ref))


def test_simplicial_reduce_and_boundary_match_the_fraction_reference(rng, tmp_path, capsys):
    _check_simplicial_calls(FIXTURES / "segment.chain", 2, 1,
                            ref_simplicial([(((1, 0), (1, 1)), 1)]), capsys)
    for case in range(24):
        n = rng.randint(1, 3)
        k = rng.randint(0, n)
        items = mixed_simplicial_items(rng, n, k)
        path = tmp_path / f"s{case}.chain"
        path.write_text(serialize_chainfile(ChainFile("simplicial", SimplicialChain(n, k, items))))
        _check_simplicial_calls(path, n, k, ref_simplicial(items), capsys)


def test_simplicial_reduce_reuses_the_gram_determinants(rng, monkeypatch):
    chains = [SimplicialChain(n, k, mixed_simplicial_items(rng, n, k))
              for n, k in ((2, 1), (2, 2), (3, 2), (3, 3))]
    expected = {(i, p): SimplicialChain(t.ambient_dim, t.dim,
                                        [(s, _residue(g, p)) for s, g in t.items()])
                for i, t in enumerate(chains) for p in (2, 3, 4)}
    calls = []
    gram_det = cone_module._gram_det
    monkeypatch.setattr(cone_module, "_gram_det", lambda key: calls.append(key) or gram_det(key))
    reduced = {(i, p): t.reduce_mod_p(p) for i, t in enumerate(chains) for p in (2, 3, 4)}
    assert calls == []
    monkeypatch.undo()
    assert reduced == expected
    for key, chain in reduced.items():
        assert chain.mass() == expected[key].mass()


# ---- error paths and exit codes ----

def test_validate_flags_a_bad_boundary_operator(capsys):
    rc, out = run_cli(fixture_argv(["validate", "bad_complex.chain"]), capsys)
    assert rc == 2
    doc = json.loads(out)
    assert doc["result"]["ok"] is False
    assert doc["result"]["message"]


NEGATIVE_VOLUME = """chainfile 1 abstract
dim 0
cell a 1
cell b 1
dim 1
cell e -1
face e a -1
face e b 1
chain 1
coeff e 1
"""

SOLVERS = ["flatnorm", "flatnormp", "fill", "isoratio", "decompose", "cyclerep"]


@pytest.mark.parametrize("command", SOLVERS)
@pytest.mark.parametrize("text,cell,message", [
    ((FIXTURES / "bad_complex.chain").read_text(), "F", "boundary of boundary is nonzero"),
    (NEGATIVE_VOLUME, "e", "cell volume must be positive"),
], ids=["bad_complex", "negative_volume"])
def test_solvers_reject_an_invalid_abstract_complex(command, text, cell, message,
                                                    tmp_path, capsys):
    path = tmp_path / "invalid.chain"
    path.write_text(text)
    flags = ["--p", "2"] if "p" in COMMANDS[command][2] else []
    rc, out = run_cli([command, str(path), *flags, "--json"], capsys)
    assert rc == 2
    doc = json.loads(out)
    assert "result" not in doc
    assert doc["error"] == {"kind": "precondition",
                            "message": f"invalid complex at cell {cell!r}: {message}"}


def test_parse_error_exit_code(capsys):
    rc, out = run_cli(fixture_argv(["mass", "broken.chain"]), capsys)
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"]["kind"] == "precondition"
    assert "line 2: number expected" in doc["error"]["message"]
    assert "result" not in doc


@pytest.mark.parametrize("kind,reason", [("missing", "No such file or directory"),
                                         ("directory", "Is a directory"),
                                         ("latin-1", "not UTF-8 text")])
def test_unreadable_file_exit_code(kind, reason, tmp_path, capsys):
    path = tmp_path / f"{kind}.chain"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes("chainfile 1 box\n# caf\xe9\n".encode("latin-1"))
    message = f"cannot read {kind}.chain: {reason}"
    rc, out = run_cli(["mass", str(path), "--json"], capsys)
    assert rc == 2
    assert json.loads(out)["error"] == {"kind": "precondition", "message": message}
    rc, out = run_cli(["mass", str(path)], capsys)
    assert rc == 2
    assert out.splitlines()[1:] == ['kind: "precondition"', f"message: {json.dumps(message)}"]


def test_missing_modulus_exit_code(capsys):
    rc, out = run_cli(fixture_argv(["flatnormp", "square_rim.chain"]), capsys)
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"]["kind"] == "precondition"
    assert "a modulus is required" in doc["error"]["message"]


def test_infeasible_fill_exit_code(capsys):
    argv = fixture_argv(["fill", "rim_skeleton.chain", "--p", "2"])
    rc, out = run_cli(argv, capsys)
    assert rc == 2
    assert json.loads(out)["error"]["kind"] == "infeasible"


def test_massp_rejects_curves(capsys):
    argv = fixture_argv(["massp", "curves_pair.chain", "--p", "2"])
    rc, out = run_cli(argv, capsys)
    assert rc == 2
    message = json.loads(out)["error"]["message"]
    assert "does not apply to curve systems" in message


# ---- each subcommand takes only its own flags ----

# A valid value for every flag, so that only the flag's absence from a
# subcommand's set can make argparse reject it.
FLAG_VALUES = {"p": ["3"], "axis": ["0"], "r": ["1/2"], "eta": ["1"],
               "rho": ["1/2,1/2"], "bound": ["2"], "subdiv": ["2"],
               "side": ["above"], "apex": ["0,0"], "optimize": []}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flags_outside_a_subcommand_exit_2(command, capsys):
    _, required, optional = COMMANDS[command]
    foreign = sorted(set(FLAG_VALUES) - set(required) - set(optional))
    assert foreign
    for flag in foreign:
        argv = [command, str(FIXTURES / "square.chain"), f"--{flag}",
                *FLAG_VALUES[flag], "--json"]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


def test_flag_abbreviations_exit_2(capsys):
    # `--r` is a flag of slice, not a prefix of deform's `--rho`
    with pytest.raises(SystemExit) as exit_:
        main(fixture_argv(["deform", "fine_edge.chain", "--eta", "1", "--r", "1/2,1/2"]))
    assert exit_.value.code == 2
    assert "unrecognized arguments: --r" in capsys.readouterr().err


USAGE_ERRORS = [
    (["mass", "square.chain", "--p", "3"], "unrecognized arguments: --p 3"),
    (["mass"], "the following arguments are required: file"),
    (["restrict", "square.chain", "--axis", "0", "--r", "1/2", "--side", "left"],
     "argument --side: invalid choice: 'left'"),
    (["massp", "square.chain", "--p", "two"], "argument --p: invalid int value: 'two'"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                         ids=["foreign-flag", "missing-file", "bad-side", "non-integer-p"])
def test_usage_error_under_json_prints_an_error_doc(argv, message, capsys, schema):
    if len(argv) > 1:
        argv = [argv[0], str(FIXTURES / argv[1])] + argv[2:]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--json"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err  # argparse's own report stays
    doc = json.loads(captured.out)
    jsonschema.Draft7Validator(schema).validate(doc)
    assert doc["command"] == argv[0]
    assert doc["error"]["kind"] == "precondition"
    assert doc["error"]["message"].startswith(message)
    assert doc["timing"] is None
    # without --json the usage error is argparse's text alone
    with pytest.raises(SystemExit):
        main(argv)
    assert capsys.readouterr().out == ""


# argparse's output for the usage errors above, `<cmd> --help` for every
# subcommand, `--help`, no arguments and an unknown subcommand, at 80 columns
ARGPARSE_GOLDENS = json.loads((Path(__file__).parent / "argparse_goldens.json").read_text())


def argparse_output(parse, argv, capsys, monkeypatch) -> dict:
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        parse(argv)
    captured = capsys.readouterr()
    return {"argv": argv, "code": exit_.value.code, "stdout": captured.out,
            "stderr": captured.err}


@pytest.mark.skipif(not (3, 10) <= sys.version_info[:2] <= (3, 12),
                    reason="argparse wraps its usage lines differently from Python 3.13")
@pytest.mark.parametrize("case", ARGPARSE_GOLDENS)
def test_argparse_output_is_byte_identical(case, capsys, monkeypatch):
    assert argparse_output(main, ARGPARSE_GOLDENS[case]["argv"], capsys,
                           monkeypatch) == ARGPARSE_GOLDENS[case]


@pytest.mark.parametrize("case", [c for c, g in ARGPARSE_GOLDENS.items()
                                  if g["argv"] and g["argv"][0] in COMMANDS])
def test_a_lone_subparser_prints_what_the_full_parser_prints(case, capsys, monkeypatch):
    argv = ARGPARSE_GOLDENS[case]["argv"]
    assert (argparse_output(main, argv, capsys, monkeypatch)
            == argparse_output(build_parser().parse_args, argv, capsys, monkeypatch))


@pytest.mark.parametrize("argv", [["nosuch", "--json"], ["--json"]])
def test_usage_error_without_a_known_subcommand_prints_no_doc(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert capsys.readouterr().out == ""


def test_schema_lists_every_command_and_flag(schema):
    flags = {flag for _, required, optional in COMMANDS.values()
             for flag in required + optional}
    assert set(schema["properties"]["command"]["enum"]) == set(COMMANDS)
    assert set(schema["properties"]["inputs"]["properties"]) == {"file"} | flags
    assert set(FLAG_VALUES) == flags


@pytest.mark.parametrize("eta", ["abc", "1/0"])
def test_unparsable_eta_is_a_precondition_error(eta, capsys, schema):
    rc, out = run_cli(fixture_argv(["deform", "fine_edge.chain", "--eta", eta]), capsys)
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"] == {"kind": "precondition",
                            "message": f"cannot parse --eta value {eta!r}"}
    jsonschema.Draft7Validator(schema).validate(doc)


def test_missing_required_flag_exit_code(capsys):
    rc, out = run_cli(fixture_argv(["deform", "fine_edge.chain"]), capsys)
    assert rc == 2
    assert json.loads(out)["error"] == {"kind": "precondition",
                                        "message": "--eta is required"}


def test_deform_rejects_a_modulus_below_two(capsys):
    argv = fixture_argv(["deform", "fine_edge.chain", "--eta", "1", "--p", "0"])
    rc, out = run_cli(argv, capsys)
    assert rc == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "precondition"
    assert error["message"].startswith("invalid modulus: 0")


def test_error_doc_matches_schema(capsys, schema):
    _, out = run_cli(fixture_argv(["mass", "broken.chain"]), capsys)
    jsonschema.Draft7Validator(schema).validate(json.loads(out))


# ---- odds and ends ----

def test_mass_of_a_curve_system_sums_fractions(capsys):
    rc, out = run_cli(fixture_argv(["mass", "curves_mixed.chain"]), capsys)
    assert rc == 0
    assert json.loads(out)["result"]["mass"] == "7/2"


def test_timing_flag(capsys, schema):
    argv = fixture_argv(["mass", "square.chain"]) + ["--timing"]
    rc, out = run_cli(argv, capsys)
    assert rc == 0
    doc = json.loads(out)
    assert Fraction(doc["timing"]["seconds"]) >= 0
    jsonschema.Draft7Validator(schema).validate(doc)


def test_text_output_without_json_flag(capsys):
    rc = main(["mass", str(FIXTURES / "square.chain")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "command: mass\nmass: \"1\"\n"


@pytest.mark.parametrize("argv,code", [
    (["flatnormp", "square_rim.chain", "--p", "3", "--json"], 0),
    (["mass", "square.chain", "--p", "3", "--json"], 2),  # a usage error
    (["mass", "square.chain"], 0),
], ids=["json", "usage-error", "text"])
def test_a_closed_pipe_is_no_defect(argv, code):
    # the reader of stdout is gone before the CLI writes: the output goes
    # nowhere, and the exit code is still the command's own
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "flatchains.cli", argv[0],
                               str(FIXTURES / argv[1]), *argv[2:]],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                              timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert "Traceback" not in done.stderr and (code or not done.stderr)


# ---- robustness: tiny random abstract files ----

@st.composite
def abstract_chain_files(draw):
    """Text of a small abstract chain file, valid or not: up to three cells
    per dimension with any volume, faces to any declared cell with any small
    sign, and a chain that may name unknown cells or a missing dimension."""
    vol = st.sampled_from(["1", "2", "1/2", "2/3", "0", "-1"])
    lines = ["chainfile 1 abstract"]
    ids = []
    for d in range(draw(st.integers(1, 3))):
        lines.append(f"dim {d}")
        for i in range(draw(st.integers(0, 3))):
            ids.append(f"c{d}_{i}")
            lines.append(f"cell c{d}_{i} {draw(vol)}")
    if ids:
        faces = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                        st.integers(-2, 2)), max_size=8))
        lines += [f"face {a} {b} {s}" for a, b, s in faces]
    lines.append(f"chain {draw(st.integers(0, 3))}")
    named = draw(st.lists(st.sampled_from(ids + ["nowhere"]), max_size=3, unique=True))
    lines += [f"coeff {cid} {draw(st.integers(-3, 3))}" for cid in named]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "random.chain"


@given(text=abstract_chain_files(),
       command=st.sampled_from([["flatnorm"], ["validate"], ["mass"], ["boundary"],
                                ["flatnormp", "--p", "2"], ["flatnormp", "--p", "3"],
                                ["fill", "--p", "2"], ["isoratio", "--p", "2"]]))
def test_random_abstract_files_never_hit_a_defect(fuzz_file, text, command):
    # rejected input exits 2; exit 1 would be an internal defect
    fuzz_file.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main([command[0], str(fuzz_file), *command[1:], "--json"])
    assert rc in (0, 2), out.getvalue()


@st.composite
def box_chain_files(draw):
    """Text of a small box chain file, valid or not: up to three cells with
    reversed or degenerate intervals, mixed denominators and zero
    coefficients, and ambient and dim lines that may be missing or wrong."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    coord = st.sampled_from(["0", "1", "2", "-1", "1/2", "2/3", "3/7", "0.1", "5/4"])
    lines = ["chainfile 1 box"]
    if draw(st.booleans()):
        lines.append(f"ambient {draw(st.sampled_from([n, n, n - 1, n + 1]))}")
    if draw(st.booleans()):
        lines.append(f"dim {draw(st.sampled_from([k, k, k, n - k]))}")
    for _ in range(draw(st.integers(0, 3))):
        dirs = draw(st.permutations(range(n)))[:k]
        bounds = []
        for j in range(n):
            lo, hi = draw(coord), draw(coord)
            if j not in dirs:
                hi = lo
            elif draw(st.integers(0, 5)):  # mostly in order, sometimes reversed
                lo, hi = sorted((lo, hi), key=Fraction)
            bounds += [lo, hi]
        lines.append(f"cell {' '.join(bounds)} {draw(st.integers(-2, 2))}")
    return "\n".join(lines) + "\n"


@given(text=box_chain_files(), axis=st.sampled_from([0, 0, 1, 2, 3]),
       level=st.sampled_from(["0", "1/2", "2/3", "1/3", "3/11", "0.1", "-1"]),
       command=st.sampled_from([["validate"], ["mass"], ["boundary"], ["slicestar", "--p", "2"],
                                ["slicestar", "--p", "3"], ["restrict"], ["slice"],
                                ["deform", "--eta", "1"], ["deform", "--eta", "1/2"],
                                ["deform", "--eta", "1", "--optimize"],
                                ["deform", "--eta", "2/3", "--optimize"],
                                ["deform", "--eta", "1", "--p", "3"],
                                ["deform", "--eta", "1/2", "--p", "2"]]))
def test_random_box_files_never_hit_a_defect(fuzz_file, text, axis, level, command):
    # rejected input exits 2; exit 1 would be an internal defect
    fuzz_file.write_text(text)
    if command[0] in ("restrict", "slice"):
        command = [*command, "--axis", str(axis), "--r", level]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main([command[0], str(fuzz_file), *command[1:], "--json"])
    assert rc in (0, 2), out.getvalue()
