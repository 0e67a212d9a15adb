"""Chain file parsing, serialization, and the command line front end."""

import ast
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from importlib import import_module, resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatchains.boxes import BoxCell, BoxChain
from flatchains.cli import _FLAGS, COMMANDS, _json, _read, main
from flatchains.cli_argparse import build_parser
from flatchains.cone import SimplicialChain
from flatchains.base import InternalDefectError
from flatchains.core import PreconditionError
from flatchains.fileio import (ChainFile, ParseError, _chain_doc, format_number,
                               load_chainfile, parse_chainfile, save_chainfile,
                               serialize_chainfile)
from genutil import mixed_simplicial_items, ref_simplicial, ref_simplicial_boundary

cone_module = sys.modules["flatchains.cone"]  # flatchains.cone is the function
FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"

# Every fixture written in canonical form; broken.chain is deliberately not.
CANONICAL = [
    "square", "square_rim", "parallel_paths", "fine_edge", "empty_box",
    "path3", "rim_skeleton", "bad_complex", "curves_pair", "curves_mixed",
    "segment", "double_rim",
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
    ("chainfile 1 abstract\ndim 0\ncell v 1\nchain 0\ndim 1\n", 5,
     "dim section after the chain section"),
    ("chainfile 1 abstract\ndim 0 1\n", 2, "expected `dim <int>`"),
    ("chainfile 1 abstract\ndim 0\ncell v\n", 3, "expected `cell id vol`"),
    ("chainfile 1 abstract\ndim 0\ncell v 1\nface v\n", 4,
     "expected `face cell child sign`"),
    ("chainfile 1 abstract\ndim 0\ncell v 1\nface w v 1\n", 4,
     "face references undeclared cell 'w'"),
    ("chainfile 1 abstract\ndim 0\ncell v 1\nchain\n", 4, "expected `chain <dim>`"),
    ("chainfile 1 abstract\ndim 0\ncell v 1\nchain 0\ncoeff v\n", 5,
     "expected `coeff id g`"),
    ("chainfile 1 abstract\ncurve 1 a b 1\n", 2, "unexpected 'curve' in an abstract file"),
]


@pytest.mark.parametrize("text,line,message", PARSE_ERRORS,
                         ids=[m[:40] for _, _, m in PARSE_ERRORS])
def test_parse_errors(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_chainfile(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_an_abstract_file_without_a_chain_line_holds_the_empty_top_chain():
    cf = parse_chainfile("chainfile 1 abstract\ndim 0\ncell v 1\ndim 1\ncell c 1\n"
                         "face c v 2\n")
    cx, chain = cf.payload
    assert chain.dim == cx.top_dim == 1
    assert chain.is_zero()


def test_a_malformed_abstract_file_exits_2(tmp_path, capsys):
    path = tmp_path / "late_dim.chain"
    path.write_text("chainfile 1 abstract\ndim 0\ncell v 1\nchain 0\ndim 1\n")
    rc, out = run_cli(["validate", str(path), "--json"], capsys)
    assert rc == 2
    assert json.loads(out)["error"] == {
        "kind": "precondition", "message": "line 5: dim section after the chain section"}


def test_a_chain_file_of_an_unknown_carrier_is_refused():
    with pytest.raises(PreconditionError, match="^unknown carrier 'nope'$"):
        ChainFile("nope", None)


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


def test_refinecompare_solves_the_fine_grid_below_the_coarse_value(capsys):
    # square_rim at p = 3 and subdivision 8: the fine frontier program,
    # limited by the coarse value, answers in milliseconds
    argv = fixture_argv(["refinecompare", "square_rim.chain", "--p", "3", "--subdiv", "8"])
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rc, out = run_cli(argv, capsys)
        best = min(best, time.perf_counter() - start)
        assert rc == 0
    doc = json.loads(out)["result"]
    assert (doc["coarse"], doc["refined"], doc["monotone"]) == ("1", "1", True)
    assert best < 0.1


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


def test_a_large_modulus_answers_at_once(capsys):
    # the values tried stop at the cost of S = 0, not at p / 2
    start = time.perf_counter()
    rc, out = run_cli(fixture_argv(["flatnormp", "square_rim.chain", "--p", "1000000007"]),
                      capsys)
    assert time.perf_counter() - start < 1
    assert rc == 0
    assert json.loads(out)["result"]["value"] == "1"


@pytest.mark.parametrize("argv,key,value", [
    (["fill", "square_rim.chain"], "filling_mass", "1"),
    (["isoratio", "square_rim.chain"], "ratio", "1/16"),
    (["fill", "path3.chain"], "filling_mass", "3"),
])
def test_a_huge_modulus_fills_at_once(capsys, argv, key, value):
    # a fill's values stop at the cost of the elimination's filling, not at p / 2
    start = time.perf_counter()
    rc, out = run_cli(fixture_argv([*argv, "--p", "2305843009213693951"]), capsys)
    assert time.perf_counter() - start < 1
    assert rc == 0
    assert json.loads(out)["result"][key] == value


def test_infeasible_fill_exit_code(capsys):
    argv = fixture_argv(["fill", "rim_skeleton.chain", "--p", "2"])
    rc, out = run_cli(argv, capsys)
    assert rc == 2
    assert json.loads(out)["error"]["kind"] == "infeasible"


@pytest.mark.parametrize("error,message", [
    (InternalDefectError("solver cost disagrees"), "solver cost disagrees"),
    (TypeError("cannot unpack"), "TypeError: cannot unpack"),
])
def test_a_fault_in_a_handler_exits_1_as_a_defect(error, message, monkeypatch, capsys, schema):
    # an InternalDefectError reports its message; any other exception also
    # names its type
    def faulty(args, cf):
        raise error

    monkeypatch.setattr(import_module(f"flatchains.{COMMANDS['mass'][0]}"), "_cmd_mass", faulty)
    rc, out = run_cli(fixture_argv(["mass", "square.chain"]), capsys)
    assert rc == 1
    doc = json.loads(out)
    jsonschema.Draft7Validator(schema).validate(doc)
    assert doc["error"] == {"kind": "defect", "message": message}
    assert "result" not in doc
    rc, out = run_cli(["mass", str(FIXTURES / "square.chain")], capsys)
    assert rc == 1
    assert out.splitlines() == ["command: mass", 'kind: "defect"', f"message: {json.dumps(message)}"]


@pytest.mark.parametrize("argv,key,dim", [
    (["flatnorm"], "filling", 2),
    (["flatnormp", "--p", "3"], "filling", 2),
    (["fill", "--p", "3"], "filling", 2),
    (["cyclerep", "--p", "2"], "chain", 1),
])
def test_the_empty_box_chain_answers_with_empty_chains(argv, key, dim, capsys, schema):
    # the zero chain compiles to a complex with no cells and no arrangement
    rc, out = run_cli(fixture_argv([argv[0], "empty_box.chain", *argv[1:]]), capsys)
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["result"][key] == {"carrier": "abstract", "dim": dim, "items": []}


def test_the_empty_box_chain_decomposes_into_no_paths(capsys):
    rc, out = run_cli(fixture_argv(["decompose", "empty_box.chain"]), capsys)
    assert rc == 0
    assert json.loads(out)["result"] == {"loop_count": 0, "open_count": 0, "paths": []}


def test_the_isoperimetric_ratio_of_the_empty_box_chain_is_refused(capsys):
    rc, out = run_cli(fixture_argv(["isoratio", "empty_box.chain", "--p", "2"]), capsys)
    assert rc == 2
    assert json.loads(out)["error"] == {"kind": "precondition", "message": "zero cycle"}


def test_islice_needs_one_level_per_axis(capsys):
    argv = fixture_argv(["islice", "square.chain", "--axis", "0,1", "--r", "1/2"])
    rc, out = run_cli(argv, capsys)
    assert rc == 2
    assert json.loads(out)["error"] == {"kind": "precondition",
                                        "message": "2 axes against 1 levels"}


# an abstract 1-chain whose edge has three faces
THREE_FACED_EDGE = """chainfile 1 abstract
dim 0
cell a 1
cell b 1
cell c 1
dim 1
cell e 1
face e a -1
face e b 1
face e c 1
chain 1
coeff e 1
"""

# (argv, with a fixture's name or a file's text in place of the file; message)
REFUSALS = [
    (["slice", "curves_pair.chain", "--axis", "0", "--r", "1/2"],
     "this subcommand needs a box file, got 'curves'"),
    (["flatnorm", "curves_pair.chain"],
     "this subcommand needs a box or abstract file, got 'curves'"),
    (["flatnormp", "curves_pair.chain", "--p", "3"],
     "this subcommand needs a box or abstract file, got 'curves'"),
    (["cyclerep", "curves_pair.chain", "--p", "3"],
     "this subcommand needs a box or abstract file, got 'curves'"),
    (["restrict", "square.chain", "--axis", "0,1", "--r", "1/2,1/3"],
     "--axis takes exactly one value here"),
    (["boundary", "chainfile 1 box\ncell 0 0 0 0 1\n"],
     "0-dimensional chains have no boundary"),
    (["mass", "chainfile 1 box\nambient 1 2\n"], "line 2: expected `ambient <int>`"),
    (["mass", "chainfile 1 simplicial\nsimplex 0,0 ;\n"],
     "line 2: expected `simplex v0 ; v1 ; ... ; coeff`"),
    (["mass", "chainfile 1 simplicial\nfoo 1\n"],
     "line 2: unexpected 'foo' in a simplicial file"),
    (["mass", "chainfile 1 curves\nloop 2\n"], "line 2: unexpected 'loop' in a curves file"),
    (["decompose", THREE_FACED_EDGE], "cell 'e' is not a directed edge between two points"),
]


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[m for _, m in REFUSALS])
def test_a_refusal_exits_2_with_its_message(argv, message, tmp_path, capsys, schema):
    command, source, *flags = argv
    if source.endswith(".chain"):
        path = FIXTURES / source
    else:
        path = tmp_path / "refused.chain"
        path.write_text(source)
    rc, out = run_cli([command, str(path), *flags, "--json"], capsys)
    assert rc == 2
    doc = json.loads(out)
    jsonschema.Draft7Validator(schema).validate(doc)
    assert doc["error"] == {"kind": "precondition", "message": message}


def test_massp_rejects_curves(capsys):
    argv = fixture_argv(["massp", "curves_pair.chain", "--p", "2"])
    rc, out = run_cli(argv, capsys)
    assert rc == 2
    message = json.loads(out)["error"]["message"]
    assert "does not apply to curve systems" in message


def test_chain_commands_on_a_curves_file(capsys, schema):
    def call(*argv):
        rc, out = run_cli(fixture_argv([argv[0], "curves_mixed.chain", *argv[1:]]), capsys)
        doc = json.loads(out)
        jsonschema.Draft7Validator(schema).validate(doc)
        return rc, doc

    rc, doc = call("validate")
    assert rc == 0
    assert doc["result"] == {"ok": True, "carrier": "curves", "curves": 3}
    rc, doc = call("reduce", "--p", "2")
    assert rc == 2
    assert doc["error"] == {"kind": "precondition",
                            "message": "reduce does not apply to curve systems"}
    rc, doc = call("boundary")
    assert rc == 0
    points = doc["result"]["chain"]
    assert points == {"carrier": "points", "dim": 0, "items": [["a", -1], ["c", 1]]}
    rc, doc = call("sysboundary")
    assert rc == 0
    assert points["items"] == [list(item) for item in doc["result"]["boundary"].items()]


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
            == argparse_output(build_parser(COMMANDS, _FLAGS).parse_args, argv, capsys,
                               monkeypatch))


@pytest.mark.parametrize("argv", [["nosuch", "--json"], ["--json"]])
def test_usage_error_without_a_known_subcommand_prints_no_doc(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert capsys.readouterr().out == ""


# ---- the reader that spares a well-formed call argparse ----

def argparse_namespace(argv):
    """vars() of the full parser's namespace for argv, or None where
    argparse exits (a usage error or help)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser(COMMANDS, _FLAGS).parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_the_reader_takes_every_well_formed_call(command):
    _, required, optional = COMMANDS[command]

    def flags(names):
        return [token for flag in names for token in (f"--{flag}", *FLAG_VALUES[flag])]

    for argv in ([command, "x.chain", *flags(required + optional), "--json"],
                 [command, *flags(optional + required), "--timing", "x.chain"],
                 [command, "x.chain", *flags(required)]):
        namespace = _read(argv)
        assert namespace is not None, argv
        assert vars(namespace) == argparse_namespace(argv)


# (argv the reader leaves to argparse, whether argparse takes it): a
# negative value, a joined value, a repeated switch and `--` are fine
# there; the rest are usage errors or help
LEFT_TO_ARGPARSE = [
    (["massp", "f.chain", "--p", "-3"], True), (["massp", "f.chain", "--p=3"], True),
    (["mass", "f.chain", "--json", "--json"], True), (["mass", "--", "f.chain"], True),
    (["slice", "f.chain", "--axis", "-1/2", "--r", "1/2"], False),
    (["slice", "f.chain", "--axis", "--r"], False), (["massp", "f.chain", "--p"], False),
    (["massp", "f.chain", "--p", "two"], False),
    (["restrict", "f.chain", "--axis", "0", "--r", "1/2", "--side", "left"], False),
    (["mass", "f.chain", "f.chain"], False), (["mass"], False),
    (["mass", "f.chain", "-h"], False), (["mass", "f.chain", "--p", "3"], False),
    (["nosuch", "f.chain"], False), ([], False), (["--help"], False),
]


@pytest.mark.parametrize("argv,taken", LEFT_TO_ARGPARSE,
                         ids=[" ".join(argv) for argv, _ in LEFT_TO_ARGPARSE])
def test_the_reader_leaves_the_rest_to_argparse(argv, taken):
    assert _read(argv) is None
    assert (argparse_namespace(argv) is not None) == taken


# tokens argparse reads in ways a plain reader could get wrong: negative
# numbers, the empty string, `--`, help, joined values, integers Python
# writes unusually, bad integers and bad choices
AWKWARD = ["-3", "-1/2", "", "--", "-", "-h", "--help", "--p=3", "--json=1", "-p", "--r",
           " 3", "3_0", "+4", "two", "1.5", "left", "below", "above", "0,1", "1/2", "x.chain"]
ALL_FLAGS = [f"--{flag}" for flag in FLAG_VALUES] + ["--json", "--timing"]


@st.composite
def awkward_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS) + ["nosuch"]))
    _, required, optional = COMMANDS.get(command, (None, (), ()))
    tokens = []
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from([*required, *optional, "json", "timing"]))
        tokens.append(f"--{flag}")
        if flag in FLAG_VALUES and FLAG_VALUES[flag]:
            tokens.append(draw(st.one_of(st.sampled_from(FLAG_VALUES[flag]),
                                         st.sampled_from(AWKWARD))))
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))),
                      draw(st.sampled_from(AWKWARD + ALL_FLAGS)))
    # the file, anywhere: mostly once, sometimes missing or twice
    for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
        tokens.insert(draw(st.integers(0, len(tokens))), "f.chain")
    return [command, *tokens]


@settings(max_examples=400)
@given(awkward_argv())
def test_the_reader_agrees_with_argparse(argv):
    # the reader may leave argv that argparse takes to argparse, but what
    # it takes it reads as argparse does; so where argparse exits it takes nothing
    namespace = _read(argv)
    if namespace is not None:
        assert vars(namespace) == argparse_namespace(argv)


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


@pytest.mark.parametrize("p", [0, 1, -3])
@pytest.mark.parametrize("make", [make for make, _ in CHAIN_DOCS],
                         ids=["int", "int-zero", "modp", "modp-zero", "box", "box-zero",
                              "simplicial", "simplicial-zero"])
def test_every_carrier_rejects_a_modulus_below_two(make, p):
    # checked before any cell is read, so an empty chain is no exception; a
    # mod-p chain names its own modulus first
    chain = make()
    for method in (chain.mass_p, chain.reduce_mod_p):
        with pytest.raises(PreconditionError, match="invalid modulus|chain has modulus 3"):
            method(p)


@pytest.mark.parametrize("p", ["0", "1", "-3"])
@pytest.mark.parametrize("command", ["massp", "reduce"])
@pytest.mark.parametrize("text", [
    "chainfile 1 abstract\ndim 0\ncell v 1\nchain 0\n",
    "chainfile 1 box\nambient 2\ndim 1\n",
    "chainfile 1 simplicial\nambient 2\ndim 1\n",
    (FIXTURES / "path3.chain").read_text(),
    (FIXTURES / "square.chain").read_text(),
    (FIXTURES / "segment.chain").read_text(),
], ids=["abstract-empty", "box-empty", "simplicial-empty", "abstract", "box", "simplicial"])
def test_cli_rejects_a_modulus_below_two(text, command, p, tmp_path, capsys):
    path = tmp_path / "chain.chain"
    path.write_text(text)
    rc, out = run_cli([command, str(path), "--p", p, "--json"], capsys)
    assert rc == 2
    assert json.loads(out)["error"] == {
        "kind": "precondition",
        "message": f"invalid modulus: {p} (an integer >= 2 is required)"}


@pytest.mark.parametrize("name", ["empty_box.chain", "square.chain"])
def test_slicestar_rejects_a_modulus_below_two(name, capsys):
    # checked before any cell is read, so an empty chain is no exception
    rc, out = run_cli(fixture_argv(["slicestar", name, "--p", "1"]), capsys)
    assert rc == 2
    assert json.loads(out)["error"] == {
        "kind": "precondition",
        "message": "invalid modulus: 1 (an integer >= 2 is required)"}


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


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_text_output_of_every_golden_case(name, argv, capsys):
    # one line per key of the golden's result, its value as the stdlib
    # writes it without indent
    result = json.loads((GOLDENS / f"{name}.json").read_text())["result"]
    rc, out = run_cli(fixture_argv(argv)[:-1], capsys)
    assert rc == 0
    assert out == "".join([f"command: {argv[0]}\n"] + [
        f"{key}: {json.dumps(result[key], sort_keys=True)}\n" for key in sorted(result)])


# the characters JSON escapes, and astral ones that become surrogate pairs
json_text = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80 ~e\u00e9\u20ac\ud800\U0001f600')
                    | st.characters(exclude_categories=()), max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300)
@given(json_values)
def test_the_writer_matches_the_stdlib(value):
    assert _json(value, True) == json.dumps(value, sort_keys=True, indent=2)
    assert _json(value, False) == json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, {1}, [{"a": 1.5}], {1: "a"}],
                         ids=["fraction", "float", "set", "nested-float", "int-key"])
def test_the_writer_refuses_other_types(value):
    for indent in (True, False):
        with pytest.raises(TypeError):
            _json(value, indent)


# ---- the process entry: `python -m flatchains.cli` and the `flatchains` script ----

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output_through_the_process_entry(name, argv):
    done = subprocess.run([sys.executable, "-m", "flatchains.cli", *fixture_argv(argv)],
                          capture_output=True, env=child_env(), timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDENS / f"{name}.json").read_bytes()


# run as `python -m flatchains.cli` runs it, after registering an atexit
# hook that an ordinary interpreter exit would run
EXIT_PROBE = """
import atexit, runpy
atexit.register(print, "atexit ran")
runpy.run_module("flatchains.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv,usage", [
    (["mass", str(FIXTURES / "square.chain"), "--json"], False),
    (["mass", "does-not-exist.chain", "--json"], False),
    (["mass", str(FIXTURES / "square.chain"), "--p", "3"], True),  # a usage error
    (["mass", "--help"], False),
], ids=["ok", "missing-file", "usage-error", "help"])
def test_a_cli_process_skips_the_interpreter_teardown(argv, usage, capsys, monkeypatch):
    # the entry exits with main's code and output, and no atexit hook runs
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal's width
    try:
        code = main(argv)
    except SystemExit as stop:  # argparse's, after help or a usage error
        code = stop.code
    out = capsys.readouterr().out
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)  # what stdout holds reaches it only by the entry's flush
    done = subprocess.run([sys.executable, "-c", EXIT_PROBE, *argv], capture_output=True,
                          env=env, text=True, timeout=60)
    assert done.returncode == code
    assert done.stdout == out
    assert ("usage:" in done.stderr) == usage
    assert "Traceback" not in done.stderr


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert main(["mass", str(FIXTURES / "square.chain"), "--json"]) == 0
    assert main(["mass", "does-not-exist.chain", "--json"]) == 2
    with pytest.raises(SystemExit):
        main(["mass", str(FIXTURES / "square.chain"), "--p", "3"])
    assert gc.get_freeze_count() == before


def test_the_script_and_python_m_call_one_entry():
    # no tomllib before Python 3.11: the script line is read as text
    entry = re.search(r'^flatchains = "flatchains\.cli:(\w+)"$',
                      (SRC.parent / "pyproject.toml").read_text(), re.M).group(1)
    tree = ast.parse((SRC / "flatchains" / "cli.py").read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(block.body) == f"{entry}()"


def run_into_a_closed_pipe(argv, env):
    """The finished `python -m flatchains.cli` child whose stdout reader
    was gone before it started."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "flatchains.cli", argv[0],
                               *(str(FIXTURES / a) if a.endswith(".chain") else a
                                 for a in argv[1:])],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=60)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv,code", [
    (["flatnormp", "square_rim.chain", "--p", "3", "--json"], 0),
    (["mass", "square.chain", "--p", "3", "--json"], 2),  # a usage error
    (["mass", "square.chain"], 0),
], ids=["json", "usage-error", "text"])
def test_a_closed_pipe_is_no_defect(argv, code):
    # the reader of stdout is gone before the CLI writes: the output goes
    # nowhere, and the exit code is still the command's own
    done = run_into_a_closed_pipe(argv, child_env())
    assert done.returncode == code
    assert "Traceback" not in done.stderr and (code or not done.stderr)


@pytest.mark.parametrize("argv,code", [
    (["preprocess", "curves_mixed.chain", "--json"], 0),
    (["preprocess", "curves_mixed.chain"], 0),
    (["mass", "square.chain", "--p", "3", "--json"], 2),  # a usage error
    (["mass", "--help"], 0),
], ids=["json", "text", "usage-error", "help"])
def test_a_closed_pipe_is_no_defect_with_buffered_stdout(argv, code):
    # with stdout buffered, a write to the closed pipe fails only at a flush:
    # the report's own, or the one the process entry makes before os._exit
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    done = run_into_a_closed_pipe(argv, env)
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
                                ["flatnormp", "--p", "1000003"],
                                ["flatnormp", "--p", "2305843009213693951"],
                                ["fill", "--p", "2"], ["fill", "--p", "4"], ["fill", "--p", "6"],
                                ["isoratio", "--p", "2"], ["isoratio", "--p", "3"]]))
def test_random_abstract_files_never_hit_a_defect(fuzz_file, text, command):
    # rejected input exits 2; exit 1 would be an internal defect.  A flat
    # norm's work does not grow with p, so the large moduli answer at once
    fuzz_file.write_text(text)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main([command[0], str(fuzz_file), *command[1:], "--json"])
    assert rc in (0, 2), out.getvalue()
    assert time.perf_counter() - start < 5


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
