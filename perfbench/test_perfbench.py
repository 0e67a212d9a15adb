"""Tests of the benchmark itself: generator, checker, span arithmetic.

    python3 -m pytest perfbench/test_perfbench.py
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

import check
import gen
import run
import spans

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def _write_all(workload, seed, directory):
    for call in gen.build(workload, seed):
        (directory / call.file).write_bytes(call.text.encode())
    return sorted(directory.iterdir())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_writes_identical_files_for_one_seed(workload, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    files_a = _write_all(workload, 7, first)
    files_b = _write_all(workload, 7, second)
    assert [f.name for f in files_a] == [f.name for f in files_b]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_workloads_have_an_odd_call_count(workload):
    assert len(gen.build(workload, 1)) % 2 == 1


def test_cli_mixed_runs_every_subcommand():
    from flatchains.cli import COMMANDS

    assert {c.cmd for c in gen.build("cli-mixed", 1)} == set(COMMANDS)


def test_seed_moves_inputs_but_not_their_size():
    a, b = gen.build("solve", 1), gen.build("solve", 2)
    by_name = {c.name: c for c in b}
    assert sorted(by_name) == sorted(c.name for c in a)
    assert any(c.text != by_name[c.name].text for c in a)
    assert all(c.cells == by_name[c.name].cells for c in a)


def _cli_output(call, tmp_path):
    import flatchains.cli as cli

    path = tmp_path / call.file
    path.write_text(call.text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(call.argv(str(path)))
    return code, json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def checker():
    with open(run.REFERENCES) as fh:
        refs = json.load(fh)
    return check.Checker(ROOT / "src" / "flatchains" / "schema.json", refs)


def _call(name, seed=3):
    return next(c for c in gen.build("cli-mixed", seed) if c.name == f"cli-mixed/{name}")


def test_checker_accepts_real_output_under_a_shift(checker, tmp_path):
    for name in ("flatnormp-rim3", "fill-rim2", "mass-box", "bad-level"):
        call = _call(name)
        code, doc = _cli_output(call, tmp_path)
        assert checker.check(call, code, json.dumps(doc).encode())[0], name


def test_checker_rejects_tampered_witness(checker, tmp_path):
    call = _call("flatnormp-rim3")
    code, doc = _cli_output(call, tmp_path)
    bad = copy.deepcopy(doc)
    bad["result"]["filling"]["items"][0][1] += 1
    ok, reason, _ = checker.check(call, code, json.dumps(bad).encode())
    assert not ok and "differs from the input" in reason


def test_checker_rejects_wrong_value(checker, tmp_path):
    call = _call("flatnormp-rim3")
    code, doc = _cli_output(call, tmp_path)
    bad = copy.deepcopy(doc)
    bad["result"]["value"] = "8"
    ok, reason, _ = checker.check(call, code, json.dumps(bad).encode())
    assert not ok and "witness mass" in reason

    call = _call("mass-box")
    code, doc = _cli_output(call, tmp_path)
    doc["result"]["mass"] = "1000"
    ok, reason, _ = checker.check(call, code, json.dumps(doc).encode())
    assert not ok and "reference" in reason


def test_checker_rejects_malformed_result(checker, tmp_path):
    call = _call("flatnormp-rim3")
    code, doc = _cli_output(call, tmp_path)
    doc["result"]["filling"]["items"][0][0] = "not a cell"
    ok, reason, _ = checker.check(call, code, json.dumps(doc).encode())
    assert not ok and reason.startswith("malformed result")


def test_checker_rejects_wrong_exit_and_timeout(checker):
    call = _call("mass-box")
    assert not checker.check(call, 1, b"{}")[0]
    assert checker.check(call, None, b"")[1] == "timeout"


def test_self_times_of_synthetic_tree_sum_to_root():
    tree = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0], ["b", 2.0, 3.0, 1, 0],
            ["c", 5.0, 9.0, 0, 0], ["d", 6.0, 6.5, 3, 0]]
    own = spans.self_times(tree)
    assert own == [3.0, 2.0, 1.0, 3.5, 0.5]
    assert sum(own) == pytest.approx(10.0)


def test_recorder_self_times_sum_to_root():
    rec = spans.Recorder()

    def leaf():
        return sum(range(1000))

    leaf_t = rec.span("leaf", leaf)
    mid_t = rec.span("mid", lambda: leaf_t() + leaf_t())
    root = rec.span("root", lambda: mid_t() + leaf_t())
    root()
    names = [s[0] for s in rec.spans]
    assert names == ["root", "mid", "leaf", "leaf", "leaf"]
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 1, 0]
    assert sum(spans.self_times(rec.spans)) == pytest.approx(rec.spans[0][2] - rec.spans[0][1])


def test_install_wraps_cli_bindings_and_remove_restores():
    import flatchains.cli as cli
    import flatchains.flatnorm as flatnorm

    before = (cli.fill_mod_p, flatnorm.fill_mod_p, flatnorm.IntChain.boundary)
    rec = spans.Recorder()
    rec.install(cli)
    try:
        assert cli.fill_mod_p is flatnorm.fill_mod_p is not before[0]
    finally:
        rec.remove()
    assert (cli.fill_mod_p, flatnorm.fill_mod_p, flatnorm.IntChain.boundary) == before


def test_slowest_mean_averages_the_slowest_third():
    assert run.slowest_mean([1.0, 9.0, 2.0, 6.0, 3.0, 4.0, 5.0, 7.0, 8.0]) == 8.0
    assert run.slowest_mean([2.0, 1.0]) == 2.0


def test_middle_mean_averages_the_central_values():
    assert run.middle_mean([9.0, 1.0, 5.0, 4.0, 6.0]) == 5.0
    assert run.middle_mean([1.0, 2.0, 3.0, 4.0, 100.0, 0.0, 5.0, 6.0, 7.0, 8.0]) == 4.5
