"""Import surface: a CLI call loads only the modules its subcommand uses.

Every check runs in a fresh interpreter, since this test process has
long since imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).parent / "fixtures"

# loaded by every call: the package imports `core` eagerly, and the CLI
# needs `fileio` to read its file
BASE = {"flatchains", "flatchains.core", "flatchains.fileio"}

# standard modules too costly to import for the CLI: dataclasses pulls in
# inspect, which pulls in dis, ast and tokenize
HEAVY = {"dataclasses", "inspect"}


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def imported(stderr: str) -> set:
    """The modules named in a `-X importtime` report."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def flatchains_imports(names: set) -> set:
    return {name for name in names if name.split(".")[0] == "flatchains"}


def test_importing_the_cli_loads_only_its_core():
    done = run_python("-X", "importtime", "-c", "import json, sys, flatchains.cli; print("
                      "json.dumps([m for m in sys.modules if m.split('.')[0] == 'flatchains']))")
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout)) == BASE | {"flatchains.cli"}
    assert not imported(done.stderr) & HEAVY


# (argv, modules beyond BASE); `python -m` runs the CLI as __main__, so
# `flatchains.cli` itself is never among the imported modules
CALLS = [
    (["validate", "path3.chain"], set()),
    (["massp", "path3.chain", "--p", "2"], set()),
    (["boundary", "rim_skeleton.chain"], set()),
    (["slice", "square.chain", "--axis", "0", "--r", "1/2"], {"boxes"}),
    (["mass", "square.chain"], {"boxes"}),
    (["boundary", "square.chain"], {"boxes"}),
    (["deform", "fine_edge.chain", "--eta", "1", "--rho", "1/2,1/2"], {"boxes"}),
    (["flatnorm", "path3.chain"], {"flatnorm"}),
    (["flatnormp", "square_rim.chain", "--p", "2"], {"boxes", "flatnorm"}),
    (["fill", "square_rim.chain", "--p", "2"], {"boxes", "flatnorm"}),
    (["cyclecut", "curves_pair.chain"], {"curves"}),
    (["preprocess", "curves_mixed.chain"], {"curves"}),
    (["decompose", "square_rim.chain"], {"boxes", "curves"}),
    (["cyclerep", "parallel_paths.chain"], {"boxes", "curves"}),
    (["cone", "segment.chain", "--apex", "0,0"], {"cone"}),
    (["conereport", "segment.chain", "--apex", "0,0", "--p", "2"], {"cone"}),
    # the parser loads `cone` for a simplicial file; the chain's own methods
    # and `carrier` do the rest
    (["mass", "segment.chain"], {"cone"}),
    (["reduce", "segment.chain", "--p", "2"], {"cone"}),
    (["boundary", "segment.chain"], {"cone"}),
    (["reduce", "path3.chain", "--p", "2"], set()),
    (["isoratio", "square_rim.chain", "--p", "2"], {"boxes", "flatnorm"}),
    (["restrict", "square.chain", "--axis", "0", "--r", "1/2"], {"boxes"}),
    (["islice", "square.chain", "--axis", "0,1", "--r", "1/2,1/2"], {"boxes"}),
    (["slicemass", "square.chain", "--axis", "0", "--p", "2"], {"boxes"}),
    (["slicestar", "square.chain", "--p", "2"], {"boxes"}),
    (["refinecompare", "square_rim.chain", "--subdiv", "2", "--p", "2"], {"boxes", "flatnorm"}),
    (["sysboundary", "curves_pair.chain"], {"curves"}),
]


def test_calls_cover_every_subcommand():
    from flatchains.cli import COMMANDS

    assert {argv[0] for argv, _ in CALLS} == set(COMMANDS)


@pytest.mark.parametrize("argv,extra", CALLS, ids=[" ".join(c[0][:2]) for c in CALLS])
def test_a_call_loads_only_what_its_subcommand_needs(argv, extra):
    cmd, name, *flags = argv
    done = run_python("-X", "importtime", "-m", "flatchains.cli",
                      cmd, str(FIXTURES / name), *flags, "--json")
    assert done.returncode == 0, done.stdout
    assert json.loads(done.stdout)["command"] == cmd
    names = imported(done.stderr)
    assert flatchains_imports(names) == BASE | {f"flatchains.{m}" for m in extra}
    assert not names & HEAVY


def test_infeasible_fill_still_exits_2():
    done = run_python("-m", "flatchains.cli", "fill", str(FIXTURES / "rim_skeleton.chain"),
                      "--p", "2", "--json")
    assert done.returncode == 2
    assert json.loads(done.stdout)["error"]["kind"] == "infeasible"


PACKAGE_FACTS = """
import importlib, json
import flatchains
facts = {"missing_from_dir": sorted(set(flatchains.__all__) - set(dir(flatchains)))}
facts["not_from_defining_module"] = [
    name for name in flatchains.__all__
    if getattr(importlib.import_module(getattr(flatchains, name).__module__), name)
    is not getattr(flatchains, name)]
import flatchains.cone
import flatchains.flatnorm
facts["cone_is_the_function"] = callable(flatchains.cone) and flatchains.cone.__name__ == "cone"
facts["one_fill_error"] = (flatchains.FillInfeasibleError
                           is flatchains.flatnorm.FillInfeasibleError
                           is flatchains.core.FillInfeasibleError)
print(json.dumps(facts))
"""


def test_public_names_resolve_lazily_to_their_definitions():
    done = run_python("-c", PACKAGE_FACTS)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"missing_from_dir": [], "not_from_defining_module": [],
                                       "cone_is_the_function": True, "one_fill_error": True}


def test_unknown_names_raise_attribute_error():
    import flatchains
    import flatchains.cli

    for module in (flatchains, flatchains.cli):
        with pytest.raises(AttributeError):
            module.no_such_name  # noqa: B018


def test_the_cli_still_exposes_the_library_functions_it_calls():
    # the benchmark's tracer reads and patches these names on the CLI module
    from importlib import import_module

    import flatchains.cli as cli

    for module, name in (("flatnorm", "fill_mod_p"), ("boxes", "deform"),
                         ("curves", "preprocess"), ("cone", "cone")):
        assert getattr(cli, name) is getattr(import_module(f"flatchains.{module}"), name)
