"""Import surface: a CLI call loads only the modules its subcommand uses.

Every check runs in a fresh interpreter, since this test process has
long since imported the whole package.  The child reports its
`sys.modules`: `-X importtime` lists no module loaded through
`importlib.import_module`, which is how the package loads its names.
"""

import json
import os
import runpy
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = Path(__file__).parent / "fixtures"

# loaded by every call: the package imports `base` eagerly, and the CLI
# needs `fileio` to read its file
BASE = {"flatchains", "flatchains.base", "flatchains.fileio"}

# standard modules too costly to import for the CLI: dataclasses pulls in
# inspect, which pulls in dis, ast and tokenize; the CLI writes its reports
# without json
HEAVY = {"dataclasses", "inspect", "json"}

# argparse and what it pulls in: loaded only to report a usage error or help
PARSING = {"argparse", "gettext", "locale"}


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def flatchains_imports(names: set) -> set:
    return {name for name in names if name.split(".")[0] == "flatchains"}


def import_in_child(module: str) -> set:
    """The flatchains modules a fresh interpreter holds after importing
    module, which must load none of HEAVY or PARSING."""
    done = run_python("-c", f"import sys, {module}\nnames = list(sys.modules)\n"
                            "import json\nprint(json.dumps(names))")
    assert done.returncode == 0, done.stderr
    names = set(json.loads(done.stdout))
    assert not names & (HEAVY | PARSING)
    return flatchains_imports(names)


# runs the CLI as `python -m flatchains.cli` does, then prints the modules
# it held before json was imported to print them, as the last line of
# stderr; the CLI ends its process through os._exit, with no teardown
CLI_CHILD = """
import os, runpy, sys
exit_now = os._exit

def report_and_exit(code):
    names = list(sys.modules)
    import json
    print(json.dumps(names), file=sys.stderr, flush=True)
    exit_now(code)

os._exit = report_and_exit
runpy.run_module("flatchains.cli", run_name="__main__", alter_sys=True)
"""


def cli_in_child(*argv):
    """The finished child and every module it held at exit."""
    done = run_python("-c", CLI_CHILD, *argv)
    return done, set(json.loads(done.stderr.splitlines()[-1]))


def test_importing_the_cli_loads_only_its_core():
    assert import_in_child("flatchains.cli") == BASE | {"flatchains.cli"}


# (argv, modules beyond BASE); `python -m` runs the CLI as __main__, so a
# loaded `flatchains.cli` would mean `cli.py` was compiled twice.  A call
# loads the module of its handler's family (`cli_chain` for the handlers
# that take any carrier) and its carrier's file code: an abstract file's in
# `abstractfile`, the others' in the module that builds the carrier.  Box
# calculus loads `boxes` alone: only `deform` loads `rounding`, and only a
# call that builds a complex from a box file loads `arrangement`.  Only a
# call that validates a complex loads `checks`: `validate`, and a solve or
# decomposition of an abstract file.
CALLS = [
    # an abstract file's parser builds its complex in `core`
    (["validate", "path3.chain"], {"abstractfile", "checks", "cli_chain", "core"}),
    (["massp", "path3.chain", "--p", "2"], {"abstractfile", "cli_chain", "core"}),
    (["boundary", "rim_skeleton.chain"], {"abstractfile", "cli_chain", "core"}),
    (["slice", "square.chain", "--axis", "0", "--r", "1/2"], {"boxes", "cli_boxes"}),
    (["mass", "square.chain"], {"boxes", "cli_chain"}),
    (["massp", "square.chain", "--p", "2"], {"boxes", "cli_chain"}),
    (["reduce", "square.chain", "--p", "2"], {"boxes", "cli_chain"}),
    (["boundary", "square.chain"], {"boxes", "cli_chain"}),
    (["deform", "fine_edge.chain", "--eta", "1", "--rho", "1/2,1/2"],
     {"boxes", "cli_boxes", "rounding"}),
    # only the integral flat norm compiles the min-cost flow
    (["flatnorm", "path3.chain"],
     {"abstractfile", "checks", "cli_flatnorm", "core", "flatnorm", "flow"}),
    (["flatnorm", "square_rim.chain"],
     {"arrangement", "boxes", "cli_flatnorm", "core", "flatnorm", "flow"}),
    # only a solve that takes the search compiles it: here the flow's filling
    # has coefficient 2, above the bound
    (["flatnorm", "double_rim.chain", "--bound", "1"],
     {"arrangement", "boxes", "cli_flatnorm", "core", "flatnorm", "flow", "search"}),
    # a box file's complex is built in `core` only where a call needs one
    (["validate", "square.chain"], {"arrangement", "boxes", "checks", "cli_chain", "core"}),
    (["flatnormp", "square_rim.chain", "--p", "2"],
     {"arrangement", "boxes", "cli_flatnorm", "core", "flatnorm"}),
    (["fill", "square_rim.chain", "--p", "2"],
     {"arrangement", "boxes", "cli_flatnorm", "core", "flatnorm"}),
    (["cyclecut", "curves_pair.chain"], {"cli_curves", "curves"}),
    (["preprocess", "curves_mixed.chain"], {"cli_curves", "curves"}),
    (["decompose", "square_rim.chain"], {"arrangement", "boxes", "cli_curves", "core", "curves"}),
    (["cyclerep", "parallel_paths.chain"],
     {"arrangement", "boxes", "cli_curves", "core", "curves"}),
    (["cone", "segment.chain", "--apex", "0,0"], {"cli_cone", "cone"}),
    (["conereport", "segment.chain", "--apex", "0,0", "--p", "2"], {"cli_cone", "cone"}),
    # the parser loads `cone` for a simplicial file; the chain's own methods
    # and `carrier` do the rest
    (["mass", "segment.chain"], {"cli_chain", "cone"}),
    (["reduce", "segment.chain", "--p", "2"], {"cli_chain", "cone"}),
    (["boundary", "segment.chain"], {"cli_chain", "cone"}),
    (["reduce", "path3.chain", "--p", "2"], {"abstractfile", "cli_chain", "core"}),
    (["isoratio", "square_rim.chain", "--p", "2"],
     {"arrangement", "boxes", "cli_flatnorm", "core", "flatnorm"}),
    (["restrict", "square.chain", "--axis", "0", "--r", "1/2"], {"boxes", "cli_boxes"}),
    (["islice", "square.chain", "--axis", "0,1", "--r", "1/2,1/2"], {"boxes", "cli_boxes"}),
    # the slice masses compile only where a call needs them; no call loads
    # `boxgrid`, the grid chains
    (["slicemass", "square.chain", "--axis", "0", "--p", "2"], {"boxes", "boxmass", "cli_boxes"}),
    (["slicestar", "square.chain", "--p", "2"], {"boxes", "boxmass", "cli_boxes"}),
    (["refinecompare", "square_rim.chain", "--subdiv", "2", "--p", "2"],
     {"arrangement", "boxes", "cli_flatnorm", "core", "flatnorm"}),
    (["sysboundary", "curves_pair.chain"], {"cli_curves", "curves"}),
]


def test_calls_cover_every_subcommand():
    from flatchains.cli import COMMANDS

    assert {argv[0] for argv, _ in CALLS} == set(COMMANDS)


@pytest.mark.parametrize("argv,extra", CALLS, ids=[" ".join(c[0][:2]) for c in CALLS])
def test_a_call_loads_only_what_its_subcommand_needs(argv, extra):
    cmd, name, *flags = argv
    done, names = cli_in_child(cmd, str(FIXTURES / name), *flags, "--json")
    assert done.returncode == 0, done.stdout
    assert json.loads(done.stdout)["command"] == cmd
    assert flatchains_imports(names) == BASE | {f"flatchains.{m}" for m in extra}
    # a well-formed call is read without argparse
    assert not names & (HEAVY | PARSING)


# (argv, exit code): a usage error, help, and a well-formed call in a
# shape the CLI's own reader leaves to argparse
ARGPARSE_CALLS = [(["mass", "square.chain", "--p", "3"], 2), (["mass", "--help"], 0),
                  (["massp", "square.chain", "--p=3"], 0)]


@pytest.mark.parametrize("argv,code", ARGPARSE_CALLS,
                         ids=["usage-error", "help", "joined-value"])
def test_argparse_loads_for_what_the_reader_does_not_take(argv, code):
    argv = [str(FIXTURES / a) if a.endswith(".chain") else a for a in argv]
    done, names = cli_in_child(*argv)
    assert done.returncode == code, done.stderr
    assert PARSING | {"flatchains.cli_argparse"} <= names


# (library module, the flatchains modules importing it loads)
LIBRARY = [
    # the file code reads a body with its carrier's module, loaded when read;
    # the carriers' modules load `fileio` only when they read or write a file
    ("flatchains.fileio", {"flatchains", "flatchains.base", "flatchains.fileio"}),
    ("flatchains.boxes", {"flatchains", "flatchains.base", "flatchains.boxes"}),
    ("flatchains.rounding", {"flatchains", "flatchains.base", "flatchains.boxes",
                             "flatchains.rounding"}),
    ("flatchains.arrangement", {"flatchains", "flatchains.arrangement", "flatchains.base",
                                "flatchains.boxes", "flatchains.core"}),
    ("flatchains.curves", {"flatchains", "flatchains.base", "flatchains.curves"}),
    ("flatchains.cone", {"flatchains", "flatchains.base", "flatchains.cone"}),
    ("flatchains.flatnorm", {"flatchains", "flatchains.base", "flatchains.core",
                             "flatchains.flatnorm"}),
    # the flow hands flatnorm an optimum and builds no witness of its own
    ("flatchains.flow", {"flatchains", "flatchains.base", "flatchains.flow"}),
    ("flatchains.search", {"flatchains", "flatchains.base", "flatchains.core",
                           "flatchains.flatnorm", "flatchains.search"}),
    ("flatchains.boxmass", {"flatchains", "flatchains.base", "flatchains.boxes",
                            "flatchains.boxmass"}),
    ("flatchains.boxgrid", {"flatchains", "flatchains.base", "flatchains.boxes",
                            "flatchains.boxgrid"}),
    # a complex's and a map's validation load their checks when first run
    ("flatchains.core", {"flatchains", "flatchains.base", "flatchains.core"}),
    ("flatchains.checks", {"flatchains", "flatchains.base", "flatchains.checks",
                           "flatchains.core"}),
]


@pytest.mark.parametrize("module,loaded", LIBRARY, ids=[m for m, _ in LIBRARY])
def test_a_library_import_loads_no_complex_or_flow_it_does_not_use(module, loaded):
    assert import_in_child(module) == loaded


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
import flatchains.core
import flatchains.flatnorm
facts["cone_is_the_function"] = callable(flatchains.cone) and flatchains.cone.__name__ == "cone"
facts["one_fill_error"] = (flatchains.FillInfeasibleError
                           is flatchains.flatnorm.FillInfeasibleError
                           is flatchains.core.FillInfeasibleError)
print(json.dumps(facts))
"""

# the package's public names; dropping one breaks callers
PUBLIC = [
    "BoxCell", "BoxChain", "CellularMap", "ChainFile", "Complex", "ConeMassReport", "CurveItem",
    "CurvePath", "CurveSystem", "DeformationResult", "FillInfeasibleError", "FlatWitness",
    "IntChain", "InternalDefectError", "ModPChain", "ParseError", "PreconditionError",
    "PreprocessTrace", "Simplex", "SimplicialChain", "ValidationReport", "arrangement_complex",
    "as_fraction", "boundary_simplicial", "canonical_residue", "compile_chain", "cone",
    "cone_mass_report", "cycle_representative", "decompose_paths_loops", "deform",
    "extract_cycle_indices", "fill_mod_p", "flat_norm_int", "flat_norm_mod_p",
    "flat_norm_under_refinement", "format_number", "grid_chain", "isoperimetric_ratio",
    "load_chainfile", "mass_p", "norm_mod_p", "parse_chainfile", "preprocess", "push_forward",
    "save_chainfile", "serialize_chainfile", "slice_mass_integral", "slice_mass_star",
    "system_boundary", "validate_complex",
]

# defined in `base`, and importable from the package and from `core` too
BASE_NAMES = ("FillInfeasibleError", "Frozen", "InternalDefectError", "PreconditionError",
              "_check_modulus", "as_fraction", "canonical_residue", "norm_mod_p")

# the rest of what `flatchains.core` has always defined
CORE_NAMES = ("CellularMap", "Complex", "IntChain", "ModPChain", "ValidationReport", "_Cell",
              "mass_p", "push_forward", "validate_complex")


def test_public_names_resolve_lazily_to_their_definitions():
    done = run_python("-c", PACKAGE_FACTS)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"missing_from_dir": [], "not_from_defining_module": [],
                                       "cone_is_the_function": True, "one_fill_error": True}


def test_the_public_surface_is_pinned():
    import flatchains
    import flatchains.base
    import flatchains.core

    assert flatchains.__all__ == PUBLIC
    for name in BASE_NAMES:
        value = getattr(flatchains.base, name)
        assert getattr(flatchains.core, name) is value
        if name in PUBLIC:
            assert getattr(flatchains, name) is value
    for name in CORE_NAMES:
        assert getattr(flatchains.core, name).__module__ == "flatchains.core"
        if name in PUBLIC:
            assert getattr(flatchains, name) is getattr(flatchains.core, name)


def test_every_tracer_target_resolves_on_its_module():
    # the tracer skips a target it cannot find, and that layer's metrics
    # then read 0; run_path compiles the file without writing bytecode
    targets = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))["TARGETS"]
    for module_name, path, _, _ in targets:
        owner = import_module(f"flatchains.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{module_name}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{module_name}.{path}"


def test_the_moved_names_still_resolve_on_boxes():
    # the tracer and `from .boxes import ...` read them there
    import flatchains
    import flatchains.boxes as boxes
    import flatchains.cli as cli

    for name, module in (("deform", "rounding"), ("DeformationResult", "rounding"),
                         ("arrangement_complex", "arrangement"),
                         ("compile_chain", "arrangement"), ("grid_chain", "boxgrid"),
                         ("slice_mass_integral", "boxmass"), ("slice_mass_star", "boxmass")):
        assert getattr(boxes, name) is getattr(import_module(f"flatchains.{module}"), name)
    assert flatchains.deform is cli.deform is boxes.deform
    assert flatchains.deform.__name__ == "deform"


def test_a_name_read_on_cli_or_boxes_leaves_the_package_binding(monkeypatch):
    # both modules resolve through the package's resolver, which binds a
    # name on the package only the first time
    import flatchains
    import flatchains.boxes as boxes
    import flatchains.cli as cli
    import flatchains.flatnorm as flatnorm
    import flatchains.rounding as rounding

    bound = (flatchains.fill_mod_p, flatchains.deform)
    monkeypatch.setattr(flatnorm, "fill_mod_p", "patched fill")
    monkeypatch.setattr(rounding, "deform", "patched deform")
    assert (cli.fill_mod_p, boxes.deform) == ("patched fill", "patched deform")
    monkeypatch.undo()
    assert (flatchains.fill_mod_p, flatchains.deform) == bound
    assert (cli.fill_mod_p, boxes.deform) == bound
    # every public name reads on boxes, not only those of the box modules
    assert boxes.Complex is flatchains.Complex and boxes.cone is flatchains.cone


def test_no_module_is_named_after_a_public_name():
    # importing such a module would bind it as the package attribute in
    # place of the name; the package undoes that for `cone` alone
    import flatchains

    modules = {path.stem for path in (SRC / "flatchains").glob("*.py")}
    assert modules & set(flatchains.__all__) == {"cone"}


def test_unknown_names_raise_attribute_error():
    import flatchains
    import flatchains.boxes
    import flatchains.cli

    # cli and boxes resolve through the package's resolver, and raise its error
    for module in (flatchains, flatchains.boxes, flatchains.cli):
        with pytest.raises(AttributeError,
                           match="^module 'flatchains' has no attribute 'no_such_name'$"):
            module.no_such_name  # noqa: B018


def test_the_cli_still_exposes_the_library_functions_it_calls():
    # perfbench's harness tests read these names on the CLI module
    import flatchains.cli as cli

    for module, name in (("flatnorm", "fill_mod_p"), ("boxes", "deform"),
                         ("curves", "preprocess"), ("cone", "cone")):
        assert getattr(cli, name) is getattr(import_module(f"flatchains.{module}"), name)
