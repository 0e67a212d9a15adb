"""Command-line front end: every library operation on chain files.

One subcommand per operation, one chain file per invocation.  Each
subcommand takes only its own flags, listed in COMMANDS, plus `--json`
and `--timing`; any other flag is a usage error (exit 2, argparse's
message on stderr, and under `--json` an error document as well).  A
call builds the parser of its subcommand alone; help, no arguments or an
unknown subcommand build the full parser.
Default output is a short human-readable report; `--json` switches to a
single structured document (stable key order, canonical number strings)
that validates against the packaged schema.json.  Exit codes: 0 on success,
2 on a precondition violation (including parse errors, unparsable or
missing flag values, and infeasible fills), 1 on an internal defect.

Numbers inside JSON reports are strings in the file format, integers
and `a/b` rationals exactly and floats via repr, so reports are stable
byte for byte.  Cell coefficients, counts, and indices stay JSON
integers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from importlib import import_module

from . import _LAZY
from .core import (FillInfeasibleError, InternalDefectError, IntChain,
                   ModPChain, PreconditionError)
from .fileio import ChainFile, ParseError, format_number, load_chainfile


# Each handler imports the library functions it uses when it runs, from
# their defining module, so a call loads only the modules its subcommand
# needs.  The package's public names stay readable as attributes of this
# module, for code that reads or patches `flatchains.cli.<name>`
# (perfbench's tracer does).
def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __package__), name)


def _chain_doc(chain) -> dict:
    """A chain of any carrier as a document: abstract cells are named by
    their ids, geometric cells by their id tokens."""
    doc = {"carrier": chain.carrier, "dim": chain.dim}
    if chain.carrier == "abstract":
        doc["items"] = [[cid, g] for cid, g in chain.items()]
        if isinstance(chain, ModPChain):
            doc["p"] = chain.p
    else:
        doc["ambient"] = chain.ambient_dim
        doc["items"] = [[cell.id_token(), g] for cell, g in chain.items()]
    return doc


def _points_doc(coeffs: dict[str, int]) -> dict:
    return {"carrier": "points", "dim": 0,
            "items": [[pt, g] for pt, g in sorted(coeffs.items())]}


def _need_p(args, cf: ChainFile) -> int:
    if args.p is not None:
        return args.p
    if cf.p is not None:
        return cf.p
    raise PreconditionError("a modulus is required: pass --p or put a `p` line in the file")


def _chain(cf: ChainFile):
    """The file's chain: an abstract file's chain, else the payload."""
    return cf.payload[1] if cf.carrier == "abstract" else cf.payload


def _payload(cf: ChainFile, carrier: str):
    if cf.carrier != carrier:
        raise PreconditionError(f"this subcommand needs a {carrier} file, got {cf.carrier!r}")
    return cf.payload


def _as_cellular(cf: ChainFile, ambient: bool) -> IntChain:
    """A chain over an explicit complex: abstract validated, box compiled.

    With ambient=True a box chain is compiled over the full arrangement
    of its coordinate values, so higher-dimensional fillings exist; the
    flat norms this computes are relative to that complex.
    """
    if cf.carrier == "abstract":
        cf.payload[0].validate().require("invalid complex")
        return cf.payload[1]
    if cf.carrier == "box":
        from .boxes import arrangement_complex, compile_chain
        _, chain = (arrangement_complex if ambient else compile_chain)(cf.payload)
        return chain
    raise PreconditionError(
        f"this subcommand needs a box or abstract file, got {cf.carrier!r}")


def _one(values: list, flag: str):
    if len(values) != 1:
        raise PreconditionError(f"--{flag} takes exactly one value here")
    return values[0]


# -- handlers ---------------------------------------------------------------

def _cmd_validate(args, cf):
    if cf.carrier == "abstract":
        cx, chain = cf.payload
        report = cx.validate()
        detail = {k: (format_number(v) if isinstance(v, (int, Fraction, float))
                      and not isinstance(v, bool) else v)
                  for k, v in report.detail.items()}
        result = {"ok": report.ok, "carrier": cf.carrier,
                  "message": report.message, "cell": report.cell_id,
                  "detail": detail, "chain_cells": len(chain.items())}
        return result, 0 if report.ok else 2
    if cf.carrier == "curves":
        return {"ok": True, "carrier": cf.carrier, "curves": len(cf.payload)}, 0
    chain = cf.payload
    if cf.carrier == "box":
        from .boxes import compile_chain
        report = compile_chain(chain)[0].validate()
        if not report.ok:
            raise InternalDefectError(f"compiled box complex invalid: {report.message}")
    return {"ok": True, "carrier": cf.carrier, "cells": len(chain),
            "ambient": chain.ambient_dim, "dim": chain.dim}, 0


def _cmd_mass(args, cf):
    if cf.carrier == "curves":
        total = sum((item.mass for item in cf.payload.items), Fraction(0))
    else:
        total = _chain(cf).mass()
    return {"mass": format_number(total)}, 0


def _cmd_massp(args, cf):
    p = _need_p(args, cf)
    if cf.carrier == "curves":
        raise PreconditionError("mass mod p does not apply to curve systems")
    return {"mass_p": format_number(_chain(cf).mass_p(p)), "p": p}, 0


def _cmd_reduce(args, cf):
    p = _need_p(args, cf)
    if cf.carrier == "curves":
        raise PreconditionError("reduce does not apply to curve systems")
    return {"chain": _chain_doc(_chain(cf).reduce_mod_p(p))}, 0


def _cmd_boundary(args, cf):
    if cf.carrier == "curves":
        from .curves import system_boundary
        return {"chain": _points_doc(system_boundary(cf.payload))}, 0
    return {"chain": _chain_doc(_chain(cf).boundary())}, 0


def _witness_doc(witness) -> dict:
    return {"value": format_number(witness.value),
            "remainder": _chain_doc(witness.remainder),
            "filling": _chain_doc(witness.filling), "exact": witness.exact}


def _cmd_flatnorm(args, cf):
    from .flatnorm import flat_norm_int
    witness = flat_norm_int(_as_cellular(cf, ambient=True), args.bound)
    return {**_witness_doc(witness), "bound": witness.bound}, 0


def _cmd_flatnormp(args, cf):
    from .flatnorm import flat_norm_mod_p
    p = _need_p(args, cf)
    witness = flat_norm_mod_p(_as_cellular(cf, ambient=True), p)
    return {**_witness_doc(witness), "p": p}, 0


def _cmd_fill(args, cf):
    from .flatnorm import fill_mod_p
    p = _need_p(args, cf)
    chain = _as_cellular(cf, ambient=True)
    filling = fill_mod_p(chain, p)
    return {"filling": _chain_doc(filling),
            "filling_mass": format_number(filling.mass_p(p)), "p": p}, 0


def _cmd_isoratio(args, cf):
    from .flatnorm import isoperimetric_filling
    p = _need_p(args, cf)
    chain = _as_cellular(cf, ambient=True)
    ratio, filling = isoperimetric_filling(chain, p)
    return {"ratio": format_number(ratio),
            "cycle_mass": format_number(chain.mass_p(p)),
            "filling_mass": format_number(filling.mass_p(p)), "p": p}, 0


def _cmd_restrict(args, cf):
    chain = _payload(cf, "box")
    axis = _one(args.axis, "axis")
    level = _one(args.r, "r")
    return {"chain": _chain_doc(chain.restrict(axis, level, args.side))}, 0


def _cmd_slice(args, cf):
    chain = _payload(cf, "box")
    axis = _one(args.axis, "axis")
    level = _one(args.r, "r")
    return {"chain": _chain_doc(chain.slice(axis, level))}, 0


def _cmd_islice(args, cf):
    chain = _payload(cf, "box")
    if len(args.axis) != len(args.r):
        raise PreconditionError(
            f"{len(args.axis)} axes against {len(args.r)} levels")
    return {"chain": _chain_doc(chain.iterated_slice(args.axis, args.r))}, 0


def _cmd_slicemass(args, cf):
    from .boxes import slice_mass_integral
    chain = _payload(cf, "box")
    p = _need_p(args, cf)
    return {"value": format_number(slice_mass_integral(chain, args.axis, p)), "p": p}, 0


def _cmd_slicestar(args, cf):
    from .boxes import slice_mass_star
    chain = _payload(cf, "box")
    p = _need_p(args, cf)
    return {"value": format_number(slice_mass_star(chain, p)), "p": p}, 0


def _cmd_deform(args, cf):
    from .boxes import deform
    chain = _payload(cf, "box")
    result = deform(chain, args.eta, rho=args.rho, p=args.p,
                    optimize_thresholds=args.optimize)
    return {"rounded": _chain_doc(result.rounded),
            "boundary_sweep": _chain_doc(result.boundary_sweep),
            "chain_sweep": _chain_doc(result.chain_sweep),
            "eta": format_number(result.eta),
            "rho": [format_number(r) for r in result.rho],
            "ratios": {"rounded": format_number(result.ratio_rounded),
                       "boundary_sweep": format_number(result.ratio_boundary_sweep),
                       "chain_sweep": format_number(result.ratio_chain_sweep)}}, 0


def _cmd_refinecompare(args, cf):
    from .flatnorm import flat_norm_under_refinement
    chain = _payload(cf, "box")
    p = _need_p(args, cf)
    coarse, refined = flat_norm_under_refinement(chain, p, args.subdiv)
    return {"coarse": format_number(coarse), "refined": format_number(refined),
            "monotone": refined <= coarse, "p": p, "subdiv": args.subdiv}, 0


def _cmd_sysboundary(args, cf):
    from .curves import system_boundary
    system = _payload(cf, "curves")
    return {"boundary": dict(sorted(system_boundary(system).items()))}, 0


def _cmd_preprocess(args, cf):
    from .curves import preprocess
    system = _payload(cf, "curves")
    reduced, trace = preprocess(system)
    events = []
    for event in trace.events:
        if event[0] == "loop":
            events.append({"kind": "loop", "sources": list(event[1])})
        else:
            events.append({"kind": "concat", "left": list(event[1]),
                           "right": list(event[2])})
    return {"items": [{"index": it.index, "start": it.start, "end": it.end,
                       "mass": format_number(it.mass)} for it in reduced.items],
            "sources": [list(src) for src in trace.sources],
            "loops": [list(src) for src in trace.loops],
            "events": events}, 0


def _cmd_cyclecut(args, cf):
    from .curves import extract_cycle_indices
    system = _payload(cf, "curves")
    p = _need_p(args, cf)
    return {"indices": extract_cycle_indices(system, p), "p": p}, 0


def _cmd_decompose(args, cf):
    from .curves import decompose_paths_loops
    chain = _as_cellular(cf, ambient=False)
    paths = decompose_paths_loops(chain)
    docs = [{"vertices": list(path.vertices),
             "edges": [[cid, sign] for cid, sign in path.edges],
             "closed": path.closed, "mass": format_number(path.mass)}
            for path in paths]
    return {"paths": docs,
            "open_count": sum(1 for p_ in paths if not p_.closed),
            "loop_count": sum(1 for p_ in paths if p_.closed)}, 0


def _cmd_cyclerep(args, cf):
    from .curves import cycle_representative
    p = _need_p(args, cf)
    chain = _as_cellular(cf, ambient=False)
    return {"chain": _chain_doc(cycle_representative(chain, p)), "p": p}, 0


def _cmd_cone(args, cf):
    from .cone import cone
    chain = _payload(cf, "simplicial")
    return {"chain": _chain_doc(cone(tuple(args.apex), chain))}, 0


def _cmd_conereport(args, cf):
    from .cone import cone_mass_report
    chain = _payload(cf, "simplicial")
    p = args.p if args.p is not None else cf.p
    report = cone_mass_report(tuple(args.apex), chain, p)
    return {"cone_mass": format_number(report.cone_mass),
            "cone_mass_p": None if report.cone_mass_p is None
            else format_number(report.cone_mass_p),
            "radius": format_number(report.radius)}, 0


def _csv(convert):
    return lambda text: [convert(tok.strip()) for tok in text.split(",") if tok.strip() != ""]


# flag -> (text parser, or None when argparse types the value; argparse keywords)
_FLAGS = {
    "p": (None, {"type": int, "help": "modulus"}),
    "axis": (_csv(int), {"help": "axis index, or comma list of them (0-based)"}),
    "r": (_csv(Fraction), {"help": "level, or comma list of levels"}),
    "eta": (Fraction, {"help": "coarse grid spacing"}),
    "rho": (_csv(Fraction), {"help": "comma list of rounding thresholds in (0,1)"}),
    "bound": (None, {"type": int, "help": "optimize over fillings with |coefficient| <= bound"
                                          " (a proved flow optimum that fits is kept)"}),
    "subdiv": (None, {"type": int, "help": "refinement factor"}),
    "side": (None, {"choices": ("below", "above"), "default": "below"}),
    "apex": (_csv(Fraction), {"help": "comma-separated apex coordinates"}),
    "optimize": (None, {"action": "store_true",
                        "help": "search rounding thresholds instead of the default"}),
}

# subcommand -> (handler, required flags, optional flags)
COMMANDS = {
    "validate": (_cmd_validate, (), ()),
    "mass": (_cmd_mass, (), ()),
    "massp": (_cmd_massp, (), ("p",)),
    "reduce": (_cmd_reduce, (), ("p",)),
    "boundary": (_cmd_boundary, (), ()),
    "flatnorm": (_cmd_flatnorm, (), ("bound",)),
    "flatnormp": (_cmd_flatnormp, (), ("p",)),
    "fill": (_cmd_fill, (), ("p",)),
    "isoratio": (_cmd_isoratio, (), ("p",)),
    "restrict": (_cmd_restrict, ("axis", "r"), ("side",)),
    "slice": (_cmd_slice, ("axis", "r"), ()),
    "islice": (_cmd_islice, ("axis", "r"), ()),
    "slicemass": (_cmd_slicemass, ("axis",), ("p",)),
    "slicestar": (_cmd_slicestar, (), ("p",)),
    "deform": (_cmd_deform, ("eta",), ("rho", "p", "optimize")),
    "refinecompare": (_cmd_refinecompare, ("subdiv",), ("p",)),
    "sysboundary": (_cmd_sysboundary, (), ()),
    "preprocess": (_cmd_preprocess, (), ()),
    "cyclecut": (_cmd_cyclecut, (), ("p",)),
    "decompose": (_cmd_decompose, (), ()),
    "cyclerep": (_cmd_cyclerep, (), ("p",)),
    "cone": (_cmd_cone, ("apex",), ()),
    "conereport": (_cmd_conereport, ("apex",), ("p",)),
}


# -- dispatch ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse, keeping a usage error's message on the SystemExit it raises."""

    def error(self, message):
        try:
            super().error(message)
        except SystemExit as stop:
            stop.usage_message = message
            raise


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: all subparsers, or only the given subcommand's.

    The two print the same usage line, so their messages are the same.
    """
    parser = _Parser(
        prog="flatchains",
        description="Mass, flat norm, slicing, deformation, and cycle "
                    "extraction for chains mod p on finite complexes.")
    # with a lone subparser the metavar keeps every choice in the usage line;
    # the full parser sets none, or argparse's errors would name the argument
    # by the metavar, not `command`
    choices = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name in COMMANDS if command is None else (command,):
        _, required, optional = COMMANDS[name]
        # no abbreviations: `deform --r` must not be taken for `--rho`
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.add_argument("file", help="chain file")
        for flag in required + optional:
            cmd.add_argument(f"--{flag}", **_FLAGS[flag][1])
        cmd.add_argument("--json", action="store_true", dest="as_json")
        cmd.add_argument("--timing", action="store_true",
                         help="include elapsed seconds in the report")
    return parser


def _echo(value):
    if isinstance(value, list):
        return [_echo(v) for v in value]
    return format_number(value) if isinstance(value, Fraction) else value


def _parse_flags(args) -> dict:
    """Replace each given flag's text on args by its typed value, once.

    Returns the `inputs` echo of the report: the file's basename and
    every flag the subcommand was given.
    """
    _, required, optional = COMMANDS[args.command]
    doc = {"file": os.path.basename(args.file)}
    for flag in required + optional:
        value = getattr(args, flag)
        if value is None:
            if flag in required:
                raise PreconditionError(f"--{flag} is required")
            continue
        parse = _FLAGS[flag][0]
        if parse is not None:
            try:
                value = parse(value)
            except (ValueError, ZeroDivisionError):
                raise PreconditionError(f"cannot parse --{flag} value {value!r}") from None
            setattr(args, flag, value)
        if value is not False:
            doc[flag] = _echo(value)
    return doc


def _emit(doc: dict, as_json: bool) -> None:
    try:
        if as_json:
            print(json.dumps(doc, sort_keys=True, indent=2))
        else:
            print(f"command: {doc['command']}")
            body = doc.get("result") if doc.get("result") is not None else doc.get("error")
            for key in sorted(body):
                print(f"{key}: {json.dumps(body[key], sort_keys=True)}")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: let the final flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_usage_error(argv: list, stop: SystemExit) -> None:
    """Under a known subcommand's --json, also print a usage error as JSON.

    argparse has already written its usage text to stderr, and the exit
    code stays 2.  Without a known subcommand there is no document: the
    schema's `command` has no value for it.
    """
    message = getattr(stop, "usage_message", None)
    if message is None or not argv or argv[0] not in COMMANDS:
        return
    options = argv[1:argv.index("--")] if "--" in argv else argv[1:]
    if "--json" in options:
        _emit({"version": 2, "command": argv[0],
               "error": {"kind": "precondition", "message": message},
               "timing": None}, as_json=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    except SystemExit as stop:
        _emit_usage_error(argv, stop)
        raise
    started = time.perf_counter()
    doc = {"version": 2, "command": args.command}
    try:
        doc["inputs"] = _parse_flags(args)
        cf = load_chainfile(args.file)
        result, code = COMMANDS[args.command][0](args, cf)
        doc["result"] = result
    except (ParseError, PreconditionError, FillInfeasibleError) as err:
        kind = "infeasible" if isinstance(err, FillInfeasibleError) else "precondition"
        doc["error"] = {"kind": kind, "message": str(err)}
        code = 2
    except InternalDefectError as err:
        doc["error"] = {"kind": "defect", "message": str(err)}
        code = 1
    except Exception as err:
        doc["error"] = {"kind": "defect", "message": f"{type(err).__name__}: {err}"}
        code = 1
    doc["timing"] = ({"seconds": format_number(round(time.perf_counter() - started, 6))}
                     if args.timing else None)
    _emit(doc, args.as_json)
    return code


if __name__ == "__main__":
    sys.exit(main())
