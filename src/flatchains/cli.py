"""Command-line front end: every library operation on chain files.

One subcommand per operation, one chain file per invocation.  Each
subcommand takes only its own flags, listed in COMMANDS, plus `--json`
and `--timing`; any other flag is a usage error (exit 2, argparse's
message on stderr, and under `--json` an error document as well).  A
well-formed call never imports argparse: a small reader over COMMANDS
and _FLAGS takes the subcommand, its file and its flags, with argparse's
types and choices.  Whatever the reader does not take (help, a usage
error, or a shape such as `--p=3` or a repeated flag) goes to argparse
in `cli_argparse`, which builds the full parser of every subcommand, so
every usage message and help text is argparse's own.
Default output is a short human-readable report; `--json` switches to a
single structured document (stable key order, canonical number strings)
that validates against the packaged schema.json.  Exit codes: 0 on success,
2 on a precondition violation (including parse errors, unparsable or
missing flag values, and infeasible fills), 1 on an internal defect.

Each handler is in the module of its family that COMMANDS names, those
that take any carrier in `cli_chain`, so a call compiles only its own
family's; the document helpers they share are in `fileio`.  The
package's public names read as attributes of this module through the
package's own resolver.  `run`, the process entry, ends the process
without the interpreter's teardown.

Numbers inside reports are strings in the file format, integers and
`a/b` rationals exactly and floats via repr; coefficients, counts and
indices stay JSON integers.  `_json` writes every report, byte for byte
as `json.dumps` would, so no call imports json.
"""

from __future__ import annotations

import os
import sys
import time
from _json import encode_basestring_ascii as _quote  # json's own ensure_ascii escaper
from fractions import Fraction
from importlib import import_module
from types import SimpleNamespace

# Each handler imports the library functions it uses when it runs, so a
# call loads only the modules its subcommand needs: from their defining
# module, but `deform` and the box complex builders from `boxes`, which
# is where perfbench's tracer wraps them.  The package's resolver keeps
# its public names readable as attributes of this module, for code that
# reads `flatchains.cli.<name>` (perfbench's harness tests do).
from . import __getattr__  # noqa: F401
from .base import FillInfeasibleError, InternalDefectError, PreconditionError
from .fileio import format_number, load_chainfile


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

# subcommand -> (the module of its handler `_cmd_<subcommand>`; required
# flags; optional flags)
COMMANDS = {
    "validate": ("cli_chain", (), ()),
    "mass": ("cli_chain", (), ()),
    "massp": ("cli_chain", (), ("p",)),
    "reduce": ("cli_chain", (), ("p",)),
    "boundary": ("cli_chain", (), ()),
    "flatnorm": ("cli_flatnorm", (), ("bound",)),
    "flatnormp": ("cli_flatnorm", (), ("p",)),
    "fill": ("cli_flatnorm", (), ("p",)),
    "isoratio": ("cli_flatnorm", (), ("p",)),
    "restrict": ("cli_boxes", ("axis", "r"), ("side",)),
    "slice": ("cli_boxes", ("axis", "r"), ()),
    "islice": ("cli_boxes", ("axis", "r"), ()),
    "slicemass": ("cli_boxes", ("axis",), ("p",)),
    "slicestar": ("cli_boxes", (), ("p",)),
    "deform": ("cli_boxes", ("eta",), ("rho", "p", "optimize")),
    "refinecompare": ("cli_flatnorm", ("subdiv",), ("p",)),
    "sysboundary": ("cli_curves", (), ()),
    "preprocess": ("cli_curves", (), ()),
    "cyclecut": ("cli_curves", (), ("p",)),
    "decompose": ("cli_curves", (), ()),
    "cyclerep": ("cli_curves", (), ("p",)),
    "cone": ("cli_cone", ("apex",), ()),
    "conereport": ("cli_cone", ("apex",), ("p",)),
}


# -- dispatch ---------------------------------------------------------------

def _read(argv: list) -> SimpleNamespace | None:
    """argv's namespace as argparse would build it, for the one shape a
    well-formed call takes; None for anything else.

    The shape: a known subcommand, then its file and its flags in any
    order, each flag spelled in full and given once, each flag's value
    the next token, not starting with `-`.  Values get argparse's `type`
    and `choices`.  A None sends argv to argparse, which parses it or
    reports the error.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, required, optional = COMMANDS[argv[0]]
    flags = {f"--{flag}": (flag, _FLAGS[flag][1]) for flag in required + optional}
    flags.update({"--json": ("as_json", {"action": "store_true"}),
                  "--timing": ("timing", {"action": "store_true"})})
    args = {"command": argv[0]}
    for dest, keywords in flags.values():
        args[dest] = keywords.get("default", False if "action" in keywords else None)
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            dest, value = "file", token
        else:
            dest, keywords = flags.get(token, (None, None))
            if dest is None:
                return None
            if "action" in keywords:  # store_true
                value = True
            else:
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None
                if "type" in keywords:
                    try:
                        value = keywords["type"](value)
                    except (TypeError, ValueError):
                        return None
                if value not in keywords.get("choices", (value,)):
                    return None
        if dest in given:
            return None
        given.add(dest)
        args[dest] = value
    return SimpleNamespace(**args) if "file" in given else None


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


def _json(value, indent: bool) -> str:
    """The text of `json.dumps(value, sort_keys=True)`, `indent=2` if indent
    is set, for str, int, bool, None, list, tuple and dict with str keys;
    anything else, a float included, is a TypeError."""
    out = []

    def write(v, pad: str) -> None:
        if isinstance(v, str):
            out.append(_quote(v))
        elif v is None or isinstance(v, int):
            out.append("null" if v is None else "true" if v is True else "false" if v is False
                       else int.__repr__(v))
        elif not isinstance(v, (list, tuple, dict)):
            raise TypeError(f"cannot write a {type(v).__name__} as JSON")
        elif not v:
            out.append("{}" if isinstance(v, dict) else "[]")
        else:
            is_dict = isinstance(v, dict)
            inner = pad + "  " if indent else pad
            sep = "," + inner if indent else ", "
            out.append(("{" if is_dict else "[") + inner)
            kinds = None if is_dict else set(map(type, v))
            if kinds == {int} or kinds == {str}:  # a flat list, written in one join
                out.append(sep.join(map(int.__repr__ if int in kinds else _quote, v)))
            else:
                for n, item in enumerate(sorted(v) if is_dict else v):
                    if n:
                        out.append(sep)
                    if is_dict:  # _quote refuses a key that is no str
                        out.append(_quote(item) + ": ")
                        item = v[item]
                    write(item, inner)
            out.append(pad + ("}" if is_dict else "]"))

    write(value, "\n" if indent else "")
    return "".join(out)


def _emit(doc: dict, as_json: bool) -> None:
    try:
        if as_json:
            print(_json(doc, True))
        else:
            print(f"command: {doc['command']}")
            body = doc.get("result") if doc.get("result") is not None else doc.get("error")
            for key in sorted(body):
                print(f"{key}: {_json(body[key], False)}")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: let the final flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        from .cli_argparse import parse_args
        args = parse_args(argv, COMMANDS, _FLAGS, _emit)
    started = time.perf_counter()
    doc = {"version": 2, "command": args.command}
    try:
        doc["inputs"] = _parse_flags(args)
        cf = load_chainfile(args.file)
        handlers = import_module(f".{COMMANDS[args.command][0]}", __package__)
        result, code = getattr(handlers, f"_cmd_{args.command}")(args, cf)
        doc["result"] = result
    except (PreconditionError, FillInfeasibleError) as err:
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


def run() -> None:
    """The process entry of `python -m flatchains.cli` and the `flatchains`
    script: main, then exit with its code.

    main's code, or argparse's after help or a usage error, ends the
    process through `os._exit` once stdout and stderr are flushed, so no
    call pays for the interpreter's teardown: no module is torn down, no
    exit-time collection runs, and atexit handlers do not run.  Any other
    exception out of main takes the ordinary exit with its traceback.
    main itself returns: tests and tracers call it in-process.
    """
    try:
        code = main()
    except SystemExit as stop:  # argparse's, after help or a usage error: 0 or 2
        code = stop.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:  # the reader left: the rest goes nowhere
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
