"""The CLI's argparse parser, for the argv its own reader does not take:
help, a usage error, or a shape such as `--p=3` (see cli)."""

from __future__ import annotations

import argparse


class _Parser(argparse.ArgumentParser):
    """argparse, keeping a usage error's message on the SystemExit it raises."""

    def error(self, message):
        try:
            super().error(message)
        except SystemExit as stop:
            stop.usage_message = message
            raise


def build_parser(commands: dict, flags: dict) -> argparse.ArgumentParser:
    """The CLI's parser over its COMMANDS and _FLAGS tables."""
    parser = _Parser(
        prog="flatchains",
        description="Mass, flat norm, slicing, deformation, and cycle "
                    "extraction for chains mod p on finite complexes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, required, optional) in commands.items():
        # no abbreviations: `deform --r` must not be taken for `--rho`
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.add_argument("file", help="chain file")
        for flag in required + optional:
            cmd.add_argument(f"--{flag}", **flags[flag][1])
        cmd.add_argument("--json", action="store_true", dest="as_json")
        cmd.add_argument("--timing", action="store_true",
                         help="include elapsed seconds in the report")
    return parser


def parse_args(argv: list, commands: dict, flags: dict, emit) -> argparse.Namespace:
    """argv's namespace from the CLI's parser, or argparse's exit.

    On a usage error under a known subcommand's --json, emit (cli's
    `_emit`) also prints the error as a report: argparse has already
    written its usage text to stderr, and the exit code stays 2.  Without
    a known subcommand there is no report: the schema's `command` has no
    value for it.  emit is passed in because under `python -m` the CLI
    runs as `__main__`, and importing `flatchains.cli` here would compile
    it a second time.
    """
    try:
        return build_parser(commands, flags).parse_args(argv)
    except SystemExit as stop:
        options = argv[1:argv.index("--")] if "--" in argv else argv[1:]
        # help exits with no usage_message, and no argv[0] goes with no options
        if hasattr(stop, "usage_message") and "--json" in options and argv[0] in commands:
            emit({"version": 2, "command": argv[0],
                  "error": {"kind": "precondition", "message": stop.usage_message},
                  "timing": None}, as_json=True)
        raise
