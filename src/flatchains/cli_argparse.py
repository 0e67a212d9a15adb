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


def build_parser(commands: dict, flags: dict,
                 command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser over its COMMANDS and _FLAGS tables: all
    subparsers, or only the given subcommand's.

    The two print the same usage line, so their messages are the same.
    """
    parser = _Parser(
        prog="flatchains",
        description="Mass, flat norm, slicing, deformation, and cycle "
                    "extraction for chains mod p on finite complexes.")
    # with a lone subparser the metavar keeps every choice in the usage line;
    # the full parser sets none, or argparse's errors would name the argument
    # by the metavar, not `command`
    choices = None if command is None else "{" + ",".join(commands) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name in commands if command is None else (command,):
        _, required, optional = commands[name]
        # no abbreviations: `deform --r` must not be taken for `--rho`
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.add_argument("file", help="chain file")
        for flag in required + optional:
            cmd.add_argument(f"--{flag}", **flags[flag][1])
        cmd.add_argument("--json", action="store_true", dest="as_json")
        cmd.add_argument("--timing", action="store_true",
                         help="include elapsed seconds in the report")
    return parser
