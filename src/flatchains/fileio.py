"""Text files for chains: one file is one chain plus its complex.

Header line `chainfile 1 <carrier>` with carrier one of abstract, box,
curves, simplicial, then an optional `p <int>`, then the payload:

    box         `ambient n` / `dim k` (optional when cells are present)
                `cell lo1 hi1 lo2 hi2 ... coeff`
    curves      `curve id start end mass` with consecutive ids from 1
    simplicial  `ambient n` / `dim k` (optional when cells are present)
                `simplex x0,y0 ; x1,y1 ; ... ; coeff`
    abstract    `dim d` sections of `cell id vol` lines, then
                `face cell child sign` lines, then `chain k` with
                `coeff id g` lines

Blank lines and lines starting with `#` are skipped.  Numbers parse as
exact decimals or `a/b` rationals; serialization writes integers bare
and other rationals as `a/b`, so a canonical file round-trips byte for
byte.  Coefficients must be plain integers.

Each carrier's body is read and written by the module that builds the
carrier (CARRIERS), so a file compiles only its own carrier's code.  The
CLI's handlers share the document helpers at the end of this module.
"""

from __future__ import annotations

import os
from fractions import Fraction
from importlib import import_module
from typing import Optional

from .base import Frozen, PreconditionError, _check_modulus

# carrier -> module of `_read_chainfile(body)`, body the (line number, text)
# pairs after the header and `p`, and `_write_chainfile(payload)`, the body lines
CARRIERS = {"abstract": "abstractfile", "box": "boxes", "curves": "curves",
            "simplicial": "cone"}


class ParseError(PreconditionError):
    """A malformed chain file; the message is anchored to a line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def format_number(x) -> str:
    """A number's text in chain files and reports; a Fraction's is
    str(Fraction), which box chains use directly (BoxChain._text)."""
    if isinstance(x, bool):
        raise PreconditionError("boolean is not a number")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    raise PreconditionError(f"cannot format {x!r} as a number")


def _number(token: str, line: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, f"number expected, got {token!r}") from None


def _integer(token: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"integer expected, got {token!r}") from None


class ChainFile(Frozen):
    """A parsed chain file: carrier tag, optional modulus, payload (a BoxChain,
    CurveSystem, SimplicialChain, or an abstract file's (Complex, IntChain))."""

    _fields = ("carrier", "payload", "p")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, carrier: str, payload, p: Optional[int] = None):
        if carrier not in CARRIERS:
            raise PreconditionError(f"unknown carrier {carrier!r}")
        if p is not None:
            _check_modulus(p)
        vars(self).update(carrier=carrier, payload=payload, p=p)


def parse_chainfile(text: str) -> ChainFile:
    lines = [(no, line) for no, line in enumerate(map(str.strip, text.splitlines()), start=1)
             if line and not line.startswith("#")]
    if not lines:
        raise ParseError(1, "empty file")
    no, header = lines[0]
    head = header.split()
    if len(head) != 3 or head[0] != "chainfile":
        raise ParseError(no, "expected header `chainfile 1 <carrier>`")
    if head[1] != "1":
        raise ParseError(no, f"unsupported format version {head[1]!r}")
    carrier = head[2]
    if carrier not in CARRIERS:
        raise ParseError(no, f"unknown carrier {carrier!r}")
    body = lines[1:]
    p = None
    if body and body[0][1].split()[0] == "p":
        no, line = body[0]
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(no, "expected `p <int>`")
        p = _integer(tokens[1], no)
        if p < 2:
            raise ParseError(no, f"modulus must be at least 2, got {p}")
        body = body[1:]
    module = import_module(f".{CARRIERS[carrier]}", __package__)
    return ChainFile(carrier, module._read_chainfile(body), p)


def load_chainfile(path) -> ChainFile:
    """Parse the chain file at path; a file that cannot be read as UTF-8
    text is a PreconditionError naming the file and the reason."""
    name = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise PreconditionError(f"cannot read {name}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise PreconditionError(f"cannot read {name}: not UTF-8 text") from None
    return parse_chainfile(text)


def _parse_shape(tokens, no, shape):
    if len(tokens) != 2:
        raise ParseError(no, f"expected `{tokens[0]} <int>`")
    value = _integer(tokens[1], no)
    if shape.get(tokens[0]) is not None:
        raise ParseError(no, f"duplicate {tokens[0]} line")
    if value < 0:
        raise ParseError(no, f"{tokens[0]} must be nonnegative, got {value}")
    shape[tokens[0]] = value


def _resolve_shape(shape, first, body, carrier) -> tuple[int, int]:
    """Ambient and chain dimension: the file's lines, else first, the first item's."""
    ambient, dim = shape["ambient"], shape["dim"]
    if first:
        return first[0] if ambient is None else ambient, first[1] if dim is None else dim
    if ambient is None or dim is None:
        raise ParseError(body[-1][0] if body else 1,
                         f"an empty {carrier} chain needs ambient and dim lines")
    return ambient, dim


def serialize_chainfile(cf: ChainFile) -> str:
    out = [f"chainfile 1 {cf.carrier}"]
    if cf.p is not None:
        out.append(f"p {cf.p}")
    out += import_module(f".{CARRIERS[cf.carrier]}", __package__)._write_chainfile(cf.payload)
    return "\n".join(out) + "\n"


def save_chainfile(cf: ChainFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_chainfile(cf))


# -- documents: the CLI's handlers share these --------------------------------

def _chain_doc(chain) -> dict:
    """A chain of any carrier as a document: abstract cells are named by
    their ids, geometric cells by their id tokens."""
    doc = {"carrier": chain.carrier, "dim": chain.dim}
    if chain.carrier == "abstract":
        from .core import ModPChain  # loaded already: the chain was built there
        doc["items"] = [[cid, g] for cid, g in chain.items()]
        if isinstance(chain, ModPChain):
            doc["p"] = chain.p
    else:
        doc["ambient"] = chain.ambient_dim
        doc["items"] = (chain._tokens(chain._text()) if chain.carrier == "box"
                        else [[cell.id_token(), g] for cell, g in chain.items()])
    return doc


def _need_p(args, cf: ChainFile) -> int:
    p = args.p if args.p is not None else cf.p
    if p is None:
        raise PreconditionError("a modulus is required: pass --p or put a `p` line in the file")
    return p


def _payload(cf: ChainFile, carrier: str):
    if cf.carrier != carrier:
        raise PreconditionError(f"this subcommand needs a {carrier} file, got {cf.carrier!r}")
    return cf.payload


def _as_cellular(cf: ChainFile, ambient: bool):
    """The file's IntChain over an explicit complex: abstract validated, box compiled.

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
