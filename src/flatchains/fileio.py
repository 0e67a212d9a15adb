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
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .base import Frozen, PreconditionError, _check_modulus

if TYPE_CHECKING:  # each parser imports its carrier's module when it runs
    from .boxes import BoxChain
    from .cone import SimplicialChain
    from .core import Complex, IntChain
    from .curves import CurveSystem

CARRIERS = ("abstract", "box", "curves", "simplicial")


class ParseError(PreconditionError):
    """A malformed chain file; the message is anchored to a line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def format_number(x) -> str:
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
    """A parsed chain file: carrier tag, optional modulus, payload."""

    _fields = ("carrier", "payload", "p")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, carrier: str,
                 payload: Union[BoxChain, CurveSystem, SimplicialChain, tuple[Complex, IntChain]],
                 p: Optional[int] = None):
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
    parser = {"box": _parse_box, "curves": _parse_curves,
              "simplicial": _parse_simplicial, "abstract": _parse_abstract}[carrier]
    return ChainFile(carrier, parser(body), p)


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


def _parse_box(body) -> BoxChain:
    from .boxes import BoxChain, _keyed, _ordered

    shape = {"ambient": None, "dim": None}
    items = []
    numbers: dict[str, Fraction] = {}  # cells share coordinates: parse each text once
    for no, line in body:
        tokens = line.split()
        if tokens[0] in shape:
            _parse_shape(tokens, no, shape)
        elif tokens[0] == "cell":
            if len(tokens) < 4 or len(tokens) % 2 != 0:
                raise ParseError(no, "expected `cell lo1 hi1 ... coeff`")
            coeff = _integer(tokens[-1], no)
            bounds = [numbers[t] if t in numbers else numbers.setdefault(t, _number(t, no))
                      for t in tokens[1:-1]]
            try:
                intervals = _ordered(tuple(zip(bounds[::2], bounds[1::2])))
            except PreconditionError as err:
                raise ParseError(no, str(err)) from None
            if shape["ambient"] is not None and len(intervals) != shape["ambient"]:
                raise ParseError(no, f"cell has {len(intervals)} axes, ambient is {shape['ambient']}")
            items.append((intervals, coeff))
        else:
            raise ParseError(no, f"unexpected {tokens[0]!r} in a box file")
    first = items and (len(items[0][0]), sum(lo != hi for lo, hi in items[0][0]))
    ambient, dim = _resolve_shape(shape, first, body, "box")
    return BoxChain(ambient, dim, *_keyed(ambient, dim, items))


def _parse_curves(body) -> CurveSystem:
    from .curves import CurveItem, CurveSystem

    items = []
    numbers: dict[str, Fraction] = {}  # curves share masses: parse each text once
    for no, line in body:
        tokens = line.split()
        if tokens[0] != "curve":
            raise ParseError(no, f"unexpected {tokens[0]!r} in a curves file")
        if len(tokens) != 5:
            raise ParseError(no, "expected `curve id start end mass`")
        idx = _integer(tokens[1], no)
        if idx != len(items) + 1:
            raise ParseError(no, f"curve ids must be consecutive from 1, got {idx}")
        mass = numbers[tokens[4]] if tokens[4] in numbers else numbers.setdefault(
            tokens[4], _number(tokens[4], no))
        if mass < 0:
            raise ParseError(no, f"negative mass {tokens[4]}")
        items.append(CurveItem(idx, tokens[2], tokens[3], mass))
    return CurveSystem(tuple(items))


def _parse_simplicial(body) -> SimplicialChain:
    from .cone import SimplicialChain, _check_vertices, _keyed

    shape = {"ambient": None, "dim": None}
    items = []
    numbers: dict[str, Fraction] = {}  # simplices share vertices: parse each text once
    for no, line in body:
        tokens = line.split()
        if tokens[0] in shape:
            _parse_shape(tokens, no, shape)
        elif tokens[0] == "simplex":
            fields = [f.strip() for f in line[len("simplex"):].split(";")]
            if len(fields) < 2 or not all(fields):
                raise ParseError(no, "expected `simplex v0 ; v1 ; ... ; coeff`")
            coeff = _integer(fields[-1], no)
            vertices = tuple(tuple(numbers[t] if t in numbers else numbers.setdefault(
                t, _number(t, no)) for t in map(str.strip, f.split(","))) for f in fields[:-1])
            if len({len(v) for v in vertices}) > 1:
                raise ParseError(no, "vertices have mixed coordinate counts")
            try:
                _check_vertices(vertices)
            except PreconditionError as err:
                raise ParseError(no, str(err)) from None
            items.append((vertices, coeff))
        else:
            raise ParseError(no, f"unexpected {tokens[0]!r} in a simplicial file")
    first = items and (len(items[0][0][0]), len(items[0][0]) - 1)
    return SimplicialChain(*_resolve_shape(shape, first, body, "simplicial"), *_keyed(items))


def _parse_abstract(body) -> tuple[Complex, IntChain]:
    from .core import Complex, IntChain

    cells: dict[int, list] = {}
    cell_lines: dict[str, int] = {}
    faces: dict[str, list] = {}
    chain_dim = None
    coeffs: dict[str, int] = {}
    current_dim = None
    in_chain = False
    for no, line in body:
        tokens = line.split()
        kind = tokens[0]
        if kind == "dim":
            if in_chain:
                raise ParseError(no, "dim section after the chain section")
            if len(tokens) != 2:
                raise ParseError(no, "expected `dim <int>`")
            current_dim = _integer(tokens[1], no)
            cells.setdefault(current_dim, [])
        elif kind == "cell":
            if current_dim is None:
                raise ParseError(no, "cell line before any dim line")
            if len(tokens) != 3:
                raise ParseError(no, "expected `cell id vol`")
            cid = tokens[1]
            if cid in cell_lines:
                raise ParseError(no, f"duplicate cell id {cid!r}")
            cell_lines[cid] = current_dim
            cells[current_dim].append((cid, _number(tokens[2], no)))
        elif kind == "face":
            if len(tokens) != 4:
                raise ParseError(no, "expected `face cell child sign`")
            if tokens[1] not in cell_lines:
                raise ParseError(no, f"face references undeclared cell {tokens[1]!r}")
            if tokens[2] not in cell_lines:
                raise ParseError(no, f"face references undeclared cell {tokens[2]!r}")
            faces.setdefault(tokens[1], []).append((tokens[2], _integer(tokens[3], no)))
        elif kind == "chain":
            if len(tokens) != 2:
                raise ParseError(no, "expected `chain <dim>`")
            if chain_dim is not None:
                raise ParseError(no, "duplicate chain line")
            chain_dim = _integer(tokens[1], no)
            in_chain = True
        elif kind == "coeff":
            if not in_chain:
                raise ParseError(no, "coeff line before the chain line")
            if len(tokens) != 3:
                raise ParseError(no, "expected `coeff id g`")
            if tokens[1] in coeffs:
                raise ParseError(no, f"duplicate coefficient for {tokens[1]!r}")
            coeffs[tokens[1]] = _integer(tokens[2], no)
        else:
            raise ParseError(no, f"unexpected {kind!r} in an abstract file")
    layout = {dim: [(cid, vol, faces.get(cid, ())) for cid, vol in layer]
              for dim, layer in cells.items()}
    cx = Complex(layout)
    if chain_dim is None:
        chain_dim = cx.top_dim
    return cx, IntChain(cx, chain_dim, coeffs)


def serialize_chainfile(cf: ChainFile) -> str:
    out = [f"chainfile 1 {cf.carrier}"]
    if cf.p is not None:
        out.append(f"p {cf.p}")
    if cf.carrier == "box":
        chain: BoxChain = cf.payload
        out.append(f"ambient {chain.ambient_dim}")
        out.append(f"dim {chain.dim}")
        for cell, g in chain.items():
            bounds = " ".join(f"{format_number(lo)} {format_number(hi)}"
                              for lo, hi in cell.intervals)
            out.append(f"cell {bounds} {g}")
    elif cf.carrier == "curves":
        system: CurveSystem = cf.payload
        for item in system.items:
            out.append(f"curve {item.index} {item.start} {item.end} "
                       f"{format_number(item.mass)}")
    elif cf.carrier == "simplicial":
        chain: SimplicialChain = cf.payload
        out.append(f"ambient {chain.ambient_dim}")
        out.append(f"dim {chain.dim}")
        for simplex, g in chain.items():
            out.append(f"simplex {simplex.id_token()} ; {g}")
    else:
        cx, chain = cf.payload
        for dim in cx.dims():
            out.append(f"dim {dim}")
            for cid in cx.cells(dim):
                out.append(f"cell {cid} {format_number(cx.volume(cid))}")
        for dim in cx.dims():
            for cid in cx.cells(dim):
                for fid, sign in sorted(cx.boundary_of(cid).items()):
                    out.append(f"face {cid} {fid} {sign}")
        out.append(f"chain {chain.dim}")
        for cid, g in chain.items():
            out.append(f"coeff {cid} {g}")
    return "\n".join(out) + "\n"


def save_chainfile(cf: ChainFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_chainfile(cf))
