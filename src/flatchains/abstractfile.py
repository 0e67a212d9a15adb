"""The body of an abstract chain file (see fileio.CARRIERS); not in `core`,
which box-file solves load too, so that only abstract files compile it."""

from __future__ import annotations

from .core import Complex, IntChain
from .fileio import ParseError, _integer, _number, format_number


def _read_chainfile(body) -> tuple[Complex, IntChain]:
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


def _write_chainfile(payload: tuple[Complex, IntChain]) -> list[str]:
    cx, chain = payload
    out = []
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
    return out
