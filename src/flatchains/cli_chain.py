"""The CLI's handlers that take any carrier: validate, mass, massp, reduce
and boundary (see cli)."""

from fractions import Fraction

from .base import InternalDefectError, PreconditionError
from .fileio import ChainFile, _chain_doc, _need_p, format_number


def _chain(cf: ChainFile):
    """The file's chain: an abstract file's chain, else the payload."""
    return cf.payload[1] if cf.carrier == "abstract" else cf.payload


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
        points = sorted(system_boundary(cf.payload).items())
        return {"chain": {"carrier": "points", "dim": 0,
                          "items": [[pt, g] for pt, g in points]}}, 0
    return {"chain": _chain_doc(_chain(cf).boundary())}, 0
