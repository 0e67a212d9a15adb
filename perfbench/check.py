"""Checks one CLI output against the schema, its witness and its reference.

Flat-norm and fill witnesses are recomputed here in exact arithmetic from
the benchmark's own copy of the input: the input is split onto its
coordinate lattice (the complex the program solves over), and
`remainder + boundary(filling) = input` and the reported value are
verified with the box boundary written out from its definition.  Other
results must equal the references pinned for the default seed, after the
run's coordinate shift or name prefix is undone.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional

import jsonschema

import gen

_BOX_TOKEN = re.compile(r"b(\d+)\[([^\]]*)\]")
WITNESS_COMMANDS = ("flatnorm", "flatnormp", "fill")


class Checker:
    """Validates CLI documents; built once per run from the checkout."""

    def __init__(self, schema_path: Path, references: dict):
        with open(schema_path, encoding="utf-8") as fh:
            self.validator = jsonschema.Draft7Validator(json.load(fh))
        self.references = references

    def check(self, call: gen.Call, code: Optional[int], out: bytes) -> tuple[bool, str, dict]:
        """(passed, reason, facts); facts carries `exact` for flat-norm calls."""
        if code is None:
            return False, "timeout", {}
        if code != call.expect:
            return False, f"exit {code}, expected {call.expect}: {error_message(out)}", {}
        try:
            doc = json.loads(out)
        except ValueError:
            return False, "output is not JSON", {}
        errors = sorted(e.message for e in self.validator.iter_errors(doc))
        if errors:
            return False, f"schema: {errors[0]}", {}
        ref = self.references.get(call.name)
        if call.expect != 0:
            if ref is not None and doc.get("error") != ref["error"]:
                return False, "error differs from reference", {}
            return True, "", {}
        try:
            return self._check_result(call, unmap(doc["result"], call), ref)
        except (KeyError, TypeError, ValueError) as err:
            return False, f"malformed result: {type(err).__name__}: {err}", {}

    @staticmethod
    def _check_result(call: gen.Call, result: dict, ref: Optional[dict]) -> tuple:
        facts = {"exact": result["exact"]} if call.cmd in ("flatnorm", "flatnormp") else {}
        witnessed = call.cmd in WITNESS_COMMANDS and call.carrier == "box"
        if witnessed:
            problem = verify_witness(call, result)
            if problem:
                return False, problem, facts
        if ref is None:
            return witnessed, "" if witnessed else "no reference", facts
        return _against_reference(call, result, ref) + (facts,)


def error_message(out: bytes) -> str:
    try:
        return json.loads(out)["error"]["message"][:120]
    except (ValueError, KeyError, TypeError):
        return out[:120].decode("utf-8", "replace")


def _against_reference(call: gen.Call, result: dict, ref: dict) -> tuple[bool, str]:
    if call.cmd in ("flatnorm", "flatnormp"):
        value, pinned = Fraction(result["value"]), Fraction(ref["value"])
        if value == pinned or (not ref["exact"] and value < pinned):
            return True, ""
        return False, f"value {value} against reference {pinned}"
    if call.cmd == "fill":
        if result["filling_mass"] != ref["filling_mass"]:
            return False, f"filling mass {result['filling_mass']} against {ref['filling_mass']}"
        return True, ""
    if digest(result) != ref["sha256"]:
        return False, "result differs from reference"
    return True, ""


def digest(result: dict) -> str:
    """SHA-256 of a result in canonical JSON form."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference(result: dict) -> dict:
    """What is pinned for one result: its digest and the values read directly."""
    ref = {"sha256": digest(result)}
    ref.update({k: result[k] for k in ("value", "exact", "filling_mass") if k in result})
    return ref


# -- undoing a run's placement --------------------------------------------

def unmap(obj, call: gen.Call):
    """The result as it reads for the canonical (unshifted, unprefixed) input."""
    frame = call.frame
    if call.carrier == "box":
        def fix(s):
            return _unshift_box_token(s, frame.offsets)
    elif call.carrier == "simplicial":
        def fix(s):
            return _unshift_simplex_token(s, frame.offsets)
    elif frame.prefix:
        def fix(s):
            return s[len(frame.prefix):] if s.startswith(frame.prefix) else s
    else:
        return obj
    return _walk(obj, fix)


def _walk(obj, fix):
    if isinstance(obj, str):
        return fix(obj)
    if isinstance(obj, list):
        return [_walk(x, fix) for x in obj]
    if isinstance(obj, dict):
        return {fix(k): _walk(v, fix) for k, v in obj.items()}
    return obj


def _unshift_box_token(s: str, offsets) -> str:
    m = _BOX_TOKEN.fullmatch(s)
    if not m:
        return s
    parts = []
    for part, o in zip(m.group(2).split(";"), offsets):
        parts.append("..".join(gen.fmt(Fraction(v) - o) for v in part.split("..")))
    return f"b{m.group(1)}[" + ";".join(parts) + "]"


def _unshift_simplex_token(s: str, offsets) -> str:
    if "," not in s:
        return s
    try:
        verts = [[Fraction(c) - o for c, o in zip(v.split(","), offsets)]
                 for v in s.split(" ; ")]
    except ValueError:
        return s
    return " ; ".join(",".join(gen.fmt(c) for c in v) for v in verts)


# -- exact witness verification --------------------------------------------

def parse_box_token(token: str) -> tuple:
    m = _BOX_TOKEN.fullmatch(token)
    if not m:
        raise ValueError(f"not a box cell id: {token!r}")
    box = []
    for part in m.group(2).split(";"):
        ends = [Fraction(v) for v in part.split("..")]
        box.append((ends[0], ends[-1]))
    return tuple(box)


def box_volume(box) -> Fraction:
    vol = Fraction(1)
    for lo, hi in box:
        if lo < hi:
            vol *= hi - lo
    return vol


def box_boundary(chain: dict) -> dict:
    """Boundary of a {box: coeff} chain: the i-th direction (1-based) of a
    cell contributes (-1)^(i-1) ([upper face] - [lower face])."""
    out: dict = {}
    for box, g in chain.items():
        dirs = [a for a, (lo, hi) in enumerate(box) if lo < hi]
        for i, axis in enumerate(dirs):
            sign = g if i % 2 == 0 else -g
            lo, hi = box[axis]
            for end, s in ((hi, sign), (lo, -sign)):
                face = box[:axis] + ((end, end),) + box[axis + 1:]
                out[face] = out.get(face, 0) + s
    return {b: g for b, g in out.items() if g}


def lattice_chain(items) -> tuple[dict, list]:
    """The input split onto the lattice of its own coordinates, and that lattice."""
    ambient = len(items[0][0])
    lattice = [gen.axis_values(items, a) for a in range(ambient)]
    out: dict = {}
    for box, g in items:
        pieces = [[]]
        for (lo, hi), vals in zip(box, lattice):
            if lo == hi:
                spans = [(lo, hi)]
            else:
                inner = [v for v in vals if lo <= v <= hi]
                spans = list(zip(inner, inner[1:]))
            pieces = [pc + [sp] for pc in pieces for sp in spans]
        for pc in pieces:
            out[tuple(pc)] = out.get(tuple(pc), 0) + g
    return {b: g for b, g in out.items() if g}, lattice


def _on_lattice(box, lattice) -> bool:
    for (lo, hi), vals in zip(box, lattice):
        if lo not in vals or hi not in vals:
            return False
        if lo < hi and vals.index(hi) != vals.index(lo) + 1:
            return False
    return True


def _norm(g: int, p: Optional[int]) -> int:
    if p is None:
        return abs(g)
    r = g % p
    return min(r, p - r)


def _mass(chain: dict, p: Optional[int]) -> Fraction:
    return sum((_norm(g, p) * box_volume(b) for b, g in chain.items()), Fraction(0))


def _chain_of(doc: dict) -> dict:
    out: dict = {}
    for token, g in doc["items"]:
        box = parse_box_token(token)
        out[box] = out.get(box, 0) + g
    return out


def verify_witness(call: gen.Call, result: dict) -> str:
    """'' when the witness in a flatnorm/flatnormp/fill result on a box input
    is exact and valid."""
    target, lattice = lattice_chain(list(call.shape))
    p = call.modulus
    filling = _chain_of(result["filling"])
    remainder = _chain_of(result["remainder"]) if call.cmd != "fill" else {}
    if not all(_on_lattice(b, lattice) for b in list(filling) + list(remainder)):
        return "witness cell off the input's lattice"
    bdry = box_boundary(filling)
    if call.cmd == "fill":
        if any((bdry.get(b, 0) - target.get(b, 0)) % p for b in set(bdry) | set(target)):
            return "boundary of the filling is not the input mod p"
        if Fraction(result["filling_mass"]) != _mass(filling, p):
            return "filling_mass is not mass_p of the filling"
        return ""
    total = dict(remainder)
    for b, g in bdry.items():
        total[b] = total.get(b, 0) + g
    if {b: g for b, g in total.items() if g} != target:
        return "remainder + boundary(filling) differs from the input"
    if Fraction(result["value"]) != _mass(remainder, p) + _mass(filling, p):
        return "value is not the witness mass"
    return ""
