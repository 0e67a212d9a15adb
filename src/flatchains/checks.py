"""The checks behind `Complex.validate` and `CellularMap.validate`.

They load when a complex or a map is first validated, so a call that
never validates one does not compile them.
"""

from math import isfinite

from .core import ValidationReport


def check_complex(cx) -> ValidationReport:
    """The closure report of a Complex: its first failing cell, if any."""
    # dangling boundary references and dimension mismatches
    for dim in cx.dims():
        for cid, cell in cx._cells[dim].items():
            if dim == 0:
                if cell.boundary:
                    return ValidationReport(
                        False, "dimension-0 cell has a nonempty boundary", cid)
                if cell.volume != 1:
                    return ValidationReport(
                        False, "dimension-0 cell must have volume 1", cid,
                        {"volume": cell.volume})
                continue
            if isinstance(cell.volume, float) and not isfinite(cell.volume):
                return ValidationReport(
                    False, "cell volume must be finite", cid, {"volume": cell.volume})
            try:
                if not cell.volume > 0:
                    return ValidationReport(
                        False, "cell volume must be positive", cid,
                        {"volume": cell.volume})
            except TypeError:
                return ValidationReport(
                    False, "cell volume is not comparable to 0", cid,
                    {"volume": cell.volume})
            for fid in cell.boundary:
                fdim = cx._dim_of.get(fid)
                if fdim is None:
                    return ValidationReport(
                        False, "boundary refers to a missing cell", cid,
                        {"missing_face": fid})
                if fdim != dim - 1:
                    return ValidationReport(
                        False, "boundary face has the wrong dimension", cid,
                        {"face": fid, "face_dim": fdim})
    # boundary-of-boundary vanishes
    for dim in cx.dims():
        if dim < 2:
            continue
        for cid, cell in cx._cells[dim].items():
            acc: dict[str, int] = {}
            for fid, c1 in cell.boundary.items():
                for ffid, c2 in cx._cells[dim - 1][fid].boundary.items():
                    acc[ffid] = acc.get(ffid, 0) + c1 * c2
            acc = {k: v for k, v in acc.items() if v != 0}
            if acc:
                return ValidationReport(
                    False, "boundary of boundary is nonzero", cid,
                    {"composite": dict(sorted(acc.items()))})
    return ValidationReport(True)


def check_map(f) -> ValidationReport:
    """The chain-map report of a CellularMap: its first failing cell, if any."""
    for dim in f.source.dims():
        for cid in f.source.cells(dim):
            img = f.image(cid)
            if img is not None:
                tid, sign = img
                if sign not in (1, -1):
                    return ValidationReport(False, "map sign must be +1 or -1", cid)
                if not f.target.has_cell(tid):
                    return ValidationReport(
                        False, "map target cell does not exist", cid, {"target": tid})
                if f.target.dim_of(tid) != dim:
                    return ValidationReport(
                        False, "map does not preserve dimension", cid, {"target": tid})
    # commutation with the boundary operator, cell by cell
    for dim in f.source.dims():
        if dim == 0:
            continue
        for cid in f.source.cells(dim):
            img = f.image(cid)
            lhs: dict[str, int] = {}
            if img is not None:
                tid, sign = img
                for fid, c in f.target.boundary_of(tid).items():
                    lhs[fid] = lhs.get(fid, 0) + sign * c
            rhs: dict[str, int] = {}
            for fid, c in f.source.boundary_of(cid).items():
                fimg = f.image(fid)
                if fimg is not None:
                    tfid, fsign = fimg
                    rhs[tfid] = rhs.get(tfid, 0) + c * fsign
            lhs = {k: v for k, v in lhs.items() if v != 0}
            rhs = {k: v for k, v in rhs.items() if v != 0}
            if lhs != rhs:
                return ValidationReport(
                    False, "map does not commute with the boundary", cid,
                    {"boundary_of_image": dict(sorted(lhs.items())),
                     "image_of_boundary": dict(sorted(rhs.items()))})
    return ValidationReport(True)
