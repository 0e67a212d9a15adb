"""The CLI's box-calculus handlers: restrict, slice, islice, slicemass,
slicestar and deform (see cli)."""

from .base import PreconditionError
from .fileio import _chain_doc, _need_p, _payload, format_number


def _one(values: list, flag: str):
    if len(values) != 1:
        raise PreconditionError(f"--{flag} takes exactly one value here")
    return values[0]


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
    p = args.p if args.p is not None else cf.p
    result = deform(chain, args.eta, rho=args.rho, p=p, optimize_thresholds=args.optimize)
    return {"rounded": _chain_doc(result.rounded),
            "boundary_sweep": _chain_doc(result.boundary_sweep),
            "chain_sweep": _chain_doc(result.chain_sweep),
            "eta": format_number(result.eta),
            "rho": [format_number(r) for r in result.rho],
            "ratios": {"rounded": format_number(result.ratio_rounded),
                       "boundary_sweep": format_number(result.ratio_boundary_sweep),
                       "chain_sweep": format_number(result.ratio_chain_sweep)}}, 0
