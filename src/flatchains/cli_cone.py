"""The CLI's cone handlers: cone and conereport (see cli)."""

from .fileio import _chain_doc, _payload, format_number


def _cmd_cone(args, cf):
    from .cone import cone
    chain = _payload(cf, "simplicial")
    return {"chain": _chain_doc(cone(tuple(args.apex), chain))}, 0


def _cmd_conereport(args, cf):
    from .cone import cone_mass_report
    chain = _payload(cf, "simplicial")
    p = args.p if args.p is not None else cf.p
    report = cone_mass_report(tuple(args.apex), chain, p)
    return {"cone_mass": format_number(report.cone_mass),
            "cone_mass_p": None if report.cone_mass_p is None
            else format_number(report.cone_mass_p),
            "radius": format_number(report.radius)}, 0
