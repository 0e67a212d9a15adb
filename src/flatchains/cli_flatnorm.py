"""The CLI's flat-norm handlers: flatnorm, flatnormp, fill, isoratio and
refinecompare (see cli)."""

from .fileio import _as_cellular, _chain_doc, _need_p, _payload, format_number


def _witness_doc(witness) -> dict:
    return {"value": format_number(witness.value),
            "remainder": _chain_doc(witness.remainder),
            "filling": _chain_doc(witness.filling), "exact": witness.exact}


def _cmd_flatnorm(args, cf):
    from .flatnorm import flat_norm_int
    witness = flat_norm_int(_as_cellular(cf, ambient=True), args.bound)
    return {**_witness_doc(witness), "bound": witness.bound}, 0


def _cmd_flatnormp(args, cf):
    from .flatnorm import flat_norm_mod_p
    p = _need_p(args, cf)
    witness = flat_norm_mod_p(_as_cellular(cf, ambient=True), p)
    return {**_witness_doc(witness), "p": p}, 0


def _cmd_fill(args, cf):
    from .flatnorm import fill_mod_p
    p = _need_p(args, cf)
    chain = _as_cellular(cf, ambient=True)
    filling = fill_mod_p(chain, p)
    return {"filling": _chain_doc(filling),
            "filling_mass": format_number(filling.mass_p(p)), "p": p}, 0


def _cmd_isoratio(args, cf):
    from .flatnorm import isoperimetric_filling
    p = _need_p(args, cf)
    chain = _as_cellular(cf, ambient=True)
    ratio, filling = isoperimetric_filling(chain, p)
    return {"ratio": format_number(ratio),
            "cycle_mass": format_number(chain.mass_p(p)),
            "filling_mass": format_number(filling.mass_p(p)), "p": p}, 0


def _cmd_refinecompare(args, cf):
    from .flatnorm import flat_norm_under_refinement
    chain = _payload(cf, "box")
    p = _need_p(args, cf)
    coarse, refined = flat_norm_under_refinement(chain, p, args.subdiv)
    return {"coarse": format_number(coarse), "refined": format_number(refined),
            "monotone": refined <= coarse, "p": p, "subdiv": args.subdiv}, 0
