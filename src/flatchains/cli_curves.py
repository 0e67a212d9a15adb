"""The CLI's curve handlers: sysboundary, preprocess, cyclecut, decompose
and cyclerep (see cli)."""

from .fileio import _as_cellular, _chain_doc, _need_p, _payload, format_number


def _cmd_sysboundary(args, cf):
    from .curves import system_boundary
    system = _payload(cf, "curves")
    return {"boundary": dict(sorted(system_boundary(system).items()))}, 0


def _cmd_preprocess(args, cf):
    from .curves import preprocess
    system = _payload(cf, "curves")
    reduced, trace = preprocess(system)
    events = []
    for event in trace.events:
        if event[0] == "loop":
            events.append({"kind": "loop", "sources": list(event[1])})
        else:
            events.append({"kind": "concat", "left": list(event[1]),
                           "right": list(event[2])})
    return {"items": [{"index": it.index, "start": it.start, "end": it.end,
                       "mass": format_number(it.mass)} for it in reduced.items],
            "sources": [list(src) for src in trace.sources],
            "loops": [list(src) for src in trace.loops],
            "events": events}, 0


def _cmd_cyclecut(args, cf):
    from .curves import extract_cycle_indices
    system = _payload(cf, "curves")
    p = _need_p(args, cf)
    return {"indices": extract_cycle_indices(system, p), "p": p}, 0


def _cmd_decompose(args, cf):
    from .curves import decompose_paths_loops
    chain = _as_cellular(cf, ambient=False)
    paths = decompose_paths_loops(chain)
    docs = [{"vertices": list(path.vertices),
             "edges": [[cid, sign] for cid, sign in path.edges],
             "closed": path.closed, "mass": format_number(path.mass)}
            for path in paths]
    return {"paths": docs,
            "open_count": sum(1 for p_ in paths if not p_.closed),
            "loop_count": sum(1 for p_ in paths if p_.closed)}, 0


def _cmd_cyclerep(args, cf):
    from .curves import cycle_representative
    p = _need_p(args, cf)
    chain = _as_cellular(cf, ambient=False)
    return {"chain": _chain_doc(cycle_representative(chain, p)), "p": p}, 0
