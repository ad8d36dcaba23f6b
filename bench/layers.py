"""The layers the traced run wraps, and the per-layer metrics made from their spans.

Each traced function is wrapped where gptw looks it up: on its module (and
every gptw module that imported it by name), on `CorrelationBox` for
`marginal`, and on `gptw.ontic` for scipy's `linprog`.  Metric names follow
`<module>.<function>[.<key>].<stat>`; `key` is the operation's sweep value
(m: settings per party, d: local dimension).  Unless stated otherwise a
value is per round of the workload's mix: `calls` a count, `self_s` the
seconds spent in the function itself, its traced callees excluded.
"""
from __future__ import annotations

from collections import defaultdict

import tracer

SETUP = "setup"  # op id of the spans recorded while building the inputs

FUNCTIONS = (
    "correlations.is_bell_nonlocal",
    "correlations.check_no_signalling",
    "correlations.check_ns_monogamy",
    "correlations.check_strong_monogamy",
    "correlations.marginal",
    "broadcast.theorem1_construct",
    "broadcast.broadcast_commuting",
    "ontic.find_local_model",
    "ontic.noncontextual_chsh_bound",
    "scipy.linprog",
    "quantum.bipartite_box",
    "quantum.multipartite_box",
    "quantum.born_table",
    "quantum.conditional_channel",
    "duality.spatial_scenario",
    "duality.temporal_scenario",
    "duality.spatial_to_temporal",
    "duality.temporal_to_spatial",
    "game.simulate_game",
    "game.check_finegrained",
    "serialize.load",
)

M_SWEEP = ("m2", "m3", "m4", "m6")
D_SWEEP = ("d2", "d3", "d4", "d6")
KEYED_SELF = {
    "correlations.is_bell_nonlocal": M_SWEEP,
    "correlations.check_no_signalling": M_SWEEP,
    "correlations.check_ns_monogamy": ("m2", "m3"),
    "correlations.check_strong_monogamy": ("m2", "m3"),
    "ontic.find_local_model": M_SWEEP,
    "scipy.linprog": M_SWEEP,
    "quantum.multipartite_box": D_SWEEP,  # bipartite_box calls it: the Born loop runs here
    "duality.spatial_scenario": D_SWEEP,
    "duality.temporal_scenario": D_SWEEP,
    "duality.spatial_to_temporal": D_SWEEP,
    "duality.temporal_to_spatial": D_SWEEP,
}
SETUP_SELF = ("quantum.bipartite_box", "quantum.multipartite_box")

# (name, unit, better) of every per-layer metric, in report order
SPECS = (
    [("import.gptw_s", "s", "lower"), ("import.scipy_optimize_s", "s", "lower"),
     ("cli.handler_s", "s", "lower"), ("cli.startup_s", "s", "lower")]
    + [(f"{f}.{stat}", unit, "lower") for f in FUNCTIONS for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"{f}.{k}.self_s", "s", "lower") for f, keys in KEYED_SELF.items() for k in keys]
    + [("correlations.marginal.distinct_ratio", "ratio", "higher"), ("scipy.linprog.nit", "count", "lower")]
    + [(f"scipy.linprog.{k}.nit", "count", "lower") for k in M_SWEEP]
    + [("ontic.lp.a_ub_mb", "MB", "lower")]
    + [(f"ontic.lp.{k}.a_ub_mb", "MB", "lower") for k in M_SWEEP]
    + [(f"{f}.setup_s", "s", "lower") for f in SETUP_SELF]
    + [("trace.untraced_ops_per_s", "1/s", "higher"), ("trace.traced_ops_per_s", "1/s", "higher"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def _nbytes(matrix) -> int:
    """Bytes of a dense array, or of the data and index arrays of a scipy sparse one.

    A sparse `A_ub` build must still report its size under the same metric.
    """
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    return sum(int(getattr(matrix, part).nbytes) for part in ("data", "indices", "indptr") if hasattr(matrix, part))


def _observe_linprog(args, kwargs, result) -> dict:
    return {"nit": int(result.nit), "a_ub_bytes": _nbytes(kwargs.get("A_ub", args[1] if len(args) > 1 else 0))}


def _observe_marginal(args, kwargs, result) -> dict:
    parties = args[1] if len(args) > 1 else kwargs["parties"]
    spectators = args[2] if len(args) > 2 else kwargs.get("spectator_settings")
    return {"key": f"{id(args[0])}:{tuple(parties)}:{tuple(spectators or ())}"}


def targets() -> list[tuple[object, str, str, tracer.Observer | None]]:
    """(owner, attribute, span name, observer) of every traced function."""
    from gptw import broadcast, correlations, duality, game, ontic, quantum, serialize

    modules = {"correlations": correlations, "broadcast": broadcast, "ontic": ontic,
               "quantum": quantum, "duality": duality, "game": game}
    out = []
    for name in FUNCTIONS:
        module, fn = name.split(".")
        if module in modules and fn != "marginal":
            out.append((modules[module], fn, name, None))
    out.append((correlations.CorrelationBox, "marginal", "correlations.marginal", _observe_marginal))
    out.append((ontic, "linprog", "scipy.linprog", _observe_linprog))
    out += [(serialize, fn, "serialize.load", None) for fn in sorted(vars(serialize)) if fn.startswith("load_")]
    return out


def per_layer(spans: list[tracer.Span], op_keys: dict, rounds: int) -> dict[str, float]:
    """Span-derived metrics; `op_keys` maps each op id to its sweep key."""
    self_s = tracer.self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    keyed = defaultdict(float)
    setup = defaultdict(float)
    attrs = defaultdict(list)
    for span, own in zip(spans, self_s):
        if span.op == SETUP:
            setup[span.name] += own
            continue
        calls[span.name] += 1
        total[span.name] += own
        keyed[span.name, op_keys.get(span.op, "")] += own
        if span.attrs:
            attrs[span.name].append((op_keys.get(span.op, ""), span.op, span.attrs))

    out = {}
    for f in FUNCTIONS:
        out[f"{f}.calls"] = calls[f] / rounds
        out[f"{f}.self_s"] = total[f] / rounds
    for f, keys in KEYED_SELF.items():
        for k in keys:
            out[f"{f}.{k}.self_s"] = keyed[f, k] / rounds
    marginal = attrs["correlations.marginal"]
    out["correlations.marginal.distinct_ratio"] = (
        len({(op, a["key"]) for _, op, a in marginal}) / len(marginal) if marginal else 0.0
    )
    lp = attrs["scipy.linprog"]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    out["scipy.linprog.nit"] = mean([a["nit"] for _, _, a in lp])
    out["ontic.lp.a_ub_mb"] = max((a["a_ub_bytes"] for _, _, a in lp), default=0) / 1e6
    for k in M_SWEEP:
        out[f"scipy.linprog.{k}.nit"] = mean([a["nit"] for key, _, a in lp if key == k])
        out[f"ontic.lp.{k}.a_ub_mb"] = max((a["a_ub_bytes"] for key, _, a in lp if key == k), default=0) / 1e6
    for f in SETUP_SELF:
        out[f"{f}.setup_s"] = setup[f]
    return out
