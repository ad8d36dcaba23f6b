"""Command-line surface: load inputs, run one check, emit its report as one JSON line.

Each subcommand's handler is `cmd_<name>(args, tol) -> Report`; `main` resolves
the tolerance once (--tol, then GPTW_DEFAULT_TOL, then the per-check default),
times the handler and prints its report.  Exit codes: 0 the check passed, 1 it
failed, 2 input/usage error.  --pretty prints a human-readable line instead of JSON.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Callable

from . import serialize
from .errors import GptwError
from .reports import Report, file_digest

DEFAULT_TOLS = {
    "chsh": 1e-9,
    "nosignal": 1e-9,
    "monogamy": 1e-6,
    "local-model": 1e-7,
    "verify-cj": 1e-8,
    "broadcast": 1e-9,
    "theorem1": 1e-6,
    "game": 1e-6,
    "uncertainty": 1e-9,
    "validate-model": 1e-9,
    "dim": 1e-7,  # theory.RANK_RTOL, the relative singular-value threshold, written out: no import here
}


def _resolve_tol(tol_arg: float | None, check: str) -> float:
    if tol_arg is not None:
        tol = tol_arg
    elif (env := os.environ.get("GPTW_DEFAULT_TOL")) is not None:
        try:
            tol = float(env)
        except ValueError:
            raise GptwError(f"GPTW_DEFAULT_TOL={env!r} is not a number") from None
    else:
        return DEFAULT_TOLS[check]
    if not 0.0 <= tol < math.inf:  # NaN fails too; the report would print it as bare NaN
        raise GptwError(f"tolerance must be finite and non-negative, got {tol}")
    return tol


def _seed(value: int | None) -> int:
    seed = 0 if value is None else value
    if not 0 <= seed < 2**64:
        raise GptwError(f"--seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _digests(args, *names: str) -> dict[str, str]:
    """sha256 of the files named by these flags; a repeated flag gives name0, name1, ..."""
    inputs = {}
    for name in names:
        value = getattr(args, name)
        if isinstance(value, list):
            inputs.update((f"{name}{k}", file_digest(path)) for k, path in enumerate(value))
        elif value:  # a flag left out (an optional --channel) names no file
            inputs[name] = file_digest(value)
    return inputs


# ---------------------------------------------------------------------------
# Handlers: cmd_<name>(args, tol) -> Report, with `tol` resolved by `main`.
# Each imports the modules it uses itself, so a process loads only what its
# subcommand needs.
# ---------------------------------------------------------------------------


def cmd_chsh(args, tol: float) -> Report:
    from . import correlations as corr
    box = serialize.load_box(args.box)
    explicit = [args.a0, args.a1, args.b0, args.b1]
    if any(s is not None for s in explicit):
        if any(s is None for s in explicit):
            raise GptwError("give all of --a0 --a1 --b0 --b1 or none")
        witness = corr.chsh(box, args.a0, args.a1, args.b0, args.b1)
        margin = corr.chsh_margin(box, witness, tol)
    else:
        # the verdict is exact: a float |B| of 2.0000000000000004 may be exactly 2, and 2.0 exceed it
        witness, margin = corr.exact_chsh_witness(box, tol)
    return Report(
        check="chsh", inputs=_digests(args, "box"), value=abs(witness.value), bound=2.0,
        passed=margin is not None, tol=tol,
        extra={"signed_value": witness.value, "a_settings": list(witness.a_settings),
               "b_settings": list(witness.b_settings), "margin": margin},
    )


def cmd_nosignal(args, tol: float) -> Report:
    from . import correlations as corr
    report = corr.check_no_signalling(serialize.load_box(args.box), tol)
    witnesses = [
        {"subset": list(v.subset), "subset_settings": list(v.subset_settings),
         "complement_settings": [list(v.complement_settings_a), list(v.complement_settings_b)],
         "deviation": v.deviation}
        for v in report.violations[:8]
    ]
    return Report(
        check="nosignal", inputs=_digests(args, "box"), value=report.max_deviation, bound=0.0,
        passed=report.satisfied, tol=tol, extra={"violations": witnesses},
    )


def cmd_monogamy(args, tol: float) -> Report:
    from . import correlations as corr
    checker = corr.check_ns_monogamy if args.kind == "ns" else corr.check_strong_monogamy
    rep = checker(serialize.load_box(args.box), tol)
    return Report(
        check=f"monogamy-{args.kind}", inputs=_digests(args, "box"), value=rep.worst_value,
        bound=rep.bound, passed=rep.satisfied, tol=tol,
        extra={"middle_party": rep.middle, "wings": list(rep.wings), "terms": list(rep.terms)},
    )


def cmd_local_model(args, tol: float) -> Report:
    from . import ontic
    box = serialize.load_box(args.box)
    refutation = ontic.chsh_gate(box, tol)  # a refuted box needs no LP, so HiGHS is never loaded
    if refutation is None:
        cert = ontic._fit_local_model(box, tol)  # `find_local_model` would run the gate again
        extra = {"method": "lp"}
    else:
        cert, (witness, margin) = None, refutation
        extra = {"method": "chsh", "a_settings": list(witness.a_settings),
                 "b_settings": list(witness.b_settings), "margin": margin}
    return Report(
        check="local-model", inputs=_digests(args, "box"), value=cert.residual if cert else None,
        bound=tol, passed=cert is not None, tol=tol,
        extra={**extra, "certificate": cert.as_json_dict() if cert else None},
    )


def cmd_verify_cj(args, tol: float) -> Report:
    from . import duality
    from .quantum import leifer_ensemble
    state = serialize.load_state(args.state)
    povms = [serialize.load_povm(p) for p in args.povm]
    if len(povms) not in (2, 3):
        raise GptwError("verify-cj needs 2 or 3 --povm files (one per party)")

    if args.channel:
        # converse direction: the inputs describe a temporal scenario whose
        # ensemble is the first POVM's decomposition of the state
        chan = serialize.load_channel(args.channel)
        if len(povms) - 1 != len(chan.output_dims):
            raise GptwError("one output --povm per channel output factor required after the first")
        temporal = duality.temporal_scenario(leifer_ensemble(state, povms[0]), chan, povms[1:])
        spatial = duality.temporal_to_spatial(temporal, tol=math.inf)
    else:
        spatial = duality.spatial_scenario(state, povms)
        temporal = duality.spatial_to_temporal(spatial, tol=math.inf)
    forward = duality.distribution_error(spatial.distribution, temporal.distribution)
    # the converse direction makes a single reconstruction, so its round trip is the forward error
    round_trip = forward if args.channel else duality.distribution_error(
        duality.temporal_to_spatial(temporal, tol=math.inf).distribution, spatial.distribution
    )
    return Report(
        check="verify-cj", inputs=_digests(args, "state", "povm", "channel"),
        value=max(forward, round_trip), bound=tol, passed=forward <= tol and round_trip <= 2 * tol,
        tol=tol, extra={"forward_error": forward, "round_trip_error": round_trip},
    )


def cmd_broadcast(args, tol: float) -> Report:
    from . import broadcast as bc
    states = [serialize.load_state(p) for p in args.state]
    commuting = bc.pairwise_commuting(states, tol)
    # `broadcast_commuting` re-tests commutation at the same `tol`, so it never refuses a commuting family here
    extra = {"commuting": commuting, "interference": not commuting}
    if commuting:
        _, check = bc.broadcast_commuting(states, tol)
        value = check.max_error
        extra["marginal_errors"] = list(check.errors)
    else:
        value = max(
            bc.commutator_norm(a.matrix, b.matrix) for i, a in enumerate(states) for b in states[i + 1 :]
        )
    return Report(
        check="broadcast", inputs=_digests(args, "state"), value=value, bound=tol,
        passed=commuting and value <= tol, tol=tol, extra=extra,
    )


def cmd_theorem1(args, tol: float) -> Report:
    from . import broadcast as bc, correlations as corr
    result = bc.theorem1_construct(serialize.load_box(args.box), tol)
    return Report(
        check="theorem1", inputs=_digests(args, "box"), value=result.squared_sum,
        bound=corr.STRONG_MONOGAMY_BOUND, passed=result.strong_monogamy.satisfied, tol=tol,
        extra={"witness_chsh": abs(result.witness.value), "chsh_ab": result.chsh_ab, "chsh_ac": result.chsh_ac},
    )


def cmd_game(args, tol: float) -> Report:
    from . import correlations as corr, game
    seed = _seed(args.seed)
    if args.box:
        strategy: game.GameStrategy | corr.CorrelationBox = serialize.load_box(args.box)
        files = ("box",)
    else:
        if not args.state or len(args.povm or []) != 4:
            raise GptwError("game needs --box, or --state plus four --povm files (S0 S1 M1 M2)")
        state = serialize.load_state(args.state)
        povms = [serialize.load_povm(p) for p in args.povm]
        strategy = game.GameStrategy(state, (povms[0], povms[1]), (povms[2], povms[3]))
        files = ("state", "povm")
    rep = game.simulate_game(strategy, seed=seed, rounds=args.rounds, tol=tol)
    return Report(
        check="game", inputs=_digests(args, *files), value=rep.exact_rate, bound=rep.bound,
        passed=rep.passed, tol=tol, seed=seed,
        extra={"exact_rate": rep.exact_rate, "empirical_rate": rep.empirical_rate, "rounds": rep.rounds,
               "sampling_consistent": rep.sampling_consistent},
    )


def cmd_uncertainty(args, tol: float) -> Report:
    from . import game
    rep = game.check_finegrained(serialize.load_theory(args.theory), args.m1, args.m2, tol)
    return Report(
        check="uncertainty", inputs=_digests(args, "theory"), value=rep.worst_sum, bound=rep.bound,
        passed=rep.satisfied, tol=tol,
        extra={"worst_prep": rep.worst_prep, "worst_outcomes": list(rep.worst_outcomes),
               "saturated": rep.saturated},
    )


def cmd_validate_model(args, tol: float) -> Report:
    from . import ontic
    violations = ontic.validate_model(serialize.load_model(args.model), tol)
    return Report(
        check="validate-model", inputs=_digests(args, "model"), value=len(violations), bound=0.0,
        passed=not violations, tol=tol,
        extra={"violations": [
            {"condition": v.condition, "message": v.message,
             "where": [list(map(str, w)) if isinstance(w, tuple) else str(w) for w in v.where[:8]]}
            for v in violations
        ]},
    )


def cmd_dim(args, tol: float) -> Report:
    from . import theory as theory_mod
    dim = theory_mod.affine_dimension(serialize.load_theory(args.theory), rtol=tol)
    return Report(
        check="dim", inputs=_digests(args, "theory"), value=dim.affine_parameter_count, bound=None,
        passed=True, tol=tol, extra={"claimed_dimension": dim.claimed_dimension},
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptw", description="Checks on operational-theory tables, boxes, and quantum objects."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--tol", type=float, default=None, help="check tolerance (default per check, or GPTW_DEFAULT_TOL)")
        p.add_argument("--pretty", action="store_true", help="human-readable output instead of JSON lines")
        p.set_defaults(handler=handler)
        return p

    p = add("chsh", cmd_chsh, "CHSH value / Bell-nonlocality witness of a box")
    p.add_argument("--box", required=True)
    for flag in ("--a0", "--a1", "--b0", "--b1"):
        p.add_argument(flag, type=int, default=None)

    p = add("nosignal", cmd_nosignal, "no-signalling check of a box")
    p.add_argument("--box", required=True)

    p = add("monogamy", cmd_monogamy, "monogamy of correlations on a tripartite box")
    p.add_argument("kind", choices=["ns", "strong"])
    p.add_argument("--box", required=True)

    p = add("local-model", cmd_local_model, "LP search for a local (factorizable) model")
    p.add_argument("--box", required=True)

    p = add("verify-cj", cmd_verify_cj, "preparation/channel duality round trip on quantum objects")
    p.add_argument("--state", required=True)
    p.add_argument("--povm", action="append", required=True)
    p.add_argument("--channel", help="verify the converse direction: ensemble (state + first POVM) through this channel")

    p = add("broadcast", cmd_broadcast, "broadcastability of a state family")
    p.add_argument("--state", action="append", required=True)

    p = add("theorem1", cmd_theorem1, "broadcast a Bell witness and test strong monogamy")
    p.add_argument("--box", required=True)

    p = add("game", cmd_game, "CHSH game winning rate (exact + sampled)")
    p.add_argument("--box")
    p.add_argument("--state")
    p.add_argument("--povm", action="append")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rounds", type=int, default=10000)

    p = add("uncertainty", cmd_uncertainty, "fine-grained uncertainty bound on a theory table")
    p.add_argument("--theory", required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)

    p = add("validate-model", cmd_validate_model, "validity conditions of an ontological model")
    p.add_argument("--model", required=True)

    p = add("dim", cmd_dim, "affine dimension of a theory table (--tol: relative singular-value threshold)")
    p.add_argument("--theory", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.handler(args, _resolve_tol(args.tol, args.command))
    except GptwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_s = time.perf_counter() - start
    print(report.pretty() if args.pretty else report.to_json_line())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
