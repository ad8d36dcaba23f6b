"""Command-line surface: load inputs, run any check, emit JSON-line reports.

Exit codes: 0 all checks passed, 1 some check failed, 2 input/usage error.
Every subcommand takes --tol (falling back to GPTW_DEFAULT_TOL, then to the
per-check default) and --pretty for a human-readable line instead of JSON.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Callable

import numpy as np

from . import broadcast as bc
from . import correlations as corr
from . import duality, game, ontic, serialize, theory as theory_mod
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
    "dim": 1e-9,
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


# ---------------------------------------------------------------------------
# Handlers (each returns a list of Reports)
# ---------------------------------------------------------------------------


def cmd_chsh(args) -> list[Report]:
    tol = _resolve_tol(args.tol, "chsh")
    box = serialize.load_box(args.box)
    inputs = {"box": file_digest(args.box)}
    explicit = [args.a0, args.a1, args.b0, args.b1]
    if any(s is not None for s in explicit):
        if any(s is None for s in explicit):
            raise GptwError("give all of --a0 --a1 --b0 --b1 or none")
        witness = corr.chsh(box, args.a0, args.a1, args.b0, args.b1)
        nonlocal_ = abs(witness.value) > 2.0 + tol
    else:
        nonlocal_, witness = corr.is_bell_nonlocal(box, tol)
    return [
        Report(
            check="chsh",
            inputs=inputs,
            value=abs(witness.value),
            bound=2.0,
            passed=nonlocal_,
            tol=tol,
            extra={
                "signed_value": witness.value,
                "a_settings": list(witness.a_settings),
                "b_settings": list(witness.b_settings),
            },
        )
    ]


def cmd_nosignal(args) -> list[Report]:
    tol = _resolve_tol(args.tol, "nosignal")
    box = serialize.load_box(args.box)
    report = corr.check_no_signalling(box, tol)
    witnesses = [
        {
            "subset": list(v.subset),
            "subset_settings": list(v.subset_settings),
            "complement_settings": [list(v.complement_settings_a), list(v.complement_settings_b)],
            "deviation": v.deviation,
        }
        for v in report.violations[:8]
    ]
    return [
        Report(
            check="nosignal",
            inputs={"box": file_digest(args.box)},
            value=report.max_deviation,
            bound=0.0,
            passed=report.satisfied,
            tol=tol,
            extra={"violations": witnesses},
        )
    ]


def cmd_monogamy(args) -> list[Report]:
    tol = _resolve_tol(args.tol, "monogamy")
    box = serialize.load_box(args.box)
    checker = corr.check_ns_monogamy if args.kind == "ns" else corr.check_strong_monogamy
    rep = checker(box, tol)
    return [
        Report(
            check=f"monogamy-{args.kind}",
            inputs={"box": file_digest(args.box)},
            value=rep.worst_value,
            bound=rep.bound,
            passed=rep.satisfied,
            tol=tol,
            extra={
                "middle_party": rep.middle,
                "wings": list(rep.wings),
                "terms": list(rep.terms),
            },
        )
    ]


def cmd_local_model(args) -> list[Report]:
    tol = _resolve_tol(args.tol, "local-model")
    box = serialize.load_box(args.box)
    cert = ontic.find_local_model(box, tol)
    return [
        Report(
            check="local-model",
            inputs={"box": file_digest(args.box)},
            value=cert.residual if cert else None,
            bound=tol,
            passed=cert is not None,
            tol=tol,
            extra={"certificate": cert.as_json_dict() if cert else None},
        )
    ]


def cmd_verify_cj(args) -> list[Report]:
    tol = _resolve_tol(args.tol, "verify-cj")
    state = serialize.load_state(args.state)
    povms = [serialize.load_povm(p) for p in args.povm]
    if len(povms) not in (2, 3):
        raise GptwError("verify-cj needs 2 or 3 --povm files (one per party)")
    inputs = {"state": file_digest(args.state)}
    for k, p in enumerate(args.povm):
        inputs[f"povm{k}"] = file_digest(p)

    if args.channel:
        # converse direction: the inputs describe a temporal scenario whose
        # ensemble is the first POVM's decomposition of the state
        from .quantum import leifer_ensemble

        chan = serialize.load_channel(args.channel)
        inputs["channel"] = file_digest(args.channel)
        if len(povms) - 1 != len(chan.output_dims):
            raise GptwError("one output --povm per channel output factor required after the first")
        ensemble = leifer_ensemble(state, povms[0])
        temporal = duality.temporal_scenario(ensemble, chan, povms[1:])
        spatial = duality.temporal_to_spatial(temporal, tol=math.inf)
        forward = float(
            np.max(np.abs(spatial.distribution.probabilities - temporal.distribution.probabilities))
        )
        round_trip = forward  # single reconstruction in this direction
    else:
        spatial = duality.spatial_scenario(state, povms)
        temporal = duality.spatial_to_temporal(spatial, tol=math.inf)
        forward = float(
            np.max(np.abs(spatial.distribution.probabilities - temporal.distribution.probabilities))
        )
        back = duality.temporal_to_spatial(temporal, tol=math.inf)
        round_trip = float(
            np.max(np.abs(back.distribution.probabilities - spatial.distribution.probabilities))
        )
    passed = forward <= tol and round_trip <= 2 * tol
    return [
        Report(
            check="verify-cj",
            inputs=inputs,
            value=max(forward, round_trip),
            bound=tol,
            passed=passed,
            tol=tol,
            extra={"forward_error": forward, "round_trip_error": round_trip},
        )
    ]


def cmd_broadcast(args) -> list[Report]:
    tol = _resolve_tol(args.tol, "broadcast")
    states = [serialize.load_state(p) for p in args.state]
    inputs = {f"state{k}": file_digest(p) for k, p in enumerate(args.state)}
    commuting = bc.pairwise_commuting(states, tol)
    interference = bc.interference_flag(states)
    if commuting:
        _, check = bc.broadcast_commuting(states, tol)
        value = check.max_error
        passed = value <= tol
        extra = {"commuting": True, "interference": interference, "marginal_errors": list(check.errors)}
    else:
        worst = max(
            bc.commutator_norm(a.matrix, b.matrix)
            for i, a in enumerate(states)
            for b in states[i + 1 :]
        )
        value = worst
        passed = False
        extra = {"commuting": False, "interference": interference}
    return [
        Report(
            check="broadcast",
            inputs=inputs,
            value=value,
            bound=tol,
            passed=passed,
            tol=tol,
            extra=extra,
        )
    ]


def cmd_theorem1(args) -> list[Report]:
    tol = _resolve_tol(args.tol, "theorem1")
    box = serialize.load_box(args.box)
    result = bc.theorem1_construct(box, tol)
    return [
        Report(
            check="theorem1",
            inputs={"box": file_digest(args.box)},
            value=result.squared_sum,
            bound=corr.STRONG_MONOGAMY_BOUND,
            passed=result.strong_monogamy.satisfied,
            tol=tol,
            extra={
                "witness_chsh": abs(result.witness.value),
                "chsh_ab": result.chsh_ab,
                "chsh_ac": result.chsh_ac,
            },
        )
    ]


def cmd_game(args) -> list[Report]:
    tol = _resolve_tol(args.tol, "game")
    seed = _seed(args.seed)
    rounds = args.rounds or 10000
    if args.box:
        strategy: game.GameStrategy | corr.CorrelationBox = serialize.load_box(args.box)
        inputs = {"box": file_digest(args.box)}
    else:
        if not args.state or len(args.povm or []) != 4:
            raise GptwError("game needs --box, or --state plus four --povm files (S0 S1 M1 M2)")
        state = serialize.load_state(args.state)
        povms = [serialize.load_povm(p) for p in args.povm]
        strategy = game.GameStrategy(state, (povms[0], povms[1]), (povms[2], povms[3]))
        inputs = {"state": file_digest(args.state)}
        for k, p in enumerate(args.povm):
            inputs[f"povm{k}"] = file_digest(p)
    rep = game.simulate_game(strategy, seed=seed, rounds=rounds, tol=tol)
    return [
        Report(
            check="game",
            inputs=inputs,
            value=rep.exact_rate,
            bound=rep.bound,
            passed=rep.passed,
            tol=tol,
            seed=seed,
            extra={
                "exact_rate": rep.exact_rate,
                "empirical_rate": rep.empirical_rate,
                "rounds": rep.rounds,
                "sampling_consistent": rep.sampling_consistent,
            },
        )
    ]


def cmd_uncertainty(args) -> list[Report]:
    tol = _resolve_tol(args.tol, "uncertainty")
    theory = serialize.load_theory(args.theory)
    rep = game.check_finegrained(theory, args.m1, args.m2, tol)
    return [
        Report(
            check="uncertainty",
            inputs={"theory": file_digest(args.theory)},
            value=rep.worst_sum,
            bound=rep.bound,
            passed=rep.satisfied,
            tol=tol,
            extra={
                "worst_prep": rep.worst_prep,
                "worst_outcomes": list(rep.worst_outcomes),
                "saturated": rep.saturated,
            },
        )
    ]


def cmd_validate_model(args) -> list[Report]:
    tol = _resolve_tol(args.tol, "validate-model")
    model = serialize.load_model(args.model)
    violations = ontic.validate_model(model, tol)
    return [
        Report(
            check="validate-model",
            inputs={"model": file_digest(args.model)},
            value=len(violations),
            bound=0.0,
            passed=not violations,
            tol=tol,
            extra={
                "violations": [
                    {"condition": v.condition, "message": v.message, "where": [list(map(str, w)) if isinstance(w, tuple) else str(w) for w in v.where[:8]]}
                    for v in violations
                ]
            },
        )
    ]


def cmd_dim(args) -> list[Report]:
    tol = _resolve_tol(args.tol, "dim")
    theory = serialize.load_theory(args.theory)
    dim = theory_mod.affine_dimension(theory)
    return [
        Report(
            check="dim",
            inputs={"theory": file_digest(args.theory)},
            value=dim.affine_parameter_count,
            bound=None,
            passed=True,
            tol=tol,
            extra={"claimed_dimension": dim.claimed_dimension},
        )
    ]


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
    p.add_argument("--rounds", type=int, default=None)

    p = add("uncertainty", cmd_uncertainty, "fine-grained uncertainty bound on a theory table")
    p.add_argument("--theory", required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)

    p = add("validate-model", cmd_validate_model, "validity conditions of an ontological model")
    p.add_argument("--model", required=True)

    p = add("dim", cmd_dim, "affine dimension of a theory table")
    p.add_argument("--theory", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        reports = args.handler(args)
    except GptwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    for rep in reports:
        rep.wall_time_s = elapsed / len(reports)
        print(rep.pretty() if args.pretty else rep.to_json_line())
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
