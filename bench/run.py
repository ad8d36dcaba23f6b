"""gptw benchmark: one workload per run, a closed loop with one operation in flight.

    python3 bench/run.py --workload library --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one table

The run builds its inputs from --seed, repeats rounds of the workload's
operation mix until --seconds have passed, checks every result against the
oracle, and prints one metric per line, an `env` line, and as its last line
one JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

# One BLAS thread, set before numpy loads here and inherited by every child.
# The inputs are small dense tables; with two OpenBLAS threads on a 2-vCPU
# machine a d=6 duality round trip took 21-32 ms against 12 ms with one, and
# its time followed the load on the other vCPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import envinfo  # noqa: E402
import tracer  # noqa: E402
from cli_child import SPANS_MARKER  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-samples", "library")
SETUP_REPEATS = 3  # fresh processes timed per run; setup_s is their median
IMPORT_REPEATS = 3  # `-X importtime` processes per traced run
CHILD_TIMEOUT_S = 120
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class CliResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int
    spans: list


class Record(NamedTuple):
    op_id: int
    op: Any  # workloads.Op
    seconds: float
    result: Any


class Phase(NamedTuple):
    """Rounds of one workload: one record per operation, the failure count, and the whole rounds run.

    `refs` holds the reference kernel's time before the first operation and
    after each one, so operation i ran between refs[i] and refs[i + 1].
    """

    records: list[Record]
    refs: list[float]
    failed: int
    rounds: int

    @property
    def durations(self) -> list[float]:
        return [r.seconds for r in self.records]

    @property
    def ops_per_s(self) -> float:
        return len(self.records) / sum(self.durations)


def _child_env(**extra: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""), **extra)


def run_cli(argv: tuple[str, ...], workdir: Path, op_id: int | None = None) -> CliResult:
    """One `python -m gptw.cli` process (the traced child when op_id is given), waited for."""
    if op_id is None:
        cmd, env = [sys.executable, "-m", "gptw.cli", *argv], _child_env()
    else:
        cmd, env = [sys.executable, str(BENCH / "cli_child.py"), *argv], _child_env(BENCH_OP=str(op_id))
    out_path, err_path = workdir / "cli.stdout", workdir / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            # wait4 rather than wait: it returns this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr, spans = [], []
    for line in err_path.read_text().splitlines(keepends=True):
        if line.startswith(SPANS_MARKER):
            spans = json.loads(line[len(SPANS_MARKER):])
        else:
            stderr.append(line)
    return CliResult(proc.returncode, out_path.read_text(), "".join(stderr), usage.ru_maxrss, spans)


def run_rounds(ops, seconds: float, workdir: Path, recorder=None, first_id: int = 0,
               whole_rounds: bool = True) -> Phase:
    """Repeat rounds of `ops` until `seconds` have passed; time and check each op.

    The first round always runs to its end.  After the deadline the run stops
    at the next round boundary, or at the next operation when `whole_rounds`
    is false.
    """
    records, refs, failed = [], [envinfo.reference()], 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(ops) or (i % len(ops) and whole_rounds) or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        i += 1
        op_id = first_id + i
        if recorder is not None:
            recorder.op = op_id
        result, error = None, None
        t0 = time.perf_counter()
        try:
            if op.argv is not None:
                result = run_cli(op.argv, workdir, op_id if recorder is not None else None)
            else:
                result = op.call()
        except Exception as exc:  # a raising operation is a failed one; keep running
            error = exc
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                op.check(result)
            except Exception as exc:
                error = exc
        if error is not None:
            failed += 1
            if failed <= 5:
                print(f"FAIL {op.name} [{op.key}]: {type(error).__name__}: {error}", file=sys.stderr)
        if recorder is not None and isinstance(result, CliResult):
            base = len(recorder.spans)
            for name, t_start, t_end, parent, child_op, attrs in result.spans:
                parent = None if parent is None else parent + base
                recorder.spans.append(tracer.Span(name, t_start, t_end, parent, child_op, attrs))
        records.append(Record(op_id, op, elapsed, result))
        refs.append(envinfo.reference())
    return Phase(records, refs, failed, len(records) // len(ops))


def scale(durations: list[float], refs: list[float]) -> list[float]:
    """Durations divided by the mean of the reference times before and after each, in REFERENCE_S units.

    The machine's speed changes by up to 1.7x, in states that last from under
    a second to minutes, so that a whole run can fall in a slow one.  The
    reference kernel slows with it and gptw's code does not change it.
    """
    return [d * 2 * envinfo.REFERENCE_S / (before + after) for d, before, after in zip(durations, refs, refs[1:])]


def per_op_median(durations: list[float], n_ops: int) -> list[float]:
    """Each operation's median over its repeats; `durations` runs through the mix in order from its start."""
    return [statistics.median(durations[i::n_ops]) for i in range(n_ops)]


def _run_child(cmd: list[str], **env: str) -> subprocess.CompletedProcess:
    out = subprocess.run(cmd, cwd=ROOT, env=_child_env(**env), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {out.returncode}: {out.stderr.strip()[-400:]}")
    return out


def setup_times(args) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh process to its first timed op being ready, several times.

    Returns the times and the reference times before the first and after each.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    times, refs = [], [envinfo.reference()]
    for _ in range(SETUP_REPEATS):
        spawned = time.time()
        out = _run_child(cmd)
        times.append(float(out.stdout.split()[-1]) - spawned)
        refs.append(envinfo.reference())
    return times, refs


def import_times() -> tuple[float, float]:
    """Median cumulative import seconds of gptw and of scipy.optimize (0 when not imported)."""
    gptw_s, scipy_s = [], []
    for _ in range(IMPORT_REPEATS):
        out = _run_child([sys.executable, "-X", "importtime", "-c", "import gptw"])
        cumulative = {}
        for line in out.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        gptw_s.append(cumulative["gptw"])
        scipy_s.append(cumulative.get("scipy.optimize", 0.0))
    return statistics.median(gptw_s), statistics.median(scipy_s)


def peak_rss_mb(phase: Phase) -> float:
    cli = [r.result.maxrss_kb for r in phase.records if isinstance(r.result, CliResult)]
    kb = max(cli) if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def handler_seconds(result: CliResult) -> float | None:
    """Sum of the reports' wall_time_s: the CLI handler's own time."""
    try:
        return sum(json.loads(line)["wall_time_s"] for line in result.stdout.splitlines() if line.strip())
    except (ValueError, KeyError, TypeError):
        return None


def e2e_metrics(args, workdir: Path) -> tuple[dict, Phase, list[str]]:
    import workloads

    setup, setup_refs = setup_times(args)
    ops = workloads.build(args.workload, args.seed, workdir)
    phase = run_rounds(ops, args.seconds, workdir, whole_rounds=False)
    # Every time is scaled to the reference speed (see `scale`); each operation
    # counts once, at its median repeat, so the percentiles are over the mix.
    per_op = per_op_median(scale(phase.durations, phase.refs), len(ops))
    p90 = statistics.quantiles(per_op, n=10, method="inclusive")[-1]
    metrics = {
        "setup_s": statistics.median(scale(setup, setup_refs)),
        "op_p50_s": statistics.median(per_op),
        "op_p90_s": p90,
        "ops_per_s": len(ops) / sum(per_op),
        "peak_rss_mb": peak_rss_mb(phase),
    }
    d = phase.durations
    repeats = len(d) // len(ops)
    raw = per_op_median(d, len(ops))
    notes = [
        f"{len(d)} samples of {len(ops)} ops, each timed {repeats} or {repeats + 1} times; "
        f"{sum(x > p90 for x in per_op)} ops above op_p90_s",
        f"unscaled: setup_s {statistics.median(setup):.6g} s ({' '.join(f'{t:.4f}' for t in setup)}), "
        f"op_p50_s {statistics.median(raw):.6g} s, "
        f"op_p90_s {statistics.quantiles(raw, n=10, method='inclusive')[-1]:.6g} s, "
        f"ops_per_s {len(ops) / sum(raw):.6g} 1/s",
    ]
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, phase, notes


def layer_metrics(args, workdir: Path) -> tuple[dict, Phase, list[str]]:
    import layers
    import workloads

    gptw_s, scipy_s = import_times()
    recorder = tracer.Recorder()
    recorder.op = layers.SETUP
    recorder.install(layers.targets(), "gptw")
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
    finally:
        recorder.uninstall()
    plain = run_rounds(ops, args.seconds / 2, workdir)
    recorder.install(layers.targets(), "gptw")
    try:
        traced = run_rounds(ops, args.seconds / 2, workdir, recorder, first_id=len(plain.records))
    finally:
        recorder.uninstall()

    values = layers.per_layer(recorder.finished(), {r.op_id: r.op.key for r in traced.records}, traced.rounds)
    cli = [(r.seconds, handler_seconds(r.result)) for r in plain.records if isinstance(r.result, CliResult)]
    cli = [(wall, handler) for wall, handler in cli if handler is not None]
    values.update({
        "import.gptw_s": gptw_s,
        "import.scipy_optimize_s": scipy_s,
        "cli.handler_s": statistics.fmean(h for _, h in cli) if cli else 0.0,
        "cli.startup_s": statistics.fmean(w - h for w, h in cli) if cli else 0.0,
        "trace.untraced_ops_per_s": plain.ops_per_s,
        "trace.traced_ops_per_s": traced.ops_per_s,
        "trace.overhead_ratio": plain.ops_per_s / traced.ops_per_s,
    })
    metrics = {name: (values[name], unit) for name, unit, _ in layers.SPECS}
    notes = [f"untraced {len(plain.records)} ops in {plain.rounds} rounds; "
             f"traced {len(traced.records)} ops in {traced.rounds} rounds, {len(recorder.spans)} spans"]
    merged = Phase(plain.records + traced.records, plain.refs + traced.refs[1:], plain.failed + traced.failed,
                   plain.rounds + traced.rounds)
    return metrics, merged, notes


def setup_probe(args, workdir: Path) -> int:
    """Build the workload's inputs as a run would, then print the wall-clock time."""
    import workloads

    ops = workloads.build(args.workload, args.seed, workdir)
    if any(op.argv is not None for op in ops):
        warm = run_cli(("chsh", "--box", "samples/pr_box.json"), workdir)
        if warm.returncode != 0:
            print(f"warm-up CLI process exited {warm.returncode}: {warm.stderr}", file=sys.stderr)
            return 1
    print(time.time())
    return 0


def bench(args, workdir: Path) -> int:
    env = envinfo.collect()
    measure = layer_metrics if args.trace else e2e_metrics
    metrics, phase, notes = measure(args, workdir)
    env["reference_ms"] = {"first": phase.refs[0] * 1e3, "median": statistics.median(phase.refs) * 1e3,
                           "last": phase.refs[-1] * 1e3}

    attempted = len(phase.records)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for note in notes:
        print(f"  # {note}")
    print(f"  {'fail_ratio':<44} {phase.failed / attempted:>14.6g} ratio   ({phase.failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another; one summary line each."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = out.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")), flush=True)
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        code |= not results[name]["correct"]
    print(json.dumps({
        "correct": code == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2**63) and --seconds positive")
    missing = [p for p in (SRC / "gptw" / "__init__.py", ROOT / "samples") if not p.exists()]
    if missing:
        print(f"error: run from a gptw checkout; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_run" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return setup_probe(args, workdir) if args.setup_probe else bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
