"""Tests of the benchmark's own oracle and span recorder.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

A wrong verdict, a non-finite value, an unexpected exit code and a traceback
must each count as a failed operation, so that a fail count of 0 means the
checks ran and held, not that nothing was checked.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import envinfo  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gptw import correlations  # noqa: E402
from gptw.correlations import ChshValue  # noqa: E402


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(5)


def _fails(check, result) -> bool:
    """True iff the runner would count this result as a failed operation."""
    ops = [workloads.Op("probe", "", check, call=lambda: result)]
    return run.run_rounds(ops, 0.0, Path(".")).failed == 1


def test_true_results_pass(rng):
    table = workloads.tsirelson_table(3, rng)
    box = workloads._box(table)
    result = correlations.is_bell_nonlocal(box)
    assert not _fails(lambda r: oracle.check_nonlocal(r, table, "tsirelson"), result)


def test_flipped_verdict_fails(rng):
    for kind, table in (("tsirelson", workloads.tsirelson_table(2, rng)), ("local", workloads.local_table(4, rng))):
        verdict, witness = correlations.is_bell_nonlocal(workloads._box(table))
        assert _fails(lambda r: oracle.check_nonlocal(r, table, kind), (not verdict, witness))

    table = workloads.signalling_table(3, rng)
    report = correlations.check_no_signalling(workloads._box(table))
    flipped = correlations.NoSignallingReport(not report.satisfied, report.max_deviation, report.violations)
    assert _fails(lambda r: oracle.check_no_signalling(r, table, True), flipped)

    table = workloads.local_table(2, rng)
    assert _fails(lambda r: oracle.check_local_model(r, table, True), None)


def test_nan_value_fails(rng):
    table = workloads.pr_table(2, rng)
    nan = ChshValue(math.nan, (0, 1), (0, 1))
    assert _fails(lambda r: oracle.check_nonlocal(r, table, "pr"), (False, nan))
    assert _fails(lambda r: oracle.check_nonlocal(r, table, "pr"), (True, nan))


def _cli(code: int, value, stderr: str = "") -> run.CliResult:
    report = {"check": "chsh", "value": value, "pass": code == 0, "wall_time_s": 0.001}
    return run.CliResult(code, json.dumps(report) + "\n", stderr, 0, [])


def test_cli_oracle():
    check = lambda r: oracle.check_cli(r, code=0, value=4.0, atol=1e-12)  # noqa: E731
    assert not _fails(check, _cli(0, 4.0))
    assert _fails(check, _cli(1, 4.0))  # unexpected exit code
    assert _fails(check, _cli(0, 4.0, "Traceback (most recent call last):\n"))
    assert _fails(check, _cli(0, 3.9))
    bare_nan = run.CliResult(0, '{"check": "chsh", "value": NaN, "pass": true}\n', "", 0, [])
    assert _fails(check, bare_nan)


def test_raising_operation_fails():
    def boom():
        raise ValueError("solver blew up")

    ops = [workloads.Op("probe", "", lambda r: None, call=boom)]
    assert run.run_rounds(ops, 0.0, Path(".")).failed == 1


def test_monogamy_oracle_matches_shared_bit_and_scan(rng):
    ns, strong = oracle.monogamy_worst(workloads.shared_bit_table(3, rng))
    assert ns == pytest.approx(4.0, abs=1e-12) and strong == pytest.approx(8.0, abs=1e-12)
    box = workloads._box(workloads.shared_bit_table(2, rng) * 0.5 + 0.5 / 8)
    assert oracle.monogamy_worst(box.table)[1] == pytest.approx(
        correlations.check_strong_monogamy(box).worst_value, abs=1e-12
    )


@pytest.mark.parametrize("part", [workloads.corr_scan, workloads.lp_sweep, workloads.quantum_tab])
def test_workload_ops_pass_their_oracle(part, tmp_path):
    ops = [op for op in part(3, tmp_path) if "monogamy" not in op.name or op.key == "m2"]
    assert run.run_rounds(ops, 0.0, tmp_path).failed == 0


def test_per_op_median_takes_each_ops_own_repeats():
    # three whole rounds of two ops and one more op; the samples are in run order
    assert run.per_op_median([3.0, 5.0, 1.0, 6.0, 2.0, 4.0, 9.0], 2) == [2.5, 5.0]


def test_scale_divides_by_the_references_either_side():
    ref = envinfo.REFERENCE_S
    scaled = run.scale([0.5, 0.5], [2 * ref, 2 * ref, 4 * ref])
    assert scaled == pytest.approx([0.25, 0.5 / 3])


def test_run_rounds_times_the_reference_around_every_op():
    ops = [workloads.Op("probe", "", lambda r: None, call=lambda: None)] * 3
    phase = run.run_rounds(ops, 0.0, Path("."))
    assert len(phase.records) == 3 and len(phase.refs) == 4 and all(r > 0 for r in phase.refs)


def test_recorder_wraps_and_restores():
    from gptw import ontic

    originals = [getattr(owner, attr) for owner, attr, _, _ in layers.targets()]
    recorder = tracer.Recorder()
    recorder.install(layers.targets(), "gptw")
    try:
        assert tracer.is_traced(ontic.is_bell_nonlocal) and tracer.is_traced(correlations.is_bell_nonlocal)
        assert tracer.is_traced(ontic.linprog)
        recorder.op = 1
        box = workloads._box(workloads.local_table(2, np.random.default_rng(0)))
        ontic.noncontextual_chsh_bound(box)
    finally:
        recorder.uninstall()
    assert [getattr(owner, attr) for owner, attr, _, _ in layers.targets()] == originals
    assert not tracer.is_traced(ontic.is_bell_nonlocal)
    names = [s.name for s in recorder.finished()]
    assert names.count("ontic.noncontextual_chsh_bound") == 1 and "scipy.linprog" in names


def test_self_time_subtracts_children():
    spans = [
        tracer.Span("outer", 0.0, 10.0, None, 1, {}),
        tracer.Span("inner", 1.0, 4.0, 0, 1, {}),
        tracer.Span("inner", 5.0, 7.0, 0, 1, {}),
        tracer.Span("leaf", 5.5, 6.0, 2, 1, {}),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 3.0, 1.5, 0.5])


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.SPECS)
    from_run = {"import.gptw_s", "import.scipy_optimize_s", "cli.handler_s", "cli.startup_s",
                "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_ratio"}
    assert set(layers.per_layer([], {}, 1)) | from_run == {name for name, _, _ in layers.SPECS}
