"""Tests of the benchmark itself: output checks, failure accounting, tracing.

Run from the repository root with ``python3 -m pytest bench``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qrsim import bell, cli  # noqa: E402


def _bell_corrupt(out):
    out["E_quantum"] += 1e-6


def _disjoint_corrupt(out):
    # mass moves within one row: the sum and the first marginal stay exact
    values = out["distribution"]["values"]
    values[0] += 1e-6
    values[1] -= 1e-6


def _overlap_corrupt(out):
    out["quasi"]["values"][0][0] += 1e-6


def _schmidt_corrupt(out):
    # a sign flip on one right vector leaves every spectrum check intact
    out["right_basis"][0] = [[-re, -im] for re, im in out["right_basis"][0]]


CORRUPTIONS = {
    "bell-point": _bell_corrupt,
    "joint-disjoint": _disjoint_corrupt,
    "joint-overlap": _overlap_corrupt,
    "schmidt-cut": _schmidt_corrupt,
}


def _printing(text, rc=0):
    def main(argv):
        sys.stdout.write(text)
        return rc

    return main


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_genuine_output_passes_and_corrupted_output_fails(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ops = workload.build(np.random.default_rng(5), tmp_path)
    first_of_kind = {op.kind: op for op in reversed(ops)}
    for op in first_of_kind.values():
        _, failure = run.run_op(cli.main, op, workload.check)
        assert failure is None, failure

    op = ops[0]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(op.argv)) == 0
    genuine = json.loads(buf.getvalue())
    assert run.run_op(_printing(json.dumps(genuine)), op, workload.check)[1] is None
    CORRUPTIONS[name](genuine)
    _, failure = run.run_op(_printing(json.dumps(genuine)), op, workload.check)
    assert failure is not None and failure.startswith("output check")


def test_nonzero_exit_and_argparse_exit_are_failures(tmp_path):
    def never_called(op, stdout):
        raise AssertionError("check must not run after a failed call")

    missing = workloads.Op("missing", ("joint", str(tmp_path / "none.json"), "q0"), {})
    _, failure = run.run_op(cli.main, missing, never_called)
    assert failure.startswith("exit code 2")

    bad_args = workloads.Op("bad", ("bell", "--model", "nonsense"), {})
    _, failure = run.run_op(cli.main, bad_args, never_called)
    assert "SystemExit" in failure

    tally = run.Tally()
    for f in (None, failure, None):
        tally.add(f)
    assert (tally.attempted, len(tally.failures)) == (3, 1)


def _traced_bell_pass(seed, tmp_path, n_ops=4):
    workload = workloads.WORKLOADS["bell-point"]
    ops = workload.build(np.random.default_rng(seed), tmp_path)[:n_ops]
    t = tracer.Tracer()
    original = bell.run_bell
    t.install()
    try:
        assert bell.run_bell is not original and cli.run_bell is bell.run_bell
        for i, op in enumerate(ops):
            t.op = i
            assert run.run_op(lambda argv: cli.main(argv), op, workload.check)[1] is None
    finally:
        t.uninstall()
    assert bell.run_bell is original and cli.run_bell is original
    return t.layer_metrics(n_ops, 1.0)


def test_traced_counts_repeat_exactly_across_seeds(tmp_path):
    first = _traced_bell_pass(1, tmp_path / "a")
    second = _traced_bell_pass(2, tmp_path / "b")
    counts = [k for k, (unit, _) in tracer.LAYER_METRICS.items() if not unit.startswith("ms")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["bell.run_bell.calls"] == 9.0
    assert first["bell.setting_reuse_ratio"] == pytest.approx(4 / 9)
    assert first["cli.main.self_ms"] > 0.0


def test_normalised_times_cancel_host_drift():
    samples = [(0.05 + 0.001 * i, 0.004) for i in range(100)]
    slowed = [(2.0 * dt, 2.0 * k) for dt, k in samples]
    steady, drifted = run.summarize(samples), run.summarize(slowed)
    for key in ("ops_per_s", "op_ms_p50", "op_ms_p90"):
        assert drifted[key] == pytest.approx(steady[key])
    assert drifted["wall"]["op_ms_p50"] == pytest.approx(2.0 * steady["wall"]["op_ms_p50"])
    assert steady["op_ms_p50"] == pytest.approx(run.CAL_REF_MS * 0.0995 / 0.004)


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.spans = [
        tracer.Span("cli.main", 0.0, 10.0, -1, 0),
        tracer.Span("bell.run_bell", 1.0, 4.0, 0, 0),
        tracer.Span("hilbert.apply", 2.0, 3.0, 1, 0),
        tracer.Span("bell.run_bell", 5.0, 7.0, 0, 0),
    ]
    calls, total_s, self_s = t.self_times()
    assert calls["bell.run_bell"] == 2
    assert total_s["bell.run_bell"] == pytest.approx(5.0)
    assert self_s["cli.main"] == pytest.approx(5.0)
    assert self_s["bell.run_bell"] == pytest.approx(4.0)
    assert self_s["hilbert.apply"] == pytest.approx(1.0)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.LAYER_METRICS


def test_refuses_to_run_with_a_dimension_cap(monkeypatch):
    monkeypatch.setenv("QRS_MAX_DIM", "64")
    assert "QRS_MAX_DIM" in run.preflight()
