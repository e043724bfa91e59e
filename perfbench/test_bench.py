"""Tests of the benchmark's own statistics and tracing, on synthetic data."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_stats import TAIL_BEYOND, OpResult, summarize, tail  # noqa: E402
from bench_trace import SpanTable, Tracer, layer_metrics, leftover_wrappers, traced  # noqa: E402


def _table(spans: list[tuple[str, int, int, int]]) -> SpanTable:
    """Spans as (name, start, end, parent index) with times in seconds."""
    names = sorted({s[0] for s in spans})
    return SpanTable.from_arrays(
        names,
        [names.index(s[0]) for s in spans],
        [int(s[1] * 1e9) for s in spans],
        [int(s[2] * 1e9) for s in spans],
        [s[3] for s in spans],
        [0] * len(spans),
    )


def test_self_time_is_duration_minus_child_coverage() -> None:
    table = _table([
        ("qec.corrected", 0, 10, -1),
        ("dynamics.evolve", 1, 4, 0),
        ("qmat.kron", 2, 3, 1),
        ("qec.recovery", 5, 7, 0),
    ])
    assert table.self_time == pytest.approx([10 - 3 - 2, 3 - 1, 1, 2])
    assert table.self_seconds("qec.corrected") == pytest.approx(5.0)
    assert table.seconds("qec.corrected") == pytest.approx(10.0)


def test_nested_spans_of_one_name_count_once() -> None:
    # write_csv calls _atomic_write: both are cli.write, one write.
    table = _table([("cli.write", 0, 4, -1), ("cli.write", 1, 3, 0), ("cli.write", 5, 6, -1)])
    assert table.calls("cli.write") == 2
    assert table.seconds("cli.write") == pytest.approx(5.0)
    assert table.self_seconds("cli.write") == pytest.approx(5.0)


def test_tail_is_highest_percentile_with_ten_beyond() -> None:
    latencies = [float(i) for i in range(1, 41)]
    value, pct = tail(latencies)
    assert sum(x > value for x in latencies) == TAIL_BEYOND
    assert pct == pytest.approx(75.0)
    # One rank higher would leave fewer than ten beyond.
    assert sum(x > value + 1 for x in latencies) < TAIL_BEYOND
    with pytest.raises(ValueError):
        tail(latencies[:TAIL_BEYOND])


def test_failed_ops_lower_goodput_and_are_infinitely_slow() -> None:
    ok = [OpResult("k", f"op{i}", 1.0) for i in range(20)]
    failed = [OpResult("k", f"bad{i}", 1.0, error="exit 4") for i in range(12)]
    clean, mixed = summarize(ok), summarize(ok + failed)
    assert clean["goodput_ops_s"] == pytest.approx(1.0)
    assert mixed["goodput_ops_s"] == pytest.approx(20 / 32)
    assert mixed["fail_frac"] == pytest.approx(12 / 32)
    # 12 of 32 ops are infinite, so the tail rank (22nd) is one of them.
    assert math.isinf(mixed["op_tail_s"])
    assert mixed["op_p50_s"] == pytest.approx(1.0)


def test_traced_wrappers_are_removed_after_a_traced_run() -> None:
    from fluxmet import dynamics, metrology, qec, qmat

    originals = {
        (m.__name__, name): getattr(m, name)
        for m, name in ((qmat, "kron"), (dynamics, "kron"), (qec, "lindblad_evolve"),
                        (dynamics, "lindblad_evolve"), (metrology, "hermitian_eig"))
    }
    tracer = Tracer()
    with traced(tracer):
        assert qmat.kron is not originals[("fluxmet.qmat", "kron")]
        assert dynamics.kron is qmat.kron  # one wrapper for every binding
        rho = qec.corrected_evolve_theta(0.1, 0.05, 0.8, 0.8, 0.1, dt=0.05, n_recoveries=2)
    assert rho.shape == (4, 4)
    assert leftover_wrappers() == []
    for (module, name), fn in originals.items():
        assert getattr(sys.modules[module], name) is fn
    m = layer_metrics(SpanTable.from_tracer(tracer), tracer)
    assert m["qec.corrected.calls"] == 1
    assert m["dynamics.evolve.calls"] == 2
    assert m["dynamics.rk4_steps"] == 2
    assert m["qec.recovery.calls"] == 2

    # A later untraced call in the same process records nothing.
    spans = len(tracer.name)
    qec.corrected_evolve_theta(0.1, 0.05, 0.8, 0.8, 0.1, dt=0.05, n_recoveries=2)
    assert len(tracer.name) == spans


def test_wrappers_are_removed_when_the_traced_block_raises() -> None:
    from fluxmet import qmat

    original = qmat.expm
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            raise RuntimeError("op crashed")
    assert qmat.expm is original
    assert leftover_wrappers() == []


def test_scale_converts_op_times_to_reference_speed() -> None:
    slow_machine = [OpResult("k", f"op{i}", 2.0, scale=0.5) for i in range(20)]
    s = summarize(slow_machine)
    assert s["op_p50_s"] == pytest.approx(1.0)
    assert s["goodput_ops_s"] == pytest.approx(1.0)
    assert s["raw_goodput_ops_s"] == pytest.approx(0.5)


def test_reported_metrics_match_benchmark_json() -> None:
    import json
    import os
    import types

    env = dict(os.environ)
    import run

    assert dict(os.environ) == env  # thread pins only when run as a program
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    layers = run.layer_values(SpanTable.from_tracer(tracer), tracer, types.SimpleNamespace(), 0.0, 0.0)
    assert set(layers) == {m["name"] for m in doc["per_layer"]}
    end_to_end = set(summarize([OpResult("k", "op", 1.0)] * 11)) | {"setup_s", "peak_rss_mb"}
    assert {m["name"] for m in doc["end_to_end"]} <= end_to_end


def test_counters_split_by_op() -> None:
    tracer = Tracer()
    for op, steps in ((0, 5), (1, 7)):
        tracer.op_id = op
        tracer.count("dynamics.rk4_steps", steps)
    table = SpanTable.from_tracer(tracer)
    assert layer_metrics(table, tracer)["dynamics.rk4_steps"] == 12
    assert layer_metrics(table, tracer, np.array([1]))["dynamics.rk4_steps"] == 7


def test_only_known_failures_keep_a_run_correct() -> None:
    from bench_workloads import KNOWN_FAILURES, known_failure

    label, error = next(iter(KNOWN_FAILURES.items()))
    assert known_failure(OpResult("qfi-omega", label, 1.0, error=error + "closed form 1e-06"))
    # The known command failing another way, or wrong output, is a defect.
    assert not known_failure(OpResult("qfi-omega", label, 1.0, error="OpFailed: exit 1: Traceback"))
    assert not known_failure(OpResult("qfi-omega", label, 1.0, error=error, wrong=True))
    assert not known_failure(OpResult("crit5.omega", "crit5 omega", 1.0, error="NumericError: x"))
