"""End-to-end statistics over one timed phase of ops."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# A tail percentile must leave at least this many ops beyond it.
TAIL_BEYOND = 10
# A timed phase runs at least this many ops, so that the tail exists.
MIN_OPS = 20


class OpFailed(Exception):
    """The program reported an error (exception or non-zero exit)."""


class CheckError(Exception):
    """The program reported success but its output is wrong."""


@dataclass(frozen=True)
class OpResult:
    """One timed op: its kind and label, wall time, and how it ended.

    ``error`` is None for an op that finished and passed its output check.
    ``wrong`` marks an op that reported success but whose output failed the
    check; an op that raised or exited with an error code is failed, not wrong.
    ``scale`` converts the op's wall time to the reference machine speed
    (reference over measured time of a calibration kernel run around the op).
    """

    kind: str
    label: str
    seconds: float
    error: str | None = None
    wrong: bool = False
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale

    @property
    def latency(self) -> float:
        """Reference-speed wall time, or infinity for a failed op."""
        return self.ref_seconds if self.ok else math.inf


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it.

    The sample of rank k (1-based, ascending) has n - k samples beyond it, so
    the answer is rank n - TAIL_BEYOND at percentile 100 (n - TAIL_BEYOND) / n.
    """
    n = len(latencies)
    k = n - TAIL_BEYOND
    if k < 1:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return sorted(latencies)[k - 1], 100.0 * k / n


def summarize(results: list[OpResult]) -> dict[str, float]:
    """Goodput, median and tail latency and failure counts of one phase.

    Times are at the reference machine speed; the ``raw_`` entries repeat
    goodput and median in plain wall time.  The phase lasts as long as its
    ops ran, failed ones included; a failed op counts as infinitely slow in
    the latency statistics.  The tail needs more than TAIL_BEYOND ops and is
    left out below that.
    """
    if not results:
        raise ValueError("no ops were run")
    latencies = [r.latency for r in results]
    passed = sum(r.ok for r in results)
    raw_busy = sum(r.seconds for r in results)
    out = {
        "ops": len(results),
        "passed": passed,
        "failed": len(results) - passed,
        "busy_s": sum(r.ref_seconds for r in results),
        "goodput_ops_s": passed / sum(r.ref_seconds for r in results),
        "op_p50_s": statistics.median(latencies),
        "pass_frac": passed / len(results),
        "fail_frac": (len(results) - passed) / len(results),
        "raw_busy_s": raw_busy,
        "raw_goodput_ops_s": passed / raw_busy,
        "raw_op_p50_s": statistics.median(r.seconds if r.ok else math.inf for r in results),
        "median_scale": statistics.median(r.scale for r in results),
    }
    if len(results) > TAIL_BEYOND:
        out["op_tail_s"], out["tail_percentile"] = tail(latencies)
    return out
