"""Every evolution path against its reference: corrected runs against one call of each per interval, free runs
against the lab-frame RK4 loop.

``qec._corrected_evolve`` picks its path from the run's length and from
whether the code's frame turns against the model's: one call of each per
interval, ``dynamics._steps`` of the interval map on the state's 32-float
row, or products of four intervals on the recovered state's code-word
coordinates and one product of the rest.  Whatever it picks, it must land
where the per-interval route lands and fail where that route fails, with its
class and message.
Hypothesis draws the task, the field, the rate, the detuning (zero and a
subnormal one included), the steps an interval and the intervals, and, for
``lindblad_evolve``, dt, t0 and the steps, derandomized, with no example
database and a fixed number of examples, each kept to at most 200 steps an
interval and 300 intervals, or 4 steps an interval and 4100 intervals, or
1100 free steps, so that the file runs in a few seconds; that bounds the
cost only and steers around no known defect.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fluxmet import dynamics, qec
from fluxmet.dynamics import lindblad_evolve, omega_model, theta_model
from fluxmet.errors import InstabilityError, LeakageError
from fluxmet.qec import apply_recovery, omega_code, theta_code
from lab_frame import lab_frame_evolve
from per_interval import per_interval

_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
_SUBNORMAL = 5e-324


@st.composite
def _runs(draw):
    # (task, B, gamma, estimate, detuning, dt, s, n): a zero or subnormal
    # detuning comes with a zero estimate, where it is not absorbed.
    task = draw(st.sampled_from(["theta", "omega"]))
    detuning = draw(st.one_of(st.just(0.0), st.just(_SUBNORMAL), st.floats(-0.3, 0.3)))
    estimate = 0.0 if detuning in (0.0, _SUBNORMAL) else draw(st.floats(0.1, 1.5))
    # Up to 300 intervals, or 1041-4100 of at most 4 steps, so that the
    # reference stays quick: past 1040, a static run sends more than one
    # _CHUNK of 64 blocks of 16 intervals through dynamics._run, and a
    # detuned one takes 260-1025 fused products.
    steps, n = draw(st.one_of(st.tuples(st.integers(1, 200), st.integers(1, 300)),
                              st.tuples(st.integers(1, 4), st.integers(1041, 4100))))
    return (task, draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 0.5)), estimate, detuning,
            draw(st.sampled_from([1e-3, 2.5e-3])), steps, n)


def _bound(want: np.ndarray, n: int) -> float:
    # How far a path may land from the per-interval route's state ``want``
    # after n intervals: 1e-13, or half that route's own trace drift, which
    # grows by about 2 eps an interval, or eps an interval where its trace
    # stays at 1.  (Static angle runs at a zero estimate keep it there; over
    # 1041-4100 intervals both routes then sit equally far from the long-double
    # product of the same maps, and 0.45 eps an interval apart.)
    return max(1e-13, abs(np.trace(want) - 1) / 2, n * np.finfo(float).eps)


def _pair(task: str, B: float, gamma: float, estimate: float, detuning: float):
    # A fresh model and code, none of them kept by qec's code memo.
    if task == "theta":
        return theta_model(B, gamma, estimate + detuning), theta_code(estimate)
    return omega_model(B, gamma, estimate + detuning), omega_code(estimate)


# The edges of the path rule: the shortest run of products and the longest
# per-interval one, detuned and static; detuned runs of 16-19 intervals, whose
# last product is the remainder of zero to three, of 255 and 256, and of 259,
# with a tail of three; a subnormal detuning; a long static run; and static
# runs of 128 and 129 intervals, on both sides of the run past which
# dynamics._steps sends all but its last block through dynamics._run.
_EDGES = [
    ("omega", 0.3, 0.2, 1.2, 0.2, 1e-3, 3, 16), ("omega", 0.3, 0.2, 1.2, 0.2, 1e-3, 3, 15),
    ("omega", 0.3, 0.2, 1.2, 0.2, 1e-3, 3, 17), ("omega", 0.3, 0.2, 1.2, 0.2, 1e-3, 3, 18),
    ("omega", 0.3, 0.2, 1.2, 0.2, 1e-3, 3, 19), ("omega", 0.3, 0.2, 1.2, 0.2, 1e-3, 1, 255),
    ("omega", 0.3, 0.2, 1.2, 0.2, 1e-3, 1, 256),
    ("theta", 0.3, 0.2, 0.8, 0.05, 1e-3, 7, 16), ("omega", 0.3, 0.2, 1.2, 0.2, 1e-3, 2, 259),
    ("omega", 0.1, 0.05, 0.0, _SUBNORMAL, 2.5e-3, 1, 300), ("theta", 1.0, 0.5, 0.8, -0.3, 1e-3, 200, 37),
    ("theta", 0.3, 0.2, 0.8, 0.05, 1e-3, 2, 128), ("theta", 0.3, 0.2, 0.8, 0.05, 1e-3, 2, 129),
]


def _with_edges(*extras: dict):
    def decorate(test):
        for args in _EDGES:
            for extra in extras or ({},):
                test = example(run=args, **extra)(test)
        return test
    return decorate


@settings(_SETTINGS, max_examples=100)
@_with_edges()
@example(run=("theta", 0.3, 0.2, 0.8, 0.05, 1e-3, 1, 1024))  # static and fused runs of 1024 and 4097 intervals
@example(run=("theta", 0.1, 0.05, 0.8, -0.02, 2.5e-3, 2, 4097))
@example(run=("omega", 0.3, 0.2, 1.2, 0.2, 1e-3, 1, 1024))
@example(run=("omega", 0.1, 0.05, 0.7, 0.05, 2.5e-3, 1, 4097))
@given(run=_runs())
def test_every_path_lands_on_the_per_interval_route(run) -> None:
    *pair, dt, s, n = run
    got = qec._corrected_evolve(*_pair(*pair), n * s * dt, dt, n)
    *_, want = per_interval(*_pair(*pair), n * s * dt, dt, n)
    assert np.max(np.abs(got - want)) <= _bound(want, n)
    assert np.array_equal(got, got.conj().T)


def _first_failure(intervals) -> tuple[int, type, str]:
    # The interval, counted from 1, at which the per-interval route first
    # raises, with the class and message it raises.
    done = 0
    with pytest.raises((InstabilityError, LeakageError)) as err:
        for _ in intervals:
            done += 1
    return done + 1, err.type, str(err.value)


def _leak(code) -> np.ndarray:
    # I / 2 + |-><-|, |-> = (c0 - c1) / sqrt(2), orthogonal to the probe: a
    # positive operator whose expectation grows as a detuning turns the state.
    minus = (code.c0 - code.c1) / np.sqrt(2)
    return 0.5 * np.eye(4) + minus[:, None] * minus.conj()


def _column(m: np.ndarray) -> np.ndarray:
    # The (32, 1) column of Tr(M rho) on a state's float64 row, for a
    # Hermitian (4, 4) M: M's own float64 row.
    return np.ascontiguousarray(m).reshape(16, 1).view(np.float64).reshape(32, 1)


def _readings(model, code, t: float, dt: float, n: int, m: np.ndarray) -> np.ndarray:
    # Tr(M rho) at each recovery's input on the per-interval route.
    return np.ravel(list(per_interval(model, code, t, dt, n, _column(m))))


@settings(_SETTINGS, max_examples=60)
@_with_edges({"kind": "drift", "place": 0.5}, {"kind": "leakage", "place": 0.5})
@given(run=_runs(), kind=st.sampled_from(["drift", "leakage"]), place=st.floats(0.0, 1.0, exclude_max=True))
def test_a_forced_failure_raises_what_the_per_interval_route_raises(run, kind, place) -> None:
    # Each recovery loses its own small trace, base_j <= 0.  Drift: the
    # recovery's second Kraus operator K, shrunk by eps, also loses
    # c <K^dag K>_j, c = 2 eps - eps^2, so the trace lost by recoveries 1..j
    # grows with j, and step 1 of the interval after the first j at which it
    # passes 1e-6 drifts.  Leakage: the recovery's lost-trace column also
    # reads -alpha <M>, M = _leak(code), a loss of the same sign, so recovery
    # j reads base_j - alpha <M>_j, and the first past 1e-6 leaks.  c or alpha
    # is set midway between the values that put the first failure at the
    # target and one interval earlier; ``place`` picks the target among the
    # intervals where a margin of 1e-6 of that value separates them.  Every
    # path raises the per-interval route's class and message there.  A path
    # of products replays the one that fails one call of each per interval
    # from its input, entering and leaving the code's frame at the times of
    # the intervals it replays, so the leaking recovery receives the
    # per-interval route's state; entered one interval late, a detuned replay
    # would turn it by that interval's frame phase.
    *pair, dt, s, n = run
    model, code = _pair(*pair)
    t = n * s * dt
    base = np.ravel(list(per_interval(model, code, t, dt, n, code._recovery_map[:, -1:])))
    if kind == "drift":
        weight = _readings(model, code, t, dt, n, code.recovery[1].conj().T @ code.recovery[1])
        least = (1e-6 + np.cumsum(base)) / np.cumsum(weight)  # the c at which recoveries 1..j have lost 1e-6
        below = np.concatenate([[min(1.0, 2 * least[0])], least[:-1]])  # one interval earlier
        values = (least + below) / 2  # no recovery up to the target may lose 1e-6 alone
        targets = [j + 2 for j in range(n - 1) if 0 < least[j] and least[j] * (1 + 1e-6) < below[j]
                   and np.max(values[j] * weight[: j + 1] - base[: j + 1]) < 1e-6 * (1 - 1e-6)]
    else:
        least = (1e-6 + base) / _readings(model, code, t, dt, n, _leak(code))
        below = np.concatenate([[2 * least[0]], np.minimum.accumulate(least)[:-1]])
        values = (least + below) / 2
        targets = [j + 1 for j in range(n) if least[j] * (1 + 1e-6) < below[j]]
    assume(targets)
    target = targets[int(place * len(targets))]
    value = values[target - (2 if kind == "drift" else 1)]
    if kind == "drift":
        code = dataclasses.replace(code, recovery=[code.recovery[0], np.sqrt(1 - value) * code.recovery[1]])
    else:
        leaky = code._recovery_map.copy()
        leaky[:, -1:] -= value * _column(_leak(code))
        code = dataclasses.replace(code)
        vars(code)["_recovery_map"] = leaky
    k, error, message = _first_failure(per_interval(model, code, t, dt, n))
    assert k == target
    received = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qec, "apply_recovery", lambda code, rho: received.append(rho) or apply_recovery(code, rho))
        with pytest.raises(error) as err:
            qec._corrected_evolve(model, code, t, dt, n)
    assert str(err.value) == message
    if kind == "leakage":
        row = next(itertools.islice(per_interval(model, code, t, dt, n, np.eye(32)), target - 1, None))
        want = row.view(complex).reshape(4, 4)
        assert np.max(np.abs(received[-1] - want)) <= _bound(want, target)


@pytest.mark.parametrize("frame", ["static", "detuned", "centre"])
def test_every_checked_map_carries_the_one_layout_of_checks(frame) -> None:
    # Whatever it spans, a step, a block of k steps, an interval, the five
    # samples of a detuned interval and the samples of four intervals in turn
    # each end in the same three check columns: the trace and the witness
    # after the last step, and the lost trace.  A recovery's map ends in the
    # last of them alone.
    omega, dt = {"static": None, "detuned": 1.4, "centre": 1.2}[frame], 1e-3
    model, code = (theta_model(0.3, 0.2, 0.9), theta_code(0.8)) if omega is None else (
        omega_model(0.3, 0.2, omega), omega_code(1.2))
    maps = model._maps_at(dt)
    checked = [maps[1], *(dynamics._block_map(maps, k) for k in (1, 2, 16, 17, 1000))]
    exit_phase = np.ravel(dynamics.in_frame(1.0, model._rate, 4 * dt))
    checked.append(qec._interval_maps(dynamics._block_map(maps, 4), exit_phase, code._recovery_map))
    if frame == "detuned":
        rate = code._rate - model._rate
        samples = qec._interval_polynomial(dynamics._block_map(maps, 4), code, exit_phase, rate)
        fused, _ = qec._fused_polynomial(samples, rate, 4 * dt, 4)
        assert samples.shape[0] == 5 and fused.shape[0] == 17
        checked += [*samples, *fused]
    assert {m.shape[-1] - m.shape[-2] for m in checked} == {len(dynamics._TARGET)}
    recovery = code._recovery_map
    assert recovery.shape[-1] - recovery.shape[-2] == 1
    assert np.array_equal(dynamics._block_map(maps, 1000)[:, -1], np.zeros(32))  # steps lose no trace


@st.composite
def _free_runs(draw):
    # (task, B, gamma, angle or frequency, state seed, dt, t0, steps): the
    # steps on either side of the 128 past which dynamics._steps sends all but
    # its last block through dynamics._run, or past 1040, where more than one
    # chunk of 64 blocks goes through it.
    return (draw(st.sampled_from(["theta", "omega"])), draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 0.5)),
            draw(st.floats(-1.5, 1.5)), draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([1e-3, 2.5e-3, 1e-2])),
            draw(st.floats(-2.0, 2.0)), draw(st.one_of(st.integers(1, 300), st.integers(1041, 1100))))


@settings(_SETTINGS, max_examples=12)
@example(run=("theta", 0.3, 0.2, 0.7, 1, 1e-3, 0.0, 128))
@example(run=("omega", 0.3, 0.2, 1.3, 2, 1e-2, 0.4, 129))
@example(run=("omega", 0.5, 0.1, 0.9, 3, 2.5e-3, -1.7, 1041))
@given(run=_free_runs())
def test_a_free_evolution_lands_on_the_lab_frame_loop(run) -> None:
    # lindblad_evolve from t0 against RK4 rebuilt from the model's operators
    # at every step in the lab frame, on a random mixed state, within 1e-12.
    task, B, gamma, x, seed, dt, t0, n = run
    model = (theta_model if task == "theta" else omega_model)(B, gamma, x)
    v = np.random.default_rng(seed).normal(size=(2, 4, 2)).view(complex)[..., 0]
    rho0 = (v.T @ v.conj()) / np.vdot(v, v).real
    got = lindblad_evolve(model, rho0, n * dt, dt=dt, t0=t0)
    assert np.max(np.abs(got - lab_frame_evolve(model, rho0, n * dt, dt, t0))) <= 1e-12
