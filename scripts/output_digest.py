"""Compare what the public routes return in a parent commit and in this tree.

    python3 scripts/output_digest.py --parent <commit> [--out DIGEST.json]

The parent tree is a ``git archive`` of ``--parent`` in a temporary
directory (``bench_pairs.export_parent``); the change tree is this working
tree.  In each tree a subprocess with ``PYTHONPATH=<tree>/src`` evaluates
every route of ``ROUTES``, a fixed list of expressions over the package's
public functions, and returns each output's sha256 and its numbers: the
real and imaginary parts of an array, or every number in the bytes a
command line writes (for a refused one, its exit code and error message).
One line per route then reads ``identical`` (the same bytes) or the largest
absolute difference of its numbers.  ``--out`` also records both digests
of every route.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve()
_BENCH_PAIRS = importlib.util.spec_from_file_location("bench_pairs", SCRIPT.parent / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_BENCH_PAIRS)
_BENCH_PAIRS.loader.exec_module(bench_pairs)
ROOT, export_parent = bench_pairs.ROOT, bench_pairs.export_parent

# name -> expression, evaluated by worker() with the package modules and the
# helpers below in scope.  The corrected evolutions use numeric_route's shapes;
# the closed forms, distributions and draws are entry points that refuse
# their inputs through dynamics._check_domain, each at in-domain values only.
TIMES = (0.0, 0.5, 5.0)
# Detunings at t = 5 on both sides of the frequency coherence's series
# crossovers: |a t| = 0.1 (phase) and |2 a t| = 0.1 (decay).
DETUNINGS = np.array(
    [-0.3, -0.0201, -0.0199, -0.0101, -0.0099, 0.0, 0.005, 0.0099, 0.0101, 0.0199, 0.0201, 0.3]
)
ROUTES = {
    "lindblad_evolve theta": "dynamics.lindblad_evolve(theta_model(), bell(), 16.0, dt=4e-3)",
    "lindblad_evolve omega t0=0.4": (
        "dynamics.lindblad_evolve(dynamics.omega_model(0.1, 0.05, 0.3), bell(), 1.0, dt=0.01, t0=0.4)"
    ),
    # From t0 = 0: 100 steps, and 5 steps in one block.
    "lindblad_evolve omega t0=0": (
        "dynamics.lindblad_evolve(dynamics.omega_model(0.1, 0.05, 0.3), bell(), 1.0, dt=0.01)"
    ),
    "lindblad_evolve omega one block": (
        "dynamics.lindblad_evolve(dynamics.omega_model(0.1, 0.05, 0.3), bell(), 0.05, dt=0.01)"
    ),
    "lindblad_evolve state by state": (
        "np.stack([dynamics.lindblad_evolve(theta_model(), rho, 0.5) for rho in states()])"
    ),
    # The first routes whose operators are not real symmetric: the shipped model file,
    # and a framed model with complex, non-Hermitian Lindblad operators.
    "lindblad_evolve theta_example": "dynamics.lindblad_evolve(file_model(), bell(), 2.0, dt=0.01)",
    "lindblad_evolve complex framed": "dynamics.lindblad_evolve(complex_model(), bell(), 1.0, dt=0.01, t0=0.3)",
    "corrected_evolve_theta": (
        "qec.corrected_evolve_theta(0.1, 0.05, np.pi / 4 + 0.01, np.pi / 4, 5.0, dt=5e-3, n_recoveries=1000)"
    ),
    "corrected_evolve_omega": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 5.0, dt=2.5e-3, n_recoveries=2000)"
    ),
    # A static run whose last 1007 % 16 intervals are one product, criterion 5's
    # intervals of four steps (static and rotating), a rotating run at zero detuning,
    # whose intervals are one map each, one of five-step intervals, and one of 20-step
    # intervals, one product each on the code-word coordinates.
    "corrected_evolve_theta 1007 intervals": (
        "qec.corrected_evolve_theta(0.1, 0.05, np.pi / 4 + 0.01, np.pi / 4, 5.035, dt=5e-3, n_recoveries=1007)"
    ),
    "corrected_evolve_theta 4 steps": (
        "qec.corrected_evolve_theta(0.1, 0.05, np.pi / 4 + 0.05, np.pi / 4, 5.0, dt=2.5e-3, n_recoveries=500)"
    ),
    "corrected_evolve_omega 4 steps": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.3, 0.25, 5.0, dt=2.5e-3, n_recoveries=500)"
    ),
    "corrected_evolve_omega zero detuning": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.25, 0.25, 5.0, dt=2.5e-3, n_recoveries=2000)"
    ),
    "corrected_evolve_omega 5 steps": (
        "qec.corrected_evolve_omega(0.3, 0.2, 1.4, 1.2, 1.0, dt=0.01, n_recoveries=20)"
    ),
    "corrected_evolve_omega 20 steps": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 5.0, dt=2.5e-3, n_recoveries=100)"
    ),
    # The edges of dynamics._run's loop: a run of one interval, which takes no product,
    # a full chunk of 64 products and one more, 1024 fused products and one interval
    # more, and 64 static products of 16 intervals plus one interval as one product;
    # then the shortest free run that _steps sends through _run (8 blocks of 16 steps
    # and one step).
    **{
        f"corrected_evolve_omega n_recoveries={n}": (
            f"qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, {n} * 2.5e-3, dt=2.5e-3, n_recoveries={n})"
        )
        for n in (1, 65, 4097)
    },
    # Detuned rotating runs at the edges of the fused products of qec._corrected_evolve
    # (four intervals a product): at one step an interval with one interval left over,
    # at two and three steps an interval, on both sides of the shortest run that goes
    # fused, and fused runs of eight and nine steps an interval.
    **{
        f"corrected_evolve_omega {s} steps {n} intervals": (
            f"qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, {n * s} * 2.5e-3, dt=2.5e-3, n_recoveries={n})"
        )
        for s, n in ((1, 2001), (1, 2003), (2, 1000), (3, 667), (1, 255), (1, 256), (8, 256), (9, 256))
    },
    # Detuned rotating runs of one-step intervals at the tests' detuning of 0.2: the
    # shortest run of products with a last product of zero to three intervals, and 256.
    **{
        f"corrected_evolve_omega detuned 0.2 {n} intervals": (
            f"qec.corrected_evolve_omega(0.3, 0.2, 1.4, 1.2, {n} * 1e-3, dt=1e-3, n_recoveries={n})"
        )
        for n in (17, 18, 19, 256)
    },
    # Detuned rotating runs on the code-coordinate path: the one tail length mod 4,
    # the fused products' size, that the runs above leave out; 17 steps an interval,
    # one more than a step block; and omega_hat above omega.
    "corrected_evolve_omega 1 steps 2002 intervals": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 2002 * 2.5e-3, dt=2.5e-3, n_recoveries=2002)"
    ),
    "corrected_evolve_omega 17 steps": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 4.25, dt=2.5e-3, n_recoveries=100)"
    ),
    "corrected_evolve_omega omega_hat above omega": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.24, 0.25, 5.0, dt=2.5e-3, n_recoveries=2000)"
    ),
    # Runs whose path the interval rule decides by their length alone: static runs of 64 intervals
    # of 1000 steps (products of a 1000-step map) and of 20 of five steps (a tail of four intervals
    # as one product), and detuned runs of 16 intervals of 1024 steps (code-word products), of one
    # of 5000 steps and of four of 16 steps (one call of each per interval).
    **{
        f"corrected_evolve_{task} {s} steps {n} intervals": (
            f"qec.corrected_evolve_{task}(0.1, 0.05, {x}, {hat}, {n * s} * {dt}, dt={dt}, n_recoveries={n})"
        )
        for task, x, hat, dt, s, n in (
            ("theta", "np.pi / 4 + 0.01", "np.pi / 4", 1e-4, 1000, 64),
            ("theta", "np.pi / 4 + 0.01", "np.pi / 4", 5e-3, 5, 20),
            ("omega", 0.26, 0.25, 2.5e-4, 1024, 16),
            ("omega", 0.26, 0.25, 1e-3, 5000, 1),
            ("omega", 0.26, 0.25, 2.5e-3, 16, 4),
        )
    },
    "corrected_evolve_theta 1025 intervals": (
        "qec.corrected_evolve_theta(0.1, 0.05, np.pi / 4 + 0.01, np.pi / 4, 5.125, dt=5e-3, n_recoveries=1025)"
    ),
    "lindblad_evolve theta 129 steps": "dynamics.lindblad_evolve(theta_model(), bell(), 129 * 4e-3, dt=4e-3)",
    # qec keeps the code of a recent estimate: corrected evolutions repeated at one
    # estimate, the later ones on a kept code, and the estimates 0.0 and -0.0, whose
    # code words differ in the signs of zeros, so each must build its own.
    "corrected_evolve repeated estimate": (
        "[qec.corrected_evolve_theta(0.1, 0.05, np.pi / 4 + d, np.pi / 4, 5.0, dt=5e-3, n_recoveries=1000)"
        " for d in (0.01, 0.01, -0.01)] + [qec.corrected_evolve_omega(0.1, 0.05, 0.25 + d, 0.25, 5.0, dt=2.5e-3,"
        " n_recoveries=2000) for d in (0.01, 0.01, -0.01)]"
    ),
    **{
        f"corrected estimate {hat}": (
            f"[qec.corrected_evolve_theta(0.1, 0.05, 0.01, {hat}, 5.0, dt=5e-3, n_recoveries=1000),"
            f" qec.corrected_state_theta_closed(0.1, 0.05, 0.01, {hat}, 5.0),"
            f" qec.corrected_evolve_omega(0.1, 0.05, 0.01, {hat}, 5.0, dt=2.5e-3, n_recoveries=2000),"
            f" qec.corrected_state_omega_closed(0.1, 0.05, 0.01, {hat}, 5.0)]"
        )
        for hat in ("0.0", "-0.0")
    },
    # Corrected runs of zero length, at one recovery a step, which once refused a recovery count of 0 that
    # the caller never passed, and at an explicit count.
    "corrected zero length": (
        "refusals([lambda: qec.corrected_evolve_theta(0.1, 0.05, 0.9, 0.8, 0.0),"
        " lambda: qec.corrected_evolve_omega(0.1, 0.05, 0.3, 0.25, 0.0),"
        " lambda: qec.corrected_evolve_theta(0.1, 0.05, 0.9, 0.8, 0.0, n_recoveries=3),"
        " lambda: qec.corrected_evolve_omega(0.1, 0.05, 0.3, 0.25, 0.0, n_recoveries=3)])"
    ),
    "corrected_state_theta_closed": (
        "qec.corrected_state_theta_closed(0.1, 0.05, np.pi / 4 + 0.01, np.pi / 4, 5.0)"
    ),
    "corrected_state_omega_closed": "qec.corrected_state_omega_closed(0.1, 0.05, 0.26, 0.25, 5.0)",
    **{
        f"apply_recovery {code} t={t}": f"recovered(qec.{code}, {t})"
        for code, times in (("theta_code(0.8)", (0, 0.37)), ("omega_code(1.2)", (0, 0.37, 5, 1e3)))
        for t in times
    },
    "expansion_evolve theta_example": "expanded(0.1, 5.0)",
    "cfi_trajectory_B": "metrology.cfi_trajectory_B(0.1, 0.05, 5.0, 0.3, 10**5, np.random.default_rng(3))",
    **{
        f"{coherence}.{method} d={d}": (
            f"[metrology.{coherence}.{method}(0.1, 0.05, t, {d}).value for t in TIMES]"
        )
        for coherence in ("THETA_COHERENCE", "OMEGA_COHERENCE")
        for method in ("qfi", "cfi")
        for d in (0, 0.05)
    },
    **{
        f"{coherence}.{method} detunings": f"metrology.{coherence}.{method}(0.1, 0.05, DETUNINGS, 5.0)"
        for coherence in ("THETA_COHERENCE", "OMEGA_COHERENCE")
        for method in ("at", "deriv")
    },
    **{
        f"unitary_family {task}": (
            f"[tasks.TASKS[{task!r}].unitary_family(0.1, 5.0, x)(x + d)"
            f" for x in [tasks.TASKS[{task!r}].x_hat] for d in (-0.02, -0.01, 0.0, 0.01, 0.02)]"
        )
        for task in ("theta", "omega")
    },
    "free_family theta": (
        "[tasks.TASKS['theta'].free_family(0.1, 0.05, 5.0)(x + d)"
        " for x in [tasks.TASKS['theta'].x_hat] for d in (-0.02, -0.01, 0.0, 0.01, 0.02)]"
    ),
    "trajectory_average_state": (
        "[m for e in [dynamics.trajectory_average_state(0.1, 0.05, 5.0, 0.7, 1000, np.random.default_rng(7))]"
        " for m in (e.mean, e.sem_real, e.sem_imag)]"
    ),
    "qfi_theta_free_closed": "[metrology.qfi_theta_free_closed(0.1, 0.05, t).value for t in TIMES]",
    "qfi_theta_unitary_controlled": (
        "[metrology.qfi_theta_unitary_controlled(0.1, t, d).value for t in TIMES for d in (0, 0.05)]"
    ),
    "qfi_omega_unitary_controlled": (
        "[metrology.qfi_omega_unitary_controlled(0.1, t, d).value for t in TIMES for d in (0, 0.05)]"
    ),
    # The exact frequency-task form off zero detuning, past where the former
    # expansion refused (|domega| t > sqrt(18)): a refusal reads as its message.
    "qfi_omega_unitary_controlled detuned": (
        "attempts(metrology.qfi_omega_unitary_controlled,"
        " [(0.1, t, d) for t in TIMES for d in (0.2, 0.5, 0.8, -0.3, 1.5)])"
    ),
    "outcome_probability theta": (
        "[p for t in TIMES for _, p in estimation.outcome_probability(0.9, 0.8, 0.1, 0.05, t).outcomes]"
    ),
    "outcome_probability omega": (
        "[p for t in TIMES for _, p in"
        " estimation.outcome_probability(0.26, 0.25, 0.1, 0.05, t, task='omega').outcomes]"
    ),
    "dephasing_kraus": "[dynamics.dephasing_kraus(0.1, 0.05, t, 0.7) for t in TIMES]",
    "sample_phases": "dynamics.sample_phases(0.1, 0.05, 5.0, 1000, np.random.default_rng(5))",
    "sample_omega_trajectories": (
        "[dynamics.sample_omega_trajectories(0.1, 0.05, w, 5.0, 0.01, 64, np.random.default_rng(17))"
        " for w in (0.25, 0.3)]"
    ),
    # The angle code's words and recovery Kraus pair at two estimates.
    "theta_code": (
        "np.concatenate([np.ravel(a) for h in (0.8, -0.3) for c in [qec.theta_code(h)]"
        " for a in (c.c0, c.c1, *c.recovery)])"
    ),
    # The unitary exponential of seeded -i h at 1-norms 1e-8, 1 and 1e2.
    **{
        f"qmat.expm {n}x{n}": f"[qmat.expm(skew_hermitian({n}, norm)) for norm in (1e-8, 1.0, 1e2)]"
        for n in (2, 4, 16)
    },
    "asymptotic_qfi theta_example": "[qec.asymptotic_qfi(*theta_example(), t).value for t in TIMES]",
    **{
        f"campaign_estimates {task} {strategy}": (
            f"estimation.campaign_estimates(estimation.AdaptiveConfig("
            f"true_value={x}, initial_guess={guess}, strategy={strategy!r}, seed=11), 20, task={task!r})"
        )
        for task, x, guess in (("theta", 0.785, 0.7), ("omega", 0.3, 0.25))
        for strategy in ("qec_corrected", "unitary_controlled")
    },
    # A guess at the prior's edge, where many lanes share a count history, and
    # a 523-lane block where by the last round nearly every history differs.
    "campaign_estimates theta edge guess": (
        "estimation.campaign_estimates(estimation.AdaptiveConfig(true_value=0.785, initial_guess=0.0, seed=11), 200)"
    ),
    "campaign_estimates omega distinct histories": (
        "estimation.campaign_estimates(estimation.AdaptiveConfig(true_value=0.3, initial_guess=0.2, m=1000, rounds=3,"
        " gamma=50, grid=(0.2, 0.4, 1e-4), seed=11), 523, task='omega')"
    ),
    # m above one 48 KiB draw buffer (6144 draws), so each lane draws its
    # outcomes in 12 pieces, one lane a buffer; m = 3000, two lanes a buffer,
    # so the last of four lane slabs holds one lane; README's explicit angle
    # grid of resolution 1e-4 (15 709 points, one block of 66 repetitions, a
    # p(+) row per chunk); and one seeded batch of random campaigns over both
    # tasks and strategies, m, guesses and grids.
    "campaign_estimates omega m=70000": (
        "estimation.campaign_estimates(estimation.AdaptiveConfig(true_value=0.3, initial_guess=0.25, m=70000,"
        " rounds=2, seed=11), 3, task='omega')"
    ),
    "campaign_estimates theta m=3000": (
        "estimation.campaign_estimates(estimation.AdaptiveConfig(true_value=0.785, initial_guess=0.7, m=3000,"
        " seed=11), 7)"
    ),
    "campaign_estimates theta grid 1e-4": (
        "estimation.campaign_estimates(estimation.AdaptiveConfig(true_value=0.785, initial_guess=0.0,"
        " grid=(0.0, np.pi / 2, 1e-4), seed=11), 66)"
    ),
    "campaign_estimates random batch": "random_campaigns(40, 35)",
    "cli qfi-theta": "cli_bytes(['qfi-theta', '--t-max', '5', '--points', '11', '--out', 'theta.csv'])",
    "cli qfi-theta then plot": (
        "cli_bytes(['qfi-theta', '--t-max', '5', '--points', '11', '--out', 'theta.csv'],"
        " then=['plot', 'theta.csv', '--out', 'theta.svg'])"
    ),
    "cli qfi-omega": "cli_bytes(['qfi-omega', '--t-max', '5', '--points', '3', '--out', 'omega.csv'])",
    "cli general-qec": "cli_bytes(['general-qec', 'theta_example', '--t', '5', '--out', 'report.json'])",
    "cli adapt theta": (
        "cli_bytes(['adapt', 'theta', '--config', 'c.json', '--out', 'a.csv'],"
        " {'true_value': 0.785, 'initial_guess': 0.0, 'repetitions': 3, 'seed': 7})"
    ),
    "cli adapt omega": (
        "cli_bytes(['adapt', 'omega', '--config', 'c.json', '--out', 'a.csv'],"
        " {'true_value': 0.3, 'initial_guess': 0.2, 'repetitions': 3, 'seed': 7, 'grid': [0.2, 0.4, 1e-4]})"
    ),
    "cli general-qec refused wrong_code": "cli_bytes(['general-qec', 'wrong_code'])",
    # ROADMAP item 6: the gate's small-t failure.
    "cli qfi-theta refused t_max=1e-4": (
        "cli_bytes(['qfi-theta', '--t-max', '1e-4', '--points', '11', '--out', 'theta.csv'])"
    ),
    "cli plot refused missing csv": "cli_bytes(['plot', 'missing.csv', '--out', 'x.svg'])",
    # Sweeps out to t where the gate's states are bounded unitary ones but its
    # routes part (exit 4).
    "cli qfi-theta refused t_max=1e150": (
        "cli_bytes(['qfi-theta', '--t-max', '1e150', '--points', '3', '--out', 'theta.csv'])"
    ),
    "cli qfi-omega refused B=gamma=6.6e15": (
        "cli_bytes(['qfi-omega', '--B', '6.6e15', '--gamma', '6.6e15', '--t-max', '1.6e16', '--points', '6',"
        " '--out', 'omega.csv'])"
    ),
    # README's adapt refusals, each refused before any draw.
    **{
        f"cli adapt {task} refused {name}": (
            f"cli_bytes(['adapt', {task!r}, '--config', 'c.json', '--out', 'a.csv'],"
            f" {{'true_value': 0.3, 'initial_guess': 0.2, 'repetitions': 3, **{change!r}}})"
        )
        for task, name, change in (
            ("theta", "t=0", {"t": 0}),
            ("theta", "B=0 unitary", {"B": 0, "strategies": ["unitary_controlled"]}),
            ("omega", "t=1e100", {"t": 1e100}),
            ("theta", "B=2 t=10", {"B": 2, "t": 10}),
            ("theta", "m=10**11", {"m": 10**11}),
        )
    },
    # Inputs that are not finite real numbers or not counts, each refused by name by one of dynamics' two
    # rules: a str, None, a bool and an int beyond the float range as reals, draw counts of 0, 1, 2.5 and
    # True, bools as a recovery count and a repetition count, and an infinite config time.
    "refused inputs": (
        "refusals([lambda: dynamics.theta_model('0.1', 0.05, 0.3),"
        " lambda: estimation.outcome_probability(0.3, 0.2, None, 0.05, 5.0),"
        " lambda: metrology.qfi_theta_qec_closed(0.1, True, 5.0),"
        " lambda: dynamics.theta_model(10**400, 0.05, 0.3),"
        " lambda: dynamics.trajectory_average_state(0.1, 0.05, 5.0, 0.3, 0, np.random.default_rng(3)),"
        " lambda: dynamics.trajectory_average_state(0.1, 0.05, 5.0, 0.3, 1, np.random.default_rng(3)),"
        " lambda: dynamics.trajectory_outcome_probability(0.1, 0.05, 5.0, 0.3, 0, np.random.default_rng(3)),"
        " lambda: metrology.cfi_trajectory_B(0.1, 0.05, 5.0, 0.3, 0, np.random.default_rng(3)),"
        " lambda: dynamics.sample_phases(0.1, 0.05, 1.0, 0, np.random.default_rng(3)),"
        " lambda: dynamics.sample_phases(0.1, 0.05, 1.0, 2.5, np.random.default_rng(3)),"
        " lambda: dynamics.sample_phases(0.1, 0.05, 1.0, True, np.random.default_rng(3)),"
        " lambda: qec.corrected_evolve_theta(0.1, 0.05, 0.8, 0.8, 1.0, n_recoveries=True),"
        " lambda: estimation.check_campaign_size(estimation.AdaptiveConfig(0.9, 0.8), True),"
        " lambda: estimation.AdaptiveConfig(0.9, 0.8, t=np.inf)])"
    ),
    # Reals that once passed unchecked and are now refused by name: an angle of the trajectory average, the
    # field, angle and offset of the closed-form distributions, the frame time of the static model and code,
    # the detuning of the expansion and the working point of a classical Fisher information.
    "refused reals by name": (
        "refusals([lambda: dynamics.trajectory_average_state(0.1, 0.05, 5.0, np.nan, 3, np.random.default_rng(3)),"
        " lambda: metrology.bell_basis_distribution_theta_free(np.nan, 0.05, 5.0, 0.3),"
        " lambda: metrology.bell_basis_distribution_theta_free(0.1, 0.05, 5.0, np.nan),"
        " lambda: metrology.trajectory_distribution_B(np.nan, 0.05, 5.0, 0.3),"
        " lambda: metrology.trajectory_distribution_B(0.1, 0.05, 5.0, np.inf),"
        " lambda: qec.check_qec_conditions(theta_model(), qec.theta_code(0.7), t=np.nan),"
        " lambda: qec.expansion_superoperators(theta_model(), qec.theta_code(0.7), t=np.nan),"
        " lambda: expanded(np.nan, 5.0),"
        " lambda: metrology.cfi(lambda b: metrology.trajectory_distribution_B(b, 0.05, 5.0, 0.3), np.nan)])"
    ),
    # Inputs that once raised a bare TypeError, OverflowError or ValueError, or ran, and are now refused by
    # name: a step that is not a number, a finite difference's step, the sweep's length and point count, a
    # model's dim and a hamiltonian not of it, and a bad duration with an explicit recovery count, which
    # was named as its interval.
    "refused steps, sweeps and dims": (
        "refusals([lambda: dynamics.lindblad_evolve(theta_model(), bell(), 1.0, dt='0.1'),"
        " lambda: dynamics.lindblad_evolve(theta_model(), bell(), 1.0, dt=None),"
        " lambda: dynamics.lindblad_evolve(theta_model(), bell(), 1.0, dt=True),"
        " lambda: qec.corrected_evolve_theta(0.1, 0.05, 0.9, 0.8, 1.0, dt=True),"
        " lambda: dynamics.sample_omega_trajectories(0.1, 0.05, 0.3, 1.0, 10**400, 3, np.random.default_rng(3)),"
        " lambda: metrology.qfi_sld_numeric(lambda x: qec.corrected_state_theta_closed(0.1, 0.05, x, 0.7, 5.0),"
        " 0.7, '0.1'),"
        " lambda: metrology.qfi_fidelity_fd(lambda x: qec.corrected_state_theta_closed(0.1, 0.05, x, 0.7, 5.0),"
        " 0.7, True),"
        " lambda: cli.cmd_qfi('theta', 0.1, 0.05, '0.1', 3, [0.0], None),"
        " lambda: cli.cmd_qfi('theta', 0.1, 0.05, 10**400, 3, [0.0], None),"
        " lambda: cli.cmd_qfi('theta', 0.1, 0.05, True, 3, [0.0], None),"
        " lambda: cli.cmd_qfi('theta', 0.1, 0.05, 5.0, 2.5, [0.0], None),"
        " lambda: cli.cmd_qfi('theta', 0.1, 0.05, 5.0, '3', [0.0], None),"
        " lambda: dynamics.LindbladModel(0, theta_model().hamiltonian, theta_model().lindblads),"
        " lambda: dynamics.LindbladModel(True, theta_model().hamiltonian, theta_model().lindblads),"
        " lambda: qec.expansion_superoperators(dynamics.LindbladModel(3, theta_model().hamiltonian,"
        " theta_model().lindblads, theta_model().d_hamiltonian, theta_model().d_lindblads,"
        " theta_model().dd_hamiltonian, theta_model().dd_lindblads), qec.theta_code(0.7)),"
        " lambda: qec.corrected_evolve_theta(0.1, 0.05, 0.9, 0.8, -1.0, n_recoveries=4),"
        " lambda: qec.corrected_evolve_omega(0.1, 0.05, 0.3, 0.25, np.nan, n_recoveries=4)])"
    ),
}
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


# ---------------------------------------------------------------------------
# Helpers of the route expressions (run in the worker)
# ---------------------------------------------------------------------------


def theta_model():
    from fluxmet import dynamics

    return dynamics.theta_model(0.1, 0.05, 0.7)


def bell():
    from fluxmet import dynamics

    psi = dynamics.bell_probe()
    return psi[:, None] * psi.conj()


def states():
    from fluxmet import qec

    probe = qec.code_probe(qec.theta_code(0.7))
    return [bell(), np.eye(4, dtype=complex) / 4, probe[:, None] * probe.conj()]


def file_model():
    from fluxmet import cli

    return cli.load_model_file(cli.resolve_model_path("theta_example"))[0]


def complex_model():
    """A framed model with a random Hermitian H and two complex, non-Hermitian Lindblad operators."""
    from fluxmet import dynamics

    rng = np.random.default_rng(38)
    ops = [0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) for _ in range(3)]
    return dynamics.LindbladModel(4, ops[0] + ops[0].conj().T, ops[1:], frame=rng.normal(size=4))


def skew_hermitian(dim: int, norm: float) -> np.ndarray:
    """-i h for a random Hermitian h seeded by ``dim``, scaled to 1-norm ``norm``."""
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = -0.5j * (a + a.conj().T)
    return a * (norm / np.linalg.norm(a, 1))


def recovered(code, t: float):
    """The code's recovery at t of a state in its code space and error space."""
    from fluxmet import qec

    proj, error = code.recovery_kraus(t)  # P and P E at t
    c0, c1 = code.basis(t)
    rho = 0.25 * (proj + error.conj().T @ error) + 0.1 * (c0[:, None] * c1.conj() + c1[:, None] * c0.conj())
    return qec.apply_recovery(code, rho, t)


def theta_example():
    """The expansion report of the shipped theta_example model, and its code's probe."""
    from fluxmet import cli, qec

    model, code = cli.load_model_file(cli.resolve_model_path("theta_example"))
    return qec.expansion_superoperators(model, code), qec.code_probe(code)


def expanded(dx: float, t: float):
    from fluxmet import qec

    report, probe = theta_example()
    return qec.expansion_evolve(report, probe[:, None] * probe.conj(), dx, t)


def random_campaigns(count: int, seed: int) -> np.ndarray:
    """The estimates of ``count`` campaigns drawn from ``seed``, end to end: both
    tasks and strategies, m in {1, 3, 10, 30, 1000}, a guess at a grid end or
    inside it, and the task's default grid or an explicit one at most 0.3 wide
    (so that every campaign is admitted)."""
    from fluxmet import estimation

    rng, tables = np.random.default_rng(seed), []
    for _ in range(count):
        task, strategy = rng.choice(["theta", "omega"]), rng.choice(["qec_corrected", "unitary_controlled"])
        lo, hi = (0.0, np.pi / 2) if task == "theta" else (0.0, 1.0)
        grid = None
        if rng.random() < 0.5:
            lo = rng.uniform(lo, hi - 0.3)
            hi = lo + rng.uniform(0.02, 0.3)
            grid = (lo, hi, (hi - lo) / int(rng.choice([2, 3, 50, 400, 3500])))
        true_value = rng.uniform(lo, hi)
        guess = [lo, hi, rng.uniform(lo, hi)][rng.integers(3)]
        config = dict(m=int(rng.choice([1, 3, 10, 30, 1000])), rounds=int(rng.integers(1, 6)),
                      seed=int(rng.integers(2**31)), strategy=str(strategy), grid=grid)
        cfg = estimation.AdaptiveConfig(true_value=float(true_value), initial_guess=float(guess), **config)
        tables.append(estimation.campaign_estimates(cfg, int(rng.integers(1, 40)), task=str(task)).ravel())
    return np.concatenate(tables)


def attempts(fn, calls: list[tuple]) -> bytes:
    """``fn(*args).value`` for each argument tuple, one line each, or the class and message of its refusal."""
    from fluxmet.errors import FluxmetError

    lines = []
    for args in calls:
        try:
            lines.append(repr(float(fn(*args).value)))
        except FluxmetError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(lines).encode()


def refusals(calls: list) -> bytes:
    """One line per call: the class and message of whatever exception it raises, or what it returned."""
    lines = []
    for call in calls:
        try:
            value = call()
        except Exception as exc:  # a bare TypeError or OverflowError too, which attempts would pass on
            lines.append(f"{type(exc).__name__}: {exc}")
        else:
            lines.append(f"returned {getattr(value, 'value', value)!r}")
    return "\n".join(lines).encode()


def cli_bytes(argv: list[str], config: dict | None = None, then: list[str] | None = None) -> bytes:
    """What ``cli.main(argv)``, and then ``cli.main(then)`` if given, print and
    write, run in one empty directory; for a non-zero exit, ``exit <code>``
    and what it printed to stderr."""
    from fluxmet import cli

    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            if config is not None:
                Path("c.json").write_text(json.dumps(config))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
                if code == 0 and then is not None:
                    code = cli.main(then)
            if code != 0:
                return f"exit {code}\n{err.getvalue()}".encode()
            files = sorted(p for p in Path(".").iterdir() if p.name != "c.json")
            return out.getvalue().encode() + b"".join(p.name.encode() + b"\n" + p.read_bytes() for p in files)
        finally:
            os.chdir(here)


def _digest(value) -> dict:
    """sha256 of an output's bytes, and its numbers as floats."""
    if isinstance(value, bytes):
        return {"sha256": hashlib.sha256(value).hexdigest(),
                "values": [float(x) for x in _NUMBER.findall(value)]}
    arr = np.ascontiguousarray(getattr(value, "value", value))
    floats = arr.view(np.float64) if arr.dtype == complex else arr.astype(np.float64)
    return {"sha256": hashlib.sha256(arr.tobytes()).hexdigest(), "values": floats.ravel().tolist()}


def worker(src: str) -> None:
    """Evaluate the routes read from stdin with the package in ``src``; JSON digests to stdout."""
    from fluxmet import cli, dynamics, estimation, metrology, qec, qmat, tasks

    if not Path(dynamics.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"fluxmet imported from {dynamics.__file__}, not from {src}")
    scope = dict(globals(), np=np, cli=cli, dynamics=dynamics, estimation=estimation,
                 metrology=metrology, qec=qec, qmat=qmat, tasks=tasks)
    routes = json.loads(sys.stdin.read())
    json.dump({name: _digest(eval(expr, scope)) for name, expr in routes.items()}, sys.stdout)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_routes(tree: Path) -> dict:
    """The digests of every route of ``ROUTES`` with the package of ``tree``."""
    src = str(tree / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, str(SCRIPT), "--worker", src], input=json.dumps(ROUTES),
                              cwd=cwd, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"routes in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(parent: dict, change: dict) -> dict[str, str]:
    """Per route: ``identical``, or the largest absolute difference of its numbers."""
    verdicts = {}
    for name, old in parent.items():
        new = change[name]
        if old["sha256"] == new["sha256"]:
            verdicts[name] = "identical"
        elif len(old["values"]) != len(new["values"]):
            verdicts[name] = f"differs: {len(old['values'])} numbers -> {len(new['values'])}"
        else:
            gap = max((abs(a - b) for a, b in zip(old["values"], new["values"])), default=0.0)
            verdicts[name] = f"largest absolute difference {gap:.3g}"
    return verdicts


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        worker(argv[1])
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit to compare the working tree against")
    p.add_argument("--out", type=Path, default=None, help="JSON record of both digests per route")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="output_digest-") as tmp:
        digests = {"parent": run_routes(export_parent(args.parent, Path(tmp))), "change": run_routes(ROOT)}
    verdicts = compare(digests["parent"], digests["change"])
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    if args.out is not None:
        routes = {name: {"verdict": verdict, **{side: digests[side][name]["sha256"] for side in digests}}
                  for name, verdict in verdicts.items()}
        args.out.write_text(json.dumps({"parent": args.parent, "routes": routes}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
