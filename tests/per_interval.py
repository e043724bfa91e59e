"""The stepwise corrected evolution as one call of each per interval: the reference of the path tests."""

from __future__ import annotations

import numpy as np

from fluxmet.dynamics import in_frame, lindblad_evolve
from fluxmet.qec import apply_recovery, code_probe


def per_interval(model, code, t: float, dt: float, n: int, witness=None):
    # The corrected evolution as one lindblad_evolve and one apply_recovery
    # call per interval, in the model's frame, entering and leaving the
    # code's relative frame around each recovery: yields each interval's
    # state, or, given a witness column, the witness of its recovery's input.
    rate, interval = code._rate, t / n
    if model._rate is not None:
        rate = -model._rate if rate is None else rate - model._rate
    probe = code_probe(code)
    rho = probe[:, None] * probe[None, :].conj()
    for k in range(n):
        rho = lindblad_evolve(model, rho, interval, dt)
        if rate is not None:
            rho = rho / np.exp(rate * (k * interval))
        if witness is not None:
            yield rho.reshape(1, 16).view(np.float64) @ witness
        rho = apply_recovery(code, rho)
        if rate is not None:
            rho = rho * np.exp(rate * ((k + 1) * interval))
        if witness is None:
            yield rho if rate is None else in_frame(rho, model._rate, (k + 1) * interval)
