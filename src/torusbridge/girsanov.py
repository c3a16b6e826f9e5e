"""Change-of-measure weights for simulated bridge proposals.

For a path of ``dX = b dt + sigma dW`` the exponential
``exp(-int u dW - 1/2 int |u|^2 dt)`` with ``u = b / sigma``, over [0, S],
S < T, reweights proposal expectations back to those of the driftless
sigma-scaled process.  The stochastic integral is discretised with the
left-point rule on the same grid and increments that drove the
simulation, so the weight corresponds exactly to the discrete path
actually produced.

The nearest-lift drift is uniformly bounded away from the terminal time
(no point of the plane is farther than half a square diagonal from its
attracting lift), which gives the explicit constant behind the moment
bound ensuring the exponential is a true martingale on [0, S]: the
weight's exponent integrates |b / sigma|^2 <= C_S / sigma^2, so Novikov's
condition holds.  The constant is exposed for the checks that verify it
against simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .drift import DriftModel, HorizonError, ProposedBridge, _finite, drift

if TYPE_CHECKING:  # pragma: no cover
    from .engine import PathSample

__all__ = [
    "cutoff_index",
    "path_log_weights",
    "log_girsanov_weight",
    "drift_bound_constant",
]

# sup |nearest lift - x|^2 over points off the cut locus: the squared
# half diagonal of the unit square.
SUP_PULL_SQ = 0.5

_GRID_TOL = 1e-9


def cutoff_index(dt: float, n_steps: int, horizon: float, cutoff_S: float) -> int:
    """Grid index of the weight cutoff S, validating 0 < S < T on-grid.

    Raises:
        ValueError: if S is outside (0, T) or not a grid time.
    """
    if not (_finite(cutoff_S) and 0.0 < cutoff_S < horizon):
        raise ValueError(
            f"cutoff must lie strictly inside (0, {horizon}); got {cutoff_S}"
        )
    j = int(round(cutoff_S / dt))
    if j < 1 or j > n_steps - 1 or abs(j * dt - cutoff_S) > _GRID_TOL * max(1.0, horizon):
        raise ValueError(
            f"cutoff {cutoff_S} does not lie on the time grid (dt={dt}) before T"
        )
    return j


def path_log_weights(
    times: np.ndarray,
    states: np.ndarray,
    increments: np.ndarray,
    dt: float,
    model: DriftModel,
    partial: np.ndarray | float | None = None,
) -> np.ndarray:
    """Discretised log weights of the given steps, for one path or a stack of paths.

    Adds ``- sum_i u_i . dW_i - 1/2 sum_i |u_i|^2 dt`` with
    ``u_i = b(t_i, x_i) / sigma`` from the model's drift b over every step
    given, in order, to ``partial``.  The caller picks the steps: the engine
    passes each step before the cutoff, one at a time, and
    :func:`log_girsanov_weight` a recorded path's.  Summed slice by slice in
    step order, a path's weight has the bits of one whole pass.

    Args:
        times: the left-point times t_i of the m steps, shape (m,).
        states: the left-point states x_i, shape (..., m, 2).
        increments: the driving dW_i, shape (..., m, 2).
        dt: the step.
        model: drift model the path was simulated under.
        partial: log weights summed over earlier steps (default zero); not
            modified.

    Returns:
        Log weight(s) with the leading shape of ``states``.

    Raises:
        ValueError: if the inputs disagree, or a log weight is not a finite double.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    increments = np.asarray(increments, dtype=float)
    if not (times.ndim == 1 and states.shape[-2:] == increments.shape[-2:] == (len(times), 2)):
        raise ValueError("states, increments and times disagree on the step count")
    if not np.isfinite([states.min(initial=0.0), states.max(initial=0.0)]).all():
        raise ValueError("states must be finite")  # min/max: no state-sized temporary
    if not ((times >= 0) & (times < model.horizon)).all():
        raise HorizonError(f"times before the cutoff must lie in [0, {model.horizon})")
    acc = np.zeros(states.shape[:-2]) if partial is None else np.asarray(partial, dtype=float)
    # A small sigma can make |u|^2 overflow; the check below names it instead.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(times):
            u = drift(t, states[..., i, :], model)
            u /= model.sigma
            ud = u * increments[..., i, :]
            u *= u
            # Two-term sums with the bits of .sum(axis=-1), whose -0.0 + -0.0 is 0.0.
            acc = (acc - (0.0 + ud[..., 0] + ud[..., 1])
                   - 0.5 * (0.0 + u[..., 0] + u[..., 1]) * dt)
    if not np.isfinite(acc).all():
        raise ValueError(f"the log weights overflow a double: sigma={model.sigma} is too "
                         "small for the drift before the cutoff")
    return acc


def log_girsanov_weight(path: "PathSample", model: DriftModel, cutoff_S: float) -> float:
    """Log change-of-measure weight of one recorded path on [0, S].

    The path must carry its increments, as :func:`simulate_path`'s do; S
    must be a grid time with 0 < S < T.  A zero-drift model gives exactly
    0.  Under this weight, expectations of path functionals on [0, S]
    computed from proposal samples estimate those of the driftless
    sigma-scaled process.
    """
    if path.increments is None:
        raise ValueError("path does not carry recorded increments")
    n_steps = len(path.times) - 1
    dt = model.horizon / n_steps
    k = cutoff_index(dt, n_steps, model.horizon, cutoff_S)
    return float(path_log_weights(path.times[:k], path.states[:k], path.increments[:k], dt,
                                  model))


def drift_bound_constant(model: DriftModel, cutoff_S: float) -> float:
    """Uniform squared-drift bound C_S for the nearest-lift model on [0, S].

    Off the cut locus every point is within half a square diagonal of its
    attracting lift, so ``|b(t, x)|^2 <= (1/2) / (T - S)^2 =: C_S`` for
    all x and all t <= S.

    Raises:
        TypeError: for model variants other than the nearest-lift bridge.
        ValueError: unless 0 <= S < T.
    """
    if not isinstance(model, ProposedBridge):
        raise TypeError(
            f"drift bound applies to the nearest-lift model; got {type(model).__name__}"
        )
    if not (0.0 <= cutoff_S < model.horizon):
        raise ValueError(f"need 0 <= S < T={model.horizon}; got S={cutoff_S}")
    return SUP_PULL_SQ / (model.horizon - cutoff_S) ** 2
