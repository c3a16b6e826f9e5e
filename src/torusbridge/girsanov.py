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
    model: DriftModel,
    cutoff_S: float,
) -> np.ndarray | float:
    """Discretised log weights over [0, S] for one path or a stack of paths.

    Computes ``- sum_{t_i < S} u_i . dW_i - 1/2 sum_{t_i < S} |u_i|^2 dt``
    with ``u_i = b(t_i, x_i) / sigma`` from the model's drift b.

    Args:
        times: grid of length n_steps + 1.
        states: shape (..., n_steps + 1, 2).
        increments: driving dW, shape (..., n_steps, 2).
        model: drift model the path was simulated under.
        cutoff_S: grid time strictly inside (0, T).

    Returns:
        Log weight(s) with the leading shape of ``states``.

    Raises:
        ValueError: if the inputs disagree, or a log weight is not a finite double.
    """
    if increments is None:
        raise ValueError("log weights require recorded increments")
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    increments = np.asarray(increments, dtype=float)
    n_steps = increments.shape[-2]
    if states.shape[-2] != n_steps + 1 or len(times) != n_steps + 1:
        raise ValueError("states, increments and times disagree on the step count")
    dt = model.horizon / n_steps
    k = cutoff_index(dt, n_steps, model.horizon, cutoff_S)
    if not np.isfinite([states.min(initial=0.0), states.max(initial=0.0)]).all():
        raise ValueError("states must be finite")  # min/max: no state-sized temporary
    if not ((times[:k] >= 0) & (times[:k] < model.horizon)).all():
        raise HorizonError(f"times before the cutoff must lie in [0, {model.horizon})")
    acc = np.zeros(states.shape[:-2])
    # A small sigma can make |u|^2 overflow; the check below names it instead.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k):
            u = drift(times[i], states[..., i, :], model) / model.sigma
            acc = acc - (u * increments[..., i, :]).sum(axis=-1) \
                      - 0.5 * (u * u).sum(axis=-1) * dt
    if not np.isfinite(acc).all():
        raise ValueError(f"the log weights overflow a double: sigma={model.sigma} is too "
                         f"small for the drift up to the cutoff {cutoff_S}")
    if acc.ndim == 0:
        return float(acc)
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
    out = path_log_weights(path.times, path.states, path.increments, model, cutoff_S)
    return float(out)


def drift_bound_constant(model: DriftModel, cutoff_S: float) -> float:
    """Uniform squared-drift bound C_S for the nearest-lift model on [0, S].

    Off the cut locus every point is within half a square diagonal of its
    attracting lift, so ``|b(t, x)|^2 <= (1/2) / (T - S)^2 =: C_S`` for
    all x and all t <= S.  If the model scales its drift by sigma^2 the
    bound carries the matching sigma^4 factor.

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
    c = SUP_PULL_SQ / (model.horizon - cutoff_S) ** 2
    if model.scale_by_sigma_sq:
        c *= model.sigma**4
    return c
