"""Change-of-measure weights for simulated bridge proposals.

For a path of ``dX = b dt + sigma dW`` the exponential
``exp(-int u dW - 1/2 int |u|^2 dt)`` with ``u = b / sigma``, over [0, S],
S < T, reweights proposal expectations back to those of the driftless
sigma-scaled process.  The stochastic integral is discretised with the
left-point rule on the same grid and increments that drove the
simulation, so the weight corresponds exactly to the discrete path
actually produced.

:func:`path_log_weights` adds one step's term with no checks, for the
engine's step loop; :func:`log_girsanov_weight` checks a recorded path once
and sums the same kernel, so both give the same bits.

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
    t: float, x: np.ndarray, dW: np.ndarray, dt: float, model: DriftModel, acc: np.ndarray
) -> None:
    """Add one step's term ``- u . dW - 1/2 |u|^2 dt``, ``u = b(t, x) / sigma``, to
    the log weights ``acc`` of the points x (..., 2) in place, with no checks.

    x must be finite and 0 <= t < T.  A small sigma can make a term overflow,
    leaving ``acc`` not finite, which the callers check once: the engine per
    chunk and :func:`log_girsanov_weight` per path."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = drift(t, x, model)
        u /= model.sigma
        ud = u * dW
        u *= u
        # Two-term sums with the bits of .sum(axis=-1), whose -0.0 + -0.0 is 0.0.
        acc -= 0.0 + ud[..., 0] + ud[..., 1]
        acc -= 0.5 * (0.0 + u[..., 0] + u[..., 1]) * dt


def _check_overflow(log_weights: np.ndarray, sigma: float) -> None:
    """Refuse log weights that overflowed a double, in one line."""
    if not np.isfinite(log_weights).all():
        raise ValueError(f"the log weights overflow a double: sigma={sigma} is too "
                         "small for the drift before the cutoff")


def log_girsanov_weight(path: "PathSample", model: DriftModel, cutoff_S: float) -> float:
    """Log change-of-measure weight of one recorded path on [0, S].

    The path must carry its increments, as :func:`simulate_path`'s do; S
    must be a grid time with 0 < S < T.  A zero-drift model gives exactly
    0.  Under this weight, expectations of path functionals on [0, S]
    computed from proposal samples estimate those of the driftless
    sigma-scaled process.  The weight has the bits of the engine's.

    Raises:
        ValueError: if the path lacks increments or a step, its arrays disagree
            on the step count, S is not a grid time in (0, T), a state or
            increment before S is not finite or a time before S lies outside
            [0, T) (a HorizonError), or the weight overflows a double.
    """
    if path.increments is None:
        raise ValueError("path does not carry recorded increments")
    times = np.asarray(path.times, dtype=float)
    states = np.asarray(path.states, dtype=float)
    increments = np.asarray(path.increments, dtype=float)
    n_steps = times.size - 1
    if not (times.ndim == 1 and states.shape == (n_steps + 1, 2)
            and increments.shape == (n_steps, 2)):
        raise ValueError("states, increments and times disagree on the step count")
    if n_steps < 1:
        raise ValueError(f"the path needs at least two times; got {times.size}")
    dt = model.horizon / n_steps
    k = cutoff_index(dt, n_steps, model.horizon, cutoff_S)
    if not np.isfinite(states[:k]).all():
        raise ValueError("states must be finite")
    if not np.isfinite(increments[:k]).all():
        raise ValueError("increments must be finite")
    if not ((times[:k] >= 0) & (times[:k] < model.horizon)).all():
        raise HorizonError(f"times before the cutoff must lie in [0, {model.horizon})")
    acc = np.zeros(())
    for i in range(k):
        path_log_weights(times[i], states[i], increments[i], dt, model, acc)
    _check_overflow(acc, model.sigma)
    return float(acc)


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
