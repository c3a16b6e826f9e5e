"""Drift models for bridge simulation in the plane and on the torus.

Four time-dependent drifts b(t, x) share the SDE template

    dX_t = b(t, X_t) dt + sigma dW_t,    0 <= t < T,

and differ only in how they pull the process toward its target:

  * ``FreeBrownianMotion``   b = 0 (unconditioned reference process).
  * ``EuclideanBridge``      b = (endpoint - x) / (T - t), the classical
    single-endpoint bridge drift.
  * ``ProposedBridge``       b = (nearest lift of target - x) / (T - t)
    off the cut locus and 0 on it.  Cheap to evaluate (one rounding),
    this is the proposal process for torus bridge sampling.
  * ``TrueBridge``           the exact bridge drift for the projection
    onto the torus: a softmax-weighted pull toward every lift of the
    target in a truncated window, equal to sigma^2 times the gradient
    of the log lattice-Gaussian sum.

All drift evaluations are pure and vectorised over points of shape
(..., 2); ``t`` may be a scalar or an array broadcastable against the
leading dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from numpy.typing import ArrayLike

from .geometry import as_point, as_torus_point, lattice_lifts

__all__ = [
    "HorizonError",
    "DriftModel",
    "FreeBrownianMotion",
    "EuclideanBridge",
    "ProposedBridge",
    "TrueBridge",
    "SoftmaxWeights",
    "drift",
    "free_drift",
    "euclidean_bridge_drift",
    "proposed_drift",
    "true_bridge_drift",
    "softmax_weights",
    "wrapped_gaussian_log_density",
]

# Smallest time-to-go used in drift denominators.  Queries with
# 0 < T - t < this are clamped instead of overflowing; the simulation
# engine itself never evaluates a drift at t >= T - dt.
MIN_TIME_TO_GO = 1e-12


class HorizonError(ValueError):
    """Raised when a drift or weight is requested outside [0, T)."""


def _point_pair(p: ArrayLike) -> tuple[float, float]:
    arr = np.asarray(p, dtype=float).reshape(2)
    return (float(arr[0]), float(arr[1]))


@dataclass(frozen=True, kw_only=True)
class DriftModel:
    """Common parameters of every drift variant.

    Attributes:
        sigma: constant diffusion coefficient, > 0.
        horizon: terminal time T of the bridge, > 0.
    """

    sigma: float
    horizon: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and > 0; got {self.sigma}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and > 0; got {self.horizon}")


@dataclass(frozen=True, kw_only=True)
class FreeBrownianMotion(DriftModel):
    """Driftless scaled Brownian motion, the unconditioned reference."""


@dataclass(frozen=True, kw_only=True)
class EuclideanBridge(DriftModel):
    """Bridge to a single fixed plane point ``endpoint``."""

    endpoint: tuple[float, float]

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "endpoint", _point_pair(as_point(self.endpoint, "endpoint")))


@dataclass(frozen=True, kw_only=True)
class ProposedBridge(DriftModel):
    """Proposal bridge pulling toward the nearest lattice lift of ``target``.

    ``target`` is a torus representative in [-1/2, 1/2)^2.  The drift is
    (nearest lift - x)/(T - t) on the open squares around the lifts and
    exactly zero on the cut locus, where no lift is singled out.

    ``cut_locus_tol`` widens the zero-drift tie lines into bands of that
    half-width (default 0, the literal zero-measure set).
    ``scale_by_sigma_sq`` multiplies the drift by sigma^2; the default
    (off) is the plain ratio above.
    """

    target: tuple[float, float]
    cut_locus_tol: float = 0.0
    scale_by_sigma_sq: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "target", _point_pair(as_torus_point(self.target, "target")))
        if not (np.isfinite(self.cut_locus_tol) and self.cut_locus_tol >= 0):
            raise ValueError(f"cut_locus_tol must be >= 0; got {self.cut_locus_tol}")


@dataclass(frozen=True, kw_only=True)
class TrueBridge(DriftModel):
    """Exact torus bridge drift over the truncated lift set of ``target``.

    The conditioning set is {target + k : ||k||_inf <= truncation}, centred
    on the fundamental domain, not on the current state.  At sigma = T = 1,
    t = 0, a drift component over the fundamental square is off its K = 10
    value by up to 3.1e-3 at the default K = 3 and 4.5e-2 at K = 2; at
    sigma = 0.8, t = 0.9, x = (5.3, 0.1) and K = 2 the first component is
    -33 where K = 10 gives -2.58.
    """

    target: tuple[float, float]
    truncation: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "target", _point_pair(as_torus_point(self.target, "target")))
        if int(self.truncation) != self.truncation or self.truncation < 0:
            raise ValueError(f"truncation must be an integer >= 0; got {self.truncation}")
        object.__setattr__(self, "truncation", int(self.truncation))


@dataclass(frozen=True)
class SoftmaxWeights:
    """Lattice lifts and their normalised Gaussian weights at one (t, x).

    ``lattice_points`` has shape (L, 2) in the deterministic lexicographic
    offset order; ``weights`` has shape (L,), is nonnegative and sums to 1.
    """

    lattice_points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.lattice_points.shape[0] != self.weights.shape[-1]:
            raise ValueError("lattice_points and weights must have matching lengths")


def _time_to_go(t: ArrayLike, model: DriftModel) -> np.ndarray:
    """Validate 0 <= t < T and return the clamped time to go T - t."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise HorizonError(f"time must be finite; got {t!r}")
    if np.any(t_arr < 0) or np.any(t_arr >= model.horizon):
        raise HorizonError(
            f"time must lie in [0, {model.horizon}); got {t!r}"
        )
    return np.maximum(model.horizon - t_arr, MIN_TIME_TO_GO)


def free_drift(t: ArrayLike, x: ArrayLike, model: FreeBrownianMotion) -> np.ndarray:
    """Zero drift of the unconditioned process (defined for all t)."""
    return np.zeros_like(as_point(x, "x"))


def euclidean_bridge_drift(t: ArrayLike, x: ArrayLike, model: EuclideanBridge) -> np.ndarray:
    """Single-endpoint bridge drift (endpoint - x) / (T - t)."""
    arr = as_point(x, "x")
    tau = _time_to_go(t, model)
    return (np.asarray(model.endpoint) - arr) / _expand(tau)


def proposed_drift(t: ArrayLike, x: ArrayLike, model: ProposedBridge) -> np.ndarray:
    """Nearest-lift drift, zero on the cut locus of the target.

    Returns (nearest lift of target - x) / (T - t) where the nearest lift
    is unique, and the zero vector on the tie lines (within the model's
    ``cut_locus_tol`` band).  Ties are resolved to zero drift here rather
    than raising, matching the piecewise definition of the process.
    """
    arr = as_point(x, "x")
    tau = _time_to_go(t, model)
    a = np.asarray(model.target)
    d = arr - a
    k = np.round(d)
    frac = d - k
    on_cut = np.any(np.abs(np.abs(frac) - 0.5) <= model.cut_locus_tol, axis=-1)
    b = (a + k - arr) / _expand(tau)
    b = np.where(on_cut[..., None], 0.0, b)
    if model.scale_by_sigma_sq:
        b = b * model.sigma**2
    return b


def _expand(tau: np.ndarray) -> np.ndarray:
    """Align a time-to-go array against a trailing coordinate axis."""
    return tau[..., None] if tau.ndim else tau


def _axis_softmax(d: np.ndarray, truncation: int, scale: ArrayLike):
    """Max-shifted 1-D weights exp(-(d_c - j)^2 / scale - shift_c), |j| <= K.

    ``d`` is (..., 2); ``scale`` broadcasts against its leading dimensions.
    Returns the weights (..., 2, 2K+1), their sums and the shifts (..., 2).
    The window ||k||_inf <= K is a product set and the Gaussian factorises,
    so the (2K+1)^2 lattice sum is exactly the product of the 1-D sums.
    """
    j = np.arange(-truncation, truncation + 1.0)
    expo = -((d[..., None] - j) ** 2) / np.asarray(scale)[..., None, None]
    shift = expo.max(axis=-1)
    w = np.exp(expo - shift[..., None])
    return w, w.sum(axis=-1), shift


def softmax_weights(t: ArrayLike, x: ArrayLike, model: TrueBridge) -> SoftmaxWeights:
    """Normalised Gaussian weights of the truncated lifts at (t, x).

    The weight of lift y is exp(-|y - x|^2 / (2 sigma^2 (T - t)))
    normalised over the window: the product of the max-shifted
    per-coordinate probabilities, so the nearest lift never underflows.
    """
    tau = _time_to_go(t, model)
    d = as_point(x, "x") - np.asarray(model.target)
    w, sums, _ = _axis_softmax(d, model.truncation, 2.0 * model.sigma**2 * tau)
    p = w / sums[..., None]
    weights = (p[..., 0, :, None] * p[..., 1, None, :]).reshape(p.shape[:-2] + (-1,))
    lifts = lattice_lifts(model.target, model.truncation)
    return SoftmaxWeights(lattice_points=lifts, weights=weights)


def true_bridge_drift(t: ArrayLike, x: ArrayLike, model: TrueBridge) -> np.ndarray:
    """Exact bridge drift: the weighted mean pull toward the truncated lifts.

    Equals sum_y g_y(t, x) (y - x) / (T - t) with g the softmax weights,
    which is sigma^2 times the spatial gradient of
    log sum_y exp(-|y - x|^2 / (2 sigma^2 (T - t))) over the same lift set.
    """
    arr = as_point(x, "x")
    tau = _time_to_go(t, model)
    a = np.asarray(model.target)
    w, sums, _ = _axis_softmax(arr - a, model.truncation, 2.0 * model.sigma**2 * tau)
    j = np.arange(-model.truncation, model.truncation + 1.0)
    # One summation path for every input shape, so single-point and batch
    # evaluations of the same state are bitwise identical.
    mean_offset = np.einsum("...l,l->...", w, j) / sums
    return (a + mean_offset - arr) / _expand(tau)


def drift(t: ArrayLike, x: ArrayLike, model: DriftModel) -> np.ndarray:
    """Evaluate the drift of any model variant at (t, x)."""
    if isinstance(model, FreeBrownianMotion):
        return free_drift(t, x, model)
    if isinstance(model, EuclideanBridge):
        return euclidean_bridge_drift(t, x, model)
    if isinstance(model, ProposedBridge):
        return proposed_drift(t, x, model)
    if isinstance(model, TrueBridge):
        return true_bridge_drift(t, x, model)
    raise TypeError(f"unknown drift model type: {type(model).__name__}")


def wrapped_gaussian_log_density(
    s: float, x: ArrayLike, t: float, y: ArrayLike, sigma: float, truncation: int
) -> np.ndarray | float:
    """Log transition density of scaled Brownian motion on the torus.

    Returns ``log sum_k (2 pi sigma^2 (t-s))^{-1}
    exp(-|x - y - k|^2 / (2 sigma^2 (t-s)))`` with the sum over integer
    offsets ||k||_inf <= truncation, evaluated as two max-shifted 1-D
    log-sum-exps, one per coordinate.  The normaliser is two dimensional
    so that the density integrates to 1 over the fundamental domain once
    the window is wide enough for the scale sigma^2 (t-s).

    Args:
        s: earlier time.
        x: state at time s, torus representative(s) of shape (..., 2).
        t: later time, strictly greater than s.
        y: state at time t, torus representative(s) of shape (..., 2).
        sigma: diffusion coefficient, > 0.
        truncation: window radius, >= 0 (>= 1 recommended; scale the
            window with sigma * sqrt(t - s) for long horizons).

    Raises:
        ValueError: if s >= t, sigma <= 0, or truncation < 0.
    """
    if not (np.isfinite(s) and np.isfinite(t) and s < t):
        raise ValueError(f"need s < t; got s={s}, t={t}")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0; got {sigma}")
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0; got {truncation}")
    variance = sigma**2 * (t - s)
    d = as_point(x, "x") - as_point(y, "y")
    _, sums, shift = _axis_softmax(d, truncation, 2.0 * variance)
    out = (np.log(sums) + shift).sum(axis=-1) - np.log(2.0 * np.pi * variance)
    if np.ndim(out) == 0:
        return float(out)
    return out
