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

Each class has a class-level ``variant`` name, its kernel ``drift(t, x)``
and a ``diagnostic_target``, the torus point terminal lattice offsets are
reported against (the origin, the projected endpoint, or the target).
``VARIANTS`` maps names to classes; :func:`drift` evaluates any model.
Evaluations are pure and vectorised over points of shape (..., 2); ``t``
may be a scalar or an array broadcastable against the leading dimensions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.typing import ArrayLike

from .geometry import as_point, as_torus_point, nearest_offset, project

__all__ = [
    "HorizonError",
    "DriftModel",
    "FreeBrownianMotion",
    "EuclideanBridge",
    "ProposedBridge",
    "TrueBridge",
    "VARIANTS",
    "drift",
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


def _finite(value) -> bool:
    """Whether ``value`` is a finite real number; config values may be any JSON type,
    and JSON's true and false are not numbers."""
    if isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value))


@dataclass(frozen=True, kw_only=True)
class DriftModel:
    """Common parameters of every drift variant.

    Attributes:
        sigma: constant diffusion coefficient, > 0.
        horizon: terminal time T of the bridge, > 0.
    """

    variant: ClassVar[str]
    sigma: float
    horizon: float

    def __post_init__(self) -> None:
        for name in ("sigma", "horizon"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0; got {value}")

    def _time_to_go(self, t: ArrayLike) -> np.ndarray:
        """Validate 0 <= t < T and return the clamped time to go T - t."""
        t_arr = np.asarray(t, dtype=float)
        # One pass: NaN fails both comparisons, so the finiteness check can
        # wait for the failure path, where it picks the message.
        if not ((t_arr >= 0) & (t_arr < self.horizon)).all():
            if not np.isfinite(t_arr).all():
                raise HorizonError(f"time must be finite; got {t!r}")
            raise HorizonError(f"time must lie in [0, {self.horizon}); got {t!r}")
        return np.maximum(self.horizon - t_arr, MIN_TIME_TO_GO)


@dataclass(frozen=True, kw_only=True)
class FreeBrownianMotion(DriftModel):
    """Driftless scaled Brownian motion, the unconditioned reference."""

    variant: ClassVar[str] = "free-bm"
    # Offsets then index the unit square the path ended in.
    diagnostic_target: ClassVar[tuple[float, float]] = (0.0, 0.0)

    def drift(self, t: ArrayLike, x: ArrayLike) -> np.ndarray:
        """Zero drift of the unconditioned process (defined for all t)."""
        return np.zeros_like(as_point(x, "x"))


@dataclass(frozen=True, kw_only=True)
class EuclideanBridge(DriftModel):
    """Bridge to a single fixed plane point ``endpoint``."""

    variant: ClassVar[str] = "euclid-bridge"
    endpoint: tuple[float, float]

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "endpoint", _point_pair(as_point(self.endpoint, "endpoint")))

    @property
    def diagnostic_target(self) -> tuple[float, float]:
        return _point_pair(project(self.endpoint))

    def drift(self, t: ArrayLike, x: ArrayLike) -> np.ndarray:
        """Single-endpoint bridge drift (endpoint - x) / (T - t)."""
        arr = as_point(x, "x")
        tau = self._time_to_go(t)
        return (np.asarray(self.endpoint) - arr) / _expand(tau)


@dataclass(frozen=True, kw_only=True)
class _LiftBridge(DriftModel):
    """A bridge conditioned on the torus point ``target`` in [-1/2, 1/2)^2."""

    target: tuple[float, float]

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "target", _point_pair(as_torus_point(self.target, "target")))

    @property
    def diagnostic_target(self) -> tuple[float, float]:
        return self.target


@dataclass(frozen=True, kw_only=True)
class ProposedBridge(_LiftBridge):
    """Proposal bridge pulling toward the nearest lattice lift of ``target``.

    ``target`` is a torus representative in [-1/2, 1/2)^2.  The drift is
    (nearest lift - x)/(T - t) on the open squares around the lifts and
    exactly zero on the cut locus, where no lift is singled out.

    ``cut_locus_tol`` widens the zero-drift tie lines into bands of that
    half-width (default 0, the literal zero-measure set).
    ``scale_by_sigma_sq`` multiplies the drift by sigma^2; the default
    (off) is the plain ratio above.
    """

    variant: ClassVar[str] = "proposed"
    cut_locus_tol: float = 0.0
    scale_by_sigma_sq: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (_finite(self.cut_locus_tol) and self.cut_locus_tol >= 0):
            raise ValueError(f"cut_locus_tol must be >= 0; got {self.cut_locus_tol}")
        if not isinstance(self.scale_by_sigma_sq, bool):
            raise ValueError(
                f"scale_by_sigma_sq must be true or false; got {self.scale_by_sigma_sq!r}")

    def drift(self, t: ArrayLike, x: ArrayLike) -> np.ndarray:
        """Nearest-lift drift, zero on the cut locus of the target.

        Returns (nearest lift of target - x) / (T - t) where the nearest
        lift is unique, and the zero vector on the tie lines (within the
        ``cut_locus_tol`` band) rather than raising, matching the piecewise
        definition of the process.
        """
        arr = as_point(x, "x")
        tau = self._time_to_go(t)
        a = np.asarray(self.target)
        k, on_cut = nearest_offset(arr - a, self.cut_locus_tol)
        b = (a + k - arr) / _expand(tau)
        if on_cut.shape != b.shape[:-1]:  # a time array wider than the points
            on_cut = np.broadcast_to(on_cut, b.shape[:-1])
        b[on_cut] = 0.0
        return b * self.sigma**2 if self.scale_by_sigma_sq else b


@dataclass(frozen=True, kw_only=True)
class TrueBridge(_LiftBridge):
    """Exact torus bridge drift over the truncated lift set of ``target``.

    The conditioning set is {target + k : ||k||_inf <= truncation}, centred
    on the fundamental domain, not on the current state.  At sigma = T = 1,
    t = 0, a drift component over the fundamental square is off its K = 10
    value by up to 3.1e-3 at the default K = 3 and 4.5e-2 at K = 2; at
    sigma = 0.8, t = 0.9, x = (5.3, 0.1) and K = 2 the first component is
    -33 where K = 10 gives -2.58.
    """

    variant: ClassVar[str] = "true-bridge"
    truncation: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (_finite(self.truncation) and self.truncation == int(self.truncation) >= 0):
            raise ValueError(f"truncation must be an integer >= 0; got {self.truncation}")
        object.__setattr__(self, "truncation", int(self.truncation))

    def drift(self, t: ArrayLike, x: ArrayLike) -> np.ndarray:
        """Exact bridge drift: the weighted mean pull toward the truncated lifts.

        Equals sum_y g_y(t, x) (y - x) / (T - t) with g the softmax weights,
        which is sigma^2 times the spatial gradient of
        log sum_y exp(-|y - x|^2 / (2 sigma^2 (T - t))) over the same lift set.
        """
        arr = as_point(x, "x")
        tau = self._time_to_go(t)
        a = np.asarray(self.target)
        w, sums, _ = _axis_softmax(arr - a, self.truncation, 2.0 * self.sigma**2 * tau)
        j = np.arange(-self.truncation, self.truncation + 1.0).reshape((-1,) + (1,) * (w.ndim - 1))
        # A sum over axis 0 adds whole rows in lattice order for every leading
        # shape, so single-point and batch evaluations are bitwise identical.
        mean_offset = (w * j).sum(axis=0) / sums
        return (a + mean_offset - arr) / _expand(tau)


VARIANTS: dict[str, type[DriftModel]] = {
    cls.variant: cls for cls in (FreeBrownianMotion, EuclideanBridge, ProposedBridge, TrueBridge)
}


def _expand(tau: np.ndarray) -> np.ndarray:
    """Align a time-to-go array against a trailing coordinate axis."""
    return tau[..., None] if tau.ndim else tau


def _axis_softmax(d: np.ndarray, truncation: int, scale: ArrayLike):
    """Max-shifted 1-D weights exp(-(d_c - j)^2 / scale - shift_c), |j| <= K.

    ``d`` is (..., 2); ``scale`` broadcasts against its leading dimensions.
    The lattice index comes first: returns the weights (2K+1, ..., 2), their
    sums and the shifts (..., 2).  Reducing over axis 0 combines contiguous
    rows, where a reduction over a trailing axis of length 2K+1 is slow.
    The window ||k||_inf <= K is a product set and the Gaussian factorises,
    so the (2K+1)^2 lattice sum is exactly the product of the 1-D sums.
    """
    scale = np.asarray(scale)[..., None]
    j = np.arange(-truncation, truncation + 1.0).reshape((-1,) + (1,) * max(d.ndim, scale.ndim))
    expo = -((d - j) ** 2) / scale
    shift = expo.max(axis=0)
    w = np.exp(expo - shift)
    return w, w.sum(axis=0), shift


def softmax_weights(t: ArrayLike, x: ArrayLike, model: TrueBridge) -> np.ndarray:
    """Normalised Gaussian weights of the truncated lifts at (t, x).

    Returns shape (..., L), nonnegative and summing to 1 over the last axis,
    in ``lattice_lifts(model.target, model.truncation)`` order.  The weight
    of lift y is exp(-|y - x|^2 / (2 sigma^2 (T - t))) normalised over the
    window: the product of the max-shifted per-coordinate probabilities,
    so the nearest lift never underflows.
    """
    tau = model._time_to_go(t)
    d = as_point(x, "x") - np.asarray(model.target)
    w, sums, _ = _axis_softmax(d, model.truncation, 2.0 * model.sigma**2 * tau)
    p = np.moveaxis(w / sums, 0, -1)
    return (p[..., 0, :, None] * p[..., 1, None, :]).reshape(p.shape[:-2] + (-1,))


def drift(t: ArrayLike, x: ArrayLike, model: DriftModel) -> np.ndarray:
    """Evaluate the drift of any model variant at (t, x)."""
    return model.drift(t, x)


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
    per_axis = np.log(sums) + shift
    out = per_axis[..., 0] + per_axis[..., 1] - np.log(2.0 * np.pi * variance)
    if np.ndim(out) == 0:
        return float(out)
    return out
