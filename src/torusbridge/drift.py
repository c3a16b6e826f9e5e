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
    onto the torus: a Gaussian-weighted pull toward every lift of the
    target, equal to sigma^2 times the gradient of the log wrapped
    Gaussian kernel.

Each class has a class-level ``variant`` name, the checked entry
``drift(t, x)``, an unchecked kernel ``_drift(tau, x)`` of the time to go
and a ``diagnostic_target``, the torus point terminal lattice offsets are
reported against (the origin, the projected endpoint, or the target).
``VARIANTS`` maps names to classes; :func:`drift` evaluates any model's
kernel unchecked, for the engine, which validates its grid once.
Evaluations are pure and vectorised over points of shape (..., 2); ``t``
may be a scalar or an array broadcastable against the leading dimensions.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.typing import ArrayLike

from .geometry import as_plane_point, as_point, as_torus_point, nearest_offset, project

__all__ = [
    "HorizonError",
    "DriftModel",
    "FreeBrownianMotion",
    "EuclideanBridge",
    "ProposedBridge",
    "TrueBridge",
    "VARIANTS",
    "drift",
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

    def drift(self, t: ArrayLike, x: ArrayLike) -> np.ndarray:
        """The drift b(t, x), once x is checked to hold finite points (..., 2) and 0 <= t < T."""
        arr = as_point(x, "x")
        t_arr = np.asarray(t, dtype=float)
        # One pass: NaN fails both comparisons, so the finiteness check can
        # wait for the failure path, where it picks the message.
        if not ((t_arr >= 0) & (t_arr < self.horizon)).all():
            if not np.isfinite(t_arr).all():
                raise HorizonError(f"time must be finite; got {t!r}")
            raise HorizonError(f"time must lie in [0, {self.horizon}); got {t!r}")
        return drift(t_arr, arr, self)  # the module function: the subclass's _drift


@dataclass(frozen=True, kw_only=True)
class FreeBrownianMotion(DriftModel):
    """Driftless scaled Brownian motion, the unconditioned reference."""

    variant: ClassVar[str] = "free-bm"
    # Offsets then index the unit square the path ended in.
    diagnostic_target: ClassVar[tuple[float, float]] = (0.0, 0.0)

    def drift(self, t: ArrayLike, x: ArrayLike) -> np.ndarray:
        """Zero drift of the unconditioned process (defined for all t)."""
        return np.zeros_like(as_point(x, "x"))

    def _drift(self, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)


@dataclass(frozen=True, kw_only=True)
class EuclideanBridge(DriftModel):
    """Bridge to a single fixed plane point ``endpoint``."""

    variant: ClassVar[str] = "euclid-bridge"
    endpoint: tuple[float, float]

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "endpoint", _point_pair(as_plane_point(self.endpoint, "endpoint")))

    @property
    def diagnostic_target(self) -> tuple[float, float]:
        return _point_pair(project(self.endpoint))

    def _drift(self, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Single-endpoint bridge drift (endpoint - x) / (T - t)."""
        return (_filled(self.endpoint, x.shape) - x) / _expand(tau)


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

    def _drift(self, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Nearest-lift drift, zero on the cut locus of the target.

        Returns (nearest lift of target - x) / (T - t) where the nearest
        lift is unique, and the zero vector on the tie lines (within the
        ``cut_locus_tol`` band) rather than raising, matching the piecewise
        definition of the process.
        """
        a = _filled(self.target, x.shape)
        k, on_cut = nearest_offset(x - a, self.cut_locus_tol)
        b = (a + k - x) / _expand(tau)
        if on_cut.shape != b.shape[:-1]:  # a time array wider than the points
            on_cut = np.broadcast_to(on_cut, b.shape[:-1])
        b[on_cut] = 0.0
        return b * self.sigma**2 if self.scale_by_sigma_sq else b


@dataclass(frozen=True, kw_only=True)
class TrueBridge(_LiftBridge):
    """Exact torus bridge toward every lift of ``target``: the h-transform
    drift of Delyon & Hu, sigma^2 grad log of the wrapped Gaussian kernel,
    whose lattice sum :func:`_axis_log_kernel` evaluates with no window."""

    variant: ClassVar[str] = "true-bridge"

    def _drift(self, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Exact bridge drift sigma^2 grad log sum_k exp(-|a + k - x|^2 / (2 sigma^2 (T - t))).

        Equals the mean pull sum_k g_k (a + k - x) / (T - t) with g the
        normalised Gaussian weights of all lifts a + k.
        """
        d = x - _filled(self.target, x.shape)
        _, slope = _axis_log_kernel(d, self.sigma**2 * _expand(tau))
        return self.sigma**2 * slope


VARIANTS: dict[str, type[DriftModel]] = {
    cls.variant: cls for cls in (FreeBrownianMotion, EuclideanBridge, ProposedBridge, TrueBridge)
}


def _expand(tau: np.ndarray) -> np.ndarray:
    """Align a time-to-go array against a trailing coordinate axis."""
    return tau[..., None] if tau.ndim else tau


@functools.lru_cache(maxsize=4)
def _filled(point: tuple[float, float], shape: tuple[int, ...]) -> np.ndarray:
    """A read-only array of ``shape`` (..., 2) whose every row is ``point``: shifting
    by it is one same-shape pass, several times faster than numpy's length-2 inner
    loop per row against the (2,) point, with the same bits."""
    out = np.tile(point, (*shape[:-1], 1))
    out.flags.writeable = False
    return out


# Variance at and below which the 1-D kernel is the direct sum over the seven
# lifts nearest the point; above it, the theta series.  The omitted tails,
# exp(-((3 + 1/2)^2 - 1/4) / 2v) and q^16 with q = exp(-2 pi^2 v), are both
# below 1e-18 on their side of the split.
_THETA_SPLIT = 0.14
_LIFTS = np.arange(-3.0, 4.0)


def _direct_sum(r: np.ndarray, v: ArrayLike):
    """log p and d log p / dr from the lifts r - j, |j| <= 3, of |r| <= 1/2."""
    j = _LIFTS.reshape((-1,) + (1,) * r.ndim)
    # (2r - j) j / 2v = (r^2 - (r - j)^2) / 2v <= 0: the exponents are shifted by
    # the nearest lift's, so the largest weight is 1 and none overflows; 2r - j
    # is exact where it matters, at r near +-1/2 and j = +-1.
    w = np.exp((2.0 * r - j) * (j / (2.0 * v)))
    sums = w.sum(axis=0)
    log_p = np.log(sums) - r * r / (2.0 * v) - 0.5 * np.log(2.0 * np.pi * v)
    return log_p, ((w * j).sum(axis=0) / sums - r) / v


def _theta_series(r: np.ndarray, v: ArrayLike):
    """log p and d log p / dr from the Jacobi theta series of the 1-D kernel.

    Poisson summation turns the lattice sum into
    p = 1 + 2 sum_n q^{n^2} cos 2 pi n r, q = exp(-2 pi^2 v).  With
    c, s = cos, sin 2 pi r, the Chebyshev identities cos 2 pi n r = T_n(c)
    and sin 2 pi n r = s U_{n-1}(c) make p and its derivative polynomials
    in c, evaluated by Horner's rule from one cos/sin pair.
    """
    q = np.exp(-2.0 * np.pi**2 * v)
    q4 = (q * q) * (q * q)
    q9 = q4 * q4 * q
    x = 2.0 * np.pi * r
    c, s = np.cos(x), np.sin(x)
    theta = (1.0 - 2.0 * q4) + c * ((2.0 * q - 6.0 * q9) + c * (4.0 * q4 + c * (8.0 * q9)))
    slope = s * (-4.0 * np.pi * (q - 3.0 * q9) + c * (-16.0 * np.pi * q4 + c * (-48.0 * np.pi * q9)))
    return np.log(theta), slope / theta


def _axis_log_kernel(d: np.ndarray, v: ArrayLike):
    """Log of the 1-D wrapped Gaussian density and its derivative, per coordinate.

    The density is p(d) = sum_j exp(-(d - j)^2 / 2v) / sqrt(2 pi v) over all
    integers j.  ``d`` is (..., 2); ``v`` is a scalar or broadcasts against
    ``d``.  Both results depend on d only through r = d - round(d), and
    each point takes :func:`_direct_sum` at v <= ``_THETA_SPLIT`` and
    :func:`_theta_series` above, exact to rounding for every d and v > 0.
    With an array of variances each branch runs only on its own points:
    below the split the three-term theta series can be negative.  Every
    operation acts point by point, so one point and a batch row give the
    same bits.
    """
    r = d - np.round(d)
    if np.ndim(v) == 0:
        return (_direct_sum if v <= _THETA_SPLIT else _theta_series)(r, v)
    r, v = np.broadcast_arrays(r, v)
    log_p, slope = np.empty(r.shape), np.empty(r.shape)
    small = v <= _THETA_SPLIT
    for mask, branch in ((small, _direct_sum), (~small, _theta_series)):
        log_p[mask], slope[mask] = branch(r[mask], v[mask])
    return log_p, slope


def drift(t: ArrayLike, x: np.ndarray, model: DriftModel) -> np.ndarray:
    """Evaluate any model's kernel at (t, x) with no checks: ``x`` must be a float
    array of finite points (..., 2) and 0 <= t < T.  The engine's step loop and
    weight pass call it; ``model.drift(t, x)`` is the checked entry."""
    return model._drift(np.maximum(model.horizon - np.asarray(t, dtype=float), MIN_TIME_TO_GO), x)


def wrapped_gaussian_log_density(
    s: float, x: ArrayLike, t: float, y: ArrayLike, sigma: float
) -> np.ndarray | float:
    """Log transition density of scaled Brownian motion on the torus.

    Returns ``log sum_k (2 pi sigma^2 (t-s))^{-1}
    exp(-|x - y - k|^2 / (2 sigma^2 (t-s)))`` with the sum over all integer
    offsets k, the sum of the two per-coordinate logs of
    :func:`_axis_log_kernel`.  It integrates to 1 over the fundamental domain.

    Args:
        s: earlier time.
        x: state at time s, torus representative(s) of shape (..., 2).
        t: later time, strictly greater than s.
        y: state at time t, torus representative(s) of shape (..., 2).
        sigma: diffusion coefficient, > 0.

    Raises:
        ValueError: if s >= t or sigma <= 0.
    """
    if not (np.isfinite(s) and np.isfinite(t) and s < t):
        raise ValueError(f"need s < t; got s={s}, t={t}")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0; got {sigma}")
    log_p, _ = _axis_log_kernel(as_point(x, "x") - as_point(y, "y"), sigma**2 * (t - s))
    out = log_p[..., 0] + log_p[..., 1]
    return float(out) if np.ndim(out) == 0 else out
