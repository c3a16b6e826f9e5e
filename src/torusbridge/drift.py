"""Drift models for bridge simulation in the plane and on the torus.

Four time-dependent drifts b(t, x) share the SDE template

    dX_t = b(t, X_t) dt + sigma dW_t,    0 <= t < T,

and differ only in how they pull the process toward its target:

  * ``FreeBrownianMotion``   b = 0 (unconditioned reference process).
  * ``EuclideanBridge``      b = (endpoint - x) / (T - t), the classical
    single-endpoint bridge drift.
  * ``ProposedBridge``       b = (nearest lift of target - x) / (T - t)
    off the cut locus and 0 on it.  Cheap to evaluate (one rounding),
    this is the proposal process for torus bridge sampling.  It carries
    no sigma factor: it is the limit of the exact drift as t -> T, for
    every sigma.
  * ``TrueBridge``           the exact bridge drift for the projection
    onto the torus: a Gaussian-weighted pull toward every lift of the
    target, equal to sigma^2 times the gradient of the log wrapped
    Gaussian kernel.

Each class has a class-level ``variant`` name, the checked entry
``drift(t, x)``, an unchecked kernel ``_drift(tau, x)`` of the time to go,
a float or an array, and a ``diagnostic_target``, the torus point terminal
lattice offsets are reported against (the origin, the projected endpoint, or
the target).
``VARIANTS`` maps names to classes; :func:`drift` evaluates any model's
kernel unchecked, for the engine, which validates its grid once.
Evaluations are pure and vectorised over points of shape (..., 2); ``t``
may be a scalar or an array broadcastable against the leading dimensions.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
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
# 0 < T - t < this are clamped instead of overflowing; the engine's last
# drift is at T - dt, and SimConfig refuses a step dt below this.
MIN_TIME_TO_GO = 1e-12

# The kernels scale by sigma^2 and divide by sigma^2 times the time to go, so
# sigma^2 must be finite and sigma^2 * MIN_TIME_TO_GO a normal double:
# 2**-980 * 1e-12 > 2**-1020.
_SIGMA_MIN = 2.0**-490
_SIGMA_MAX = math.sqrt(sys.float_info.max)


class HorizonError(ValueError):
    """Raised when a drift or weight is requested outside [0, T)."""


def _point_pair(p: ArrayLike) -> tuple[float, float]:
    arr = np.asarray(p, dtype=float).reshape(2)
    return (float(arr[0]), float(arr[1]))


def _finite(value) -> bool:
    """Whether ``value`` is a real number with a finite double value; config values
    may be any JSON type, JSON's true and false are not numbers, and a JSON integer
    may lie beyond the double range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_sigma(sigma) -> None:
    if not (_finite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and > 0; got {sigma}")
    if sigma > _SIGMA_MAX:
        raise ValueError(f"sigma must be at most {_SIGMA_MAX!r}, so that sigma^2 is finite; "
                         f"got {sigma}")
    if sigma < _SIGMA_MIN:
        raise ValueError(f"sigma must be at least {_SIGMA_MIN!r}, so that sigma^2 times "
                         f"the time to go is a normal double; got {sigma}")


@dataclass(frozen=True, kw_only=True)
class DriftModel:
    """Common parameters of every drift variant.

    Attributes:
        sigma: constant diffusion coefficient in [2**-490, sqrt(largest double)].
        horizon: terminal time T of the bridge, > 0 with sigma^2 T finite.
    """

    variant: ClassVar[str]
    sigma: float
    horizon: float

    def __post_init__(self) -> None:
        _check_sigma(self.sigma)
        if not (_finite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and > 0; got {self.horizon}")
        if not math.isfinite(float(self.sigma) ** 2 * float(self.horizon)):
            raise ValueError(f"sigma^2 * horizon must be finite; got sigma={self.sigma}, "
                             f"horizon={self.horizon}")

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

    def _drift(self, tau: np.ndarray | float, x: np.ndarray) -> np.ndarray:
        return np.zeros(np.broadcast_shapes(np.shape(_expand(tau)), x.shape))


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

    def _drift(self, tau: np.ndarray | float, x: np.ndarray) -> np.ndarray:
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
    exactly zero on the cut locus, where no lift is singled out.  Whatever
    sigma, it is the limit of :class:`TrueBridge`'s drift as t -> T, where
    the weight of every lift but the nearest vanishes.
    """

    variant: ClassVar[str] = "proposed"

    def _drift(self, tau: np.ndarray | float, x: np.ndarray) -> np.ndarray:
        """Nearest-lift drift, zero on the cut locus of the target.

        Returns (nearest lift of target - x) / (T - t) where the nearest
        lift is unique, and the zero vector on the tie lines rather than
        raising, matching the piecewise definition of the process.
        """
        a = _filled(self.target, x.shape)
        b, on_cut = nearest_offset(x - a)
        b += a
        b -= x
        # A time array may be wider than the points, which b cannot hold.
        b = b / _expand(tau) if getattr(tau, "ndim", 0) else np.divide(b, tau, out=b)
        if np.count_nonzero(on_cut):  # rarely true; cheaper than the masked write or .any()
            b[np.broadcast_to(on_cut, b.shape[:-1])] = 0.0  # to b's leading shape
        return b


@dataclass(frozen=True, kw_only=True)
class TrueBridge(_LiftBridge):
    """Exact torus bridge toward every lift of ``target``: the h-transform
    drift of Delyon & Hu, sigma^2 grad log of the wrapped Gaussian kernel,
    whose lattice sum :func:`_axis_slope` evaluates with no window."""

    variant: ClassVar[str] = "true-bridge"

    def _drift(self, tau: np.ndarray | float, x: np.ndarray) -> np.ndarray:
        """Exact bridge drift sigma^2 grad log sum_k exp(-|a + k - x|^2 / (2 sigma^2 (T - t))).

        Equals the mean pull sum_k g_k (a + k - x) / (T - t) with g the
        normalised Gaussian weights of all lifts a + k.
        """
        d = x - _filled(self.target, x.shape)
        b = _axis_slope(d, self.sigma**2 * _expand(tau))
        return np.multiply(b, self.sigma**2, out=b)


VARIANTS: dict[str, type[DriftModel]] = {
    cls.variant: cls for cls in (FreeBrownianMotion, EuclideanBridge, ProposedBridge, TrueBridge)
}


def _expand(tau: np.ndarray | float) -> np.ndarray | float:
    """Align a time-to-go array against a trailing coordinate axis; a scalar stays."""
    return tau[..., None] if getattr(tau, "ndim", 0) else tau


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


def _exp(x):
    """np.exp, as a Python float for a scalar: the time-only coefficients then
    cost scalar arithmetic, with the bits an array of variances gives."""
    return np.exp(x) if isinstance(x, np.ndarray) else float(np.exp(x))


def _lift_weights(r: np.ndarray, v: ArrayLike):
    """Weights exp((r^2 - (r - j)^2) / 2v) of the lifts r - j of |r| <= 1/2, as
    ((j = 1, 2, 3), (j = -1, -2, -3)), from two array exps.

    The exponent is j (r - 1/2) / v - j (j - 1) / 2v, so with
    e = exp((r - 1/2) / v) and g = exp(-1/v) the weight is e^j g^{j(j-1)/2};
    j < 0 mirrors it with e = exp(-(r + 1/2) / v).  Shifted by the nearest
    lift's exponent, no weight exceeds 1, and r -+ 1/2 is exact where it
    matters, at r near +-1/2.
    """
    g = _exp(-1.0 / v)
    g3 = g * g * g
    weights = []
    for e in (np.exp((r - 0.5) / v), np.exp((-0.5 - r) / v)):
        e2 = e * e
        weights.append((e, e2 * g, e2 * e * g3))
    return weights


def _direct_slope(r: np.ndarray, v: ArrayLike) -> np.ndarray:
    """d log p / dr from the seven lifts r - j, |j| <= 3, of |r| <= 1/2."""
    (p1, p2, p3), (m1, m2, m3) = _lift_weights(r, v)
    # sums = 1 + (p1 + m1) + (p2 + m2) + (p3 + m3) and, in p1,
    # pull = (p1 - m1) + 2 (p2 - m2) + 3 (p3 - m3), with m1 as scratch.
    sums = p1 + m1
    sums += 1.0
    pull = np.subtract(p1, m1, out=p1)
    for j, p, m in ((2.0, p2, m2), (3.0, p3, m3)):
        sums += np.add(p, m, out=m1)
        pull += np.multiply(np.subtract(p, m, out=p), j, out=p)
    pull /= sums
    pull -= r
    pull /= v
    return pull


def _direct_log_density(r: np.ndarray, v: ArrayLike) -> np.ndarray:
    """log p from the seven lifts r - j, |j| <= 3, of |r| <= 1/2."""
    (p1, p2, p3), (m1, m2, m3) = _lift_weights(r, v)
    sums = np.add(p1, m1, out=p1)  # 1 + (p1 + m1) + (p2 + m2) + (p3 + m3)
    sums += 1.0
    for p, m in ((p2, m2), (p3, m3)):
        sums += np.add(p, m, out=p)
    out = np.log(sums, out=sums)
    rr = r * r
    out -= np.divide(rr, 2.0 * v, out=rr)
    out -= 0.5 * np.log(2.0 * np.pi * v)
    return out


def _theta_powers(v: ArrayLike):
    """q, q^4 and q^9 for q = exp(-2 pi^2 v), the nome of the theta series."""
    q = _exp(-2.0 * np.pi**2 * v)
    q4 = (q * q) * (q * q)
    return q, q4, q4 * q4 * q


def _theta_log_density(r: np.ndarray, v: ArrayLike) -> np.ndarray:
    """log p from the Jacobi theta series of the 1-D kernel.

    Poisson summation turns the lattice sum into
    p = 1 + 2 sum_n q^{n^2} cos 2 pi n r, q = exp(-2 pi^2 v).  The
    Chebyshev identity cos 2 pi n r = T_n(c) makes p a cubic in
    c = cos 2 pi r, evaluated by Horner's rule from one cos.
    """
    q, q4, q9 = _theta_powers(v)
    c = np.cos(2.0 * np.pi * r)
    return np.log((1.0 - 2.0 * q4) + c * ((2.0 * q - 6.0 * q9) + c * (4.0 * q4 + c * (8.0 * q9))))


def _theta_slope(r: np.ndarray, v: ArrayLike) -> np.ndarray:
    """d log p / dr from the theta series, with one tan.

    In c = cos 2 pi r the series is a0 + a1 c + a2 c^2 + a3 c^3 and its
    derivative sin 2 pi r (b0 + b1 c + b2 c^2).  The half-angle forms
    c = (1 - u) / (1 + u) and sin 2 pi r = 2t / (1 + u), with t = tan pi r
    and u = t^2, cancel the common (1 + u)^3 and leave the ratio
    t (d0 + d1 u + d2 u^2) / (c0 + c1 u + c2 u^2 + c3 u^3).  At r = +-1/2,
    t is about 1.6e16 and u^3 about 1e97, still finite.
    """
    q, q4, q9 = _theta_powers(v)
    a0, a1, a2, a3 = 1.0 - 2.0 * q4, 2.0 * q - 6.0 * q9, 4.0 * q4, 8.0 * q9
    b0, b1, b2 = -4.0 * np.pi * (q - 3.0 * q9), -16.0 * np.pi * q4, -48.0 * np.pi * q9
    c0, c1 = a0 + a1 + a2 + a3, 3.0 * a0 + a1 - a2 - 3.0 * a3
    c2, c3 = 3.0 * a0 - a1 - a2 + 3.0 * a3, a0 - a1 + a2 - a3
    d0, d1, d2 = 2.0 * (b0 + b1 + b2), 4.0 * (b0 - b2), 2.0 * (b0 - b1 + b2)
    t = np.pi * r
    np.tan(t, out=t)
    u = t * t
    num = u * d2  # Horner's rule in place, innermost term first
    num += d1
    num *= u
    num += d0
    num *= t
    den = u * c3
    for c in (c2, c1):
        den += c
        den *= u
    den += c0
    num /= den
    return num


def _per_axis(d: np.ndarray, v: ArrayLike, direct, theta) -> np.ndarray:
    """One branch of the 1-D wrapped Gaussian kernel per coordinate of ``d``.

    Every result depends on d only through r = d - round(d), and each point
    takes ``direct`` at v <= ``_THETA_SPLIT`` and ``theta`` above, exact to
    rounding for every d and v > 0.  ``v`` is a scalar or broadcasts against
    ``d``; with an array of variances each branch runs only on its own
    points, since below the split the three-term theta series can be
    negative.  Every operation acts point by point, so one point, a batch
    row and a per-point time give the same bits.
    """
    r = d - np.rint(d)
    if not getattr(v, "ndim", 0):
        v = float(v)
        return (direct if v <= _THETA_SPLIT else theta)(r, v)
    r, v = np.broadcast_arrays(r, v)
    out = np.empty(r.shape)
    small = v <= _THETA_SPLIT
    for mask, branch in ((small, direct), (~small, theta)):
        out[mask] = branch(r[mask], v[mask])
    return out


def _axis_slope(d: np.ndarray, v: ArrayLike) -> np.ndarray:
    """d log p / dd per coordinate of ``d`` (..., 2), where
    p(d) = sum_j exp(-(d - j)^2 / 2v) / sqrt(2 pi v) over all integers j is
    the 1-D wrapped Gaussian density; the true bridge's drift is sigma^2 times it."""
    return _per_axis(d, v, _direct_slope, _theta_slope)


def _axis_log_density(d: np.ndarray, v: ArrayLike) -> np.ndarray:
    """log p per coordinate of ``d`` (..., 2), for the 1-D wrapped Gaussian
    density p of :func:`_axis_slope`."""
    return _per_axis(d, v, _direct_log_density, _theta_log_density)


def drift(t: ArrayLike, x: np.ndarray, model: DriftModel) -> np.ndarray:
    """Evaluate any model's kernel at (t, x) with no checks: ``x`` must be a float
    array of finite points (..., 2) and 0 <= t < T.  The engine's step loop and
    weight pass call it; ``model.drift(t, x)`` is the checked entry.

    A float ``t``, such as the grid's ``np.float64`` times, gets its time to go
    in scalar arithmetic, with the bits of the array path and none of its 0-d
    ufunc calls; the kernels take it as a Python float."""
    if isinstance(t, float):
        return model._drift(max(model.horizon - float(t), MIN_TIME_TO_GO), x)
    return model._drift(np.maximum(model.horizon - np.asarray(t, dtype=float), MIN_TIME_TO_GO), x)


def wrapped_gaussian_log_density(
    s: ArrayLike, x: ArrayLike, t: ArrayLike, y: ArrayLike, sigma: float
) -> np.ndarray | float:
    """Log transition density of scaled Brownian motion on the torus.

    Returns ``log sum_k (2 pi sigma^2 (t-s))^{-1}
    exp(-|x - y - k|^2 / (2 sigma^2 (t-s)))`` with the sum over all integer
    offsets k, the sum of the two per-coordinate logs of
    :func:`_axis_log_density`.  It integrates to 1 over the fundamental domain.
    The times may be arrays that broadcast against the points' leading shape,
    one time pair per point; one point and a batch row give the same bits.

    Args:
        s: earlier time(s).
        x: state at time s, torus representative(s) of shape (..., 2).
        t: later time(s), strictly greater than s.
        y: state at time t, torus representative(s) of shape (..., 2).
        sigma: diffusion coefficient in [2**-490, sqrt(largest double)].

    Raises:
        ValueError: if s >= t, either time is not finite, sigma is not a
            finite number in [2**-490, sqrt(largest double)], or the
            variance sigma^2 (t - s) is not a finite normal double, at any point.
    """
    if isinstance(s, (float, int)) and isinstance(t, (float, int)):
        if not (np.isfinite(s) and np.isfinite(t) and s < t):
            raise ValueError(f"need s < t; got s={s}, t={t}")
        _check_sigma(sigma)
        v = float(sigma) ** 2 * (float(t) - float(s))
        if not sys.float_info.min <= v < math.inf:
            raise ValueError(f"sigma^2 (t - s) must be a finite normal double; got {v!r}")
    else:
        v = _variances(s, t, sigma)[..., None]  # against the coordinate axis
    log_p = _axis_log_density(as_point(x, "x") - as_point(y, "y"), v)
    out = log_p[..., 0] + log_p[..., 1]
    return float(out) if np.ndim(out) == 0 else out


def _variances(s: ArrayLike, t: ArrayLike, sigma: float) -> np.ndarray:
    """The variances sigma^2 (t - s) of time arrays, checked point by point as
    :func:`wrapped_gaussian_log_density` checks one pair; an error names the
    first bad point."""
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    bad = ~(np.isfinite(s) & np.isfinite(t) & (s < t))
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"need s < t; got s={float(s.flat[i])}, t={float(t.flat[i])}")
    _check_sigma(sigma)
    with np.errstate(over="ignore"):  # an infinite variance is refused below
        v = float(sigma) ** 2 * (t - s)
    bad = ~((v >= sys.float_info.min) & (v < math.inf))
    if bad.any():
        raise ValueError(f"sigma^2 (t - s) must be a finite normal double; "
                         f"got {float(v.flat[np.argmax(bad)])!r}")
    return v
