"""Exact geometry of the flat torus T^2 = R^2 / Z^2.

This module implements:
  * The canonical projection onto the fundamental domain [-1/2, 1/2)^2.
  * The nearest-lift map for a conditioning point a on the torus: given
    x in R^2, the closest point of the lattice a + Z^2.
  * Membership in the cut locus of a, i.e. the grid of straight lines
    where the nearest lift ties and the argmin is non-unique.  Its
    complement is the countable union of open unit squares centred on
    the lifts of a.
  * The quotient metric on the torus.

All operations accept scalars of shape (2,) or stacked arrays of shape
(..., 2) and are pure functions: they keep no state between calls.

Conventions fixed here and relied upon everywhere else:
  * Fundamental domain is the half-open square [-1/2, 1/2)^2, so the
    boundary value +1/2 always normalises to -1/2.
  * Nearest-integer rounding is round-half-even, and exact ties (a
    displacement component with fractional part exactly 1/2) are treated
    as cut-locus hits, never silently resolved.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "AmbiguousLiftError",
    "as_point",
    "as_plane_point",
    "as_torus_point",
    "project",
    "nearest_offset",
    "lift_nearest",
    "is_on_cut_locus",
    "torus_distance",
]

class AmbiguousLiftError(ValueError):
    """Raised when the nearest lift is requested on the cut locus, where it ties."""


def as_point(p: ArrayLike, name: str = "point") -> np.ndarray:
    """Validate and return a plane point (or stack of points) as a float array.

    Args:
        p: array-like with trailing dimension 2.
        name: label used in error messages.

    Raises:
        ValueError: if ``p`` is not numeric, the trailing dimension is not 2
            or any coordinate is NaN or infinite.
    """
    try:
        arr = np.asarray(p, dtype=float)
    except TypeError:
        raise ValueError(f"{name} must hold numbers; got {p!r}") from None
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError(f"{name} must have trailing dimension 2; got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite; got non-finite coordinates")
    return arr


# Doubles of magnitude 2**52 and above are spaced 1 or more apart, so beyond
# 2**52 a plane point can no longer hold a torus position.
MAX_PLANE_COORD = 2.0**52


def as_plane_point(p: ArrayLike, name: str = "point") -> np.ndarray:
    """Validate a plane point whose torus position matters.

    Raises:
        ValueError: as :func:`as_point`, or if a coordinate exceeds 2**52
            in magnitude.
    """
    arr = as_point(p, name)
    if np.any(np.abs(arr) > MAX_PLANE_COORD):
        raise ValueError(
            f"{name} coordinates must be at most 2**52 in magnitude, beyond which a "
            f"double cannot hold a torus position; got {arr.tolist()}")
    return arr


def as_torus_point(a: ArrayLike, name: str = "torus point") -> np.ndarray:
    """Validate a point of the fundamental domain [-1/2, 1/2)^2.

    Raises:
        ValueError: if any coordinate lies outside [-1/2, 1/2).  Use
            :func:`project` first for arbitrary plane points.
    """
    arr = as_point(a, name)
    if np.any(arr < -0.5) or np.any(arr >= 0.5):
        raise ValueError(
            f"{name} must lie in the fundamental domain [-1/2, 1/2)^2; got {arr!r}"
        )
    return arr


def project(p: ArrayLike) -> np.ndarray:
    """Canonical projection of R^2 onto the fundamental domain [-1/2, 1/2)^2.

    Returns the unique representative of p mod Z^2.  Idempotent, and maps
    the boundary value +1/2 to -1/2 (half-open convention).
    """
    arr = as_point(p)
    u = (arr + 0.5) % 1.0 - 0.5
    # Guard against a floating-point mod landing exactly on 1.0 for inputs
    # a hair below an integer, which would leak u == +0.5.
    return np.where(u >= 0.5, u - 1.0, u)


def nearest_offset(d: np.ndarray, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nearest integer offset ``k = round(d)`` of displacements d (..., 2).

    Also returns the tie flags (...,): True where some component of
    ``d - k`` is within ``tol`` of +-1/2, so the nearest offset is not unique.
    """
    k = np.round(d)
    hit = np.abs(np.abs(d - k) - 0.5) <= tol
    return k, hit[..., 0] | hit[..., 1]


def lift_nearest(x: ArrayLike, target: ArrayLike, tol: float = 0.0) -> np.ndarray:
    """Nearest point of the lattice target + Z^2 to x.

    The result y = target + round(x - target) satisfies
    ``|y - x| <= |y' - x|`` for every other lift y', with strict inequality
    off the cut locus.

    Args:
        x: plane point(s), shape (..., 2).
        target: conditioning point, a torus representative in [-1/2, 1/2)^2.
        tol: optional half-width of a band around the tie lines that is
            also treated as ambiguous (default 0, exact ties only).

    Raises:
        AmbiguousLiftError: if any input point lies on the cut locus of
            target (a displacement component ties at exactly 1/2, or
            within ``tol`` of it).  Drift evaluation checks for the cut
            locus first and emits zero drift instead of calling this.
    """
    a = as_torus_point(target, "target")
    k, tie = nearest_offset(as_point(x, "x") - a, tol)
    if np.any(tie):
        raise AmbiguousLiftError(
            "nearest lift is not unique: point lies on the cut locus of the target"
        )
    return a + k


def is_on_cut_locus(x: ArrayLike, target: ArrayLike, tol: float = 0.0) -> np.ndarray | bool:
    """Whether x lies on the cut locus of target.

    True iff some component of (x - target) has fractional part exactly
    1/2, i.e. x sits on one of the tie lines between neighbouring lifts
    and off the open squares centred on the lifts.  ``tol`` widens the
    lines into bands of half-width tol (default 0: exact equality, the
    literal zero-measure set).

    Returns a bool for a single point, or a bool array of shape (...,)
    for stacked input.
    """
    _, hit = nearest_offset(as_point(x, "x") - as_torus_point(target, "target"), tol)
    return bool(hit) if hit.ndim == 0 else hit


def torus_distance(p: ArrayLike, q: ArrayLike) -> np.ndarray | float:
    """Quotient distance on the torus between fundamental-domain points.

    Each axis folds its displacement to ``min(|p - q|, 1 - |p - q|)``, the
    nearest of the shifts -1, 0, 1; this is exact when both arguments lie
    in the fundamental domain, and bitwise the minimum of ``|(p - q) + k|``
    over the nine shifts k in {-1, 0, 1}^2.  Symmetric, and zero iff p == q.
    """
    d = np.abs(as_point(p, "p") - as_point(q, "q"))
    out = np.linalg.norm(np.minimum(d, 1.0 - d), axis=-1)
    if out.ndim == 0:
        return float(out)
    return out
