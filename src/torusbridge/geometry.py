"""Exact geometry of the flat torus T^2 = R^2 / Z^2.

This module implements:
  * The canonical projection onto the fundamental domain [-1/2, 1/2)^2.
  * The nearest lattice offset, with its tie flag: for a conditioning
    point a on the torus and x in R^2, the closest point of the lattice
    a + Z^2 is a + k with k the nearest offset of x - a, and the flag
    marks the cut locus of a, i.e. the grid of straight lines where the
    nearest lift ties and the argmin is non-unique.  Its complement is
    the countable union of open unit squares centred on the lifts of a.
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
    "as_point",
    "as_plane_point",
    "as_torus_point",
    "project",
    "nearest_offset",
    "torus_distance",
]


def as_point(p: ArrayLike, name: str = "point") -> np.ndarray:
    """Validate and return a plane point (or stack of points) as a float array.

    Args:
        p: array-like with trailing dimension 2.
        name: label used in error messages.

    Raises:
        ValueError: if ``p`` is not numeric (a non-numeric string or a
            ragged list included), the trailing dimension is not 2 or any
            coordinate is NaN or infinite.
    """
    try:
        arr = np.asarray(p, dtype=float)
    except (TypeError, ValueError):  # ValueError: a non-numeric string, a ragged list
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
            f"{name} must lie in the fundamental domain [-1/2, 1/2)^2; got {arr.tolist()}"
        )
    return arr


def project(p: ArrayLike) -> np.ndarray:
    """Canonical projection of R^2 onto the fundamental domain [-1/2, 1/2)^2.

    Returns the unique representative of p mod Z^2, exactly: p minus its
    nearest offset k, a difference of at most 1/2 that a double holds.  A
    point of the domain is returned bit for bit, the boundary value +1/2
    maps to -1/2 (half-open convention), and the map is idempotent.
    """
    arr = as_point(p)
    k, _ = nearest_offset(arr)
    u = np.where(k == 0, arr, arr - k)  # k == 0 keeps the sign of a zero
    return np.where(u == 0.5, -0.5, u)


def nearest_offset(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest integer offset ``k = round(d)`` of displacements d (..., 2).

    Also returns the tie flags (...,): True where some component has
    ``|d - k| == 1/2``, so the nearest offset is not unique.
    """
    k = np.rint(d)
    r = d - k
    hit = np.abs(r, out=r) == 0.5
    return k, hit[..., 0] | hit[..., 1]


def torus_distance(p: ArrayLike, q: ArrayLike) -> np.ndarray | float:
    """Quotient distance on the torus between plane points.

    Each axis folds its displacement d = p - q to ``|d - round(d)|``, its
    distance to the nearest integer, so any plane points give the distance
    of their projections.  For fundamental-domain points this is bitwise the
    minimum of ``|(p - q) + k|`` over the nine shifts k in {-1, 0, 1}^2.
    Symmetric, and zero iff p and q project to the same point.
    """
    d = as_point(p, "p") - as_point(q, "q")
    out = np.linalg.norm(np.abs(d - np.round(d)), axis=-1)
    if out.ndim == 0:
        return float(out)
    return out
