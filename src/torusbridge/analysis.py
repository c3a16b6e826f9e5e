"""Statistical post-processing of batch simulations.

Summaries implemented here:
  * terminal convergence: quantiles of the torus distance between the
    projected terminal states and the conditioning point;
  * endpoint histograms over the limiting lattice offset of each path;
  * agreement rate of coupled model pairs (same noise, different drift)
    with a Wilson 95% interval;
  * drift vector fields on spatial grids, for plotting.

Every summary is a function of the per-path records alone, so it does
not depend on how the paths were chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .drift import DriftModel
from .engine import BatchResult, SimConfig, simulate_batch
from .geometry import project, torus_distance

__all__ = [
    "TerminalSummary",
    "EndpointHistogram",
    "AgreementReport",
    "terminal_distances",
    "terminal_convergence",
    "lattice_endpoint_histogram",
    "agreement_rate",
    "drift_field",
]


@dataclass(frozen=True)
class TerminalSummary:
    """Quantiles of the terminal distance to the conditioning point."""

    q50: float
    q90: float
    q99: float
    n_paths: int


def terminal_distances(batch: BatchResult, target) -> np.ndarray:
    """Per-path quotient distance between the projected terminal state and
    the torus point ``target``."""
    if batch.n_paths == 0:
        raise ValueError("batch is empty")
    return np.asarray(torus_distance(project(batch.terminal_points), project(target)))


def terminal_convergence(batch: BatchResult, target) -> TerminalSummary:
    """Empirical 50/90/99% quantiles of the terminal distance to target."""
    d = terminal_distances(batch, target)
    q50, q90, q99 = np.quantile(d, [0.5, 0.9, 0.99])
    return TerminalSummary(q50=float(q50), q90=float(q90), q99=float(q99), n_paths=len(d))


@dataclass(frozen=True)
class EndpointHistogram:
    """Counts of limiting lattice offsets, with cut-locus terminals set aside.

    ``counts`` maps the integer offset pair k to the number of paths whose
    terminal state had target + k as unique nearest lift; terminals on
    the cut locus are tallied in ``n_unresolved`` instead of any bin, so
    counts plus unresolved always total ``n_total``.
    """

    counts: dict[tuple[int, int], int]
    n_total: int
    n_unresolved: int

    def mass(self, k: tuple[int, int]) -> float:
        """Fraction of all paths landing in bin k."""
        return self.counts.get(k, 0) / self.n_total


def lattice_endpoint_histogram(batch: BatchResult) -> EndpointHistogram:
    """Bin each path of a batch by its limiting lattice offset."""
    if batch.n_paths == 0:
        raise ValueError("batch is empty")
    counts: dict[tuple[int, int], int] = {}
    resolved = batch.limiting_lattice_points[~batch.unresolved]
    keys, n = np.unique(resolved, axis=0, return_counts=True)
    for k, c in zip(keys, n):
        counts[(int(k[0]), int(k[1]))] = int(c)
    return EndpointHistogram(
        counts=counts,
        n_total=batch.n_paths,
        n_unresolved=int(batch.unresolved.sum()),
    )


@dataclass(frozen=True)
class AgreementReport:
    """How often two coupled models share the limiting lattice offset.

    ``rate`` is n_agree / n_pairs; the Wilson 95% interval calibrates it
    against the Monte Carlo noise.  Pairs with a cut-locus terminal on
    either side have no limiting offset and count as disagreement (they
    are tallied in ``n_unresolved``).  The per-pair arrays are retained
    for CSV export.
    """

    n_pairs: int
    n_agree: int
    rate: float
    wilson_low: float
    wilson_high: float
    config_digest: str
    n_unresolved: int = 0
    offsets_a: np.ndarray | None = field(repr=False, default=None)
    offsets_b: np.ndarray | None = field(repr=False, default=None)
    unresolved_a: np.ndarray | None = field(repr=False, default=None)
    unresolved_b: np.ndarray | None = field(repr=False, default=None)
    agree: np.ndarray | None = field(repr=False, default=None)


def _wilson_interval(k: int, n: int) -> tuple[float, float]:
    z = ndtri(0.975)  # the 95 % two-sided normal quantile
    p = k / n
    denom = 1.0 + z**2 / n
    centre = (p + z**2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return centre - half, centre + half


def _digest(config_a: SimConfig, config_b: SimConfig) -> str:
    m = config_a.model
    parts = [
        f"sigma={m.sigma:g}",
        f"T={m.horizon:g}",
        f"dt={config_a.dt:g}",
        f"n_steps={config_a.n_steps}",
        f"seed={config_a.seed}",
        f"start=({config_a.start[0]:g},{config_a.start[1]:g})",
        f"models={type(config_a.model).__name__}|{type(config_b.model).__name__}",
    ]
    return " ".join(parts)


def agreement_rate(config_a: SimConfig, config_b: SimConfig) -> AgreementReport:
    """Fraction of coupled pairs whose limiting lattice offsets coincide.

    Both configs must share seed, grid, start and sigma (the coupling
    contract) and condition on the same torus point, so offsets are
    comparable.  n_pairs is the common n_paths of the two configs.  Both
    models step in one coupled batch, so each pair's noise is drawn once.
    """
    if config_a.model.diagnostic_target != config_b.model.diagnostic_target:
        raise ValueError("coupled configs must condition on the same target")
    batch_a, batch_b = simulate_batch([config_a, config_b], keep_paths=False)
    resolved = ~(batch_a.unresolved | batch_b.unresolved)
    same = np.all(
        batch_a.limiting_lattice_points == batch_b.limiting_lattice_points, axis=-1
    )
    agree = resolved & same
    n_pairs = config_a.n_paths
    n_agree = int(agree.sum())
    low, high = _wilson_interval(n_agree, n_pairs)
    return AgreementReport(
        n_pairs=n_pairs,
        n_agree=n_agree,
        rate=n_agree / n_pairs,
        wilson_low=float(low),
        wilson_high=float(high),
        config_digest=_digest(config_a, config_b),
        n_unresolved=int((~resolved).sum()),
        offsets_a=batch_a.limiting_lattice_points,
        offsets_b=batch_b.limiting_lattice_points,
        unresolved_a=batch_a.unresolved,
        unresolved_b=batch_b.unresolved,
        agree=agree,
    )


def drift_field(
    model: DriftModel,
    t: float,
    x1_range: tuple[float, float] = (-0.5, 0.5),
    x2_range: tuple[float, float] = (-0.5, 0.5),
    n: int = 21,
) -> tuple[np.ndarray, np.ndarray]:
    """Drift vectors on an n x n grid at a fixed time.

    The grid includes both range endpoints on each axis and is traversed
    with x1 as the slow index, a fixed deterministic order shared with
    the CSV export.

    Returns:
        (points, vectors), both of shape (n*n, 2).
    """
    if n < 2:
        raise ValueError(f"grid size must be >= 2; got {n}")
    # A non-finite end gives a non-finite span too; linspace needs finite spans.
    if not all(math.isfinite(float(hi) - float(lo)) for lo, hi in (x1_range, x2_range)):
        raise ValueError(f"grid ranges must be finite with finite spans hi - lo; "
                         f"got {x1_range} and {x2_range}")
    g1 = np.linspace(x1_range[0], x1_range[1], n)
    g2 = np.linspace(x2_range[0], x2_range[1], n)
    m1, m2 = np.meshgrid(g1, g2, indexing="ij")
    points = np.stack([m1.ravel(), m2.ravel()], axis=1)
    vectors = model.drift(t, points)
    return points, vectors
