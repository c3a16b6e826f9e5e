"""Euler-Maruyama engine with reproducible per-path noise streams.

The integrator is the explicit left-point scheme

    x_{i+1} = x_i + b(t_i, x_i) dt + sigma dW_i,

on the equidistant grid t_i = i T / n_steps, with dW_i independent
Normal(0, dt) increments.

Determinism contract
--------------------
Every path owns an independent noise stream derived only from
``(seed, path_index)`` (a spawned ``numpy.random.SeedSequence`` child,
a counter-based construction).  Consequences, all relied on by tests:

  * the same ``(seed, path_index)`` always reproduces the same path,
    bit for bit, whether simulated alone or inside any batch;
  * batch results are identical for any worker count and scheduling;
  * two configurations sharing ``(seed, n_steps, horizon)`` consume the
    identical increment sequence per path index, which is how coupled
    model comparisons are driven.

Batches are processed in fixed-size path chunks; each chunk touches only
its own streams and output slots, so chunks may run on a thread pool
without changing any output byte.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from . import girsanov
from .drift import (
    DriftModel,
    EuclideanBridge,
    FreeBrownianMotion,
    ProposedBridge,
    TrueBridge,
    drift,
)
from .geometry import as_point, project

__all__ = [
    "SimConfig",
    "PathSample",
    "BatchResult",
    "euler_step",
    "wiener_increments",
    "simulate_path",
    "simulate_batch",
    "simulate_coupled_pair",
    "require_coupled",
    "diagnostic_target",
    "model_to_dict",
    "model_from_dict",
    "config_to_dict",
    "config_from_dict",
]

# Paths per work unit.  Fixed (never derived from the worker count) so that
# chunk boundaries, and therefore all floating-point results, are identical
# for any parallelism level.
CHUNK_SIZE = 1024

_MAX_SEED = 2**64


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    """Full description of one simulation experiment.

    Attributes:
        model: drift model variant with sigma and horizon T.
        start: initial plane point x_0.
        n_steps: number of equidistant steps; dt = T / n_steps.
        seed: master seed, a 64-bit unsigned integer; all randomness of
            the run flows from it.
        n_paths: number of independent paths in a batch.
        record_increments: store the driving Wiener increments on each
            returned path (required for Girsanov weights of single paths).
    """

    model: DriftModel
    start: tuple[float, float]
    n_steps: int
    seed: int
    n_paths: int = 1
    record_increments: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.model, DriftModel):
            raise ValueError(f"model must be a DriftModel; got {type(self.model).__name__}")
        arr = as_point(self.start, "start")
        object.__setattr__(self, "start", (float(arr[0]), float(arr[1])))
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be an integer >= 1; got {self.n_steps}")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        if int(self.seed) != self.seed or not (0 <= self.seed < _MAX_SEED):
            raise ValueError(f"seed must be a 64-bit unsigned integer; got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if int(self.n_paths) != self.n_paths or self.n_paths < 1:
            raise ValueError(f"n_paths must be an integer >= 1; got {self.n_paths}")
        object.__setattr__(self, "n_paths", int(self.n_paths))

    @property
    def dt(self) -> float:
        return self.model.horizon / self.n_steps

    def time_grid(self) -> np.ndarray:
        """The equidistant grid t_0 = 0, ..., t_n = T."""
        return np.linspace(0.0, self.model.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class PathSample:
    """One discretised trajectory.

    ``times`` has length n_steps + 1 with times[0] = 0 and times[-1] = T;
    ``states`` holds the plane states, shape (n_steps + 1, 2), with
    states[0] equal to the configured start; ``increments`` optionally
    holds the driving dW per step, shape (n_steps, 2), from which the
    recursion can be replayed exactly.
    """

    times: np.ndarray
    states: np.ndarray
    increments: np.ndarray | None = None


@dataclass(frozen=True)
class BatchResult:
    """Paths plus per-path terminal diagnostics for a batch run.

    ``limiting_lattice_points`` holds, per path, the integer offset k such
    that the nearest lift of the diagnostic target to the terminal state
    is target + k; rows where the terminal state sits on the cut locus
    (no unique nearest lift) are flagged in ``unresolved`` and their k is
    meaningless.  ``log_weights`` is filled when a weight cutoff was
    requested, ``snapshots`` maps requested step indices to (n_paths, 2)
    state arrays, and ``paths`` is None when path storage was disabled.
    """

    config: SimConfig
    terminal_points: np.ndarray
    limiting_lattice_points: np.ndarray
    unresolved: np.ndarray
    paths: list[PathSample] | None = None
    log_weights: np.ndarray | None = None
    snapshots: dict[int, np.ndarray] | None = None

    @property
    def n_paths(self) -> int:
        return self.terminal_points.shape[0]


def euler_step(
    t: float, x: ArrayLike, dt: float, dW: ArrayLike, model: DriftModel
) -> np.ndarray:
    """One explicit Euler-Maruyama update x + b(t, x) dt + sigma dW.

    Vectorised over states of shape (..., 2); dW must broadcast against x.

    Raises:
        HorizonError (via the drift) or ValueError if the step leaves
        [0, T] or dt <= 0.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0; got {dt}")
    horizon = model.horizon
    if t < 0 or t + dt > horizon * (1.0 + 1e-9) + 1e-12:
        raise ValueError(f"step [{t}, {t + dt}] leaves the horizon [0, {horizon}]")
    arr = as_point(x, "x")
    dw = np.asarray(dW, dtype=float)
    return arr + drift(t, arr, model) * dt + model.sigma * dw


def _path_seed(seed: int, path_index: int) -> np.random.SeedSequence:
    # Child i of SeedSequence(seed).spawn(...), constructed directly so that
    # path streams depend only on (seed, path_index).
    return np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))


def wiener_increments(seed: int, path_index: int, n_steps: int, dt: float) -> np.ndarray:
    """The (n_steps, 2) increment array dW driving path ``path_index``."""
    rng = np.random.default_rng(_path_seed(seed, path_index))
    return rng.standard_normal((n_steps, 2)) * np.sqrt(dt)


def _chunk_increments(config: SimConfig, lo: int, hi: int) -> np.ndarray:
    out = np.empty((hi - lo, config.n_steps, 2))
    root = np.sqrt(config.dt)
    for row, idx in enumerate(range(lo, hi)):
        rng = np.random.default_rng(_path_seed(config.seed, idx))
        out[row] = rng.standard_normal((config.n_steps, 2))
    out *= root
    return out


def _run_chunk(
    config: SimConfig, lo: int, hi: int, times: np.ndarray, weight_cutoff: float | None
) -> dict:
    """Simulate paths [lo, hi) and return their states, increments and weights."""
    model = config.model
    dt = config.dt
    n = config.n_steps
    dW = _chunk_increments(config, lo, hi)
    states = np.empty((hi - lo, n + 1, 2))
    states[:, 0] = config.start
    x = states[:, 0].copy()
    for i in range(n):
        x = euler_step(times[i], x, dt, dW[:, i], model)
        states[:, i + 1] = x
    out = {"lo": lo, "hi": hi, "states": states, "dW": dW}
    if weight_cutoff is not None:
        out["log_weights"] = girsanov.path_log_weights(
            times, states, dW, model, weight_cutoff
        )
    return out


def simulate_path(config: SimConfig, path_index: int = 0) -> PathSample:
    """Simulate a single path from its own (seed, path_index) stream.

    Returns the full trajectory; increments are attached when the config
    requests recording.  The result is bitwise identical to the same path
    index inside any batch of the same config.
    """
    if not (0 <= path_index < config.n_paths):
        raise ValueError(
            f"path_index must be in [0, {config.n_paths}); got {path_index}"
        )
    times = config.time_grid()
    res = _run_chunk(config, path_index, path_index + 1, times, None)
    increments = res["dW"][0] if config.record_increments else None
    return PathSample(times=times, states=res["states"][0], increments=increments)


def _limiting_offsets(terminal: np.ndarray, target: np.ndarray):
    """Nearest-lift integer offsets of terminal states, with tie flags."""
    d = terminal - target
    k = np.round(d)
    unresolved = np.any(np.abs(np.abs(d - k) - 0.5) == 0.0, axis=-1)
    return k.astype(np.int64), unresolved


def diagnostic_target(model: DriftModel) -> tuple[float, float]:
    """Torus point against which terminal lattice offsets are reported.

    The model's conditioning target where it has one; the projection of
    the endpoint for the single-point bridge; the origin for the free
    process (offsets then index the unit square the path ended in).
    """
    if isinstance(model, (ProposedBridge, TrueBridge)):
        return model.target
    if isinstance(model, EuclideanBridge):
        p = project(model.endpoint)
        return (float(p[0]), float(p[1]))
    return (0.0, 0.0)


def simulate_batch(
    config: SimConfig,
    *,
    n_workers: int = 1,
    keep_paths: bool = True,
    snapshot_steps: Sequence[int] | None = None,
    weight_cutoff: float | None = None,
) -> BatchResult:
    """Simulate config.n_paths independent paths and collect diagnostics.

    Args:
        config: experiment description.
        n_workers: thread count for chunk fan-out.  Any value produces
            identical results; threads only trade wall time.
        keep_paths: retain full PathSample objects (memory heavy for
            large batches; diagnostics never need them).
        snapshot_steps: grid step indices whose states are stored for all
            paths regardless of ``keep_paths``.
        weight_cutoff: when set to a grid time S in (0, T), fill
            ``log_weights`` with the Girsanov log weight of each path
            accumulated over [0, S).

    Returns:
        BatchResult with terminal points, nearest-lift offsets relative
        to :func:`diagnostic_target`, cut-locus flags, and the optional
        extras.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1; got {n_workers}")
    snapshot_list = sorted(set(int(s) for s in snapshot_steps)) if snapshot_steps else []
    for s in snapshot_list:
        if not (0 <= s <= config.n_steps):
            raise ValueError(f"snapshot step {s} outside [0, {config.n_steps}]")
    if weight_cutoff is not None:
        # Validate eagerly so a bad cutoff fails before any simulation work.
        girsanov.cutoff_index(config.dt, config.n_steps, config.model.horizon, weight_cutoff)

    times = config.time_grid()
    n_paths = config.n_paths
    target = np.asarray(diagnostic_target(config.model))

    terminal = np.empty((n_paths, 2))
    offsets = np.empty((n_paths, 2), dtype=np.int64)
    unresolved = np.empty(n_paths, dtype=bool)
    log_weights = np.empty(n_paths) if weight_cutoff is not None else None
    snapshots = {s: np.empty((n_paths, 2)) for s in snapshot_list}
    paths: list[PathSample] | None = [None] * n_paths if keep_paths else None  # type: ignore[list-item]

    bounds = [(lo, min(lo + CHUNK_SIZE, n_paths)) for lo in range(0, n_paths, CHUNK_SIZE)]

    def work(b):
        return _run_chunk(config, b[0], b[1], times, weight_cutoff)

    def collect(res: dict) -> None:
        lo, hi = res["lo"], res["hi"]
        states = res["states"]
        terminal[lo:hi] = states[:, -1]
        k, tie = _limiting_offsets(states[:, -1], target)
        offsets[lo:hi] = k
        unresolved[lo:hi] = tie
        if log_weights is not None:
            log_weights[lo:hi] = res["log_weights"]
        for s in snapshot_list:
            snapshots[s][lo:hi] = states[:, s]
        if paths is not None:
            for row, idx in enumerate(range(lo, hi)):
                inc = res["dW"][row] if config.record_increments else None
                paths[idx] = PathSample(times=times, states=states[row], increments=inc)

    if n_workers == 1 or len(bounds) == 1:
        for b in bounds:
            collect(work(b))
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for res in pool.map(work, bounds):
                collect(res)

    return BatchResult(
        config=config,
        terminal_points=terminal,
        limiting_lattice_points=offsets,
        unresolved=unresolved,
        paths=paths,
        log_weights=log_weights,
        snapshots=snapshots or None,
    )


def require_coupled(config_a: SimConfig, config_b: SimConfig) -> None:
    """Check that two configs share grid, start, noise scale and streams.

    Coupled comparisons drive both models with the identical increment
    sequence, which holds exactly when seed, step count, horizon, start
    and sigma all agree.

    Raises:
        ValueError: on any mismatch.
    """
    pairs = [
        ("seed", config_a.seed, config_b.seed),
        ("n_steps", config_a.n_steps, config_b.n_steps),
        ("n_paths", config_a.n_paths, config_b.n_paths),
        ("horizon", config_a.model.horizon, config_b.model.horizon),
        ("sigma", config_a.model.sigma, config_b.model.sigma),
        ("start", config_a.start, config_b.start),
    ]
    for name, va, vb in pairs:
        if va != vb:
            raise ValueError(f"coupled configs must share {name}; got {va} vs {vb}")


def simulate_coupled_pair(
    config_a: SimConfig, config_b: SimConfig, path_index: int = 0
) -> tuple[PathSample, PathSample]:
    """Simulate one path of each model driven by the identical noise.

    Both trajectories consume the same dW sequence (stream of
    ``(seed, path_index)``), so any difference between them is purely the
    difference of the two drifts.
    """
    require_coupled(config_a, config_b)
    return simulate_path(config_a, path_index), simulate_path(config_b, path_index)


# ---------------------------------------------------------------------------
# JSON round-trip of configurations (manifest "config" block)
# ---------------------------------------------------------------------------

_VARIANTS = {
    "free-bm": FreeBrownianMotion,
    "euclid-bridge": EuclideanBridge,
    "proposed": ProposedBridge,
    "true-bridge": TrueBridge,
}


def model_to_dict(model: DriftModel) -> dict:
    """JSON-serialisable description of a drift model."""
    out: dict = {"sigma": model.sigma, "horizon": model.horizon}
    if isinstance(model, FreeBrownianMotion):
        out["variant"] = "free-bm"
    elif isinstance(model, EuclideanBridge):
        out["variant"] = "euclid-bridge"
        out["endpoint"] = list(model.endpoint)
    elif isinstance(model, ProposedBridge):
        out["variant"] = "proposed"
        out["target"] = list(model.target)
        out["cut_locus_tol"] = model.cut_locus_tol
        out["scale_by_sigma_sq"] = model.scale_by_sigma_sq
    elif isinstance(model, TrueBridge):
        out["variant"] = "true-bridge"
        out["target"] = list(model.target)
        out["truncation"] = model.truncation
    else:
        raise TypeError(f"unknown drift model type: {type(model).__name__}")
    return out


def model_from_dict(data: dict) -> DriftModel:
    """Inverse of :func:`model_to_dict`."""
    data = dict(data)
    try:
        variant = data.pop("variant")
    except KeyError:
        raise ValueError("model description must carry a 'variant' key") from None
    try:
        cls = _VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown model variant {variant!r}; expected one of {sorted(_VARIANTS)}"
        ) from None
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(
            f"unknown key(s) {unknown} for model variant {variant!r}; "
            f"its fields are {names}"
        )
    for key in ("endpoint", "target"):
        if key in data:
            data[key] = tuple(data[key])
    return cls(**data)


def config_to_dict(config: SimConfig) -> dict:
    """JSON-serialisable description of a simulation config."""
    return {
        "model": model_to_dict(config.model),
        "start": list(config.start),
        "n_steps": config.n_steps,
        "seed": config.seed,
        "n_paths": config.n_paths,
        "record_increments": config.record_increments,
    }


def config_from_dict(data: dict) -> SimConfig:
    """Inverse of :func:`config_to_dict`."""
    data = dict(data)
    model = model_from_dict(data.pop("model"))
    data["start"] = tuple(data["start"])
    return SimConfig(model=model, **data)
