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
  * batch results do not depend on the chunk size;
  * two configurations sharing ``(seed, n_steps, horizon)`` consume the
    identical increment sequence per path index, which is how coupled
    model comparisons are driven.

Batches run in path order, one fixed-size chunk of paths at a time; each
chunk touches only its own streams and output slots.  Within a chunk the
noise is drawn ``NOISE_BLOCK`` steps at a time into one reused buffer, each
stream continuing where its last block stopped; a numpy ``Generator`` keeps
no cached normal, so this gives the bits of a whole-stream draw.  Chunking
and blocking thus bound the memory in flight without changing any output
byte: with no path or weight kept, a chunk holds one noise block and its
current states, whatever the step count.  The per-step states exist only
when kept paths or weights read them, and the whole increment array only when
weights or :func:`simulate_path` do.  A coupled batch draws each block once
for all its models and steps them in one loop, and the grid is validated once
per batch, not once per step.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from . import girsanov
from .drift import MIN_TIME_TO_GO, VARIANTS, DriftModel, _finite, drift
from .geometry import MAX_PLANE_COORD, as_plane_point, as_point, nearest_offset

__all__ = [
    "SimConfig",
    "PathSample",
    "BatchResult",
    "euler_step",
    "wiener_increments",
    "simulate_path",
    "simulate_batch",
    "require_coupled",
    "model_to_dict",
    "model_from_dict",
    "model_class",
    "config_to_dict",
    "config_from_dict",
]

# Paths per chunk, and steps per noise draw within a chunk.  Unless paths or
# weights are kept, a chunk's arrays in flight are its (CHUNK_SIZE, NOISE_BLOCK, 2)
# noise buffer, 2 MiB, and its (CHUNK_SIZE, 2) states; no output byte depends on
# either.  Shorter blocks cost more per-stream draw calls: drawing a 1024 x 1000
# chunk took about 20 % longer than one whole draw in 64-step blocks and 5-10 %
# longer in 128-step ones; 256-step blocks would make the buffer 4 MiB.
CHUNK_SIZE = 1024
NOISE_BLOCK = 128

_MAX_SEED = 2**64


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    """Full description of one simulation experiment.

    Attributes:
        model: drift model variant with sigma and horizon T.
        start: initial plane point x_0.
        n_steps: number of equidistant steps; dt = T / n_steps must be at
            least the drift's ``MIN_TIME_TO_GO``, below which the clamped
            time to go would stop steering paths to the target.
        seed: master seed, a 64-bit unsigned integer; all randomness of
            the run flows from it.
        n_paths: number of independent paths in a batch.
    """

    model: DriftModel
    start: tuple[float, float]
    n_steps: int
    seed: int
    n_paths: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.model, DriftModel):
            raise ValueError(f"model must be a DriftModel; got {type(self.model).__name__}")
        arr = as_plane_point(self.start, "start")
        object.__setattr__(self, "start", (float(arr[0]), float(arr[1])))
        for name in ("n_steps", "n_paths"):
            value = getattr(self, name)
            if not (_finite(value) and int(value) == value >= 1):
                raise ValueError(f"{name} must be an integer >= 1; got {value}")
            object.__setattr__(self, name, int(value))
        if not (_finite(self.seed) and int(self.seed) == self.seed and 0 <= self.seed < _MAX_SEED):
            raise ValueError(f"seed must be a 64-bit unsigned integer; got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if not self.dt >= MIN_TIME_TO_GO:
            raise ValueError(f"the step T / n_steps = {self.dt!r} is below {MIN_TIME_TO_GO!r}, "
                             f"the smallest time to go the drift resolves")

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
    states[0] equal to the configured start; ``increments`` holds the
    driving dW per step, shape (n_steps, 2), from which the recursion can
    be replayed exactly: :func:`simulate_path` attaches them, batch paths
    carry states only.
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
        ValueError if the step leaves [0, T] or dt <= 0.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0; got {dt}")
    horizon = model.horizon
    if not (0 <= t and t + dt <= horizon * (1.0 + 1e-9) + 1e-12):  # NaN fails too
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


def _chunk_increments(streams, out: np.ndarray, dt: float) -> np.ndarray:
    """Fill ``out``, shape (paths, steps, 2), with the next increments of each
    path's stream, one stream per row in order, and return it."""
    for row, rng in zip(out, streams):
        rng.standard_normal(out=row)
    out *= np.sqrt(dt)
    return out


def _run_chunk(
    config: SimConfig, lo: int, hi: int, times: np.ndarray, models: Sequence[DriftModel],
    keep_states: bool, keep_increments: bool, snapshot_steps: Sequence[int],
    weight_cutoff: float | None,
) -> dict:
    """Step every model over paths [lo, hi) of ``config``'s grid on shared noise,
    drawn ``NOISE_BLOCK`` steps at a time unless the whole array is kept.

    Returns the increments ``dW`` if kept or needed for weights (else None)
    and, with one entry per model, the terminal and snapshot states, the full
    states if kept or needed for weights, and the log weights; ``states`` is
    empty when neither is asked for."""
    dt, sigma, n = config.dt, config.model.sigma, config.n_steps
    keep = keep_states or weight_cutoff is not None
    whole = keep_increments or weight_cutoff is not None
    # A kept increment array is drawn in one pass, each stream made and dropped
    # in turn; otherwise the streams live across the blocks of one buffer.
    width = n if whole else min(NOISE_BLOCK, n)
    streams = (np.random.default_rng(_path_seed(config.seed, idx)) for idx in range(lo, hi))
    if width < n:
        streams = list(streams)
    dW = np.empty((hi - lo, width, 2))
    xs = [np.full((hi - lo, 2), config.start) for _ in models]
    states = [np.empty((hi - lo, n + 1, 2)) for _ in models] if keep else []
    snapshots = dict.fromkeys(snapshot_steps)
    for i in range(n + 1):
        if i:
            b = (i - 1) % width
            if not b:
                block = _chunk_increments(streams, dW[:, :min(width, n + 1 - i)], dt)
            noise = sigma * block[:, b]
            for j, model in enumerate(models):
                # euler_step's update, bit for bit, without its per-step checks.
                xs[j] = xs[j] + drift(times[i - 1], xs[j], model) * dt + noise
        for run, x in zip(states, xs):
            run[:, i] = x
        if i in snapshots:
            snapshots[i] = list(xs)
    log_weights = None if weight_cutoff is None else [
        girsanov.path_log_weights(times, run, dW, m, weight_cutoff)
        for run, m in zip(states, models)]
    return {"dW": dW if whole else None, "terminal": xs, "states": states,
            "snapshots": snapshots, "log_weights": log_weights}


def simulate_path(config: SimConfig, path_index: int = 0) -> PathSample:
    """Simulate a single path from its own (seed, path_index) stream.

    Returns the full trajectory with its driving increments.  The states
    are bitwise those of the same path index inside any batch of the same
    config.
    """
    if not (0 <= path_index < config.n_paths):
        raise ValueError(
            f"path_index must be in [0, {config.n_paths}); got {path_index}"
        )
    times = config.time_grid()
    res = _run_chunk(config, path_index, path_index + 1, times, [config.model], True,
                     True, (), None)
    return PathSample(times=times, states=res["states"][0][0], increments=res["dW"][0])


def simulate_batch(
    config: SimConfig | Sequence[SimConfig],
    *,
    keep_paths: bool = True,
    snapshot_steps: Sequence[int] | None = None,
    weight_cutoff: float | None = None,
) -> BatchResult | list[BatchResult]:
    """Simulate config.n_paths independent paths and collect diagnostics.

    Args:
        config: experiment description, or a sequence of coupled configs
            (see :func:`require_coupled`), whose models are stepped in one
            loop on one noise draw per chunk.
        keep_paths: retain full PathSample objects (memory heavy for
            large batches; diagnostics never need them).
        snapshot_steps: grid step indices whose states are stored for all
            paths regardless of ``keep_paths``.
        weight_cutoff: when set to a grid time S in (0, T), fill
            ``log_weights`` with the Girsanov log weight of each path
            accumulated over [0, S).

    Returns:
        BatchResult with terminal points, nearest-lift offsets relative
        to the model's ``diagnostic_target``, cut-locus flags, and the
        optional extras; for a sequence, a list with one per config, each
        bitwise the result of simulating that config alone.
    """
    configs = [config] if isinstance(config, SimConfig) else list(config)
    for other in configs[1:]:
        require_coupled(configs[0], other)
    grid = configs[0]
    snapshot_list = sorted(set(int(s) for s in snapshot_steps)) if snapshot_steps else []
    for s in snapshot_list:
        if not (0 <= s <= grid.n_steps):
            raise ValueError(f"snapshot step {s} outside [0, {grid.n_steps}]")
    if weight_cutoff is not None:
        # Validate eagerly so a bad cutoff fails before any simulation work.
        girsanov.cutoff_index(grid.dt, grid.n_steps, grid.model.horizon, weight_cutoff)

    times = grid.time_grid()
    n_paths = grid.n_paths
    results = [
        BatchResult(
            config=c,
            terminal_points=np.empty((n_paths, 2)),
            limiting_lattice_points=np.empty((n_paths, 2), dtype=np.int64),
            unresolved=np.empty(n_paths, dtype=bool),
            paths=[None] * n_paths if keep_paths else None,  # type: ignore[list-item]
            log_weights=np.empty(n_paths) if weight_cutoff is not None else None,
            snapshots={s: np.empty((n_paths, 2)) for s in snapshot_list} or None,
        )
        for c in configs
    ]
    models = [c.model for c in configs]

    for lo in range(0, n_paths, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, n_paths)
        res = _run_chunk(grid, lo, hi, times, models, keep_paths, False, snapshot_list,
                         weight_cutoff)
        for j, out in enumerate(results):
            x = res["terminal"][j]
            if not (np.abs(x) <= MAX_PLANE_COORD).all():  # also NaN and inf
                raise ValueError(
                    f"{out.config.model.variant} terminal states exceed 2**52 in magnitude "
                    f"(sigma = {out.config.model.sigma}), beyond which a double cannot hold "
                    f"a torus position")
            out.terminal_points[lo:hi] = x
            out.limiting_lattice_points[lo:hi], out.unresolved[lo:hi] = nearest_offset(
                x - np.asarray(out.config.model.diagnostic_target))
            if out.log_weights is not None:
                out.log_weights[lo:hi] = res["log_weights"][j]
            for s in snapshot_list:
                out.snapshots[s][lo:hi] = res["snapshots"][s][j]
            if out.paths is not None:
                for row, idx in enumerate(range(lo, hi)):
                    out.paths[idx] = PathSample(times=times, states=res["states"][j][row])
        # Free this chunk's arrays before the next chunk allocates its own.
        del res

    return results[0] if isinstance(config, SimConfig) else results


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


# ---------------------------------------------------------------------------
# JSON round-trip of configurations (manifest "config" block)
# ---------------------------------------------------------------------------

def model_to_dict(model: DriftModel) -> dict:
    """JSON-serialisable description of a drift model: its variant and fields."""
    out: dict = {"variant": model.variant}
    for f in fields(model):
        value = getattr(model, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def model_from_dict(data: dict) -> DriftModel:
    """Inverse of :func:`model_to_dict`."""
    if not isinstance(data, dict):
        raise ValueError(f"a model block must be a JSON object; got {type(data).__name__}")
    data = dict(data)
    try:
        variant = data.pop("variant")
    except KeyError:
        raise ValueError("model description must carry a 'variant' key") from None
    cls = model_class(variant)
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(
            f"unknown key(s) {unknown} for model variant {variant!r}; "
            f"its fields are {names}"
        )
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
    if missing:
        raise ValueError(f"model variant {variant!r} needs key(s) {missing}; fields {names}")
    return cls(**data)


def model_class(variant) -> type[DriftModel]:
    """The class registered in ``VARIANTS`` as ``variant``; a ValueError for any other value."""
    if isinstance(variant, str) and variant in VARIANTS:
        return VARIANTS[variant]
    raise ValueError(f"unknown model variant {variant!r}; expected one of {sorted(VARIANTS)}")


def config_to_dict(config: SimConfig) -> dict:
    """JSON-serialisable description of a simulation config."""
    return {
        "model": model_to_dict(config.model),
        "start": list(config.start),
        "n_steps": config.n_steps,
        "seed": config.seed,
        "n_paths": config.n_paths,
    }


def config_from_dict(data: dict) -> SimConfig:
    """Inverse of :func:`config_to_dict`.

    A ``record_increments`` key, which manifests held before batch paths
    stopped carrying increments, is dropped when it is true or false.

    Raises:
        ValueError: if ``data`` is not a dict, holds a key that is not a
            :class:`SimConfig` field, or lacks a field without a default.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a config block must be a JSON object; got {type(data).__name__}")
    data = dict(data)
    legacy = data.pop("record_increments", False)
    if not isinstance(legacy, bool):
        raise ValueError(f"record_increments must be true or false; got {legacy!r}")
    names = [f.name for f in fields(SimConfig)]
    unknown = sorted(set(data) - set(names))
    missing = [f.name for f in fields(SimConfig) if f.default is MISSING and f.name not in data]
    if unknown or missing:
        raise ValueError(f"config block has unknown key(s) {unknown} and missing key(s) "
                         f"{missing}; SimConfig's fields are {names}")
    model = model_from_dict(data.pop("model"))
    return SimConfig(model=model, **data)
