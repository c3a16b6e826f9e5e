"""Euler-Maruyama engine with reproducible per-path noise streams.

The integrator is the explicit left-point scheme

    x_{i+1} = x_i + b(t_i, x_i) dt + sigma dW_i,

on the equidistant grid t_i = i T / n_steps, with dW_i independent
Normal(0, dt) increments.  One unchecked helper spells the update for both
:func:`euler_step` and the batch step loop.

Determinism contract
--------------------
Every path owns an independent noise stream derived only from
``(seed, path_index)``: the generator
``default_rng(SeedSequence(entropy=seed, spawn_key=(path_index,)))``, a
spawned ``numpy.random.SeedSequence`` child.  A chunk computes the seed
words of all its streams in one numpy pass of SeedSequence's hash rather
than hashing one SeedSequence per path, with the same bits.
Consequences, all relied on by tests:

  * the same ``(seed, path_index)`` always reproduces the same path,
    bit for bit, whether simulated alone or inside any batch;
  * batch results do not depend on the chunk size, nor on whether half
    of the batch runs in a forked child;
  * two configurations sharing ``(seed, n_steps, horizon)`` consume the
    identical increment sequence per path index, which is how coupled
    model comparisons are driven.

Batches run one fixed-size chunk of paths at a time; each chunk touches only
its own streams and writes straight into its own rows of the batch's arrays,
so the results do not depend on which process runs a chunk either, nor on
whether the batch runs whole or as a range of its paths.  A batch large
enough to pay for a fork runs its second half of paths in a forked child, in
its own chunks, while this process runs the first; the child sends back the
raw bytes of its rows through an anonymous file, and this process reads them
into the same rows, refusing a file of any other size.
:func:`_forked` alone decides whether a child can run, and runs one at a
time; when none can, the batch runs whole here.  The results are then
checked in path order, one ``CHUNK_SIZE`` range at a time, and the first bad
path's error is raised, so a bad run raises the error of a one-process run
whatever the split.  Within a chunk the noise is drawn in blocks of steps
into one reused buffer of at most ``CHUNK_SIZE * NOISE_BLOCK`` increment
pairs, so a chunk narrower than ``CHUNK_SIZE`` draws more steps per block;
each stream continues where its last block stopped, and a numpy
``Generator`` keeps no cached normal, so this gives the bits of a
whole-stream draw.  Chunking and blocking thus bound the memory in flight
without changing any output byte: with no step kept, a chunk holds one
noise block and its current states, whatever the step count.  Each step
before the weight cutoff adds its Girsanov term to the running log weights
just before the state moves, in step order and so with the bits of
:func:`girsanov.log_girsanov_weight` for the same path.  States are stored
only at the steps asked for, and the whole increment array exists only in
:func:`wiener_increments`, which :func:`simulate_path` attaches.  A coupled
batch draws each block once for all its models and steps them in one loop;
the grid is validated once per batch and the log weights once per chunk,
not once per step.
"""

from __future__ import annotations

import contextlib
import numbers
import os
import signal
import tempfile
import threading
from dataclasses import MISSING, dataclass, fields, replace
from typing import NoReturn, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from numpy.typing import ArrayLike

from . import girsanov
from .drift import MIN_TIME_TO_GO, VARIANTS, DriftModel, ProposedBridge, _finite, drift
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

# Paths per chunk, and steps per noise draw of a full chunk: a chunk of w paths
# draws min(n_steps, CHUNK_SIZE * NOISE_BLOCK // w) steps per block, so its noise
# buffer never exceeds the CHUNK_SIZE x NOISE_BLOCK pairs, 2 MiB, of a full chunk.
# Besides the states kept at the steps asked for, a chunk's arrays in flight are
# that buffer and its (w, 2) states and weights; no output byte depends on either
# size.  Wide chunks spread the step loop's per-call numpy overhead over more
# paths; short blocks cost more per-stream draw calls, about 1.4 us each: into
# one buffer, drawing a 2048 x 1000 chunk took about 48 % longer in 64-step
# blocks than in one whole draw and 23 % longer in 128-step ones (1024 paths:
# 45 % and 19 %), but 128 x 2048 would double the buffer to 4 MiB; a chunk of
# 1024 paths, such as a forked half of a full one, draws 128-step blocks into
# the same 2 MiB.
CHUNK_SIZE = 2048
NOISE_BLOCK = 64


def _check_int(name: str, value, lo: int) -> int:
    """``value`` as an int, once checked to be an integral number in [lo, 2**64)."""
    if not (_finite(value) and int(value) == value and lo <= value < 2**64):
        raise ValueError(f"{name} must be an integer in [{lo}, 2**64); got {value}")
    return int(value)


def _path_index(i, n_paths: float = float("inf")) -> int:
    """``i`` as an int, once checked to be an integer in [0, n_paths) and not a bool."""
    if isinstance(i, bool) or not (isinstance(i, numbers.Integral) and 0 <= i < n_paths):
        raise ValueError(f"path_index must be in [0, {n_paths}); got {i!r}")
    return int(i)


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
        for name, lo in (("n_steps", 1), ("n_paths", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), lo))
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
    """One discretised trajectory, or the states of it at some grid steps.

    ``states`` holds the plane states at the grid times ``times``, one row
    each.  A path of :func:`simulate_path` holds every step: ``times`` has
    length n_steps + 1 with times[0] = 0 and times[-1] = T, states[0] is the
    configured start, and ``increments`` holds the driving dW per step,
    shape (n_steps, 2), from which the recursion can be replayed exactly.
    Batch paths hold the states of the batch's kept steps only.
    """

    times: np.ndarray
    states: np.ndarray
    increments: np.ndarray | None = None


@dataclass(frozen=True)
class BatchResult:
    """Per-path terminal diagnostics of a batch run, and its kept states.

    ``limiting_lattice_points`` holds, per path, the integer offset k such
    that the nearest lift of the diagnostic target to the terminal state
    is target + k; rows where the terminal state sits on the cut locus
    (no unique nearest lift) are flagged in ``unresolved`` and their k is
    meaningless.  ``kept_steps`` holds the grid step indices whose states
    were kept, in step order, and ``states`` those states, shape
    (n_paths, len(kept_steps), 2); both are None when no step was kept.
    ``log_weights`` is filled when a weight cutoff was requested.  A run of
    a range of the config's paths has one row per path of the range, so
    ``n_paths`` is the range's length.
    """

    config: SimConfig
    terminal_points: np.ndarray
    limiting_lattice_points: np.ndarray
    unresolved: np.ndarray
    states: np.ndarray | None = None
    log_weights: np.ndarray | None = None
    kept_steps: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.terminal_points.shape[0]

    @property
    def paths(self) -> list[PathSample] | None:
        """The kept paths, :class:`PathSample` row views of ``states`` sharing one
        ``times``, the grid times of ``kept_steps``."""
        if self.states is None:
            return None
        times = self.config.time_grid()[self.kept_steps]
        return [PathSample(times=times, states=row) for row in self.states]


def euler_step(
    t: float, x: ArrayLike, dt: float, dW: ArrayLike, model: DriftModel
) -> np.ndarray:
    """One explicit Euler-Maruyama update x + b(t, x) dt + sigma dW.

    Vectorised over states of shape (..., 2); dW must broadcast against x.

    Raises:
        ValueError if the step leaves [0, T] or dt <= 0, or if x or dW is
        not numeric, has a trailing dimension other than 2 or holds a NaN or
        infinite coordinate.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0; got {dt}")
    horizon = model.horizon
    if not (0 <= t and t + dt <= horizon * (1.0 + 1e-9) + 1e-12):  # NaN fails too
        raise ValueError(f"step [{t}, {t + dt}] leaves the horizon [0, {horizon}]")
    noise = model.sigma * as_point(dW, "dW")
    arr = as_point(x, "x")
    # One point against stacked increments steps as that many copies of the point.
    return _step(t, np.broadcast_to(arr, np.broadcast_shapes(arr.shape, noise.shape)), dt,
                 noise, model)


def _step(t: float, x: np.ndarray, dt: float, noise: np.ndarray, model: DriftModel) -> np.ndarray:
    """The update x + b(t, x) dt + noise with no checks, for :func:`euler_step`
    and the step loop alike; ``noise`` is sigma dW and no wider than ``x``.

    The sum is built in the drift's own array, with the bits of
    ``x + b * dt + noise``."""
    b = drift(t, x, model)
    b *= dt
    b += x
    b += noise
    return b


# numpy's SeedSequence hash (``bit_generator.pyx``, after O'Neill's seed_seq):
# the start and multiplier of its two hash-constant sequences, and its mixer.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` with its running hash constant, on ints or
    uint64 arrays holding 32-bit words."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words, on ints or uint64 arrays."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _seed_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, 4) uint64 rows ``SeedSequence(entropy=seed, spawn_key=(i,))
    .generate_state(4, np.uint64)`` for the path indices i in [lo, hi), at once.

    The seed's words, padded to the pool size of 4, are hashed into the pool
    once; only the index words are mixed per row, one word below 2**32 and two
    below 2**64, the bound on ``n_paths``."""
    hash_a = _hasher(_INIT_A, _MULT_A)
    pool = [hash_a(word) for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    index = np.arange(lo, hi, dtype=np.uint64)
    pool = [_mix(p, hash_a(index & _MASK32)) for p in pool]
    if hi > 2**32:
        high = index >> 32
        pool = [np.where(high > 0, _mix(p, hash_a(high)), p) for p in pool]
    hash_b = _hasher(_INIT_B, _MULT_B)
    words = [hash_b(pool[k % 4]) for k in range(8)]
    return np.stack([low | high << 32 for low, high in zip(words[::2], words[1::2])], axis=1)


class _SeedWords(ISeedSequence):
    """Hands a bit generator one precomputed row of :func:`_seed_words`."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(seed: int, lo: int, hi: int) -> list[np.random.Generator]:
    """The noise streams of paths [lo, hi): for each index i, the generator
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``, bit for bit."""
    return [np.random.Generator(np.random.PCG64(_SeedWords(row)))
            for row in _seed_words(seed, lo, hi)]


def wiener_increments(seed: int, path_index: int, n_steps: int, dt: float) -> np.ndarray:
    """The (n_steps, 2) increment array dW driving path ``path_index``, drawn from the
    path's ``SeedSequence`` child itself; a ValueError unless the seed is 64-bit, the
    index and n_steps integers >= 0 and dt finite and > 0."""
    seed, i = _check_int("seed", seed, 0), _path_index(path_index)
    n_steps = _check_int("n_steps", n_steps, 0)
    if not (_finite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0; got {dt!r}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
    return rng.standard_normal((n_steps, 2)) * np.sqrt(dt)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# True in the block of a _forked that forked, and in its child, which
# inherits it: a command never runs more than two processes.
_busy = False


@contextlib.contextmanager
def _forked(work, what: str, dir=None):
    """Run ``work(out=out)`` in a forked child, ``out`` an anonymous binary file
    in ``dir``, while the ``with`` block runs here.

    Yields ``join``, which waits for the child and returns ``out`` at its
    start.  Yields None, and forks nothing, when ``work`` is None, inside
    another such block whose child was forked or inside that child, when
    ``os.fork`` is missing, when fewer than two CPUs are usable or another
    Python thread runs (a fork copies only the calling thread and the locks
    the others hold), or when ``os.fork`` fails.  If the child fails,
    ``join`` raises ``OSError`` with the child's one-line message, or with
    ``what`` the child was doing and how it ended.  If the block ends before
    ``join`` returns (an error here, or a generator closed early), the child
    is killed and reaped, so no process outlives the block.
    """
    global _busy
    if (work is None or _busy or not hasattr(os, "fork") or _usable_cpus() < 2
            or threading.active_count() > 1):
        yield None
        return
    with tempfile.TemporaryFile(dir=dir) as out:
        _busy = True
        try:
            pid = os.fork()
        except OSError:
            _busy = False
            yield None
            return
        if not pid:
            _child(work, out)

        def join():
            nonlocal pid
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = 0
            out.seek(0)
            if code == 1:
                raise OSError(out.read().decode(errors="replace"))
            if code:
                ended = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
                raise OSError(f"the process {what} {ended}")
            return out

        try:
            yield join
        finally:
            _busy = False
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(work, out) -> NoReturn:
    """Run ``work(out=out)`` in a forked child and end the child: status 0 when
    done, else 1 with the error's one-line message as ``out``'s whole content
    (2 if even that fails).

    The child leaves only through ``os._exit``, so it flushes none of the
    parent's buffers a second time, runs no exit handler and never returns
    into its caller.
    """
    try:
        work(out=out)
        out.flush()
        os._exit(0)
    except Exception as exc:
        out.seek(0)
        out.truncate()
        out.write((str(exc) or type(exc).__name__).encode())
        out.flush()
        os._exit(1)
    finally:
        os._exit(2)


# A batch splits when each half holds _MIN_SPLIT_PATHS paths and it takes at
# least _MIN_SPLIT_WORK path-steps summed over its models.  The fork, the
# child's exit and its results' trip back cost about 10 ms, and the step loop's
# per-step overhead does not halve.  Medians of 9 batches, serial against
# split, in a process holding the CLI (2-vCPU Xeon): 2048 x 200 steps took
# 28.7 against 33.8 ms; 1000 x 500 with kept paths and weights 50 against
# 46-51 ms; 1024 x 1000 64-68 against 48-49 ms; 256 x 4000 90-95 against
# 73-80 ms, but 128 x 4000 63 against 67 ms.
_MIN_SPLIT_PATHS = 128
_MIN_SPLIT_WORK = 1_000_000


def _chunk_increments(streams, out: np.ndarray, dt: float) -> np.ndarray:
    """Fill ``out``, shape (paths, steps, 2), with the next increments of each
    path's stream, one stream per row in order, and return it."""
    for row, rng in zip(out, streams):
        rng.standard_normal(out=row)
    out *= np.sqrt(dt)
    return out


def _run_chunk(config: SimConfig, lo: int, hi: int, times: np.ndarray,
               rows: Sequence[BatchResult], cutoff_step: int) -> None:
    """Step every model over paths [lo, hi) of ``config``'s grid on shared noise,
    drawn as many steps at a time as fill ``CHUNK_SIZE * NOISE_BLOCK`` increment
    pairs (all of them, if they fit), into ``rows``, one result per model
    narrowed to these paths (:func:`_rows`): their terminal states, their
    states at the kept steps, each stored in its slot as the step is reached,
    and their log weights, which the caller checks for overflow.

    Each block is drawn, then stepped.  A step copies its noise column through a
    16-byte view of the block into one reused (paths, 2) buffer, a pair per item,
    and scales it by sigma in place.  At each step before ``cutoff_step``, the
    grid index of the weight cutoff (0 for no weights), the unchecked kernel
    :func:`girsanov.path_log_weights` adds that step's term to each model's
    log weights in place, zero at the start, just before the model's state moves.
    """
    dt, sigma, n = config.dt, config.model.sigma, config.n_steps
    per_block = min(n, CHUNK_SIZE * NOISE_BLOCK // (hi - lo))
    streams = _streams(config.seed, lo, hi)
    dW = np.empty((hi - lo, per_block, 2))
    noise = np.empty((hi - lo, 2))
    noise_pairs, dW_pairs = noise.view("V16")[:, 0], dW.view("V16")[..., 0]
    models = [out.config.model for out in rows]
    xs = [np.full((hi - lo, 2), config.start) for _ in rows]
    kept = rows[0].kept_steps
    slots = {} if kept is None else {s: j for j, s in enumerate(kept.tolist())}
    for first in range(0, n, per_block):
        last = min(first + per_block, n)
        block = _chunk_increments(streams, dW[:, :last - first], dt)
        for i, t in enumerate(times[first:last], first):
            b = i - first
            noise_pairs[...] = dW_pairs[:, b]
            noise *= sigma
            slot = slots.get(i)
            for j, (out, model) in enumerate(zip(rows, models)):
                if slot is not None:
                    out.states[:, slot] = xs[j]
                if i < cutoff_step:
                    girsanov.path_log_weights(t, xs[j], block[:, b], dt, model, out.log_weights)
                xs[j] = _step(t, xs[j], dt, noise, model)
    slot = slots.get(n)
    for out, x in zip(rows, xs):
        out.terminal_points[...] = x
        if slot is not None:
            out.states[:, slot] = x


def _results(configs: Sequence[SimConfig], n_paths: int, kept_steps: np.ndarray | None,
             weighted: bool) -> list[BatchResult]:
    """One unfilled result of ``n_paths`` paths per config, keeping the states
    of the grid steps ``kept_steps`` (None: none)."""
    return [BatchResult(
        config=c,
        terminal_points=np.empty((n_paths, 2)),
        limiting_lattice_points=np.empty((n_paths, 2), dtype=np.int64),
        unresolved=np.empty(n_paths, dtype=bool),
        states=None if kept_steps is None else np.empty((n_paths, len(kept_steps), 2)),
        log_weights=np.zeros(n_paths) if weighted else None,  # the step terms' sums
        kept_steps=kept_steps,
    ) for c in configs]


def _rows(results: Sequence[BatchResult], lo: int, hi: int) -> list[BatchResult]:
    """``results`` narrowed to the row views of paths [lo, hi) that :func:`_run_chunk` fills."""
    return [replace(out, terminal_points=out.terminal_points[lo:hi],
                    states=None if out.states is None else out.states[lo:hi],
                    log_weights=None if out.log_weights is None else out.log_weights[lo:hi])
            for out in results]


def simulate_path(config: SimConfig, path_index: int = 0) -> PathSample:
    """Simulate a single path from its own (seed, path_index) stream.

    Returns the full trajectory with its driving increments.  The states
    are bitwise those of the same path index inside any batch of the same
    config.
    """
    path_index = _path_index(path_index, config.n_paths)
    times = config.time_grid()
    rows = _results([config], 1, np.arange(config.n_steps + 1), False)
    _run_chunk(config, path_index, path_index + 1, times, rows, 0)
    return PathSample(times=times, states=rows[0].states[0], increments=wiener_increments(
        config.seed, path_index, config.n_steps, config.dt))


def _check_paths(results: Sequence[BatchResult], lo: int, hi: int) -> None:
    """Refuse rows [lo, hi) of ``results`` in one line if a path there has a
    log weight that overflowed or a terminal state beyond 2**52: the first
    such path's error, model by model its weight's and then its terminal
    state's, so the line does not depend on how the rows were split."""
    ok = np.ones(hi - lo, dtype=bool)
    for out in results:
        ok &= (np.abs(out.terminal_points[lo:hi]) <= MAX_PLANE_COORD).all(axis=1)  # NaN too
        if out.log_weights is not None:
            ok &= np.isfinite(out.log_weights[lo:hi])
    if ok.all():
        return
    p = lo + int(ok.argmin())
    for out in results:
        if out.log_weights is not None:
            girsanov._check_overflow(out.log_weights[p], out.config.model.sigma)
        if not (np.abs(out.terminal_points[p]) <= MAX_PLANE_COORD).all():
            raise ValueError(
                f"{out.config.model.variant} terminal states exceed 2**52 in magnitude "
                f"(sigma = {out.config.model.sigma}), beyond which a double cannot hold "
                f"a torus position")


def simulate_batch(
    config: SimConfig | Sequence[SimConfig],
    *,
    keep_steps: Sequence[int] | None = None,
    weight_cutoff: float | None = None,
    rows: range | None = None,
) -> BatchResult | list[BatchResult]:
    """Simulate config.n_paths independent paths, or the range ``rows`` of
    them, and collect diagnostics.

    A run of at least ``_MIN_SPLIT_WORK`` path-steps, summed over its
    models, with ``_MIN_SPLIT_PATHS`` paths per half, runs its second half
    of paths in a forked child when :func:`_forked` can start one, with the
    same results; if that child fails or sends back results of the wrong
    size, this raises a one-line ``OSError``.

    Args:
        config: experiment description, or a sequence of coupled configs
            (see :func:`require_coupled`), whose models are stepped in one
            loop on one noise draw per chunk.
        keep_steps: the grid step indices, integers in [0, n_steps], whose
            states are kept for every path, in ``states`` in step order, with
            duplicates collapsed; None, the default, or an empty sequence
            keeps none.  Each kept step costs 16 bytes per path; diagnostics
            never need them.
        weight_cutoff: when set to a grid time S in (0, T), fill
            ``log_weights`` with the Girsanov log weight of each path
            accumulated over [0, S).
        rows: the path indices to run, a nonempty ``range`` of step 1
            within [0, n_paths); the default is every path.  Row j of each
            result array is then path ``rows[j]``, bitwise as in the whole
            batch, and the checks run in path order over these paths only.

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
    steps = [] if keep_steps is None else list(keep_steps)
    for s in steps:
        if not (_finite(s) and int(s) == s and 0 <= s <= grid.n_steps):
            raise ValueError(f"kept step must be an integer in [0, {grid.n_steps}]; got {s!r}")
    kept = np.array(sorted({int(s) for s in steps}), dtype=np.intp) if steps else None
    # Validate eagerly so a bad cutoff or range fails before any simulation work.
    cutoff_step = 0 if weight_cutoff is None else girsanov.cutoff_index(
        grid.dt, grid.n_steps, grid.model.horizon, weight_cutoff)
    rows = range(grid.n_paths) if rows is None else rows
    if not (isinstance(rows, range) and rows.step == 1
            and 0 <= rows.start < rows.stop <= grid.n_paths):
        raise ValueError(f"rows must be a nonempty range of step 1 within "
                         f"[0, {grid.n_paths}); got {rows!r}")

    times = grid.time_grid()
    first, end = rows.start, rows.stop
    n_rows = end - first
    results = _results(configs, n_rows, kept, weight_cutoff is not None)

    split = first + n_rows // 2
    if n_rows // 2 < _MIN_SPLIT_PATHS or n_rows * grid.n_steps * len(configs) < _MIN_SPLIT_WORK:
        split = end
    what = f"simulating paths {split} to {end - 1}"
    # The child's rows of every array it fills, which it sends back as raw bytes.
    half = [a[split - first:] for out in results
            for a in (out.terminal_points, out.log_weights, out.states) if a is not None]

    def run_half(out):  # the child's work
        for lo in range(split, end, CHUNK_SIZE):
            hi = min(lo + CHUNK_SIZE, end)
            _run_chunk(grid, lo, hi, times, _rows(results, lo - first, hi - first), cutoff_step)
        out.writelines(half)

    with _forked(run_half if split < end else None, what) as join:
        if join is None:
            split = end
        for lo in range(first, split, CHUNK_SIZE):
            hi = min(lo + CHUNK_SIZE, split)
            _run_chunk(grid, lo, hi, times, _rows(results, lo - first, hi - first), cutoff_step)
        if join:
            # Raw bytes carry no framing, so they must fill the child's rows exactly.
            child = join()
            if any(child.readinto(a) < a.nbytes for a in half) or child.read(1):
                raise OSError(f"the process {what} left {os.fstat(child.fileno()).st_size} "
                              f"bytes of results, not {sum(a.nbytes for a in half)}")

    for lo in range(0, n_rows, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, n_rows)
        _check_paths(results, lo, hi)
        for out in results:
            out.limiting_lattice_points[lo:hi], out.unresolved[lo:hi] = nearest_offset(
                out.terminal_points[lo:hi] - np.asarray(out.config.model.diagnostic_target))

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
    data = _json_object(data, "a model block")
    if "variant" not in data:
        raise ValueError("model description must carry a 'variant' key")
    variant = data.pop("variant")
    cls = model_class(variant)
    return cls(**_block_fields(cls, data, f"model variant {variant!r}"))


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

    Raises:
        ValueError: if ``data`` or its model block is not a dict, holds a
            key that is neither a field of its class nor a retired key with
            a value that loads, or lacks a field without a default.
    """
    data = _block_fields(SimConfig, _json_object(data, "a config block"), "SimConfig")
    return SimConfig(**{**data, "model": model_from_dict(data["model"])})


# Keys that older manifests hold for fields since retired, per class: each with a test
# for the values that give today's behaviour, and those values as an error names them.
# :func:`_block_fields` drops such a key when it holds one of them and refuses it otherwise.
_RETIRED_KEYS = {
    ProposedBridge: {
        "cut_locus_tol": (lambda v: _finite(v) and v == 0, "0"),  # 0: ties are exact
        "scale_by_sigma_sq": (lambda v: v is False, "false"),  # false: no sigma^2 factor
    },
    # Batch paths no longer carry their increments, whichever the key asked for.
    SimConfig: {"record_increments": (lambda v: isinstance(v, bool), "true or false")},
}


def _json_object(data, what: str) -> dict:
    """A copy of ``data``, once checked to be a JSON object; ``what`` names it in the error."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object; got {type(data).__name__}")
    return dict(data)


def _block_fields(cls: type, data: dict, label: str) -> dict:
    """The keyword arguments of ``cls`` that the manifest block ``data`` holds, once its
    retired keys are dropped and every other key is checked to be a field of ``cls``, with
    no field that lacks a default missing; ``label`` names ``cls`` in the errors."""
    for key, (keeps, wanted) in _RETIRED_KEYS.get(cls, {}).items():
        if key in data and not keeps(value := data.pop(key)):
            raise ValueError(f"{key} must be {wanted}; got {value!r}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} for {label}; its fields are {names}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
    if missing:
        raise ValueError(f"{label} needs key(s) {missing}; fields {names}")
    return data
