"""End-to-end acceptance checks at their pinned tolerances.

Each criterion is a zero-argument callable returning a
:class:`CriterionResult`; ``run_all`` executes a selection and the CLI
``check`` subcommand prints one pass/fail line per criterion.  Seeds are
fixed constants so every run reproduces the same numbers.

The checks, in order:
  1. coupled agreement rate of the nearest-lift proposal against the
     exact bridge (sigma 0.8, 2000 pairs) inside [0.65, 0.92];
  2. terminal convergence of the proposal: 99% quantile of terminal
     torus distance <= 0.10 at dt 1e-3, non-increasing under refinement;
  3. single-endpoint bridge law at mid-time: mean and variance within
     3 standard errors of the closed form;
  4. weight martingale mean 1 and importance-sampling consistency of
     weighted moments against direct driftless simulation;
  5. uniform drift bound, fuzzed over 1e5 points, plus the pathwise
     integral bound with C_S = 0.5 / (T - S)^2;
  6. the exact bridge drift equals sigma^2 times the numerical gradient
     of the wrapped Gaussian log density (relative tolerance 1e-5);
  7. the wrapped Gaussian density integrates to 1 over the fundamental
     domain within 1e-6 (400 x 400 midpoint rule);
  8. byte-identical CSV output under re-runs, chunk sizes and noise blocks.
"""

from __future__ import annotations

import contextlib
import filecmp
import functools
import io
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import agreement_rate, terminal_convergence
from .drift import (
    EuclideanBridge,
    FreeBrownianMotion,
    ProposedBridge,
    TrueBridge,
    wrapped_gaussian_log_density,
)
from . import engine
from .engine import SimConfig, simulate_batch
from .girsanov import drift_bound_constant

__all__ = ["CriterionResult", "CRITERIA", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.index} ({self.name}): {self.details}"


def check_agreement_rate() -> CriterionResult:
    """Coupled proposal/exact-bridge agreement rate in [0.65, 0.92]."""
    a = (0.0, 0.0)
    base = dict(start=a, n_steps=1000, seed=1001, n_paths=2000)
    prop = SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=a), **base)
    true = SimConfig(model=TrueBridge(sigma=0.8, horizon=1.0, target=a), **base)
    report = agreement_rate(prop, true)
    lo, hi = 0.65, 0.92
    ok = lo <= report.rate <= hi
    return CriterionResult(
        1,
        "agreement-rate",
        ok,
        f"rate={report.rate:.4f} (wilson [{report.wilson_low:.4f}, {report.wilson_high:.4f}]) "
        f"target band [{lo}, {hi}], n_pairs={report.n_pairs}",
    )


def check_terminal_convergence() -> CriterionResult:
    """Terminal torus distance: q99 <= 0.10 at dt=1e-3, refining monotonely."""
    a = (0.0, 0.0)
    q99 = {}
    for n_steps, seed in ((250, 1002), (500, 1003), (1000, 1004)):
        cfg = SimConfig(
            model=ProposedBridge(sigma=0.8, horizon=1.0, target=a),
            start=a,
            n_steps=n_steps,
            seed=seed,
            n_paths=2000,
        )
        batch = simulate_batch(cfg)
        q99[n_steps] = terminal_convergence(batch, a).q99
    fine_ok = q99[1000] <= 0.10
    # Non-increasing under refinement, with 10% Monte Carlo slack.
    mono_ok = q99[500] <= 1.10 * q99[250] and q99[1000] <= 1.10 * q99[500]
    return CriterionResult(
        2,
        "terminal-convergence",
        fine_ok and mono_ok,
        "q99 = "
        + ", ".join(f"{1.0 / n:g}: {q99[n]:.4f}" for n in (250, 500, 1000))
        + f"; q99(dt=1e-3) <= 0.10: {fine_ok}, refinement monotone within 10%: {mono_ok}",
    )


def check_euclidean_bridge_law() -> CriterionResult:
    """Mid-time marginal of the single-endpoint bridge matches the closed form."""
    endpoint = (0.3, 0.2)
    cfg = SimConfig(
        model=EuclideanBridge(sigma=1.0, horizon=1.0, endpoint=endpoint),
        start=(0.0, 0.0),
        n_steps=1000,
        seed=1005,
        n_paths=10_000,
    )
    x = simulate_batch(cfg, keep_steps=[500]).states[:, 0]
    n = x.shape[0]
    mean_expect = np.array([0.15, 0.10])  # (t/T) * endpoint at t = 0.5
    var_expect = 0.25  # sigma^2 t (T - t) / T
    mean = x.mean(axis=0)
    var = x.var(axis=0, ddof=1)
    se_mean = x.std(axis=0, ddof=1) / np.sqrt(n)
    se_var = var * np.sqrt(2.0 / (n - 1))
    mean_ok = np.all(np.abs(mean - mean_expect) <= 3 * se_mean)
    var_ok = np.all(np.abs(var - var_expect) <= 3 * se_var)
    return CriterionResult(
        3,
        "euclidean-bridge-law",
        bool(mean_ok and var_ok),
        f"mean={mean.round(4).tolist()} vs {mean_expect.tolist()} (3se={3 * se_mean.round(5)}), "
        f"var={var.round(4).tolist()} vs {var_expect} (3se={3 * se_var.round(5)})",
    )


def check_girsanov_consistency() -> CriterionResult:
    """Weight martingale mean 1; weighted moments match direct simulation."""
    a = (0.0, 0.0)
    S = 0.5
    cfg_prop = SimConfig(
        model=ProposedBridge(sigma=1.0, horizon=1.0, target=a),
        start=a,
        n_steps=1000,
        seed=1006,
        n_paths=10_000,
    )
    cfg_free = SimConfig(
        model=FreeBrownianMotion(sigma=1.0, horizon=1.0),
        start=a,
        n_steps=1000,
        seed=1007,
        n_paths=10_000,
    )
    prop = simulate_batch(cfg_prop, keep_steps=[500], weight_cutoff=S)
    free = simulate_batch(cfg_free, keep_steps=[500])
    w = np.exp(prop.log_weights)
    n = len(w)
    mart_dev = abs(w.mean() - 1.0)
    mart_ok = mart_dev <= 3 * w.std(ddof=1) / np.sqrt(n)

    xp = prop.states[:, 0]
    xf = free.states[:, 0]
    moment_ok = True
    worst = 0.0
    for f_p, f_f in ((xp, xf), (xp**2, xf**2)):
        wf = w[:, None] * f_p
        est_p = wf.mean(axis=0)
        se_p = wf.std(axis=0, ddof=1) / np.sqrt(n)
        est_f = f_f.mean(axis=0)
        se_f = f_f.std(axis=0, ddof=1) / np.sqrt(n)
        z = np.abs(est_p - est_f) / np.sqrt(se_p**2 + se_f**2)
        worst = max(worst, float(z.max()))
        moment_ok = moment_ok and bool(np.all(z <= 3.0))
    return CriterionResult(
        4,
        "girsanov-consistency",
        bool(mart_ok and moment_ok),
        f"mean(exp(logw))={w.mean():.4f} (dev {mart_dev:.4f} <= 3se {3 * w.std(ddof=1) / np.sqrt(n):.4f}: "
        f"{mart_ok}); worst moment z-score {worst:.2f} <= 3: {moment_ok}",
    )


def check_drift_bound() -> CriterionResult:
    """Uniform and pathwise drift bounds with C_S = 0.5 / (T - S)^2."""
    a = (0.0, 0.0)
    S, T = 0.5, 1.0
    model = ProposedBridge(sigma=1.0, horizon=T, target=a)
    rng = np.random.default_rng(1008)
    t = rng.uniform(0.0, S, size=100_000)
    x = rng.uniform(-2.0, 2.0, size=(100_000, 2))
    b = model.drift(t, x)
    c_s = drift_bound_constant(model, S)
    sup_bound = np.sqrt(c_s)
    n_viol = int(np.sum(np.linalg.norm(b, axis=-1) > sup_bound * (1 + 1e-12)))

    cfg = SimConfig(model=model, start=a, n_steps=1000, seed=1009, n_paths=1000)
    batch = simulate_batch(cfg, keep_steps=range(cfg.n_steps + 1))
    times = cfg.time_grid()
    k = 500  # steps strictly before S
    limits = times[1 : k + 1] * c_s * (1 + 1e-12)
    n_path_viol = 0
    for states in batch.states:  # each path's kept states, read in place
        bi = model.drift(times[:k], states[:k])
        bi *= bi
        n_path_viol += int(np.sum(np.cumsum((0.0 + bi[:, 0] + bi[:, 1]) * cfg.dt) > limits))
    ok = n_viol == 0 and n_path_viol == 0
    return CriterionResult(
        5,
        "drift-bound",
        ok,
        f"fuzz violations {n_viol}/100000 of |b| <= {sup_bound:.4f}; "
        f"pathwise violations {n_path_viol} of sum |b|^2 dt <= t * C_S (C_S={c_s})",
    )


def check_gradient_identity() -> CriterionResult:
    """Exact bridge drift equals sigma^2 times the numerical log-density gradient."""
    a = (0.0, 0.0)
    sigma, T = 0.8, 1.0
    model = TrueBridge(sigma=sigma, horizon=T, target=a)
    rng = np.random.default_rng(1010)
    h = 1e-5
    # Candidates (t, x1, x2) drawn as rng.uniform(0, 0.9) then rng.uniform(-0.45,
    # 0.45, 2) per point would draw them: lo + (hi - lo) u, with the same doubles.
    # About half pass; a second draw follows only if fewer than 100 do.
    u = np.empty((0, 3))
    while True:
        u = np.concatenate([u, rng.random((256, 3))])
        t = 0.0 + 0.9 * u[:, 0]
        x = -0.45 + 0.9 * u[:, 1:]
        b = model.drift(t, x)
        norm_b = np.linalg.norm(b, axis=-1)
        # Keep the relative comparison well conditioned.
        keep = np.flatnonzero(norm_b >= 1e-2)[:100]
        if keep.size == 100:
            break
    t, x, b, norm_b = t[keep], x[keep], b[keep], norm_b[keep]
    # The stencil x +- h e_c as (point, c, sign, coordinate): 400 points, one call.
    e = h * np.eye(2)
    stencil = np.stack([x[:, None] + e, x[:, None] - e], axis=2)
    f = wrapped_gaussian_log_density(t[:, None, None], stencil, T, a, sigma)
    grad = (f[..., 0] - f[..., 1]) / (2 * h)
    worst = float((np.linalg.norm(sigma**2 * grad - b, axis=-1) / norm_b).max())
    ok = worst <= 1e-5
    return CriterionResult(
        6,
        "h-transform-gradient",
        ok,
        f"worst relative error {worst:.2e} over 100 points (tolerance 1e-5)",
    )


def check_density_normalization() -> CriterionResult:
    """Wrapped Gaussian integrates to 1 over the fundamental domain within 1e-6."""
    m, sigma, delta = 400, 1.0, 0.1
    targets = ((0.0, 0.0), (0.13, -0.27), (-0.5, -0.5))
    grid = (np.arange(m) + 0.5) / m - 0.5
    # The grid goes through 10 rows (4000 points) at a time, so no array of
    # the check reaches glibc's 128 KiB mmap threshold.
    rows = 10
    points = np.empty((rows * m, 2))
    points[:, 1] = np.tile(grid, rows)
    totals = [0.0] * len(targets)
    for i in range(0, m, rows):
        points[:, 0] = np.repeat(grid[i:i + rows], m)
        for j, y in enumerate(targets):
            totals[j] += np.exp(wrapped_gaussian_log_density(0.0, points, delta, y, sigma)).sum()
    worst = max(abs(total / m**2 - 1.0) for total in totals)
    ok = worst <= 1e-6
    return CriterionResult(
        7,
        "density-normalization",
        ok,
        f"max |integral - 1| = {worst:.2e} over 3 targets (tolerance 1e-6, {m}x{m} midpoint)",
    )


def check_determinism() -> CriterionResult:
    """Every command writes byte-identical CSVs across re-runs, chunk sizes and noise blocks."""
    from . import cli  # imported lazily; cli imports this module

    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        sim_dir = root / "simulate_0"
        jobs = [
            ("simulate",
             ["simulate", "--model", "proposed", "--target", "0,0", "--sigma", "0.8",
              "--T", "1", "--steps", "200", "--paths", "64", "--seed", "42",
              "--cutoff", "0.5"],
             ["paths.csv", "endpoints.csv"]),
            ("compare",
             ["compare", "--sigma", "0.8", "--T", "1", "--steps", "200", "--pairs", "32",
              "--seed", "5"],
             ["agreement.csv"]),
            ("field",
             ["field", "--model", "true-bridge", "--target", "0.1,-0.2", "--sigma", "0.8",
              "--T", "1", "--t", "0.9", "--grid", "9"],
             ["field.csv"]),
            # A finished run's log weights, recomputed from its manifest.
            ("resimulate",
             ["simulate", "--config", str(sim_dir / "manifest.json"), "--cutoff", "0.5",
              "--thin", "7"],
             ["paths.csv", "endpoints.csv"]),
        ]
        # The first two runs draw each chunk's 200 steps of noise in one block; the
        # third splits the 64 paths and 32 pairs into several chunks, and the 200
        # steps, with the weights summed over them, into 7-step blocks.
        sizes = [(engine.CHUNK_SIZE, engine.NOISE_BLOCK)] * 2 + [(16, 7)]
        draws = {size: set() for size in sizes}  # the steps of each noise draw, by layout
        for name, args, files in jobs:
            dirs = [root / f"{name}_{i}" for i in range(3)]
            for d, (chunk, block) in zip(dirs, sizes):
                saved = engine.CHUNK_SIZE, engine.NOISE_BLOCK, engine._chunk_increments
                engine.CHUNK_SIZE, engine.NOISE_BLOCK = chunk, block
                engine._chunk_increments = functools.partial(
                    _record_draw, draws[chunk, block], saved[2])
                try:  # each run's own "wrote ..." line is not part of check's output
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = cli.main(args + ["--out", str(d)])
                finally:
                    engine.CHUNK_SIZE, engine.NOISE_BLOCK, engine._chunk_increments = saved
                if rc != 0:
                    return CriterionResult(8, "determinism", False, f"{name} run failed (exit {rc})")
            for f in files:
                for other in dirs[1:]:
                    if not filecmp.cmp(dirs[0] / f, other / f, shallow=False):
                        mismatches.append(f"{name}/{f}")
    ok = not mismatches
    return CriterionResult(
        8,
        "determinism",
        ok,
        "all commands byte-identical across re-runs, chunk sizes {%s} and noise blocks of {%s} "
        "steps" % (",".join(str(chunk) for chunk, _ in draws),
                   ",".join(str(max(seen)) for seen in draws.values()))
        if ok else f"mismatch in {mismatches}",
    )


def _record_draw(seen: set, draw, streams, out, dt):
    """``draw(streams, out, dt)``, once the steps of the block ``out`` are added to ``seen``."""
    seen.add(out.shape[1])
    return draw(streams, out, dt)


CRITERIA: list[Callable[[], CriterionResult]] = [
    check_agreement_rate,
    check_terminal_convergence,
    check_euclidean_bridge_law,
    check_girsanov_consistency,
    check_drift_bound,
    check_gradient_identity,
    check_density_normalization,
    check_determinism,
]


def run_all(indices: list[int] | None = None) -> list[CriterionResult]:
    """Run the selected criteria (1-based indices; all by default)."""
    selected = indices or list(range(1, len(CRITERIA) + 1))
    results = []
    for i in selected:
        if not (1 <= i <= len(CRITERIA)):
            raise ValueError(f"criterion index must be in [1, {len(CRITERIA)}]; got {i}")
        results.append(CRITERIA[i - 1]())
    return results
