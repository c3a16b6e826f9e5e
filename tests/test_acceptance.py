"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints its pass/fail line (visible with ``pytest -s`` or in the
failure report) and asserts the criterion outcome.  The same checks back
the ``torusbridge check`` command.
"""

import tracemalloc

import numpy as np
import pytest

from torusbridge import acceptance
from torusbridge.drift import TrueBridge


@pytest.mark.parametrize(
    "runner",
    acceptance.CRITERIA,
    ids=[f"criterion-{i}-{fn.__name__.removeprefix('check_')}"
         for i, fn in enumerate(acceptance.CRITERIA, start=1)],
)
def test_criterion(runner):
    result = runner()
    print(result.line())
    assert result.passed, result.line()


def test_determinism_check_prints_nothing(capsys):
    """Criterion 8's in-process CLI runs keep their own output lines out of check's."""
    assert acceptance.check_determinism().passed
    assert capsys.readouterr().out == ""


def test_density_normalization_builds_the_grid_in_row_blocks():
    """Criterion 7 takes its 400 x 400 grid 10 rows at a time, so it peaks
    below 2 MiB; the whole grid's points and meshgrids alone take 4.9 MiB."""
    tracemalloc.start()
    try:
        result = acceptance.check_density_normalization()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result.line()
    assert peak < 2 * 2**20


def test_drift_bound_reads_the_kept_paths_in_place():
    """Criterion 5 sums each kept path's |b|^2 dt from its own states, so it
    peaks below 25 MiB; stacking the 1000 paths into one array took 47.7 MiB."""
    tracemalloc.start()
    try:
        result = acceptance.check_drift_bound()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result.line()
    assert peak < 25 * 2**20


def _gradient_identity_loop():
    """Criterion 6 as a loop of single-point calls, the reference for its
    batched pass: per kept point, its candidate index, t, x, drift and the
    log densities at x + h e_c and x - h e_c."""
    a = (0.0, 0.0)
    sigma, T = 0.8, 1.0
    model = TrueBridge(sigma=sigma, horizon=T, target=a)
    rng = np.random.default_rng(1010)
    h = 1e-5
    kept = []
    worst = 0.0
    candidate = -1
    while len(kept) < 100:
        t = rng.uniform(0.0, 0.9)
        x = rng.uniform(-0.45, 0.45, size=2)
        candidate += 1
        b = model.drift(t, x)
        norm_b = np.linalg.norm(b)
        if norm_b < 1e-2:
            continue
        grad = np.empty(2)
        f = np.empty((2, 2))
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            f[c] = (acceptance.wrapped_gaussian_log_density(t, x + e, T, a, sigma),
                    acceptance.wrapped_gaussian_log_density(t, x - e, T, a, sigma))
            grad[c] = (f[c, 0] - f[c, 1]) / (2 * h)
        worst = max(worst, float(np.linalg.norm(sigma**2 * grad - b) / norm_b))
        kept.append((candidate, t, x, b, f))
    return kept, worst


def test_gradient_identity_batch_equals_the_point_loop(monkeypatch):
    """Criterion 6's one drift call and one density call check the loop's 100
    points with the loop's drifts and log densities, bit for bit."""
    kept, worst = _gradient_identity_loop()
    drift_calls, density_calls = [], []
    drift, density = TrueBridge.drift, acceptance.wrapped_gaussian_log_density

    def record_drift(self, t, x):
        drift_calls.append((t, x, drift(self, t, x)))
        return drift_calls[-1][2]

    def record_density(s, x, t, y, sigma):
        density_calls.append((s, x, density(s, x, t, y, sigma)))
        return density_calls[-1][2]

    monkeypatch.setattr(TrueBridge, "drift", record_drift)
    monkeypatch.setattr(acceptance, "wrapped_gaussian_log_density", record_density)
    result = acceptance.check_gradient_identity()
    assert result.details == "worst relative error 1.80e-09 over 100 points (tolerance 1e-5)"
    assert f"{worst:.2e}" == "1.80e-09"
    assert len(drift_calls) == len(density_calls) == 1

    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    idx, t, x, b, f = (list(column) for column in zip(*kept))
    t_all, x_all, b_all = drift_calls[0]
    s, stencil, f_batch = density_calls[0]
    np.testing.assert_array_equal(bits(t_all[idx]), bits(t))
    np.testing.assert_array_equal(bits(x_all[idx]), bits(x))
    np.testing.assert_array_equal(bits(b_all[idx]), bits(b))
    np.testing.assert_array_equal(bits(s.reshape(-1)), bits(t))
    np.testing.assert_array_equal(bits(f_batch), bits(f))
    h = np.array([[1e-5, 0.0], [0.0, 1e-5]])
    np.testing.assert_array_equal(
        bits(stencil), bits([[[xi + e, xi - e] for e in h] for xi in x]))
