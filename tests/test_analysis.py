"""Tests for the batch statistics: convergence, histograms, agreement, fields."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusbridge import (
    BatchResult,
    EuclideanBridge,
    FreeBrownianMotion,
    ProposedBridge,
    SimConfig,
    TrueBridge,
    agreement_rate,
    drift_field,
    lattice_endpoint_histogram,
    simulate_batch,
    terminal_convergence,
    terminal_distances,
)
import torusbridge
from torusbridge import analysis, engine

A0 = (0.0, 0.0)


def _cfg(model, **kw):
    base = dict(start=A0, n_steps=100, seed=0, n_paths=1)
    base.update(kw)
    return SimConfig(model=model, **base)


class TestTerminalConvergence:
    def test_plane_metric_matches_torus_metric_near_a_lift(self):
        """For a bridge to a lift of the target the torus distance is the plane
        distance once the terminal error is well inside one square."""
        cfg = _cfg(EuclideanBridge(sigma=0.5, horizon=1.0, endpoint=A0),
                   n_steps=1000, seed=60, n_paths=500)
        batch = simulate_batch(cfg)
        d_torus = terminal_distances(batch, A0)
        d_plane = np.linalg.norm(batch.terminal_points - A0, axis=-1)
        np.testing.assert_allclose(d_torus, d_plane, atol=1e-12)
        summary = terminal_convergence(batch, A0)
        assert summary.q50 <= summary.q90 <= summary.q99

    def test_refinement_shrinks_terminal_error(self):
        """Halving dt shrinks the 99% terminal quantile (10% slack)."""
        q99 = []
        for n_steps, seed in ((250, 61), (500, 62), (1000, 63)):
            cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                       n_steps=n_steps, seed=seed, n_paths=1000)
            batch = simulate_batch(cfg)
            q99.append(terminal_convergence(batch, A0).q99)
        assert q99[1] <= 1.10 * q99[0]
        assert q99[2] <= 1.10 * q99[1]

    def test_free_process_median_distance_is_uniform_like(self):
        """After sigma^2 T = 1 the projected terminal point is uniform to
        high accuracy, whose median distance to the target is sqrt(1/(2 pi))
        (about 0.3989, from the area of the disc of mass 1/2)."""
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0),
                   n_steps=200, seed=2101, n_paths=4000)
        batch = simulate_batch(cfg)
        med = terminal_convergence(batch, A0).q50
        assert med == pytest.approx(np.sqrt(1.0 / (2.0 * np.pi)), abs=0.012)

    def test_empty_batch_rejected(self):
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), seed=1)
        empty = BatchResult(
            config=cfg,
            terminal_points=np.empty((0, 2)),
            limiting_lattice_points=np.empty((0, 2), dtype=np.int64),
            unresolved=np.empty(0, dtype=bool),
        )
        with pytest.raises(ValueError):
            terminal_convergence(empty, A0)


class TestEndpointHistogram:
    def test_counts_conserve_paths(self):
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                   n_steps=200, seed=64, n_paths=500)
        hist = lattice_endpoint_histogram(simulate_batch(cfg))
        assert sum(hist.counts.values()) + hist.n_unresolved == hist.n_total == 500

    def test_single_endpoint_bridge_fills_one_bin(self):
        """A bridge to the plane point (1, 0) always resolves to offset (1, 0)
        relative to the projected endpoint."""
        cfg = _cfg(EuclideanBridge(sigma=0.5, horizon=1.0, endpoint=(1.0, 0.0)),
                   n_steps=1000, seed=65, n_paths=300)
        hist = lattice_endpoint_histogram(simulate_batch(cfg))
        assert hist.counts == {(1, 0): 300}
        assert hist.mass((1, 0)) == 1.0


class TestAgreementRate:
    def test_model_coupled_with_itself_agrees_fully(self):
        kw = dict(start=A0, n_steps=200, seed=66, n_paths=50)
        cfg = SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=A0), **kw)
        report = agreement_rate(cfg, cfg)
        assert report.rate == 1.0
        assert report.n_agree == report.n_pairs == 50

    def test_single_pair_rate_is_zero_or_one(self):
        kw = dict(start=A0, n_steps=200, seed=67, n_paths=1)
        cfg_a = SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=A0), **kw)
        cfg_b = SimConfig(model=TrueBridge(sigma=0.8, horizon=1.0, target=A0), **kw)
        assert agreement_rate(cfg_a, cfg_b).rate in (0.0, 1.0)

    def test_small_noise_agreement_is_near_total(self):
        kw = dict(start=A0, n_steps=500, seed=68, n_paths=200)
        cfg_a = SimConfig(model=ProposedBridge(sigma=0.1, horizon=1.0, target=A0), **kw)
        cfg_b = SimConfig(model=TrueBridge(sigma=0.1, horizon=1.0, target=A0), **kw)
        assert agreement_rate(cfg_a, cfg_b).rate >= 0.99

    def test_wilson_interval_brackets_the_rate(self):
        kw = dict(start=A0, n_steps=500, seed=69, n_paths=300)
        cfg_a = SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=A0), **kw)
        cfg_b = SimConfig(model=TrueBridge(sigma=0.8, horizon=1.0, target=A0), **kw)
        report = agreement_rate(cfg_a, cfg_b)
        assert 0.0 < report.wilson_low < report.rate < report.wilson_high < 1.0
        assert report.agree.sum() == report.n_agree
        assert report.config_digest  # non-empty description

    def test_wilson_interval_is_pinned(self):
        """The 95 % z is scipy's normal quantile, 1.959963984540054; a z from
        another source (statistics.NormalDist gives ...536) moves the bytes of
        agreement_summary.json, and CHANGES.md must name that."""
        k, n, z = 1502, 2048, 1.959963984540054
        low, high = analysis._wilson_interval(k, n)
        assert (low, high) == (0.7138237238469338, 0.7520992137612503)
        p = k / n
        denom = 1.0 + z**2 / n
        centre = (p + z**2 / (2 * n)) / denom
        half = z * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
        assert (low, high) == (centre - half, centre + half)

    def test_mismatched_targets_rejected(self):
        kw = dict(start=A0, n_steps=100, seed=70, n_paths=2)
        cfg_a = SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=A0), **kw)
        cfg_b = SimConfig(model=TrueBridge(sigma=0.8, horizon=1.0, target=(0.2, 0.0)), **kw)
        with pytest.raises(ValueError):
            agreement_rate(cfg_a, cfg_b)

    def test_mismatched_grid_rejected(self):
        cfg_a = SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                          start=A0, n_steps=100, seed=70, n_paths=2)
        cfg_b = SimConfig(model=TrueBridge(sigma=0.8, horizon=1.0, target=A0),
                          start=A0, n_steps=200, seed=70, n_paths=2)
        with pytest.raises(ValueError):
            agreement_rate(cfg_a, cfg_b)

    @pytest.mark.parametrize("field, value", [
        ("seed", 71), ("n_paths", 3), ("start", (0.1, 0.0)), ("sigma", 0.7), ("horizon", 2.0),
    ])
    def test_uncoupled_configs_rejected(self, field, value):
        kw = dict(start=A0, n_steps=100, seed=70, n_paths=2)
        model = dict(sigma=0.8, horizon=1.0, target=A0)
        cfg_a = SimConfig(model=ProposedBridge(**model), **kw)
        (model if field in model else kw)[field] = value
        cfg_b = SimConfig(model=TrueBridge(**model), **kw)
        with pytest.raises(ValueError, match=f"coupled configs must share {field}"):
            agreement_rate(cfg_a, cfg_b)

    @pytest.mark.parametrize("chunk", [16, 1024])
    def test_pairs_match_separate_batches(self, monkeypatch, chunk):
        """The one coupled batch gives each side the offsets and cut-locus
        flags of its own batch, in one chunk and over a partial last chunk."""
        monkeypatch.setattr(engine, "CHUNK_SIZE", chunk)
        kw = dict(start=A0, n_steps=200, seed=72, n_paths=40)
        cfg_a = SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=A0), **kw)
        cfg_b = SimConfig(model=TrueBridge(sigma=0.8, horizon=1.0, target=A0), **kw)
        report = agreement_rate(cfg_a, cfg_b)
        for cfg, offsets, unresolved in ((cfg_a, report.offsets_a, report.unresolved_a),
                                         (cfg_b, report.offsets_b, report.unresolved_b)):
            alone = simulate_batch(cfg)
            np.testing.assert_array_equal(offsets, alone.limiting_lattice_points)
            np.testing.assert_array_equal(unresolved, alone.unresolved)
        assert 0 < report.n_agree < report.n_pairs


def test_cli_import_loads_scipy_special_not_scipy_stats():
    """scipy.stats costs about a second and 70 MB at import; the Wilson z needs
    only scipy.special.  The import stays eager: the benchmark counts a command
    that peaks below its own RSS as failed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(torusbridge.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, torusbridge.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "True"]


class TestDriftField:
    def test_zero_at_the_attracting_lift(self):
        model = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        points, vectors = drift_field(model, 0.5, (-1.0, 1.0), (-1.0, 1.0), 3)
        # all nine grid points are integer lattice points, i.e. lifts
        np.testing.assert_array_equal(vectors, np.zeros((9, 2)))

    def test_zero_exactly_on_tie_lines(self):
        model = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        points, vectors = drift_field(model, 0.2, (-0.5, 0.5), (-0.5, 0.5), 5)
        on_tie = np.any(np.abs(points) == 0.5, axis=1)
        assert on_tie.sum() == 16
        np.testing.assert_array_equal(vectors[on_tie], np.zeros((16, 2)))

    def test_vectors_point_toward_the_lift(self):
        model = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        rng = np.random.default_rng(73)
        x = rng.uniform(-0.49, 0.49, size=(500, 2))
        b = model.drift(0.5, x)
        inward = (b * (0.0 - x)).sum(axis=1)
        assert np.all(inward > 0)

    def test_doubling_resolution_keeps_sample_locations(self):
        model = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        coarse, _ = drift_field(model, 0.1, (-0.4, 0.4), (-0.4, 0.4), 5)
        fine, _ = drift_field(model, 0.1, (-0.4, 0.4), (-0.4, 0.4), 9)
        for p in coarse:
            assert np.min(np.linalg.norm(fine - p, axis=1)) < 1e-12

    def test_grid_size_validated(self):
        model = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        with pytest.raises(ValueError):
            drift_field(model, 0.1, n=1)
