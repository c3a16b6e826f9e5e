"""Tests for the Euler-Maruyama engine: stepping, streams, determinism, laws."""

import numpy as np
import pytest

from torusbridge import (
    EuclideanBridge,
    FreeBrownianMotion,
    ProposedBridge,
    SimConfig,
    TrueBridge,
    config_from_dict,
    config_to_dict,
    euler_step,
    lattice_endpoint_histogram,
    simulate_batch,
    simulate_coupled_pair,
    simulate_path,
    wiener_increments,
)

A0 = (0.0, 0.0)


def _cfg(model, **kw):
    base = dict(start=A0, n_steps=100, seed=0, n_paths=1)
    base.update(kw)
    return SimConfig(model=model, **base)


class TestEulerStep:
    def test_free_motion_is_pure_noise(self):
        m = FreeBrownianMotion(sigma=1.0, horizon=1.0)
        np.testing.assert_allclose(
            euler_step(0.0, (0.0, 0.0), 0.01, (0.1, -0.2), m), [0.1, -0.2], atol=1e-15
        )

    def test_nearest_lift_step_arithmetic(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        np.testing.assert_allclose(
            euler_step(0.5, (0.3, 0.4), 0.1, (0.0, 0.0), m), [0.24, 0.32], atol=1e-15
        )

    def test_euclidean_bridge_step_arithmetic(self):
        m = EuclideanBridge(sigma=0.8, horizon=1.0, endpoint=(1.0, 0.0))
        np.testing.assert_allclose(
            euler_step(0.75, (0.0, 0.0), 0.05, (0.02, 0.01), m),
            [0.216, 0.008],
            atol=1e-15,
        )

    def test_out_of_horizon_step_rejected(self):
        m = FreeBrownianMotion(sigma=1.0, horizon=1.0)
        with pytest.raises(ValueError):
            euler_step(0.99, (0, 0), 0.05, (0, 0), m)
        with pytest.raises(ValueError):
            euler_step(0.5, (0, 0), -0.1, (0, 0), m)


class TestNoiseStreams:
    def test_streams_are_reproducible(self):
        a = wiener_increments(123, 7, 50, 0.01)
        b = wiener_increments(123, 7, 50, 0.01)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_across_paths_and_seeds(self):
        a = wiener_increments(123, 0, 50, 0.01)
        b = wiener_increments(123, 1, 50, 0.01)
        c = wiener_increments(124, 0, 50, 0.01)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_distinct_paths_decorrelated(self):
        n = 10_000
        a = wiener_increments(9, 0, n, 1.0)
        b = wiener_increments(9, 1, n, 1.0)
        for i in range(2):
            for j in range(2):
                corr = np.corrcoef(a[:, i], b[:, j])[0, 1]
                assert abs(corr) < 0.05

    def test_increment_variance_is_dt(self):
        dW = wiener_increments(11, 3, 100_000, 0.004)
        assert dW.mean() == pytest.approx(0.0, abs=3 * np.sqrt(0.004 / 200_000))
        assert dW.var() == pytest.approx(0.004, rel=0.02)


class TestSimulatePath:
    def test_single_step_free_motion(self):
        cfg = _cfg(FreeBrownianMotion(sigma=0.5, horizon=1.0), n_steps=1,
                   seed=21, record_increments=True)
        path = simulate_path(cfg, 0)
        np.testing.assert_array_equal(
            path.states[1], np.asarray(cfg.start) + 0.5 * path.increments[0]
        )

    def test_bitwise_deterministic(self):
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                   n_steps=200, seed=5, record_increments=True)
        p1 = simulate_path(cfg, 0)
        p2 = simulate_path(cfg, 0)
        np.testing.assert_array_equal(p1.states, p2.states)
        np.testing.assert_array_equal(p1.increments, p2.increments)

    def test_grid_is_exact_and_equidistant(self):
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), n_steps=1000, seed=1)
        t = cfg.time_grid()
        assert t[0] == 0.0
        assert t[-1] == 1.0
        np.testing.assert_allclose(t, np.arange(1001) * (1.0 / 1000), atol=1e-12)
        np.testing.assert_allclose(np.diff(t), 1.0 / 1000, atol=1e-12)

    def test_replaying_increments_reproduces_states(self):
        """Feeding the recorded increments back through the stepper gives
        the stored trajectory exactly."""
        cfg = _cfg(TrueBridge(sigma=0.7, horizon=1.0, target=(0.2, -0.1), truncation=2),
                   n_steps=150, seed=77, record_increments=True)
        path = simulate_path(cfg, 0)
        x = np.asarray(cfg.start)
        for i in range(cfg.n_steps):
            x = euler_step(path.times[i], x, cfg.dt, path.increments[i], cfg.model)
            np.testing.assert_array_equal(x, path.states[i + 1])

    def test_no_increments_by_default(self):
        path = simulate_path(_cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), seed=2))
        assert path.increments is None

    def test_path_index_validated(self):
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), n_paths=3, seed=3)
        with pytest.raises(ValueError):
            simulate_path(cfg, 3)


class TestSimulateBatch:
    def test_batch_of_one_equals_single_path(self):
        cfg = _cfg(TrueBridge(sigma=0.8, horizon=1.0, target=A0, truncation=2),
                   n_steps=120, seed=13, record_increments=True)
        batch = simulate_batch(cfg)
        single = simulate_path(cfg, 0)
        np.testing.assert_array_equal(batch.paths[0].states, single.states)
        np.testing.assert_array_equal(batch.paths[0].increments, single.increments)

    def test_worker_count_does_not_change_results(self):
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                   n_steps=80, seed=14, n_paths=300)
        b1 = simulate_batch(cfg, n_workers=1, snapshot_steps=[40], weight_cutoff=0.5)
        b4 = simulate_batch(cfg, n_workers=4, snapshot_steps=[40], weight_cutoff=0.5)
        np.testing.assert_array_equal(b1.terminal_points, b4.terminal_points)
        np.testing.assert_array_equal(b1.limiting_lattice_points, b4.limiting_lattice_points)
        np.testing.assert_array_equal(b1.log_weights, b4.log_weights)
        np.testing.assert_array_equal(b1.snapshots[40], b4.snapshots[40])

    def test_paths_across_chunk_boundary_match_single_runs(self):
        """Chunked execution is invisible: any path equals its standalone run."""
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0),
                   n_steps=20, seed=15, n_paths=1030)
        batch = simulate_batch(cfg)
        for idx in (0, 1023, 1024, 1029):
            np.testing.assert_array_equal(
                batch.paths[idx].states, simulate_path(cfg, idx).states
            )

    def test_snapshots_match_stored_paths(self):
        cfg = _cfg(EuclideanBridge(sigma=1.0, horizon=1.0, endpoint=(0.3, 0.2)),
                   n_steps=100, seed=16, n_paths=50)
        batch = simulate_batch(cfg, snapshot_steps=[0, 50, 100])
        for s in (0, 50, 100):
            stacked = np.stack([p.states[s] for p in batch.paths])
            np.testing.assert_array_equal(batch.snapshots[s], stacked)

    def test_keep_paths_false_drops_paths_only(self):
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), seed=17, n_paths=10)
        batch = simulate_batch(cfg, keep_paths=False)
        assert batch.paths is None
        assert batch.terminal_points.shape == (10, 2)

    def test_free_terminal_moments(self):
        """Terminal mean start and componentwise variance sigma^2 T."""
        sigma, horizon, n = 1.0, 1.0, 10_000
        cfg = _cfg(FreeBrownianMotion(sigma=sigma, horizon=horizon),
                   start=(0.25, -0.1), n_steps=200, seed=18, n_paths=n)
        batch = simulate_batch(cfg, keep_paths=False)
        x = batch.terminal_points
        se_mean = sigma * np.sqrt(horizon / n)
        se_var = sigma**2 * horizon * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(x.mean(0) - [0.25, -0.1]) <= 3 * se_mean)
        assert np.all(np.abs(x.var(0, ddof=1) - sigma**2 * horizon) <= 3 * se_var)

    def test_euclidean_bridge_interior_marginal(self):
        """At time t the bridge law is Normal(a + (t/T)(b-a), sigma^2 t(T-t)/T)."""
        n = 10_000
        cfg = _cfg(EuclideanBridge(sigma=1.0, horizon=1.0, endpoint=(0.3, 0.2)),
                   n_steps=500, seed=19, n_paths=n)
        batch = simulate_batch(cfg, keep_paths=False, snapshot_steps=[250])
        x = batch.snapshots[250]
        mean_expect = np.array([0.15, 0.10])
        var_expect = 0.25
        se_mean = x.std(0, ddof=1) / np.sqrt(n)
        se_var = x.var(0, ddof=1) * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(x.mean(0) - mean_expect) <= 3 * se_mean)
        assert np.all(np.abs(x.var(0, ddof=1) - var_expect) <= 3 * se_var)

    def test_bridge_law_against_conditioned_walk_oracle(self):
        """Independent route for the bridge marginal: condition plain
        Gaussian random walks on landing near the endpoint by rejection,
        with no bridge drift anywhere, and compare mid-time moments."""
        rng = np.random.default_rng(20)
        steps, b, eps = 8, 0.3, 0.02
        walks = rng.standard_normal((400_000, steps)) * np.sqrt(1.0 / steps)
        w = walks.cumsum(axis=1)
        kept = w[np.abs(w[:, -1] - b) <= eps, steps // 2 - 1]
        n = len(kept)
        assert n > 5000
        se_mean = kept.std(ddof=1) / np.sqrt(n)
        se_var = kept.var(ddof=1) * np.sqrt(2.0 / (n - 1))
        assert abs(kept.mean() - 0.5 * b) <= 3 * se_mean + eps / 2
        assert abs(kept.var(ddof=1) - 0.25) <= 3 * se_var + eps**2

    def test_euclidean_bridge_terminal_hits_endpoint(self):
        """With dt = 1e-3 at least 99% of paths end within 0.15 of the
        endpoint (measured 99% quantile is below 0.10)."""
        cfg = _cfg(EuclideanBridge(sigma=1.0, horizon=1.0, endpoint=(1.0, 0.0)),
                   n_steps=1000, seed=2103, n_paths=1000)
        batch = simulate_batch(cfg, keep_paths=False)
        err = np.linalg.norm(batch.terminal_points - [1.0, 0.0], axis=1)
        assert (err <= 0.15).mean() >= 0.99

    def test_proposed_endpoint_histogram_symmetry(self):
        """Starting on a lift, the dynamics are symmetric under k -> -k."""
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                   n_steps=1000, seed=2104, n_paths=2000)
        batch = simulate_batch(cfg, keep_paths=False)
        hist = lattice_endpoint_histogram(batch)
        assert sum(hist.counts.values()) + hist.n_unresolved == 2000
        for k, nk in hist.counts.items():
            nm = hist.counts.get((-k[0], -k[1]), 0)
            if nk + nm >= 25:
                assert abs(nk - nm) <= 3 * np.sqrt(nk + nm), f"asymmetry at {k}"

    def test_small_noise_stays_in_one_square(self):
        cfg = _cfg(ProposedBridge(sigma=0.3, horizon=1.0, target=A0),
                   n_steps=1000, seed=2102, n_paths=4000)
        batch = simulate_batch(cfg, keep_paths=False)
        hist = lattice_endpoint_histogram(batch)
        assert hist.mass((0, 0)) >= 0.99

    def test_invalid_options_rejected(self):
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), seed=4)
        with pytest.raises(ValueError):
            simulate_batch(cfg, n_workers=0)
        with pytest.raises(ValueError):
            simulate_batch(cfg, snapshot_steps=[200])
        with pytest.raises(ValueError):
            simulate_batch(cfg, weight_cutoff=1.0)


class TestCoupledSimulation:
    def test_identical_models_give_identical_paths(self):
        cfg_a = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), n_steps=50, seed=30)
        cfg_b = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), n_steps=50, seed=30)
        pa, pb = simulate_coupled_pair(cfg_a, cfg_b)
        np.testing.assert_array_equal(pa.states, pb.states)

    def test_mismatched_configs_rejected(self):
        base = dict(start=A0, n_steps=50, seed=30, n_paths=1)
        cfg_a = SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1.0), **base)
        for bad in (
            SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1.0), **{**base, "seed": 31}),
            SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1.0), **{**base, "n_steps": 51}),
            SimConfig(model=FreeBrownianMotion(sigma=0.9, horizon=1.0), **base),
        ):
            with pytest.raises(ValueError):
                simulate_coupled_pair(cfg_a, bad)

    def test_small_noise_models_share_limiting_point(self):
        """With sigma = 0.1 both drifts confine the pair to one square and
        the limiting lattice point coincides for every pair."""
        base = dict(start=(0.1, 0.1), n_steps=500, seed=31, n_paths=100)
        cfg_p = SimConfig(model=ProposedBridge(sigma=0.1, horizon=1.0, target=A0), **base)
        cfg_t = SimConfig(model=TrueBridge(sigma=0.1, horizon=1.0, target=A0, truncation=0), **base)
        ba = simulate_batch(cfg_p, keep_paths=False)
        bb = simulate_batch(cfg_t, keep_paths=False)
        assert np.array_equal(ba.limiting_lattice_points, bb.limiting_lattice_points)
        assert not ba.unresolved.any() and not bb.unresolved.any()


class TestConfigRoundTrip:
    @pytest.mark.parametrize("model", [
        FreeBrownianMotion(sigma=1.0, horizon=2.0),
        EuclideanBridge(sigma=0.5, horizon=1.0, endpoint=(1.5, -0.25)),
        ProposedBridge(sigma=0.8, horizon=1.0, target=(0.1, -0.2), scale_by_sigma_sq=True),
        TrueBridge(sigma=0.8, horizon=1.0, target=(0.1, -0.2), truncation=2),
    ])
    def test_dict_round_trip(self, model):
        cfg = SimConfig(model=model, start=(0.3, 0.1), n_steps=250, seed=99,
                        n_paths=7, record_increments=True)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_validation(self):
        m = FreeBrownianMotion(sigma=1.0, horizon=1.0)
        with pytest.raises(ValueError):
            SimConfig(model=m, start=A0, n_steps=0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(model=m, start=A0, n_steps=10, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(model=m, start=A0, n_steps=10, seed=0, n_paths=0)
        with pytest.raises(ValueError):
            SimConfig(model="proposed", start=A0, n_steps=10, seed=0)

    def test_unknown_model_key_rejected(self):
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0))
        data = config_to_dict(cfg)
        data["model"]["bogus"] = 1
        with pytest.raises(ValueError, match=r"'bogus'.*'proposed'.*cut_locus_tol"):
            config_from_dict(data)
