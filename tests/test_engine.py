"""Tests for the Euler-Maruyama engine: stepping, streams, determinism, laws."""

import json
import tracemalloc

import numpy as np
import pytest

from torusbridge import (
    VARIANTS,
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
    simulate_path,
    wiener_increments,
)
from torusbridge import engine
from torusbridge.engine import model_from_dict, model_to_dict, require_coupled

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

    def test_nan_time_or_step_rejected(self):
        # The step loop's drift is unchecked, so euler_step checks t and dt itself.
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        for t, dt in ((float("nan"), 0.01), (0.5, float("nan"))):
            with pytest.raises(ValueError):
                euler_step(t, (0.1, 0.1), dt, (0, 0), m)


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
        cfg = _cfg(FreeBrownianMotion(sigma=0.5, horizon=1.0), n_steps=1, seed=21)
        path = simulate_path(cfg, 0)
        np.testing.assert_array_equal(
            path.states[1], np.asarray(cfg.start) + 0.5 * path.increments[0]
        )

    def test_bitwise_deterministic(self):
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                   n_steps=200, seed=5)
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
        """Feeding the path's increments back through the stepper gives
        the stored trajectory exactly."""
        cfg = _cfg(TrueBridge(sigma=0.7, horizon=1.0, target=(0.2, -0.1)),
                   n_steps=150, seed=77)
        path = simulate_path(cfg, 0)
        x = np.asarray(cfg.start)
        for i in range(cfg.n_steps):
            x = euler_step(path.times[i], x, cfg.dt, path.increments[i], cfg.model)
            np.testing.assert_array_equal(x, path.states[i + 1])

    def test_increments_are_the_wiener_increments(self):
        """A single path carries the increments of its own stream; batch
        paths carry states only."""
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0), n_steps=300,
                   seed=2, n_paths=3)
        batch = simulate_batch(cfg)
        for i in range(3):
            path = simulate_path(cfg, i)
            np.testing.assert_array_equal(
                path.increments, wiener_increments(cfg.seed, i, cfg.n_steps, cfg.dt))
            np.testing.assert_array_equal(path.states, batch.paths[i].states)
            assert batch.paths[i].increments is None

    def test_path_index_validated(self):
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), n_paths=3, seed=3)
        with pytest.raises(ValueError):
            simulate_path(cfg, 3)


class TestSimulateBatch:
    def test_batch_of_one_equals_single_path(self):
        cfg = _cfg(TrueBridge(sigma=0.8, horizon=1.0, target=A0), n_steps=120, seed=13)
        batch = simulate_batch(cfg)
        single = simulate_path(cfg, 0)
        np.testing.assert_array_equal(batch.paths[0].states, single.states)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                   n_steps=80, seed=14, n_paths=300)
        whole = simulate_batch(cfg, snapshot_steps=[40], weight_cutoff=0.5)
        monkeypatch.setattr(engine, "CHUNK_SIZE", 16)
        split = simulate_batch(cfg, snapshot_steps=[40], weight_cutoff=0.5)
        np.testing.assert_array_equal(whole.terminal_points, split.terminal_points)
        np.testing.assert_array_equal(whole.limiting_lattice_points,
                                      split.limiting_lattice_points)
        np.testing.assert_array_equal(whole.unresolved, split.unresolved)
        np.testing.assert_array_equal(whole.log_weights, split.log_weights)
        np.testing.assert_array_equal(whole.snapshots[40], split.snapshots[40])

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
            simulate_batch(cfg, snapshot_steps=[200])
        with pytest.raises(ValueError):
            simulate_batch(cfg, weight_cutoff=1.0)


class TestCoupledSimulation:
    def test_identical_models_give_identical_paths(self):
        cfg_a = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), n_steps=50, seed=30)
        cfg_b = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), n_steps=50, seed=30)
        require_coupled(cfg_a, cfg_b)
        np.testing.assert_array_equal(simulate_path(cfg_a).states, simulate_path(cfg_b).states)

    def test_mismatched_configs_rejected(self):
        base = dict(start=A0, n_steps=50, seed=30, n_paths=1)
        cfg_a = SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1.0), **base)
        for bad in (
            SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1.0), **{**base, "seed": 31}),
            SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1.0), **{**base, "n_steps": 51}),
            SimConfig(model=FreeBrownianMotion(sigma=0.9, horizon=1.0), **base),
        ):
            with pytest.raises(ValueError):
                require_coupled(cfg_a, bad)

    def test_small_noise_models_share_limiting_point(self):
        """With sigma = 0.1 both drifts confine the pair to one square and
        the limiting lattice point coincides for every pair."""
        base = dict(start=(0.1, 0.1), n_steps=500, seed=31, n_paths=100)
        cfg_p = SimConfig(model=ProposedBridge(sigma=0.1, horizon=1.0, target=A0), **base)
        cfg_t = SimConfig(model=TrueBridge(sigma=0.1, horizon=1.0, target=A0), **base)
        ba = simulate_batch(cfg_p, keep_paths=False)
        bb = simulate_batch(cfg_t, keep_paths=False)
        assert np.array_equal(ba.limiting_lattice_points, bb.limiting_lattice_points)
        assert not ba.unresolved.any() and not bb.unresolved.any()

    @pytest.mark.parametrize("chunk", [16, engine.CHUNK_SIZE])
    def test_coupled_batch_equals_separate_batches(self, monkeypatch, chunk):
        """One loop over one noise draw per chunk gives each config the bits
        of its own batch: 40 paths are three chunks of 16 (the last partial)
        or one chunk at the default size."""
        monkeypatch.setattr(engine, "CHUNK_SIZE", chunk)
        base = dict(start=(0.1, -0.2), n_steps=60, seed=32, n_paths=40)
        configs = [
            SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=(0.2, 0.1)), **base),
            SimConfig(model=TrueBridge(sigma=0.8, horizon=1.0, target=(0.2, 0.1)), **base),
            SimConfig(model=EuclideanBridge(sigma=0.8, horizon=1.0, endpoint=(1.3, 0.4)), **base),
        ]
        kw = dict(snapshot_steps=[0, 17, 60], weight_cutoff=0.5)
        coupled = simulate_batch(configs, **kw)
        assert isinstance(coupled, list) and len(coupled) == 3
        for cfg, got in zip(configs, coupled):
            alone = simulate_batch(cfg, **kw)
            assert got.config is cfg
            for name in ("terminal_points", "limiting_lattice_points", "unresolved", "log_weights"):
                np.testing.assert_array_equal(getattr(got, name), getattr(alone, name))
            assert got.snapshots.keys() == alone.snapshots.keys() == {0, 17, 60}
            for s in (0, 17, 60):
                np.testing.assert_array_equal(got.snapshots[s], alone.snapshots[s])
            for p, q in zip(got.paths, alone.paths, strict=True):
                np.testing.assert_array_equal(p.states, q.states)
        # The coupled paths are the euler_step recursion on the same increments.
        path = coupled[1].paths[39]
        dW = wiener_increments(base["seed"], 39, 60, configs[1].dt)
        x = np.asarray(base["start"])
        for i in range(60):
            x = euler_step(path.times[i], x, configs[1].dt, dW[i], configs[1].model)
            np.testing.assert_array_equal(x, path.states[i + 1])

    def test_coupled_batch_draws_noise_once_per_chunk(self, monkeypatch):
        """Each chunk draws each noise block once for both models: 40 paths
        are chunks of 16, 16 and 8, and NOISE_BLOCK + 20 steps two blocks."""
        calls = []
        draw = engine._chunk_increments
        monkeypatch.setattr(engine, "_chunk_increments",
                            lambda streams, out, dt: calls.append(out.shape[:2])
                            or draw(streams, out, dt))
        monkeypatch.setattr(engine, "CHUNK_SIZE", 16)
        block = engine.NOISE_BLOCK
        base = dict(start=A0, n_steps=block + 20, seed=33, n_paths=40)
        configs = [SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=A0), **base),
                   SimConfig(model=TrueBridge(sigma=0.8, horizon=1.0, target=A0), **base)]
        simulate_batch(configs, keep_paths=False)
        assert calls == [(16, block), (16, 20), (16, block), (16, 20), (8, block), (8, 20)]

    @pytest.mark.parametrize("n_steps", [2 * engine.NOISE_BLOCK + 37, engine.NOISE_BLOCK // 3])
    def test_block_draws_give_whole_stream_bits(self, monkeypatch, n_steps):
        """Noise drawn in blocks, the last one partial, or in one whole draw
        gives every path the increments of ``wiener_increments`` and the
        states of ``euler_step`` replayed on them: kept or not, alone,
        coupled and via simulate_path."""
        monkeypatch.setattr(engine, "CHUNK_SIZE", 16)
        base = dict(start=(0.1, -0.2), n_steps=n_steps, seed=38, n_paths=20)
        models = (ProposedBridge(sigma=0.8, horizon=1.0, target=(0.2, 0.1)),
                  TrueBridge(sigma=0.8, horizon=1.0, target=(0.2, 0.1)))
        mid = min(engine.NOISE_BLOCK, n_steps - 1)
        picks = (0, 15, 16, 19)

        def replay(cfg, idx):
            dW = wiener_increments(cfg.seed, idx, n_steps, cfg.dt)
            states = [np.asarray(cfg.start)]
            for i, t in enumerate(cfg.time_grid()[:-1]):
                states.append(euler_step(t, states[-1], cfg.dt, dW[i], cfg.model))
            return dW, np.stack(states)

        configs = [SimConfig(model=m, **base) for m in models]
        coupled = simulate_batch(configs, snapshot_steps=[mid])
        for cfg, together in zip(configs, coupled):
            alone = simulate_batch(cfg, snapshot_steps=[mid])
            bare = simulate_batch(cfg, keep_paths=False, snapshot_steps=[mid])
            for idx in picks:
                dW, states = replay(cfg, idx)
                single = simulate_path(cfg, idx)
                for path in (together.paths[idx], alone.paths[idx], single):
                    np.testing.assert_array_equal(path.states, states)
                np.testing.assert_array_equal(single.increments, dW)
                for batch in (together, alone, bare):
                    np.testing.assert_array_equal(batch.terminal_points[idx], states[-1])
                    np.testing.assert_array_equal(batch.snapshots[mid][idx], states[mid])

    def test_uncoupled_configs_rejected_before_any_work(self, monkeypatch):
        monkeypatch.setattr(engine, "_chunk_increments", None)  # any draw would fail
        base = dict(start=A0, n_steps=20, seed=34, n_paths=4)
        cfg = SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=A0), **base)
        for bad in ({"seed": 35}, {"n_paths": 5}, {"start": (0.1, 0.0)}):
            with pytest.raises(ValueError, match="coupled configs must share"):
                simulate_batch([cfg, SimConfig(model=cfg.model, **{**base, **bad})])


class TestMemory:
    @staticmethod
    def _peak(config, **kw):
        tracemalloc.start()
        try:
            simulate_batch(config, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_unkept_paths_peak_at_the_noise_chunk(self):
        """Without kept paths or weights a chunk holds one (CHUNK_SIZE,
        NOISE_BLOCK, 2) noise block, 2 MiB, and no increment or state array
        over the steps, so 1024 paths peak below 4 MiB at 1000 and at 4000
        steps (the whole noise array alone is 15.6 and 62.5 MiB)."""
        for n_steps in (1000, 4000):
            cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                       n_steps=n_steps, seed=36, n_paths=engine.CHUNK_SIZE)
            assert self._peak(cfg, keep_paths=False) < 4 * 2**20

    def test_kept_paths_hold_no_increments(self):
        """Kept paths without a cutoff hold their states and a noise block,
        not the 7.8 MiB increment array."""
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                   n_steps=500, seed=39, n_paths=engine.CHUNK_SIZE)
        state_bytes = engine.CHUNK_SIZE * 501 * 2 * 8
        assert self._peak(cfg, keep_paths=True) < state_bytes + 4 * 2**20


class TestConfigRoundTrip:
    @pytest.mark.parametrize("model", [
        FreeBrownianMotion(sigma=1.0, horizon=2.0),
        EuclideanBridge(sigma=0.5, horizon=1.0, endpoint=(1.5, -0.25)),
        ProposedBridge(sigma=0.8, horizon=1.0, target=(0.1, -0.2), scale_by_sigma_sq=True),
        TrueBridge(sigma=0.8, horizon=1.0, target=(0.1, -0.2)),
    ])
    def test_dict_round_trip(self, model):
        cfg = SimConfig(model=model, start=(0.3, 0.1), n_steps=250, seed=99, n_paths=7)
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
        # A step below the drift's time-to-go clamp; a step at the clamp passes.
        with pytest.raises(ValueError, match="T / n_steps"):
            SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1e-10), start=A0,
                      n_steps=101, seed=0)
        assert SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1e-10), start=A0,
                         n_steps=100, seed=0).dt == 1e-12

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_record_increments_must_be_a_boolean(self, value):
        """Older manifests hold a record_increments key; only true or false is dropped."""
        data = config_to_dict(_cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0)))
        with pytest.raises(ValueError, match="record_increments must be true or false"):
            config_from_dict({**data, "record_increments": value})

    @pytest.mark.parametrize("value", [True, False])
    def test_legacy_record_increments_key_is_dropped(self, value):
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0))
        assert config_from_dict({**config_to_dict(cfg), "record_increments": value}) == cfg


    def test_unknown_model_key_rejected(self):
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0))
        data = config_to_dict(cfg)
        data["model"]["bogus"] = 1
        with pytest.raises(ValueError, match=r"'bogus'.*'proposed'.*cut_locus_tol"):
            config_from_dict(data)

    def test_unknown_config_key_rejected(self):
        data = config_to_dict(_cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0)))
        data["bogus"] = 1
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['bogus'\].*n_paths"):
            config_from_dict(data)

    def test_missing_config_key_rejected(self):
        data = config_to_dict(_cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0)))
        del data["start"], data["n_paths"]  # n_paths has a default, start has none
        with pytest.raises(ValueError, match=r"missing key\(s\) \['start'\];.*'n_steps'"):
            config_from_dict(data)

    def test_config_block_must_be_a_dict(self):
        with pytest.raises(ValueError, match="config block must be a JSON object"):
            config_from_dict([1, 2])
        data = config_to_dict(_cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0)))
        data["model"] = [1, 2]
        with pytest.raises(ValueError, match="model block must be a JSON object"):
            config_from_dict(data)


# One instance per registered variant, with the dict that model_to_dict wrote
# for it before serialisation went through dataclasses.fields, and the
# torus point its terminal offsets are reported against.
_PINNED_MODELS = [
    (FreeBrownianMotion(sigma=1.0, horizon=2.0),
     {"variant": "free-bm", "sigma": 1.0, "horizon": 2.0},
     (0.0, 0.0)),
    (EuclideanBridge(sigma=0.5, horizon=1.0, endpoint=(1.3, -0.7)),
     {"variant": "euclid-bridge", "sigma": 0.5, "horizon": 1.0, "endpoint": [1.3, -0.7]},
     (0.30000000000000004, 0.30000000000000004)),  # project((1.3, -0.7))
    (ProposedBridge(sigma=0.8, horizon=1.0, target=(0.1, -0.2), scale_by_sigma_sq=True),
     {"variant": "proposed", "sigma": 0.8, "horizon": 1.0, "target": [0.1, -0.2],
      "cut_locus_tol": 0.0, "scale_by_sigma_sq": True},
     (0.1, -0.2)),
    (TrueBridge(sigma=0.8, horizon=1.0, target=(0.1, -0.2)),
     {"variant": "true-bridge", "sigma": 0.8, "horizon": 1.0, "target": [0.1, -0.2]},
     (0.1, -0.2)),
]


class TestModelProtocol:
    def test_registry_covers_every_variant(self):
        assert list(VARIANTS) == ["free-bm", "euclid-bridge", "proposed", "true-bridge"]
        assert [type(m) for m, _, _ in _PINNED_MODELS] == list(VARIANTS.values())
        for name, cls in VARIANTS.items():
            assert cls.variant == name

    @pytest.mark.parametrize("model, pinned, _target", _PINNED_MODELS)
    def test_dict_is_pinned_and_round_trips(self, model, pinned, _target):
        assert model_to_dict(model) == pinned
        assert model_from_dict(json.loads(json.dumps(model_to_dict(model)))) == model

    @pytest.mark.parametrize("model, _pinned, target", _PINNED_MODELS)
    def test_diagnostic_target(self, model, _pinned, target):
        assert model.diagnostic_target == target

    def test_missing_model_key_rejected(self):
        with pytest.raises(ValueError, match=r"'proposed' needs key\(s\) \['target'\]"):
            model_from_dict({"variant": "proposed", "sigma": 1.0, "horizon": 1.0})

    @pytest.mark.parametrize("variant", ["bogus", [1], None])
    def test_unknown_variant_rejected(self, variant):
        with pytest.raises(ValueError, match="unknown model variant"):
            model_from_dict({"variant": variant, "sigma": 1.0, "horizon": 1.0})
