"""Tests for the Euler-Maruyama engine: stepping, streams, determinism, laws."""

import errno
import json
import os
import re
import threading
import tracemalloc

import numpy as np
import numpy.random.bit_generator
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    log_girsanov_weight,
    nearest_offset,
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

    @pytest.mark.parametrize("x_shape, dW_shape", [((2,), (5, 2)), ((5, 2), (2,))],
                             ids=["point-vs-stacked", "stacked-vs-pair"])
    @pytest.mark.parametrize("m", [
        ProposedBridge(sigma=0.7, horizon=1.0, target=(0.1, -0.2)),
        TrueBridge(sigma=0.7, horizon=1.0, target=(0.1, -0.2)),
    ], ids=lambda m: m.variant)
    def test_single_point_broadcasts_against_stacked_increments(self, m, x_shape, dW_shape):
        """x of shape (2,) against dW of shape (5, 2), and (5, 2) against (2,):
        each row is x + b dt + sigma dW with its bits, b its own point's drift."""
        rng = np.random.default_rng(5)
        x, t, dt = rng.uniform(-0.5, 0.5, size=x_shape), 0.25, 0.01
        dW = rng.normal(0.0, 0.1, size=dW_shape)
        out = euler_step(t, x, dt, dW, m)
        assert out.shape == (5, 2)
        expected = x + m.drift(t, x) * dt + m.sigma * dW
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))

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

    @pytest.mark.parametrize("dW, needle", [
        ((float("nan"), 0.0), "dW must be finite"),
        ((0.0, float("inf")), "dW must be finite"),
        ([[0.1, 0.2], [0.3]], "dW must hold numbers"),
        ((0.1, 0.2, 0.3), "dW must have trailing dimension 2"),
    ], ids=["nan", "inf", "ragged", "3-wide"])
    def test_bad_increments_rejected(self, dW, needle):
        # The step loop's update is unchecked, so euler_step checks dW as it checks x.
        m = ProposedBridge(sigma=0.8, horizon=1.0, target=(0, 0))
        with pytest.raises(ValueError, match=needle):
            euler_step(0.0, (0.1, 0.2), 0.01, dW, m)


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

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**33 - 1),
           count=st.integers(1, 3))
    @example(seed=0, index=0, count=1)
    @example(seed=2**32, index=2**32 - 2, count=3)
    @example(seed=2**64 - 1, index=2**33 - 3, count=3)
    def test_seed_words_are_seed_sequence_states(self, seed, index, count):
        """Each row is numpy's own SeedSequence state, one-word and two-word
        spawn keys alike, so a change to numpy's algorithm fails here."""
        rows = engine._seed_words(seed, index, index + count)
        expected = [np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(
            4, np.uint64) for i in range(index, index + count)]
        assert rows.dtype == np.uint64
        np.testing.assert_array_equal(rows, expected)

    @pytest.mark.parametrize("path_index", [5, 2**32 + 3, 2**64 + 1])
    def test_stream_is_the_spawned_seed_sequence_child(self, path_index):
        seq = np.random.SeedSequence(entropy=2**40 + 9, spawn_key=(path_index,))
        expected = np.random.default_rng(seq).standard_normal((30, 2)) * np.sqrt(0.01)
        np.testing.assert_array_equal(
            wiener_increments(2**40 + 9, path_index, 30, 0.01), expected)

    def test_a_batch_builds_no_seed_sequence(self, monkeypatch):
        """A chunk's streams come from its computed seed words alone."""
        def refuse(*args, **kwargs):
            raise AssertionError("a SeedSequence was built")
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        monkeypatch.setattr(numpy.random.bit_generator, "SeedSequence", refuse)
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0), n_steps=20, seed=8,
                   n_paths=40)
        simulate_batch(cfg, weight_cutoff=0.5)

    @pytest.mark.parametrize("seed, path_index, dt, message", [
        (2**64, 0, 0.01, "seed must be an integer in [0, 2**64); got 18446744073709551616"),
        (2**64 + 5, 0, 0.01, "seed must be an integer in [0, 2**64)"),
        (2**70, 0, 0.01, "seed must be an integer in [0, 2**64)"),
        (-1, 0, 0.01, "seed must be an integer in [0, 2**64); got -1"),
        (True, 0, 0.01, "seed must be an integer in [0, 2**64); got True"),
        (2.5, 0, 0.01, "seed must be an integer in [0, 2**64); got 2.5"),
        (1, -1, 0.01, "path_index must be in [0, inf); got -1"),
        (1, True, 0.01, "path_index must be in [0, inf); got True"),
        (1, 2.0, 0.01, "path_index must be in [0, inf); got 2.0"),
        (1, 0, -0.1, "dt must be finite and > 0; got -0.1"),
        (1, 0, 0.0, "dt must be finite and > 0; got 0.0"),
        (1, 0, float("nan"), "dt must be finite and > 0; got nan"),
        (1, 0, float("inf"), "dt must be finite and > 0; got inf"),
    ])
    def test_bad_arguments_are_refused(self, seed, path_index, dt, message):
        """Only arguments whose stream is the SeedSequence child are taken: a seed
        past 64 bits would be hashed as if truncated, and SeedSequence refuses
        a negative one."""
        with pytest.raises(ValueError, match=re.escape(message)):
            wiener_increments(seed, path_index, 5, dt)

    @pytest.mark.parametrize("n_steps", [2.5, True, -1, 2**64])
    def test_bad_step_count_is_refused(self, n_steps):
        with pytest.raises(ValueError, match=re.escape("n_steps must be an integer in [0, 2**64)")):
            wiener_increments(1, 0, n_steps, 0.01)

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
        batch = simulate_batch(cfg, keep_steps=range(301))
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

    @pytest.mark.parametrize("path_index", [True, False, 0.5, 2.0, -1, 3, np.int64(3), "1"])
    def test_path_index_must_be_an_integer_in_range(self, path_index):
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), n_paths=3, seed=3)
        with pytest.raises(ValueError, match=re.escape("path_index must be in [0, 3); got ")):
            simulate_path(cfg, path_index)

    def test_numpy_integer_path_index(self):
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0), n_paths=3, seed=3)
        np.testing.assert_array_equal(simulate_path(cfg, np.int64(2)).states,
                                      simulate_path(cfg, 2).states)


class TestSimulateBatch:
    def test_batch_of_one_equals_single_path(self):
        cfg = _cfg(TrueBridge(sigma=0.8, horizon=1.0, target=A0), n_steps=120, seed=13)
        batch = simulate_batch(cfg, keep_steps=range(121))
        single = simulate_path(cfg, 0)
        np.testing.assert_array_equal(batch.paths[0].states, single.states)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                   n_steps=80, seed=14, n_paths=300)
        whole = simulate_batch(cfg, keep_steps=[40], weight_cutoff=0.5)
        monkeypatch.setattr(engine, "CHUNK_SIZE", 16)
        split = simulate_batch(cfg, keep_steps=[40], weight_cutoff=0.5)
        np.testing.assert_array_equal(whole.terminal_points, split.terminal_points)
        np.testing.assert_array_equal(whole.limiting_lattice_points,
                                      split.limiting_lattice_points)
        np.testing.assert_array_equal(whole.unresolved, split.unresolved)
        np.testing.assert_array_equal(whole.log_weights, split.log_weights)
        np.testing.assert_array_equal(whole.states, split.states)

    def test_paths_across_chunk_boundary_match_single_runs(self):
        """Chunked execution is invisible: any path equals its standalone run."""
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0),
                   n_steps=20, seed=15, n_paths=1030)
        batch = simulate_batch(cfg, keep_steps=range(21))
        for idx in (0, 1023, 1024, 1029):
            np.testing.assert_array_equal(
                batch.paths[idx].states, simulate_path(cfg, idx).states
            )

    def test_kept_steps_match_every_step(self):
        """Kept steps are sorted and collapse duplicates, and each holds the
        states of that step of a batch that keeps every step."""
        cfg = _cfg(EuclideanBridge(sigma=1.0, horizon=1.0, endpoint=(0.3, 0.2)),
                   n_steps=100, seed=16, n_paths=50)
        every = simulate_batch(cfg, keep_steps=range(101))
        batch = simulate_batch(cfg, keep_steps=[100, 0, 50, 100])
        assert batch.kept_steps.tolist() == [0, 50, 100]
        np.testing.assert_array_equal(batch.states, every.states[:, [0, 50, 100]])
        np.testing.assert_array_equal(batch.paths[7].times, cfg.time_grid()[[0, 50, 100]])

    @pytest.mark.parametrize("keep", [None, [], ()])
    def test_default_keeps_no_state(self, keep):
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), seed=17, n_paths=10)
        batch = simulate_batch(cfg, keep_steps=keep)
        assert batch.states is None and batch.paths is None and batch.kept_steps is None
        assert batch.terminal_points.shape == (10, 2)
        _assert_same_batches([simulate_batch(cfg)], [batch])

    @pytest.mark.parametrize("keyword", ["keep_paths", "snapshot_steps"])
    def test_retired_keywords_are_refused(self, keyword):
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), seed=17, n_paths=10)
        with pytest.raises(TypeError, match=keyword):
            simulate_batch(cfg, **{keyword: True})

    def test_paths_are_row_views_of_states(self):
        """The kept states are one (n_paths, n_steps + 1, 2) array; each path
        is a view of its row, and all paths share one time grid."""
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0), n_steps=30, seed=17,
                   n_paths=7)
        batch = simulate_batch(cfg, keep_steps=range(31))
        assert batch.states.shape == (7, 31, 2)
        np.testing.assert_array_equal(batch.kept_steps, np.arange(31))
        paths = batch.paths
        assert len(paths) == 7
        for i, path in enumerate(paths):
            assert np.shares_memory(path.states, batch.states[i])
            np.testing.assert_array_equal(path.states, batch.states[i])
            assert path.times is paths[0].times and path.increments is None
        np.testing.assert_array_equal(paths[0].times, cfg.time_grid())

    def test_free_terminal_moments(self):
        """Terminal mean start and componentwise variance sigma^2 T."""
        sigma, horizon, n = 1.0, 1.0, 10_000
        cfg = _cfg(FreeBrownianMotion(sigma=sigma, horizon=horizon),
                   start=(0.25, -0.1), n_steps=200, seed=18, n_paths=n)
        batch = simulate_batch(cfg)
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
        x = simulate_batch(cfg, keep_steps=[250]).states[:, 0]
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
        batch = simulate_batch(cfg)
        err = np.linalg.norm(batch.terminal_points - [1.0, 0.0], axis=1)
        assert (err <= 0.15).mean() >= 0.99

    def test_proposed_endpoint_histogram_symmetry(self):
        """Starting on a lift, the dynamics are symmetric under k -> -k."""
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                   n_steps=1000, seed=2104, n_paths=2000)
        batch = simulate_batch(cfg)
        hist = lattice_endpoint_histogram(batch)
        assert sum(hist.counts.values()) + hist.n_unresolved == 2000
        for k, nk in hist.counts.items():
            nm = hist.counts.get((-k[0], -k[1]), 0)
            if nk + nm >= 25:
                assert abs(nk - nm) <= 3 * np.sqrt(nk + nm), f"asymmetry at {k}"

    def test_small_noise_stays_in_one_square(self):
        cfg = _cfg(ProposedBridge(sigma=0.3, horizon=1.0, target=A0),
                   n_steps=1000, seed=2102, n_paths=4000)
        batch = simulate_batch(cfg)
        hist = lattice_endpoint_histogram(batch)
        assert hist.mass((0, 0)) >= 0.99

    def test_invalid_options_rejected(self):
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), seed=4)
        with pytest.raises(ValueError):
            simulate_batch(cfg, keep_steps=[200])
        with pytest.raises(ValueError):
            simulate_batch(cfg, weight_cutoff=1.0)

    @pytest.mark.parametrize("step, shown", [(2.7, "2.7"), (True, "True"), (101, "101")])
    def test_kept_step_must_be_a_grid_index(self, step, shown):
        """A fraction or a bool is refused, not truncated, and so is a step past the grid."""
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), seed=4)
        with pytest.raises(ValueError) as err:
            simulate_batch(cfg, keep_steps=[50, step])
        assert str(err.value) == f"kept step must be an integer in [0, 100]; got {shown}"
        for steps in ([2.0, np.int64(100)], np.array([100, 2]), range(2, 101, 98)):
            assert simulate_batch(cfg, keep_steps=steps).kept_steps.tolist() == [2, 100]


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
        ba = simulate_batch(cfg_p)
        bb = simulate_batch(cfg_t)
        assert np.array_equal(ba.limiting_lattice_points, bb.limiting_lattice_points)
        assert not ba.unresolved.any() and not bb.unresolved.any()

    @pytest.mark.parametrize("chunk", [16, 1024])
    def test_coupled_batch_equals_separate_batches(self, monkeypatch, chunk):
        """One loop over one noise draw per chunk gives each config the bits
        of its own batch: 40 paths are three chunks of 16 (the last partial)
        or one chunk, as at the default size."""
        monkeypatch.setattr(engine, "CHUNK_SIZE", chunk)
        base = dict(start=(0.1, -0.2), n_steps=60, seed=32, n_paths=40)
        configs = [
            SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=(0.2, 0.1)), **base),
            SimConfig(model=TrueBridge(sigma=0.8, horizon=1.0, target=(0.2, 0.1)), **base),
            SimConfig(model=EuclideanBridge(sigma=0.8, horizon=1.0, endpoint=(1.3, 0.4)), **base),
        ]
        kw = dict(keep_steps=range(61), weight_cutoff=0.5)
        coupled = simulate_batch(configs, **kw)
        assert isinstance(coupled, list) and len(coupled) == 3
        for cfg, got in zip(configs, coupled):
            alone = simulate_batch(cfg, **kw)
            assert got.config is cfg
            _assert_same_batches([got], [alone])
        # The coupled paths are the euler_step recursion on the same increments.
        path = coupled[1].paths[39]
        dW = wiener_increments(base["seed"], 39, 60, configs[1].dt)
        x = np.asarray(base["start"])
        for i in range(60):
            x = euler_step(path.times[i], x, configs[1].dt, dW[i], configs[1].model)
            np.testing.assert_array_equal(x, path.states[i + 1])

    def test_coupled_batch_draws_noise_once_per_chunk(self, monkeypatch):
        """Each chunk draws each noise block once for both models: 40 paths
        are chunks of 16, 16 and 8, and NOISE_BLOCK + 20 steps two blocks of
        a full chunk, but one block of the half-width chunk, whose buffer
        holds twice the steps."""
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
        simulate_batch(configs)
        assert calls == [(16, block), (16, 20), (16, block), (16, 20), (8, block + 20)]

    @pytest.mark.parametrize("n_steps", [293, 42])
    def test_block_draws_give_whole_stream_bits(self, monkeypatch, n_steps):
        """Noise drawn in blocks, the last one partial, gives every path the
        increments of ``wiener_increments`` and the states of ``euler_step``
        replayed on them: kept or not, alone, coupled and via simulate_path.
        The step counts are four 64-step blocks and a partial one, and one
        partial block."""
        monkeypatch.setattr(engine, "NOISE_BLOCK", 64)
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
        every = range(n_steps + 1)
        coupled = simulate_batch(configs, keep_steps=every)
        for cfg, together in zip(configs, coupled):
            alone = simulate_batch(cfg, keep_steps=every)
            bare = simulate_batch(cfg, keep_steps=[mid])
            for idx in picks:
                dW, states = replay(cfg, idx)
                single = simulate_path(cfg, idx)
                for path in (together.paths[idx], alone.paths[idx], single):
                    np.testing.assert_array_equal(path.states, states)
                np.testing.assert_array_equal(single.increments, dW)
                for batch in (together, alone, bare):
                    np.testing.assert_array_equal(batch.terminal_points[idx], states[-1])
                np.testing.assert_array_equal(bare.states[idx, 0], states[mid])

    @pytest.mark.parametrize("block", [3, 128])
    def test_block_weights_equal_whole_path_weights(self, monkeypatch, block):
        """Log weights summed noise block by noise block are bitwise the one
        pass of ``log_girsanov_weight`` over ``simulate_path``, for cutoffs at
        step 1, at a block edge, one past it and at n - 1, with paths kept or
        not, alone and in a coupled two-model batch."""
        monkeypatch.setattr(engine, "NOISE_BLOCK", block)
        monkeypatch.setattr(engine, "CHUNK_SIZE", 16)
        n_steps = 2 * block + 5
        base = dict(start=(0.1, -0.2), n_steps=n_steps, seed=40, n_paths=20)
        configs = [SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=(0.2, 0.1)),
                             **base),
                   SimConfig(model=TrueBridge(sigma=0.8, horizon=1.0, target=(0.2, 0.1)),
                             **base)]
        picks = (0, 15, 16, 19)
        paths = {(j, idx): simulate_path(cfg, idx)
                 for j, cfg in enumerate(configs) for idx in picks}
        for step in (1, block, block + 1, n_steps - 1):
            cutoff = step / n_steps
            for keep in (range(n_steps + 1), None):
                coupled = simulate_batch(configs, keep_steps=keep, weight_cutoff=cutoff)
                alone = simulate_batch(configs[0], keep_steps=keep, weight_cutoff=cutoff)
                for (j, idx), path in paths.items():
                    whole = log_girsanov_weight(path, configs[j].model, cutoff)
                    assert coupled[j].log_weights[idx] == whole, (step, keep, j, idx)
                    if j == 0:
                        assert alone.log_weights[idx] == whole, (step, keep, idx)

    def test_uncoupled_configs_rejected_before_any_work(self, monkeypatch):
        monkeypatch.setattr(engine, "_chunk_increments", None)  # any draw would fail
        base = dict(start=A0, n_steps=20, seed=34, n_paths=4)
        cfg = SimConfig(model=ProposedBridge(sigma=0.8, horizon=1.0, target=A0), **base)
        for bad in ({"seed": 35}, {"n_paths": 5}, {"start": (0.1, 0.0)}):
            with pytest.raises(ValueError, match="coupled configs must share"):
                simulate_batch([cfg, SimConfig(model=cfg.model, **{**base, **bad})])


class TestMemory:
    """Peaks of one process under ``tracemalloc``, which sees none of a forked
    child's memory: the tests force a one-process batch through the
    ``engine._usable_cpus`` seam, except where they measure a split's parent."""

    @pytest.fixture(autouse=True)
    def _one_cpu(self, monkeypatch):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)

    @staticmethod
    def _peak(config, **kw):
        tracemalloc.start()
        try:
            simulate_batch(config, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_unkept_paths_peak_at_the_noise_chunk(self):
        """Without kept paths a chunk holds one (CHUNK_SIZE, NOISE_BLOCK, 2)
        noise block, 2 MiB, and no increment or state array over the steps,
        so 2048 paths peak below 4 MiB at 1000 and at 4000 steps (the whole
        noise array alone is 31.2 and 125 MiB).  A weight cutoff adds each
        step's term as the step is taken, with no block of left-point states,
        so the bound is the same; a coupled proposal and exact-bridge pair
        shares the noise block and peaks below 5 MiB."""
        for n_steps in (1000, 4000):
            cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                       n_steps=n_steps, seed=36, n_paths=engine.CHUNK_SIZE)
            for cutoff in (None, 0.5):
                assert self._peak(cfg, weight_cutoff=cutoff) < 4 * 2**20
        pair = [_cfg(model, n_steps=200, seed=37, n_paths=engine.CHUNK_SIZE)
                for model in (ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                              TrueBridge(sigma=0.8, horizon=1.0, target=A0))]
        assert self._peak(pair, weight_cutoff=0.5) < 5 * 2**20

    def test_kept_paths_hold_no_increments(self):
        """Kept paths, with a weight cutoff or without, hold their states and
        a noise block, not the 15.6 MiB increment array."""
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                   n_steps=500, seed=39, n_paths=engine.CHUNK_SIZE)
        state_bytes = engine.CHUNK_SIZE * 501 * 2 * 8
        for cutoff in (None, 0.5):
            assert (self._peak(cfg, keep_steps=range(501), weight_cutoff=cutoff)
                    < state_bytes + 4 * 2**20)

    def test_thinned_steps_hold_only_their_states(self):
        """Every 100th of 1000 steps keeps 11 states per path, 352 KiB for
        2048 paths, on top of the noise chunk's bound, not the 31.3 MiB of every
        step."""
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                   n_steps=1000, seed=39, n_paths=engine.CHUNK_SIZE)
        kept_bytes = engine.CHUNK_SIZE * 11 * 2 * 8
        assert self._peak(cfg, keep_steps=range(0, 1001, 100)) < kept_bytes + 4 * 2**20


    def test_split_parent_holds_half_a_chunk(self, monkeypatch, forks):
        """A split batch's parent steps half the paths, drawing twice the steps
        per block into the same 2 MiB noise budget, and loads only the child's
        terminal states and weights: 2048 paths, single or a coupled pair, peak
        below the one-process run of the same batch and below the 4 MiB chunk
        bound."""
        models = (ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                  TrueBridge(sigma=0.8, horizon=1.0, target=A0))
        pair = [_cfg(model, n_steps=1000, seed=38, n_paths=engine.CHUNK_SIZE) for model in models]
        for config in (pair[0], pair):
            whole = self._peak(config, weight_cutoff=0.5)
            monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
            split = self._peak(config, weight_cutoff=0.5)
            monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
            assert split < min(whole, 4 * 2**20), (split, whole)
        assert len(forks) == 2


def _batch_arrays(result):
    """Every array of a batch result by name."""
    return {"terminal": result.terminal_points, "offsets": result.limiting_lattice_points,
            "unresolved": result.unresolved, "log_weights": result.log_weights,
            "states": result.states, "kept_steps": result.kept_steps}


def _assert_same_batches(a, b):
    for x, y in zip(a, b):
        assert x.config == y.config
        arrays_x, arrays_y = _batch_arrays(x), _batch_arrays(y)
        assert arrays_x.keys() == arrays_y.keys()
        for name, array in arrays_x.items():
            np.testing.assert_array_equal(array, arrays_y[name], err_msg=name)


def _split_sizes():
    """(n_paths, n_steps) of the smallest batch that splits, with the fewest paths."""
    n_paths = 2 * engine._MIN_SPLIT_PATHS
    return n_paths, -(-engine._MIN_SPLIT_WORK // n_paths)


class TestForkedBatch:
    """With two usable CPUs (the ``engine._usable_cpus`` seam), a batch of at
    least ``engine._MIN_SPLIT_WORK`` model path-steps runs its second half of
    paths in a forked child, with the bits of a one-process run."""

    @staticmethod
    def _serial_and_split(monkeypatch, forks, config, **kw):
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(engine, "_usable_cpus", lambda cpus=cpus: cpus)
            result = simulate_batch(config, **kw)
            runs.append(result if isinstance(result, list) else [result])
            assert len(forks) == cpus - 1
        return runs

    # 97-path chunks give each half several chunks and a short last one.
    @pytest.mark.parametrize("chunk", [engine.CHUNK_SIZE, 97])
    def test_coupled_compare_batch(self, monkeypatch, forks, chunk):
        monkeypatch.setattr(engine, "CHUNK_SIZE", chunk)
        pair = [_cfg(model, n_steps=1000, seed=41, n_paths=601)
                for model in (ProposedBridge(sigma=0.8, horizon=1.0, target=A0),
                              TrueBridge(sigma=0.8, horizon=1.0, target=A0))]
        _assert_same_batches(*self._serial_and_split(monkeypatch, forks, pair))

    @pytest.mark.parametrize("keep", [range(501), [500, 7, 0, 250]], ids=["every", "some"])
    def test_kept_steps_and_weights(self, monkeypatch, forks, keep):
        cfg = _cfg(ProposedBridge(sigma=0.7, horizon=1.0, target=(0.3, -0.1)), start=(0.1, 0.2),
                   n_steps=500, seed=42, n_paths=engine.CHUNK_SIZE + 1)
        _assert_same_batches(*self._serial_and_split(
            monkeypatch, forks, cfg, keep_steps=keep, weight_cutoff=0.5))

    def test_a_bad_run_raises_the_serial_error(self, monkeypatch, forks):
        """The results are checked in path order after the child's half is
        loaded, so a split run's error is the serial run's line."""
        model = ProposedBridge(sigma=2.0**-490, horizon=1e-7, target=(0.45, 0.45))
        cfg = _cfg(model, n_steps=50, seed=1, n_paths=engine._MIN_SPLIT_WORK // 50)
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(engine, "_usable_cpus", lambda cpus=cpus: cpus)
            with pytest.raises(ValueError, match="log weights overflow a double") as err:
                simulate_batch(cfg, weight_cutoff=5e-8)
            errors.append(str(err.value))
        assert errors[0] == errors[1] and len(forks) == 1

    def test_smallest_split(self, monkeypatch, forks):
        n_paths, n_steps = _split_sizes()
        cfg = _cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0), n_steps=n_steps, seed=43,
                   n_paths=n_paths)
        _assert_same_batches(*self._serial_and_split(monkeypatch, forks, cfg))

    def test_stays_serial(self, monkeypatch, forks):
        """One usable CPU, a second live thread, too few paths per half or too
        little work keep the batch in this process."""
        n_paths, n_steps = _split_sizes()
        model = FreeBrownianMotion(sigma=1.0, horizon=1.0)
        big = _cfg(model, n_steps=n_steps, seed=44, n_paths=n_paths)
        few_paths = _cfg(model, n_steps=2 * n_steps, seed=44, n_paths=n_paths - 1)
        little_work = _cfg(model, n_steps=n_steps - 1, seed=44, n_paths=n_paths)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
        simulate_batch(big)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        for cfg in (few_paths, little_work):
            simulate_batch(cfg)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            simulate_batch(big)
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert forks == []

    def test_failed_fork_runs_every_chunk_here(self, monkeypatch):
        n_paths, n_steps = _split_sizes()
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0), n_steps=n_steps, seed=45,
                   n_paths=n_paths)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
        serial = simulate_batch(cfg, keep_steps=[n_steps // 2])

        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        _assert_same_batches([serial], [simulate_batch(cfg, keep_steps=[n_steps // 2])])


class TestRowRange:
    """``simulate_batch(..., rows=range(lo, hi))`` runs paths [lo, hi) of the
    batch: each result array holds their rows, bitwise the whole batch's."""

    CFG = _cfg(ProposedBridge(sigma=0.7, horizon=1.0, target=(0.3, -0.1)), start=(0.1, 0.2),
               n_steps=40, seed=46, n_paths=300)
    OPTIONS = dict(keep_steps=[0, 7, 40], weight_cutoff=0.5)

    @pytest.mark.parametrize("rows", [range(300), range(1), range(299, 300), range(37, 261)])
    def test_rows_of_the_whole_batch(self, monkeypatch, forks, rows):
        """With the split thresholds at one path, a range also splits within
        itself, at its own middle."""
        monkeypatch.setattr(engine, "CHUNK_SIZE", 50)  # several chunks, the last one short
        whole = simulate_batch(self.CFG, **self.OPTIONS)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "_MIN_SPLIT_PATHS", 1)
        monkeypatch.setattr(engine, "_MIN_SPLIT_WORK", 1)
        part = simulate_batch(self.CFG, **self.OPTIONS, rows=rows)
        assert part.config == whole.config and part.n_paths == len(rows)
        arrays = _batch_arrays(part)
        for name, array in _batch_arrays(whole).items():
            if name != "kept_steps":
                array = array[rows.start:rows.stop]
            np.testing.assert_array_equal(arrays[name], array, err_msg=name)
        assert len(forks) == (len(rows) >= 2)

    @pytest.mark.parametrize("rows", [range(0), range(3, 3), range(0, 4, 2), range(3, 0, -1),
                                      range(-1, 2), range(2, 301), [0, 1], slice(0, 2)])
    def test_bad_range_is_one_line_before_any_work(self, monkeypatch, rows):
        monkeypatch.setattr(engine, "_chunk_increments", None)  # any draw would fail
        with pytest.raises(ValueError) as err:
            simulate_batch(self.CFG, rows=rows)
        assert str(err.value) == (f"rows must be a nonempty range of step 1 within [0, 300); "
                                  f"got {rows!r}")


class TestForkedHelper:
    """``engine._forked`` runs one child at a time."""

    def test_no_fork_in_a_child_or_while_one_runs(self, monkeypatch, forks):
        """Inside the block of a ``_forked`` that forked, and inside its child,
        another ``_forked`` yields None, so a command never runs more than two
        processes; once the block ends, or a fork fails, the next one forks."""
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)

        def nested(out):
            with engine._forked(lambda out: None, "doing nothing") as join:
                out.write(b"none" if join is None else b"forked")

        with engine._forked(nested, "nesting") as join:
            with engine._forked(lambda out: None, "doing nothing") as second:
                assert second is None
            assert join().read() == b"none"
            with engine._forked(lambda out: None, "doing nothing") as second:
                assert second is None  # joined, but the block has not ended
        assert len(forks) == 1

        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", fork)
            with engine._forked(lambda out: None, "doing nothing") as join:
                assert join is None
        with engine._forked(lambda out: out.write(b"again"), "writing again") as join:
            assert join().read() == b"again"
        assert len(forks) == 2


def _model(variant, sigma, point):
    """A model of ``variant`` at ``sigma`` with horizon 1, conditioned on
    ``point`` where it takes a target or an endpoint."""
    name = {"euclid-bridge": "endpoint", "proposed": "target", "true-bridge": "target"}
    extra = {name[variant]: point} if variant in name else {}
    return VARIANTS[variant](sigma=sigma, horizon=1.0, **extra)


_DOMAIN_POINTS = st.tuples(*[st.floats(-0.5, 0.5, exclude_max=True)] * 2)


@st.composite
def _layouts(draw):
    """A batch of one model or a coupled pair, its options with the whole batch
    or a range of its paths, and a layout: chunk size, noise block and whether
    a forked child runs the second half."""
    n_paths, n_steps = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    sigma, start = draw(st.sampled_from([0.3, 0.8, 1.5])), draw(_DOMAIN_POINTS)
    seed = draw(st.integers(0, 2**32))
    configs = [SimConfig(model=_model(v, sigma, draw(_DOMAIN_POINTS)), start=start,
                         n_steps=n_steps, seed=seed, n_paths=n_paths)
               for v in draw(st.lists(st.sampled_from(sorted(VARIANTS)), min_size=1, max_size=2))]
    cutoff_steps = st.integers(1, n_steps - 1) if n_steps > 1 else st.nothing()
    # No step, every step, every step but the terminal one, or a few in any order.
    keep = st.sampled_from([None, range(n_steps + 1), range(n_steps)])
    options = dict(keep_steps=draw(keep | st.lists(st.integers(0, n_steps), max_size=4)),
                   weight_cutoff=draw(st.none() | cutoff_steps.map(lambda j: j / n_steps)))
    lo = draw(st.integers(0, n_paths - 1))
    options["rows"] = draw(st.none() | st.integers(lo + 1, n_paths).map(lambda hi: range(lo, hi)))
    layout = dict(CHUNK_SIZE=draw(st.integers(1, n_paths)),
                  NOISE_BLOCK=draw(st.integers(1, n_steps + 1)))
    return configs, options, layout, draw(st.booleans())


def _raw(array):
    """The bytes of ``array``, or None."""
    return None if array is None else array.tobytes()


@settings(max_examples=30, deadline=None)
@given(batch=_layouts())
def test_every_layout_gives_the_bits_of_single_paths(batch):
    """Whatever the chunk size, the noise block, the split and the range of
    paths run, every path's states at the kept steps, terminal state, offsets
    and log weight are the bits of ``simulate_path`` and
    ``log_girsanov_weight`` for its index.  The references are drawn first,
    under the default noise block.

    Every noise buffer this process fills, (paths, steps), stays within the
    budget of CHUNK_SIZE x NOISE_BLOCK pairs, and a chunk's blocks use as
    much of it as the steps allow: a chunk narrower than CHUNK_SIZE with steps
    to spare draws more than NOISE_BLOCK steps per call."""
    configs, options, layout, split = batch
    rows = options["rows"] or range(configs[0].n_paths)
    refs = [[simulate_path(cfg, i) for i in rows] for cfg in configs]
    forks, real_fork = [], os.fork
    buffers, draw = [], engine._chunk_increments
    with pytest.MonkeyPatch.context() as mp:
        for name, value in {**layout, "_MIN_SPLIT_PATHS": 1, "_MIN_SPLIT_WORK": 1}.items():
            mp.setattr(engine, name, value)
        mp.setattr(engine, "_usable_cpus", lambda: 2 if split else 1)
        mp.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        mp.setattr(engine, "_chunk_increments",
                   lambda streams, out, dt: buffers.append(out.shape[:2]) or draw(streams, out, dt))
        results = simulate_batch(configs, **options)
    assert len(forks) == (split and len(rows) >= 2)
    n_steps, budget = configs[0].n_steps, layout["CHUNK_SIZE"] * layout["NOISE_BLOCK"]
    while buffers:  # one chunk's blocks at a time, all of its width
        width, steps = buffers[0]
        assert width * steps <= budget
        assert steps == n_steps or width * (steps + 1) > budget
        if width < layout["CHUNK_SIZE"] and width * (layout["NOISE_BLOCK"] + 1) <= budget:
            assert steps > min(layout["NOISE_BLOCK"], n_steps - 1)
        blocks = [(width, min(steps, n_steps - first)) for first in range(0, n_steps, steps)]
        assert buffers[:len(blocks)] == blocks
        del buffers[:len(blocks)]
    cutoff = options["weight_cutoff"]
    for cfg, result, paths in zip(configs, results, refs):
        states = np.stack([path.states for path in paths])
        assert _raw(result.terminal_points) == _raw(states[:, -1])
        k, tie = nearest_offset(states[:, -1] - np.asarray(cfg.model.diagnostic_target))
        np.testing.assert_array_equal(result.limiting_lattice_points, k)
        np.testing.assert_array_equal(result.unresolved, tie)
        kept = sorted(set(options["keep_steps"] or ()))
        assert _raw(result.kept_steps) == _raw(np.array(kept, dtype=np.intp) if kept else None)
        assert _raw(result.states) == _raw(states[:, kept] if kept else None)
        assert _raw(result.log_weights) == _raw(None if cutoff is None else np.array(
            [log_girsanov_weight(path, cfg.model, cutoff) for path in paths]))


# Each retired key, the values that give today's behaviour as its error names them,
# those values, and other values with their repr in the error.
_RETIRED = [
    ("cut_locus_tol", "0", [0, 0.0, -0.0],
     [(0.05, "0.05"), (True, "True"), (False, "False"), ("0", "'0'"), (None, "None"),
      (1e-300, "1e-300"), (10**400, "1" + "0" * 400)]),
    ("scale_by_sigma_sq", "false", [False],
     [(True, "True"), ("false", "'false'"), (0, "0"), (None, "None")]),
    ("record_increments", "true or false", [True, False],
     [("false", "'false'"), ("true", "'true'"), (0, "0"), (1, "1"), (None, "None")]),
]
# One case per value, with None for the repr of a value that loads.
_RETIRED_CASES = [(key, wanted, value, shown) for key, wanted, accepted, refused in _RETIRED
                  for value, shown in [(v, None) for v in accepted] + refused]


def _with_key(cfg, key, value):
    """``cfg``'s dict with ``key`` set to ``value`` in the block whose class retired it."""
    data = config_to_dict(cfg)
    block = data if key in engine._RETIRED_KEYS[SimConfig] else data["model"]
    block[key] = value
    return data


class TestConfigRoundTrip:
    @pytest.mark.parametrize("model", [
        FreeBrownianMotion(sigma=1.0, horizon=2.0),
        EuclideanBridge(sigma=0.5, horizon=1.0, endpoint=(1.5, -0.25)),
        ProposedBridge(sigma=0.8, horizon=1.0, target=(0.1, -0.2)),
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

    @pytest.mark.parametrize("key, wanted, value, shown", _RETIRED_CASES,
                             ids=[f"{key}={value!r:.8}" for key, _, value, _ in _RETIRED_CASES])
    def test_retired_key(self, key, wanted, value, shown):
        """Older manifests hold keys of retired fields: each is dropped when it holds a
        value that gives today's behaviour, and any other value is one error line."""
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=(0.1, -0.2)))
        if shown is None:
            assert config_from_dict(_with_key(cfg, key, value)) == cfg
        else:
            with pytest.raises(ValueError) as err:
                config_from_dict(_with_key(cfg, key, value))
            assert str(err.value) == f"{key} must be {wanted}; got {shown}"

    def test_every_retired_key_is_tested(self):
        assert ({key for keys in engine._RETIRED_KEYS.values() for key in keys}
                == {key for key, *_ in _RETIRED})

    def test_cut_locus_tol_is_unknown_to_other_variants(self):
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['cut_locus_tol'\]"):
            model_from_dict({"variant": "true-bridge", "sigma": 0.8, "horizon": 1.0,
                             "target": [0.1, -0.2], "cut_locus_tol": 0.0})

    def test_unknown_model_key_rejected(self):
        cfg = _cfg(ProposedBridge(sigma=0.8, horizon=1.0, target=A0))
        data = config_to_dict(cfg)
        data["model"]["bogus"] = 1
        with pytest.raises(ValueError, match=r"^unknown key\(s\) \['bogus'\] for model variant "
                           r"'proposed'; its fields are \['sigma', 'horizon', 'target'\]$"):
            config_from_dict(data)

    def test_unknown_config_key_rejected(self):
        data = config_to_dict(_cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0)))
        data["bogus"] = 1
        with pytest.raises(ValueError, match=r"^unknown key\(s\) \['bogus'\] for SimConfig; "
                           r"its fields are \['model', 'start', 'n_steps', 'seed', 'n_paths'\]$"):
            config_from_dict(data)

    def test_missing_config_key_rejected(self):
        data = config_to_dict(_cfg(FreeBrownianMotion(sigma=1.0, horizon=1.0)))
        del data["start"], data["n_paths"]  # n_paths has a default, start has none
        with pytest.raises(ValueError, match=r"^SimConfig needs key\(s\) \['start'\]; "
                           r"fields \['model', 'start', 'n_steps', 'seed', 'n_paths'\]$"):
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
    (ProposedBridge(sigma=0.8, horizon=1.0, target=(0.1, -0.2)),
     {"variant": "proposed", "sigma": 0.8, "horizon": 1.0, "target": [0.1, -0.2]},
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
