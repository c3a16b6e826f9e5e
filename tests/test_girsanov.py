"""Tests for the Girsanov weights and the drift moment bounds."""

import numpy as np
import pytest

from torusbridge import (
    FreeBrownianMotion,
    PathSample,
    ProposedBridge,
    SimConfig,
    TrueBridge,
    drift_bound_constant,
    log_girsanov_weight,
    simulate_batch,
    simulate_path,
    wiener_increments,
)
from torusbridge.drift import drift
from torusbridge.girsanov import path_log_weights

A0 = (0.0, 0.0)


def _states_and_increments(model, n_paths, n_steps, seed):
    """A batch's config, its states (n_paths, n_steps + 1, 2) and the
    increments (n_paths, n_steps, 2) that drove them."""
    cfg = SimConfig(model=model, start=A0, n_steps=n_steps, seed=seed, n_paths=n_paths)
    states = simulate_batch(cfg, keep_steps=range(n_steps + 1)).states
    increments = np.stack([wiener_increments(seed, i, n_steps, cfg.dt) for i in range(n_paths)])
    return cfg, states, increments


def _assert_weighted_means_match(w, pairs):
    """Each weighted proposal mean E[w f(X)] agrees with the direct mean
    E[f(Y)] within 3 standard errors, per column."""
    n = len(w)
    for fp, ff in pairs:
        wf = w[:, None] * fp
        se = np.sqrt(wf.var(0, ddof=1) / n + ff.var(0, ddof=1) / n)
        assert np.all(np.abs(wf.mean(0) - ff.mean(0)) <= 3 * se)


class TestLogWeight:
    def test_zero_drift_gives_zero_weight(self):
        cfg = SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1.0), start=A0,
                        n_steps=50, seed=1, n_paths=1)
        path = simulate_path(cfg, 0)
        assert log_girsanov_weight(path, cfg.model, 0.5) == 0.0

    def test_one_step_arithmetic(self):
        """One contributing step: b = (-0.6, -0.8), dW = (0.1, 0.1), dt = 0.1
        gives -b.dW - |b|^2 dt / 2 = 0.14 - 0.05 = 0.09."""
        model = ProposedBridge(sigma=1.0, horizon=0.5, target=A0)
        times = np.linspace(0.0, 0.5, 6)
        states = np.zeros((6, 2))
        states[0] = (0.3, 0.4)
        increments = np.zeros((5, 2))
        increments[0] = (0.1, 0.1)
        path = PathSample(times=times, states=states, increments=increments)
        assert log_girsanov_weight(path, model, 0.1) == pytest.approx(0.09, abs=1e-15)

    def test_matches_engine_accumulated_weights(self):
        model = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        cfg = SimConfig(model=model, start=A0, n_steps=100, seed=2, n_paths=40)
        batch = simulate_batch(cfg, weight_cutoff=0.5)
        for i in (0, 7, 39):
            assert log_girsanov_weight(simulate_path(cfg, i), model, 0.5) == batch.log_weights[i]

    def test_requires_recorded_increments(self):
        """Batch paths carry states only, so they give no weight."""
        cfg = SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1.0), start=A0,
                        n_steps=10, seed=3, n_paths=1)
        path = simulate_batch(cfg, keep_steps=range(11)).paths[0]
        with pytest.raises(ValueError):
            log_girsanov_weight(path, cfg.model, 0.5)

    def test_cutoff_validation(self):
        cfg = SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1.0), start=A0,
                        n_steps=10, seed=4, n_paths=1)
        path = simulate_path(cfg, 0)
        for bad in (1.0, 1.5, 0.0, -0.2, 0.55):  # at T, past T, empty, negative, off grid
            with pytest.raises(ValueError):
                log_girsanov_weight(path, cfg.model, bad)

    @pytest.mark.parametrize("field, value", [
        ("states", np.nan), ("states", np.inf), ("times", -0.1), ("times", np.nan),
        ("increments", np.nan), ("steps", 1),
    ])
    def test_bad_path_rejected(self, field, value):
        """The kernel is unchecked, so the weight checks the states, times and
        increments before the cutoff itself, once; a NaN increment is not
        called an overflow, and a path of one time gets a one-line error."""
        model = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        cfg = SimConfig(model=model, start=A0, n_steps=10, seed=5, n_paths=1)
        path = simulate_path(cfg, 0)
        arrays = {"states": path.states.copy(), "times": path.times.copy(),
                  "increments": path.increments.copy()}
        if field == "steps":
            arrays = {"states": path.states[:value], "times": path.times[:value],
                      "increments": path.increments[:value - 1]}
        else:
            arrays[field][3] = value
        error = {"states": "states must be finite", "times": "times before the cutoff",
                 "increments": "increments must be finite",
                 "steps": "the path needs at least two times; got 1"}[field]
        with pytest.raises(ValueError, match=error) as info:
            log_girsanov_weight(PathSample(**arrays), model, 0.5)
        assert "\n" not in str(info.value)

    def test_steps_must_agree(self):
        """Times, states and increments must all hold the same steps, beyond
        the cutoff too."""
        model = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        cfg = SimConfig(model=model, start=A0, n_steps=10, seed=5, n_paths=1)
        path = simulate_path(cfg, 0)
        for field in ("times", "states", "increments"):
            arrays = {"times": path.times, "states": path.states, "increments": path.increments}
            arrays[field] = arrays[field][:-1]
            with pytest.raises(ValueError, match="disagree on the step count"):
                log_girsanov_weight(PathSample(**arrays), model, 0.5)

    def test_overflow_is_one_error_line(self):
        """At the smallest sigma the pull 0.45 / 1e-7 per axis over sigma squares
        past the largest double: the batch, checking once per chunk, and the
        single-path weight refuse it with the same line."""
        model = ProposedBridge(sigma=2.0**-490, horizon=1e-7, target=(0.45, 0.45))
        cfg = SimConfig(model=model, start=A0, n_steps=50, seed=1, n_paths=3)
        with pytest.raises(ValueError, match="log weights overflow a double") as batch:
            simulate_batch(cfg, weight_cutoff=5e-8)
        with pytest.raises(ValueError, match="log weights overflow a double") as single:
            log_girsanov_weight(simulate_path(cfg, 0), model, 5e-8)
        assert str(batch.value) == str(single.value)
        assert "\n" not in str(batch.value)


class TestMartingaleProperty:
    def test_mean_weight_is_one(self):
        """E[exp(log weight)] = 1 at the cutoff, within Monte Carlo error."""
        model = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        cfg = SimConfig(model=model, start=A0, n_steps=1000, seed=6, n_paths=10_000)
        batch = simulate_batch(cfg, weight_cutoff=0.5)
        w = np.exp(batch.log_weights)
        se = w.std(ddof=1) / np.sqrt(len(w))
        assert abs(w.mean() - 1.0) <= 3 * se

    def test_mean_weight_is_one_along_the_grid(self):
        """The martingale property holds at every tested grid time below T."""
        model = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        cfg, states, increments = _states_and_increments(model, 3000, 500, 7)
        times = cfg.time_grid()
        for cutoff in (0.1, 0.2, 0.3, 0.4, 0.5):
            k = round(cutoff / cfg.dt)  # the steps before the cutoff
            logw = _kernel_log_weights(times[:k], states, increments, cfg.dt, model,
                                       np.zeros(len(states)))
            w = np.exp(logw)
            se = w.std(ddof=1) / np.sqrt(len(w))
            assert abs(w.mean() - 1.0) <= 3 * se, f"cutoff {cutoff}"


class TestImportanceSampling:
    def test_weighted_moments_match_free_process(self):
        """Weight-corrected proposal moments agree with direct driftless
        simulation at the cutoff (first and second moments, per coordinate)."""
        S, n = 0.5, 5000
        prop_cfg = SimConfig(model=ProposedBridge(sigma=1.0, horizon=1.0, target=A0),
                             start=A0, n_steps=500, seed=8, n_paths=n)
        free_cfg = SimConfig(model=FreeBrownianMotion(sigma=1.0, horizon=1.0),
                             start=A0, n_steps=500, seed=9, n_paths=n)
        prop = simulate_batch(prop_cfg, keep_steps=[250], weight_cutoff=S)
        free = simulate_batch(free_cfg, keep_steps=[250])
        xp, xf = prop.states[:, 0], free.states[:, 0]
        _assert_weighted_means_match(np.exp(prop.log_weights), [(xp, xf), (xp**2, xf**2)])

    def test_weighted_moments_match_free_process_below_unit_sigma(self):
        """At sigma = 0.5 the weight must use b / sigma: weighted proposal
        moments at S match direct sigma-scaled Brownian motion.  With b in
        place of b / sigma, E[x^2] sits near z = -10 per coordinate and
        P(|x| < 0.2) near z = +16."""
        S, n, sigma = 0.5, 20_000, 0.5
        prop_cfg = SimConfig(model=ProposedBridge(sigma=sigma, horizon=1.0, target=A0),
                             start=A0, n_steps=200, seed=10, n_paths=n)
        free_cfg = SimConfig(model=FreeBrownianMotion(sigma=sigma, horizon=1.0),
                             start=A0, n_steps=200, seed=11, n_paths=n)
        prop = simulate_batch(prop_cfg, keep_steps=[100], weight_cutoff=S)
        free = simulate_batch(free_cfg, keep_steps=[100])
        xp, xf = prop.states[:, 0], free.states[:, 0]
        near_p, near_f = ((np.hypot(*x.T) < 0.2)[:, None] for x in (xp, xf))
        _assert_weighted_means_match(np.exp(prop.log_weights),
                                     [(xp, xf), (xp**2, xf**2), (near_p, near_f)])


class TestDriftBoundConstant:
    def test_values(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        assert drift_bound_constant(m, 0.5) == pytest.approx(2.0, abs=1e-15)
        assert drift_bound_constant(m, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_increasing_in_cutoff(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        values = [drift_bound_constant(m, s) for s in (0.0, 0.25, 0.5, 0.75, 0.9)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_wrong_variant_rejected(self):
        with pytest.raises(TypeError):
            drift_bound_constant(FreeBrownianMotion(sigma=1.0, horizon=1.0), 0.5)
        with pytest.raises(TypeError):
            drift_bound_constant(TrueBridge(sigma=1.0, horizon=1.0, target=A0), 0.5)

    def test_cutoff_validated(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        with pytest.raises(ValueError):
            drift_bound_constant(m, 1.0)


class TestNovikovBound:
    """The moment bound exp(t C_S) on E[exp(int_0^t |b|^2 ds)], t <= S."""

    def test_monte_carlo_estimate_stays_below_bound(self):
        """The sampled exponential moment never exceeds exp(t C_S); in fact
        the bound holds path by path, not just on average."""
        S = 0.5
        model = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        cfg, states, _ = _states_and_increments(model, 2000, 500, 10)
        times = cfg.time_grid()
        dt = cfg.dt
        c_s = drift_bound_constant(model, S)
        k = 250  # steps strictly before S
        bsq = np.empty((2000, k))
        for i in range(k):
            b = model.drift(times[i], states[:, i])
            bsq[:, i] = (b * b).sum(axis=-1)
        partial = np.cumsum(bsq * dt, axis=1)
        limits = times[1 : k + 1] * c_s
        assert np.all(partial <= limits * (1 + 1e-12))
        assert np.exp(partial[:, -1]).mean() <= np.exp(S * c_s)


def _kernel_log_weights(times, states, increments, dt, model, partial):
    """The kernel summed over the steps at ``times``, in order, from ``partial``;
    ``states`` and ``increments`` hold those steps on their second-to-last axis."""
    acc = np.array(partial, dtype=float)
    for i, t in enumerate(times):
        path_log_weights(t, states[..., i, :], increments[..., i, :], dt, model, acc)
    return acc


def _summed_log_weights(times, states, increments, dt, model, partial):
    """The kernel's sum with numpy's .sum(axis=-1) over each length-2 axis, the
    bitwise reference for its two-term sums."""
    acc = np.asarray(partial, dtype=float)
    for i, t in enumerate(times):
        u = drift(t, states[..., i, :], model) / model.sigma
        acc = acc - (u * increments[..., i, :]).sum(axis=-1) - 0.5 * (u * u).sum(axis=-1) * dt
    return acc


@pytest.mark.parametrize("model", [
    FreeBrownianMotion(sigma=0.7, horizon=1.0),
    ProposedBridge(sigma=0.7, horizon=1.0, target=(0.25, -0.5)),
], ids=lambda m: m.variant)
def test_two_term_sums_keep_the_bits_of_sum(model):
    """Rows of u dW equal to (-0.0, -0.0), from a zero drift against negative
    increments, sum to 0.0 as in .sum(axis=-1), not to a + b = -0.0; a partial
    weight of -0.0 shows the difference: -0.0 - 0.0 keeps its sign."""
    rng = np.random.default_rng(11)
    n_paths, n_steps = 6, 3
    states = rng.uniform(-2.0, 2.0, size=(n_paths, n_steps, 2))
    states[:3] = (0.25, -0.5)  # on a lift of the target: zero drift
    increments = rng.normal(0.0, 0.1, size=(n_paths, n_steps, 2))
    increments[:2] = -np.abs(increments[:2])
    increments[2, :, 1] = -0.0
    times = np.array([0.0, 0.1, 0.2])
    partial = np.array([-0.0, 0.0, -0.0, 0.3, -0.0, -1.5])
    got = _kernel_log_weights(times, states, increments, 0.1, model, partial)
    expected = _summed_log_weights(times, states, increments, 0.1, model, partial)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.signbit(got[[0, 2]]).all()
    for row in range(n_paths):
        one = _kernel_log_weights(times, states[row], increments[row], 0.1, model, partial[row])
        assert one.shape == () and one.view(np.int64) == expected[row].view(np.int64)
