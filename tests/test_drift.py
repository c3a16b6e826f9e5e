"""Tests for the drift models and the wrapped Gaussian density."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusbridge import (
    EuclideanBridge,
    FreeBrownianMotion,
    HorizonError,
    ProposedBridge,
    TrueBridge,
    drift,
    euclidean_bridge_drift,
    proposed_drift,
    softmax_weights,
    true_bridge_drift,
    wrapped_gaussian_log_density,
)
from torusbridge.drift import MIN_TIME_TO_GO

A0 = (0.0, 0.0)


def _offsets(k_max):
    return np.array([[i, j] for i in range(-k_max, k_max + 1) for j in range(-k_max, k_max + 1)], float)


def _softmax_weights_oracle(x, a, sigma, tau, k_max):
    """Independent direct evaluation of the (2K+1)^2 lattice softmax."""
    lifts = np.asarray(a) + _offsets(k_max)
    d2 = ((lifts - x) ** 2).sum(axis=1)
    e = -d2 / (2 * sigma**2 * tau)
    e -= e.max()
    w = np.exp(e)
    return lifts, w / w.sum()


def _softmax_drift_oracle(x, a, sigma, tau, k_max):
    """Independent direct evaluation of the weighted lattice pull."""
    lifts, w = _softmax_weights_oracle(x, a, sigma, tau, k_max)
    return (w[:, None] * (lifts - x)).sum(axis=0) / tau


def _density_oracle(x, y, sigma, delta, k_max):
    """Independent direct log of the (2K+1)^2 wrapped Gaussian sum."""
    var = sigma**2 * delta
    e = -(((np.asarray(x) - y - _offsets(k_max)) ** 2).sum(axis=1)) / (2 * var)
    m = e.max()
    return m + np.log(np.exp(e - m).sum()) - np.log(2 * np.pi * var)


class TestModelValidation:
    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            FreeBrownianMotion(sigma=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            FreeBrownianMotion(sigma=1.0, horizon=-1.0)
        with pytest.raises(ValueError):
            TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=-1)

    def test_target_must_be_torus_representative(self):
        with pytest.raises(ValueError):
            ProposedBridge(sigma=1.0, horizon=1.0, target=(0.5, 0.0))
        with pytest.raises(ValueError):
            TrueBridge(sigma=1.0, horizon=1.0, target=(0.0, -0.7))

    def test_nonfinite_endpoint_rejected(self):
        with pytest.raises(ValueError):
            EuclideanBridge(sigma=1.0, horizon=1.0, endpoint=(np.nan, 0.0))

    def test_models_are_immutable(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        with pytest.raises(AttributeError):
            m.sigma = 2.0


class TestProposedDrift:
    def test_pull_toward_nearest_lift(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        np.testing.assert_allclose(
            proposed_drift(0.5, (0.3, 0.4), m), [-0.6, -0.8], atol=1e-15
        )

    def test_zero_on_cut_locus(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=(0.25, 0.25))
        np.testing.assert_array_equal(proposed_drift(0.3, (0.75, 0.1), m), [0.0, 0.0])

    def test_zero_at_lift(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        np.testing.assert_array_equal(proposed_drift(0.9, (2.0, -3.0), m), [0.0, 0.0])

    def test_horizon_errors(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        for t in (1.0, 1.5, -0.1):
            with pytest.raises(HorizonError):
                proposed_drift(t, (0.1, 0.1), m)

    def test_time_to_go_clamped(self):
        """Just below the horizon the denominator is clamped, not overflowed."""
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        b = proposed_drift(1.0 - 1e-13, (0.3, 0.0), m)
        np.testing.assert_allclose(b, np.array([-0.3, 0.0]) / MIN_TIME_TO_GO)

    def test_uniform_bound_fuzz(self):
        """|b| stays below half a diagonal over the remaining time, 1e5 points."""
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        rng = np.random.default_rng(50)
        s = 0.75
        t = rng.uniform(0.0, s, size=100_000)
        x = rng.uniform(-3.0, 3.0, size=(100_000, 2))
        b = proposed_drift(t, x, m)
        bound = np.sqrt(0.5) / (1.0 - s)
        assert np.all(np.linalg.norm(b, axis=1) <= bound * (1 + 1e-12))

    def test_sigma_squared_switch(self):
        plain = ProposedBridge(sigma=0.7, horizon=1.0, target=A0)
        scaled = ProposedBridge(sigma=0.7, horizon=1.0, target=A0, scale_by_sigma_sq=True)
        b0 = proposed_drift(0.25, (0.2, -0.3), plain)
        b1 = proposed_drift(0.25, (0.2, -0.3), scaled)
        np.testing.assert_allclose(b1, 0.49 * b0, rtol=1e-15)

    def test_cut_locus_band(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0, cut_locus_tol=0.05)
        np.testing.assert_array_equal(proposed_drift(0.0, (0.47, 0.0), m), [0.0, 0.0])


class TestSoftmaxWeights:
    def test_two_nearest_lifts_tie(self):
        m = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=1)
        sw = softmax_weights(0.99, (0.5, 0.0), m)
        points = [tuple(p) for p in sw.lattice_points]
        w_left = sw.weights[points.index((0.0, 0.0))]
        w_right = sw.weights[points.index((1.0, 0.0))]
        assert w_left == w_right
        assert w_left + w_right == pytest.approx(1.0, abs=1e-12)

    def test_single_lift_window(self):
        m = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=0)
        sw = softmax_weights(0.4, (7.3, -2.1), m)
        np.testing.assert_array_equal(sw.weights, [1.0])

    def test_nearest_lift_dominates_at_short_horizon(self):
        # Gap in squared distance 0.8 against scale 2*sigma^2*tau = 0.04;
        # the nearest weight is within 1e-8 of 1 (measured deficit 2.1e-9).
        m = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=2)
        sw = softmax_weights(0.98, (0.1, 0.0), m)
        idx = np.argmin(np.linalg.norm(sw.lattice_points - [0.1, 0.0], axis=1))
        assert 1.0 - sw.weights[idx] < 1e-8

    def test_weights_normalised_even_at_vanishing_time_to_go(self):
        rng = np.random.default_rng(51)
        m = TrueBridge(sigma=0.8, horizon=1.0, target=(0.2, -0.3), truncation=3)
        for t in (0.0, 0.5, 1.0 - 1e-12):
            x = rng.uniform(-1.0, 1.0, size=2)
            sw = softmax_weights(t, x, m)
            assert np.all(sw.weights >= 0)
            assert sw.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestTrueBridgeDrift:
    def test_single_lift_reduces_to_euclidean_bridge(self):
        tb = TrueBridge(sigma=0.9, horizon=1.0, target=(0.1, 0.2), truncation=0)
        eb = EuclideanBridge(sigma=0.9, horizon=1.0, endpoint=(0.1, 0.2))
        rng = np.random.default_rng(52)
        for _ in range(200):
            t = rng.uniform(0.0, 0.999)
            x = rng.uniform(-2.0, 2.0, size=2)
            np.testing.assert_allclose(
                true_bridge_drift(t, x, tb),
                euclidean_bridge_drift(t, x, eb),
                atol=1e-15,
            )

    def test_symmetric_lifts_cancel_on_tie_line(self):
        """On a tie line the paired lifts cancel; only the window's edge
        asymmetry survives, and it decays with the time to go."""
        m = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=3)
        x = (0.5, 0.2)
        assert abs(true_bridge_drift(0.9, x, m)[0]) <= 1e-12
        assert abs(true_bridge_drift(0.5, x, m)[0]) <= 1e-4
        assert abs(true_bridge_drift(0.0, x, m)[0]) <= 1e-2

    def test_collapses_onto_nearest_lift_drift(self):
        """As t -> T the softmax concentrates on the argmin lift."""
        tb = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=3)
        pb = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        x = (0.3, 0.4)
        gaps = []
        for t in (0.95, 0.98, 0.99, 0.995, 0.998):
            gaps.append(
                np.linalg.norm(true_bridge_drift(t, x, tb) - proposed_drift(t, x, pb))
            )
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        # frozen from the direct softmax evaluation at time to go 0.01
        assert gaps[2] == pytest.approx(4.539787e-3, rel=1e-5)
        assert gaps[3] < 1e-6 and gaps[4] < 1e-6

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            sigma = rng.uniform(0.3, 1.2)
            t = rng.uniform(0.0, 0.99)
            x = rng.uniform(-1.5, 1.5, size=2)
            m = TrueBridge(sigma=sigma, horizon=1.0, target=A0, truncation=3)
            np.testing.assert_allclose(
                true_bridge_drift(t, x, m),
                _softmax_drift_oracle(np.asarray(x), A0, sigma, 1.0 - t, 3),
                rtol=1e-10, atol=1e-12,
            )

    def test_truncation_stability(self):
        """Widening the window is invisible once the scale sigma^2 (T-t)
        is moderate; at the extreme corner the edge terms stay tiny."""
        rng = np.random.default_rng(54)
        for _ in range(300):
            sigma = rng.uniform(0.05, 1.0)
            tau = rng.uniform(1e-3, min(0.999, 0.1 / sigma**2))
            x = rng.uniform(-1.5, 1.5, size=2)
            m3 = TrueBridge(sigma=sigma, horizon=1.0, target=A0, truncation=3)
            m4 = TrueBridge(sigma=sigma, horizon=1.0, target=A0, truncation=4)
            gap = np.linalg.norm(
                true_bridge_drift(1.0 - tau, x, m3) - true_bridge_drift(1.0 - tau, x, m4)
            )
            assert gap < 1e-10, f"sigma={sigma}, tau={tau}: gap={gap}"
        # sigma = 1, time to go 0.5, worst corner of the fundamental square
        m3 = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=3)
        m4 = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=4)
        corner = np.linalg.norm(
            true_bridge_drift(0.5, (0.4999, 0.4999), m3)
            - true_bridge_drift(0.5, (0.4999, 0.4999), m4)
        )
        assert corner < 1e-3

    def test_horizon_errors(self):
        m = TrueBridge(sigma=1.0, horizon=2.0, target=A0)
        with pytest.raises(HorizonError):
            true_bridge_drift(2.0, (0.1, 0.1), m)


class TestEuclideanBridgeDrift:
    def test_zero_at_endpoint(self):
        m = EuclideanBridge(sigma=1.0, horizon=1.0, endpoint=(0.4, -0.2))
        np.testing.assert_array_equal(
            euclidean_bridge_drift(0.3, (0.4, -0.2), m), [0.0, 0.0]
        )

    def test_arithmetic(self):
        m = EuclideanBridge(sigma=1.0, horizon=1.0, endpoint=(1.0, 0.0))
        np.testing.assert_allclose(
            euclidean_bridge_drift(0.75, (0.0, 0.0), m), [4.0, 0.0], atol=1e-12
        )

    def test_free_model_has_zero_drift(self):
        m = FreeBrownianMotion(sigma=1.3, horizon=2.0)
        rng = np.random.default_rng(55)
        x = rng.uniform(-5, 5, size=(100, 2))
        np.testing.assert_array_equal(drift(0.7, x, m), np.zeros((100, 2)))


class TestGradientIdentity:
    def test_drift_is_scaled_log_density_gradient(self):
        """The lattice-softmax drift equals sigma^2 times the numerical
        gradient of the wrapped Gaussian log density on the same window."""
        rng = np.random.default_rng(56)
        sigma, horizon, k_max = 0.8, 1.0, 3
        m = TrueBridge(sigma=sigma, horizon=horizon, target=A0, truncation=k_max)
        h = 1e-5
        checked = 0
        while checked < 20:
            t = rng.uniform(0.0, 0.9)
            x = rng.uniform(-0.45, 0.45, size=2)
            b = true_bridge_drift(t, x, m)
            if np.linalg.norm(b) < 1e-2:
                continue
            grad = np.empty(2)
            for c in range(2):
                e = np.zeros(2)
                e[c] = h
                grad[c] = (
                    wrapped_gaussian_log_density(t, x + e, horizon, A0, sigma, k_max)
                    - wrapped_gaussian_log_density(t, x - e, horizon, A0, sigma, k_max)
                ) / (2 * h)
            np.testing.assert_allclose(sigma**2 * grad, b, rtol=1e-5)
            checked += 1


class TestWrappedGaussianLogDensity:
    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            x = rng.uniform(-0.5, 0.5, size=2)
            y = rng.uniform(-0.5, 0.5, size=2)
            v1 = wrapped_gaussian_log_density(0.2, x, 0.9, y, 0.8, 4)
            v2 = wrapped_gaussian_log_density(0.2, y, 0.9, x, 0.8, 4)
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_integrates_to_one(self):
        """Midpoint quadrature over the fundamental domain (100 x 100)."""
        m, k_max = 100, 5
        grid = (np.arange(m) + 0.5) / m - 0.5
        g1, g2 = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([g1.ravel(), g2.ravel()], axis=1)
        ld = wrapped_gaussian_log_density(0.0, pts, 0.1, (0.13, -0.27), 1.0, k_max)
        assert np.exp(ld).mean() == pytest.approx(1.0, abs=1e-6)

    def test_long_horizon_flattens_to_uniform(self):
        """For large sigma^2 (t-s) the density tends to 1, the uniform
        density on the unit-area torus (window scaled with the spread)."""
        pts = np.array([[0.0, 0.0], [0.49, 0.49], [0.25, -0.4], [-0.5, 0.0]])
        ld = wrapped_gaussian_log_density(0.0, pts, 50.0, (0.0, 0.0), 1.0, 40)
        np.testing.assert_allclose(np.exp(ld), 1.0, atol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            wrapped_gaussian_log_density(0.5, (0, 0), 0.5, (0, 0), 1.0, 3)
        with pytest.raises(ValueError):
            wrapped_gaussian_log_density(0.6, (0, 0), 0.5, (0, 0), 1.0, 3)
        with pytest.raises(ValueError):
            wrapped_gaussian_log_density(0.0, (0, 0), 0.5, (0, 0), -1.0, 3)
        with pytest.raises(ValueError):
            wrapped_gaussian_log_density(0.0, (0, 0), 0.5, (0, 0), 1.0, -2)


def _rounding_slack(x, sigma, tau, k_max):
    """How far double rounding alone can move the lattice softmax at x.

    Either evaluation rounds the displacement x - (a + k), off by about
    eps * R with R = |x|_inf + K + 1, and the exponents
    -|y - x|^2 / (2 sigma^2 tau) amplify that by about R / (sigma^2 tau).
    It reaches 1e-10 only where sigma^2 tau < 2e-3; near a tie line there
    the true drift moves by more than any fixed tolerance within one ulp.
    """
    r = np.abs(x).max() + k_max + 1
    return 4 * np.finfo(float).eps * r * (1 + r / (sigma**2 * tau))


_sigmas = st.floats(0.05, 3.0)
_taus = st.floats(1e-6, 1.0)
_windows = st.integers(0, 6)
_targets = st.tuples(*[st.floats(-0.5, 0.5, exclude_max=True)] * 2)
_planes = st.tuples(*[st.floats(-6.0, 6.0)] * 2)


class TestSeparableKernelProperties:
    """The per-coordinate kernels against the direct (2K+1)^2 sums."""

    @settings(max_examples=300, deadline=None)
    @given(sigma=_sigmas, tau=_taus, k_max=_windows, a=_targets, x=_planes)
    def test_drift_and_weights_match_direct_sum(self, sigma, tau, k_max, a, x):
        m = TrueBridge(sigma=sigma, horizon=1.0, target=a, truncation=k_max)
        t = 1.0 - tau
        tau = 1.0 - t  # the rounded time to go the model sees
        x = np.asarray(x)
        lifts, w = _softmax_weights_oracle(x, a, sigma, tau, k_max)
        sw = softmax_weights(t, x, m)
        np.testing.assert_array_equal(sw.lattice_points, lifts)
        slack = _rounding_slack(x, sigma, tau, k_max)
        np.testing.assert_allclose(sw.weights, w, rtol=1e-10 + slack, atol=1e-12)
        np.testing.assert_allclose(
            true_bridge_drift(t, x, m),
            _softmax_drift_oracle(x, a, sigma, tau, k_max),
            rtol=1e-10, atol=1e-12 + slack / tau,
        )

    @settings(max_examples=300, deadline=None)
    @given(sigma=_sigmas, delta=_taus, k_max=_windows, y=_targets, x=_planes)
    def test_density_matches_direct_sum(self, sigma, delta, k_max, y, x):
        np.testing.assert_allclose(
            wrapped_gaussian_log_density(0.0, x, delta, y, sigma, k_max),
            _density_oracle(x, y, sigma, delta, k_max),
            rtol=1e-10, atol=1e-12,
        )

    @settings(max_examples=100, deadline=None)
    @given(sigma=_sigmas, tau=_taus, k_max=_windows, a=_targets,
           xs=st.lists(_planes, min_size=1, max_size=6))
    def test_single_point_equals_batch_row(self, sigma, tau, k_max, a, xs):
        m = TrueBridge(sigma=sigma, horizon=1.0, target=a, truncation=k_max)
        t = 1.0 - tau
        batch = np.asarray(xs)
        drifts = true_bridge_drift(t, batch, m)
        weights = softmax_weights(t, batch, m).weights
        densities = wrapped_gaussian_log_density(0.0, batch, tau, a, sigma, k_max)
        for row, x in enumerate(xs):
            np.testing.assert_array_equal(true_bridge_drift(t, x, m), drifts[row])
            np.testing.assert_array_equal(softmax_weights(t, x, m).weights, weights[row])
            assert wrapped_gaussian_log_density(0.0, x, tau, a, sigma, k_max) == densities[row]
