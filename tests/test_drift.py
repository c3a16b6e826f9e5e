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
    lattice_lifts,
    softmax_weights,
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

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_scale_by_sigma_sq_must_be_a_boolean(self, value):
        with pytest.raises(ValueError, match="scale_by_sigma_sq must be true or false"):
            ProposedBridge(sigma=0.5, horizon=1.0, target=A0, scale_by_sigma_sq=value)

    def test_models_are_immutable(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        with pytest.raises(AttributeError):
            m.sigma = 2.0


_TIMED_MODELS = [
    EuclideanBridge(sigma=1.0, horizon=2.0, endpoint=(0.3, 0.1)),
    ProposedBridge(sigma=1.0, horizon=2.0, target=A0),
    TrueBridge(sigma=1.0, horizon=2.0, target=A0, truncation=1),
]


class TestTimeValidation:
    """Every model that needs a time to go rejects t outside [0, T) the same way."""

    @pytest.mark.parametrize("t", [
        np.nan, np.inf, -np.inf, [0.5, np.nan], [np.nan, -0.1], [3.0, np.inf, 0.1],
        [-np.inf, 2.0], [[0.1, 0.2], [0.3, np.nan]],
    ])
    @pytest.mark.parametrize("model", _TIMED_MODELS, ids=lambda m: m.variant)
    def test_non_finite_time(self, model, t):
        with pytest.raises(HorizonError, match="time must be finite"):
            model.drift(t, (0.1, 0.2))

    @pytest.mark.parametrize("t", [-0.1, 2.0, 3.0, [0.5, 2.0], [-0.1, 0.5], [0.0, 3.0],
                                   [[0.1, 0.2], [2.0, 0.3]]])
    @pytest.mark.parametrize("model", _TIMED_MODELS, ids=lambda m: m.variant)
    def test_time_out_of_range(self, model, t):
        with pytest.raises(HorizonError, match=r"time must lie in \[0, 2\.0\)"):
            model.drift(t, (0.1, 0.2))

    def test_softmax_weights_checks_time(self):
        m = _TIMED_MODELS[2]
        with pytest.raises(HorizonError, match="time must be finite"):
            softmax_weights([0.1, np.nan], (0.1, 0.2), m)
        with pytest.raises(HorizonError, match="must lie in"):
            softmax_weights(2.0, (0.1, 0.2), m)

    @pytest.mark.parametrize("model", _TIMED_MODELS, ids=lambda m: m.variant)
    def test_range_edges_accepted(self, model):
        t = [0.0, -0.0, np.nextafter(2.0, 0.0)]
        assert model.drift(t, (0.1, 0.2)).shape == (3, 2)


class TestProposedDrift:
    def test_pull_toward_nearest_lift(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        np.testing.assert_allclose(
            m.drift(0.5, (0.3, 0.4)), [-0.6, -0.8], atol=1e-15
        )

    def test_zero_on_cut_locus(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=(0.25, 0.25))
        np.testing.assert_array_equal(m.drift(0.3, (0.75, 0.1)), [0.0, 0.0])

    def test_zero_at_lift(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        np.testing.assert_array_equal(m.drift(0.9, (2.0, -3.0)), [0.0, 0.0])

    def test_horizon_errors(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        for t in (1.0, 1.5, -0.1):
            with pytest.raises(HorizonError):
                m.drift(t, (0.1, 0.1))

    def test_time_to_go_clamped(self):
        """Just below the horizon the denominator is clamped, not overflowed."""
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        b = m.drift(1.0 - 1e-13, (0.3, 0.0))
        np.testing.assert_allclose(b, np.array([-0.3, 0.0]) / MIN_TIME_TO_GO)

    def test_uniform_bound_fuzz(self):
        """|b| stays below half a diagonal over the remaining time, 1e5 points."""
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        rng = np.random.default_rng(50)
        s = 0.75
        t = rng.uniform(0.0, s, size=100_000)
        x = rng.uniform(-3.0, 3.0, size=(100_000, 2))
        b = m.drift(t, x)
        bound = np.sqrt(0.5) / (1.0 - s)
        assert np.all(np.linalg.norm(b, axis=1) <= bound * (1 + 1e-12))

    def test_sigma_squared_switch(self):
        plain = ProposedBridge(sigma=0.7, horizon=1.0, target=A0)
        scaled = ProposedBridge(sigma=0.7, horizon=1.0, target=A0, scale_by_sigma_sq=True)
        b0 = plain.drift(0.25, (0.2, -0.3))
        b1 = scaled.drift(0.25, (0.2, -0.3))
        np.testing.assert_allclose(b1, 0.49 * b0, rtol=1e-15)

    def test_cut_locus_band(self):
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0, cut_locus_tol=0.05)
        np.testing.assert_array_equal(m.drift(0.0, (0.47, 0.0)), [0.0, 0.0])

    @pytest.mark.parametrize("scaled", [False, True])
    def test_cut_locus_drift_is_positive_zero(self, scaled):
        # Off the cut locus these points would be pulled by (-0.5, -0.2),
        # (-0.5, -0.1) and (0.3, -0.5) over the time to go.
        m = ProposedBridge(sigma=0.7, horizon=1.0, target=A0, scale_by_sigma_sq=scaled)
        on_cut = [(0.5, 0.2), (2.5, 0.1), (-0.3, -1.5)]
        for x in on_cut:
            b = m.drift(0.3, x)
            np.testing.assert_array_equal(b, [0.0, 0.0])
            assert not np.signbit(b).any()
        batch = np.array([on_cut[0], (0.3, 0.2), on_cut[1], (0.3, 1.2), on_cut[2]])
        b = m.drift(np.array([0.3, 0.3, 0.5, 0.3, 0.9]), batch)
        hit = [True, False, True, False, True]
        np.testing.assert_array_equal(b[hit], 0.0)
        assert not np.signbit(b[hit]).any()
        assert np.all(b[[1, 3]] < 0.0)

    def test_time_array_wider_than_points(self):
        """A time per row broadcast against one point, on and off the cut locus."""
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        t = np.array([0.0, 0.25, 0.5])
        for x in [(0.3, -0.2), (0.5, 0.1)]:
            np.testing.assert_array_equal(m.drift(t, x), [m.drift(ti, x) for ti in t])
        np.testing.assert_array_equal(m.drift(t[:, None], np.array([[0.3, 0.1], [0.5, 0.1]])),
                                      [[m.drift(ti, (0.3, 0.1)), [0.0, 0.0]] for ti in t])


class TestSoftmaxWeights:
    def test_two_nearest_lifts_tie(self):
        m = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=1)
        w = softmax_weights(0.99, (0.5, 0.0), m)
        points = [tuple(p) for p in lattice_lifts(m.target, m.truncation)]
        w_left = w[points.index((0.0, 0.0))]
        w_right = w[points.index((1.0, 0.0))]
        assert w_left == w_right
        assert w_left + w_right == pytest.approx(1.0, abs=1e-12)

    def test_single_lift_window(self):
        m = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=0)
        np.testing.assert_array_equal(softmax_weights(0.4, (7.3, -2.1), m), [1.0])

    def test_nearest_lift_dominates_at_short_horizon(self):
        # Gap in squared distance 0.8 against scale 2*sigma^2*tau = 0.04;
        # the nearest weight is within 1e-8 of 1 (measured deficit 2.1e-9).
        m = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=2)
        w = softmax_weights(0.98, (0.1, 0.0), m)
        lifts = lattice_lifts(m.target, m.truncation)
        idx = np.argmin(np.linalg.norm(lifts - [0.1, 0.0], axis=1))
        assert 1.0 - w[idx] < 1e-8

    def test_weights_normalised_even_at_vanishing_time_to_go(self):
        rng = np.random.default_rng(51)
        m = TrueBridge(sigma=0.8, horizon=1.0, target=(0.2, -0.3), truncation=3)
        for t in (0.0, 0.5, 1.0 - 1e-12):
            x = rng.uniform(-1.0, 1.0, size=2)
            w = softmax_weights(t, x, m)
            assert np.all(w >= 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestTrueBridgeDrift:
    def test_single_lift_reduces_to_euclidean_bridge(self):
        tb = TrueBridge(sigma=0.9, horizon=1.0, target=(0.1, 0.2), truncation=0)
        eb = EuclideanBridge(sigma=0.9, horizon=1.0, endpoint=(0.1, 0.2))
        rng = np.random.default_rng(52)
        for _ in range(200):
            t = rng.uniform(0.0, 0.999)
            x = rng.uniform(-2.0, 2.0, size=2)
            np.testing.assert_allclose(
                tb.drift(t, x),
                eb.drift(t, x),
                atol=1e-15,
            )

    def test_symmetric_lifts_cancel_on_tie_line(self):
        """On a tie line the paired lifts cancel; only the window's edge
        asymmetry survives, and it decays with the time to go."""
        m = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=3)
        x = (0.5, 0.2)
        assert abs(m.drift(0.9, x)[0]) <= 1e-12
        assert abs(m.drift(0.5, x)[0]) <= 1e-4
        assert abs(m.drift(0.0, x)[0]) <= 1e-2

    def test_collapses_onto_nearest_lift_drift(self):
        """As t -> T the softmax concentrates on the argmin lift."""
        tb = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=3)
        pb = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        x = (0.3, 0.4)
        gaps = []
        for t in (0.95, 0.98, 0.99, 0.995, 0.998):
            gaps.append(
                np.linalg.norm(tb.drift(t, x) - pb.drift(t, x))
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
                m.drift(t, x),
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
                m3.drift(1.0 - tau, x) - m4.drift(1.0 - tau, x)
            )
            assert gap < 1e-10, f"sigma={sigma}, tau={tau}: gap={gap}"
        # sigma = 1, time to go 0.5, worst corner of the fundamental square
        m3 = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=3)
        m4 = TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=4)
        corner = np.linalg.norm(
            m3.drift(0.5, (0.4999, 0.4999))
            - m4.drift(0.5, (0.4999, 0.4999))
        )
        assert corner < 1e-3

    def test_horizon_errors(self):
        m = TrueBridge(sigma=1.0, horizon=2.0, target=A0)
        with pytest.raises(HorizonError):
            m.drift(2.0, (0.1, 0.1))


class TestEuclideanBridgeDrift:
    def test_zero_at_endpoint(self):
        m = EuclideanBridge(sigma=1.0, horizon=1.0, endpoint=(0.4, -0.2))
        np.testing.assert_array_equal(
            m.drift(0.3, (0.4, -0.2)), [0.0, 0.0]
        )

    def test_arithmetic(self):
        m = EuclideanBridge(sigma=1.0, horizon=1.0, endpoint=(1.0, 0.0))
        np.testing.assert_allclose(
            m.drift(0.75, (0.0, 0.0)), [4.0, 0.0], atol=1e-12
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
            b = m.drift(t, x)
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
_stacks = st.sampled_from([(3, 4), (2, 1, 3), (1, 5), (4, 1)])


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
        np.testing.assert_array_equal(lattice_lifts(m.target, k_max), lifts)
        slack = _rounding_slack(x, sigma, tau, k_max)
        np.testing.assert_allclose(softmax_weights(t, x, m), w, rtol=1e-10 + slack, atol=1e-12)
        np.testing.assert_allclose(
            m.drift(t, x),
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
    @given(sigma=_sigmas, k_max=_windows, a=_targets, lead=_stacks, seed=st.integers(0, 2**32 - 1))
    def test_stacked_points_and_per_point_times(self, sigma, k_max, a, lead, seed):
        """Leading shapes beyond one batch axis and a time per point, as along a path."""
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-6.0, 6.0, size=lead + (2,))
        t = 1.0 - rng.uniform(1e-6, 1.0, size=lead)
        tau = 1.0 - t
        delta = float(tau.flat[0])
        m = TrueBridge(sigma=sigma, horizon=1.0, target=a, truncation=k_max)
        drifts = m.drift(t, xs)
        weights = softmax_weights(t, xs, m)
        densities = wrapped_gaussian_log_density(0.0, xs, delta, a, sigma, k_max)
        assert drifts.shape == lead + (2,)
        assert weights.shape == lead + ((2 * k_max + 1) ** 2,)
        assert densities.shape == lead
        for idx in np.ndindex(*lead):
            x = xs[idx]
            slack = _rounding_slack(x, sigma, tau[idx], k_max)
            _, w = _softmax_weights_oracle(x, a, sigma, tau[idx], k_max)
            np.testing.assert_allclose(weights[idx], w, rtol=1e-10 + slack, atol=1e-12)
            np.testing.assert_allclose(
                drifts[idx], _softmax_drift_oracle(x, a, sigma, tau[idx], k_max),
                rtol=1e-10, atol=1e-12 + slack / tau[idx])
            np.testing.assert_allclose(
                densities[idx], _density_oracle(x, a, sigma, delta, k_max), rtol=1e-10, atol=1e-12)
            # The single point gives the stacked entry's bits.
            np.testing.assert_array_equal(m.drift(t[idx], x), drifts[idx])
            np.testing.assert_array_equal(softmax_weights(t[idx], x, m), weights[idx])
            assert wrapped_gaussian_log_density(0.0, x, delta, a, sigma, k_max) == densities[idx]

    @settings(max_examples=50, deadline=None)
    @given(sigma=_sigmas, k_max=_windows, a=_targets, x=_planes,
           taus=st.lists(_taus, min_size=1, max_size=5))
    def test_time_array_wider_than_points(self, sigma, k_max, a, x, taus):
        m = TrueBridge(sigma=sigma, horizon=1.0, target=a, truncation=k_max)
        t = 1.0 - np.asarray(taus)
        drifts = m.drift(t, x)
        weights = softmax_weights(t, x, m)
        for row, ti in enumerate(t):
            np.testing.assert_array_equal(m.drift(ti, x), drifts[row])
            np.testing.assert_array_equal(softmax_weights(ti, x, m), weights[row])

    @settings(max_examples=100, deadline=None)
    @given(sigma=_sigmas, tau=_taus, k_max=_windows, a=_targets,
           xs=st.lists(_planes, min_size=1, max_size=6))
    def test_single_point_equals_batch_row(self, sigma, tau, k_max, a, xs):
        m = TrueBridge(sigma=sigma, horizon=1.0, target=a, truncation=k_max)
        t = 1.0 - tau
        batch = np.asarray(xs)
        drifts = m.drift(t, batch)
        weights = softmax_weights(t, batch, m)
        densities = wrapped_gaussian_log_density(0.0, batch, tau, a, sigma, k_max)
        for row, x in enumerate(xs):
            np.testing.assert_array_equal(m.drift(t, x), drifts[row])
            np.testing.assert_array_equal(softmax_weights(t, x, m), weights[row])
            assert wrapped_gaussian_log_density(0.0, x, tau, a, sigma, k_max) == densities[row]
