"""Tests for the drift models and the wrapped Gaussian density."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusbridge import (
    EuclideanBridge,
    FreeBrownianMotion,
    HorizonError,
    ProposedBridge,
    SimConfig,
    TrueBridge,
    drift,
    project,
    simulate_batch,
    wrapped_gaussian_log_density,
)
from torusbridge.drift import (
    _SIGMA_MAX,
    _SIGMA_MIN,
    _THETA_SPLIT,
    MIN_TIME_TO_GO,
    _axis_log_density,
    _axis_slope,
    _direct_log_density,
    _direct_slope,
    _expand,
    _lift_weights,
    _theta_log_density,
    _theta_powers,
    _theta_slope,
)

A0 = (0.0, 0.0)


def _axis_oracle(d, v):
    """Direct sum over the 81 lifts nearest each coordinate of d, per axis:
    (log of the 1-D wrapped Gaussian, its derivative in d).

    The exponents are taken relative to the nearest lift, as
    j (2r - j) = r^2 - (r - j)^2 with r = d - round(d), which has no
    cancellation near a tie line however small v is.
    """
    r = np.asarray(d, dtype=float) - np.round(d)
    j = np.arange(-40.0, 41.0)[:, None]
    w = np.exp(j * (2 * r - j) / (2 * v))
    sums = w.sum(axis=0)
    log_p = np.log(sums) - r**2 / (2 * v) - 0.5 * np.log(2 * np.pi * v)
    return log_p, ((w * j).sum(axis=0) / sums - r) / v


def _drift_oracle(x, a, sigma, tau):
    """sigma^2 times the gradient of the log wrapped Gaussian kernel toward a."""
    return sigma**2 * _axis_oracle(np.asarray(x) - np.asarray(a), sigma**2 * tau)[1]


def _density_oracle(x, y, sigma, delta):
    return _axis_oracle(np.asarray(x) - np.asarray(y), sigma**2 * delta)[0].sum()


class TestModelValidation:
    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            FreeBrownianMotion(sigma=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            FreeBrownianMotion(sigma=1.0, horizon=-1.0)
        with pytest.raises(TypeError):  # the true bridge sums every lift; no window to set
            TrueBridge(sigma=1.0, horizon=1.0, target=A0, truncation=2)

    def test_sigma_square_must_be_finite(self):
        for cls in (FreeBrownianMotion, EuclideanBridge, ProposedBridge, TrueBridge):
            extra = {"endpoint": A0} if cls is EuclideanBridge else (
                {"target": A0} if cls is not FreeBrownianMotion else {})
            with pytest.raises(ValueError, match="sigma\\^2 is finite"):
                cls(sigma=1e300, horizon=1.0, **extra)
            assert cls(sigma=_SIGMA_MAX, horizon=1.0, **extra).sigma ** 2 < math.inf

    @pytest.mark.parametrize("sigma", [1e-200, 1e-155, math.nextafter(_SIGMA_MIN, 0.0)])
    def test_sigma_times_time_to_go_must_be_normal(self, sigma):
        with pytest.raises(ValueError, match="sigma must be at least"):
            TrueBridge(sigma=sigma, horizon=1.0, target=A0)
        smallest = TrueBridge(sigma=_SIGMA_MIN, horizon=1.0, target=A0)
        assert smallest.sigma ** 2 * MIN_TIME_TO_GO >= sys.float_info.min

    @pytest.mark.parametrize("sigma, horizon", [(1e154, 1e300), (_SIGMA_MAX, 2.0)])
    def test_sigma_square_times_horizon_must_be_finite(self, sigma, horizon):
        with pytest.raises(ValueError, match="sigma\\^2 \\* horizon must be finite"):
            FreeBrownianMotion(sigma=sigma, horizon=horizon)

    def test_integer_beyond_the_double_range_is_not_finite(self):
        with pytest.raises(ValueError, match="horizon must be finite"):
            FreeBrownianMotion(sigma=1, horizon=10**400)

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


_TIMED_MODELS = [
    FreeBrownianMotion(sigma=1.0, horizon=2.0),
    EuclideanBridge(sigma=1.0, horizon=2.0, endpoint=(0.3, 0.1)),
    ProposedBridge(sigma=1.0, horizon=2.0, target=A0),
    TrueBridge(sigma=1.0, horizon=2.0, target=A0),
]


class TestTimeValidation:
    """Every model rejects t outside [0, T) the same way, free-bm included."""

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

    @pytest.mark.parametrize("model", _TIMED_MODELS, ids=lambda m: m.variant)
    def test_range_edges_accepted(self, model):
        t = [0.0, -0.0, np.nextafter(2.0, 0.0)]
        assert model.drift(t, (0.1, 0.2)).shape == (3, 2)

    @pytest.mark.parametrize("t, shape", [
        (0.5, (4, 2)), (np.full(4, 0.5), (4, 2)), (np.full((3, 1), 0.5), (3, 4, 2))],
        ids=["scalar", "same-width", "wider"])
    @pytest.mark.parametrize("model", _TIMED_MODELS, ids=lambda m: m.variant)
    def test_result_shape(self, model, t, shape):
        """A time array wider than the points widens the drift, for every model."""
        x = np.linspace(-0.4, 0.4, 8).reshape(4, 2)
        assert model.drift(t, x).shape == shape
        assert drift(t, x, model).shape == shape


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

    def test_no_sigma_factor(self):
        """Near T the exact drift is the proposal's, not sigma^2 = 0.49 times it."""
        x = (0.2, -0.3)
        plain = ProposedBridge(sigma=0.7, horizon=1.0, target=A0).drift(0.99, x)
        exact = TrueBridge(sigma=0.7, horizon=1.0, target=A0).drift(0.99, x)
        np.testing.assert_allclose(plain, [-20.0, 30.0], rtol=1e-15)
        np.testing.assert_allclose(exact, plain, rtol=2e-16)

    def test_full_pull_next_to_the_cut_locus(self):
        """Only the exact tie lines have zero drift: a hair off one, the pull is whole."""
        m = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        for x1 in (0.47, np.nextafter(0.5, 0.0)):
            np.testing.assert_array_equal(m.drift(0.0, (x1, 0.0)), [-x1, 0.0])

    def test_cut_locus_drift_is_positive_zero(self):
        # Off the cut locus these points would be pulled by (-0.5, -0.2),
        # (-0.5, -0.1) and (0.3, -0.5) over the time to go.
        m = ProposedBridge(sigma=0.7, horizon=1.0, target=A0)
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


class TestTrueBridgeDrift:
    def test_symmetric_lifts_cancel_on_tie_line(self):
        """On a tie line the lifts pair off and their pulls cancel, on either
        side of the direct-sum/theta split."""
        m = TrueBridge(sigma=1.0, horizon=1.0, target=A0)
        x = (0.5, 0.2)
        for t in (0.9, 0.5, 0.0):
            assert abs(m.drift(t, x)[0]) <= 1e-15

    def test_collapses_onto_nearest_lift_drift(self):
        """As t -> T the lift weights concentrate on the argmin lift."""
        tb = TrueBridge(sigma=1.0, horizon=1.0, target=A0)
        pb = ProposedBridge(sigma=1.0, horizon=1.0, target=A0)
        x = (0.3, 0.4)
        gaps = []
        for t in (0.95, 0.98, 0.99, 0.995, 0.998):
            gaps.append(
                np.linalg.norm(tb.drift(t, x) - pb.drift(t, x))
            )
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        # frozen from a direct evaluation of the lattice sum at time to go 0.01
        assert gaps[2] == pytest.approx(4.539787e-3, rel=1e-5)
        assert gaps[3] < 1e-6 and gaps[4] < 1e-6

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            sigma = rng.uniform(0.3, 1.2)
            t = rng.uniform(0.0, 0.99)
            x = rng.uniform(-1.5, 1.5, size=2)
            m = TrueBridge(sigma=sigma, horizon=1.0, target=A0)
            np.testing.assert_allclose(
                m.drift(t, x), _drift_oracle(x, A0, sigma, 1.0 - t), rtol=1e-10, atol=1e-12)

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

    @pytest.mark.parametrize("m", [
        FreeBrownianMotion(sigma=1.3, horizon=2.0),
        EuclideanBridge(sigma=0.8, horizon=2.0, endpoint=(1.5, -0.25)),
        ProposedBridge(sigma=0.8, horizon=2.0, target=(0.1, -0.2)),
        TrueBridge(sigma=0.8, horizon=2.0, target=(0.1, -0.2)),
    ], ids=lambda m: m.variant)
    def test_unchecked_kernel_gives_the_checked_bits(self, m):
        """The module drift the step loop calls skips the checks of model.drift
        but computes the same bits, for a batch and for a single point."""
        x = np.random.default_rng(57).uniform(-3, 3, size=(64, 2))
        for t in (0.0, 0.7, 1.95):
            np.testing.assert_array_equal(drift(t, x, m), m.drift(t, x))
            np.testing.assert_array_equal(drift(t, x[5], m), m.drift(t, x)[5])
        with pytest.raises(ValueError):
            m.drift(0.7, np.full((3, 2), np.nan))


class TestGradientIdentity:
    def test_drift_is_scaled_log_density_gradient(self):
        """The exact bridge drift equals sigma^2 times the numerical
        gradient of the wrapped Gaussian log density."""
        rng = np.random.default_rng(56)
        sigma, horizon = 0.8, 1.0
        m = TrueBridge(sigma=sigma, horizon=horizon, target=A0)
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
                    wrapped_gaussian_log_density(t, x + e, horizon, A0, sigma)
                    - wrapped_gaussian_log_density(t, x - e, horizon, A0, sigma)
                ) / (2 * h)
            np.testing.assert_allclose(sigma**2 * grad, b, rtol=1e-5)
            checked += 1


class TestWrappedGaussianLogDensity:
    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            x = rng.uniform(-0.5, 0.5, size=2)
            y = rng.uniform(-0.5, 0.5, size=2)
            v1 = wrapped_gaussian_log_density(0.2, x, 0.9, y, 0.8)
            v2 = wrapped_gaussian_log_density(0.2, y, 0.9, x, 0.8)
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_integrates_to_one(self):
        """Midpoint quadrature over the fundamental domain (100 x 100)."""
        m = 100
        grid = (np.arange(m) + 0.5) / m - 0.5
        g1, g2 = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([g1.ravel(), g2.ravel()], axis=1)
        ld = wrapped_gaussian_log_density(0.0, pts, 0.1, (0.13, -0.27), 1.0)
        assert np.exp(ld).mean() == pytest.approx(1.0, abs=1e-6)

    def test_long_horizon_flattens_to_uniform(self):
        """For large sigma^2 (t-s) the density tends to 1, the uniform
        density on the unit-area torus."""
        pts = np.array([[0.0, 0.0], [0.49, 0.49], [0.25, -0.4], [-0.5, 0.0]])
        ld = wrapped_gaussian_log_density(0.0, pts, 50.0, (0.0, 0.0), 1.0)
        np.testing.assert_allclose(np.exp(ld), 1.0, atol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            wrapped_gaussian_log_density(0.5, (0, 0), 0.5, (0, 0), 1.0)
        with pytest.raises(ValueError):
            wrapped_gaussian_log_density(0.6, (0, 0), 0.5, (0, 0), 1.0)
        with pytest.raises(ValueError):
            wrapped_gaussian_log_density(0.0, (0, 0), 0.5, (0, 0), -1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, 0.0, True, "1.0", None])
    def test_sigma_must_be_a_finite_positive_number(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            wrapped_gaussian_log_density(0.0, (0.1, 0.2), 0.5, (0.0, 0.0), sigma)

    @pytest.mark.parametrize("sigma", [1e300, 10**200, math.nextafter(_SIGMA_MAX, math.inf)])
    def test_sigma_square_must_be_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma\\^2 is finite"):
            wrapped_gaussian_log_density(0.0, (0.1, 0.2), 0.5, (0.0, 0.0), sigma)
        assert np.isfinite(wrapped_gaussian_log_density(0.0, (0.1, 0.2), 0.5, (0.0, 0.0),
                                                        _SIGMA_MAX))

    @pytest.mark.parametrize("s, t, sigma", [
        (0.0, 1e-300, 1e-100),  # the variance underflows to 0
        (0.0, 1e-200, 1e-60),  # the variance is subnormal
        (0.0, 4.0, _SIGMA_MAX),  # the variance overflows
    ])
    def test_variance_must_be_a_finite_normal_double(self, s, t, sigma):
        with pytest.raises(ValueError, match="sigma\\^2 \\(t - s\\) must be a finite normal"):
            wrapped_gaussian_log_density(s, (0.1, 0.2), t, (0.0, 0.0), sigma)

    @pytest.mark.parametrize("sigma", [0.8, 1.7])
    def test_per_point_times_equal_single_point_calls(self, sigma):
        """A time pair per point, as criterion 6's stencil passes them, gives each
        point the bits of its own scalar call, with variances on both sides of
        the direct-sum/theta split."""
        rng = np.random.default_rng(58)
        xs = rng.uniform(-2.0, 2.0, size=(3, 4, 2))
        ys = rng.uniform(-0.5, 0.5, size=(3, 1, 2))
        s = rng.uniform(0.0, 0.5, size=(3, 4))
        t = s + rng.permutation(np.geomspace(1e-6, 1.0, 12)).reshape(3, 4) / sigma**2
        t[0, 0] = s[0, 0] + _THETA_SPLIT / sigma**2  # about at the split
        v = sigma**2 * (t - s)
        assert (v <= _THETA_SPLIT).any() and (v > _THETA_SPLIT).any()
        batch = wrapped_gaussian_log_density(s, xs, t, ys, sigma)
        single = [wrapped_gaussian_log_density(float(s[i, j]), xs[i, j], float(t[i, j]),
                                               ys[i, 0], sigma)
                  for i, j in np.ndindex(3, 4)]
        np.testing.assert_array_equal(batch.reshape(-1).view(np.int64),
                                      np.array(single).view(np.int64))
        # Times broadcast against the points, and one time column serves a row.
        np.testing.assert_array_equal(
            wrapped_gaussian_log_density(s[:, :1], xs, t[:, :1], ys, sigma).view(np.int64),
            np.array([[wrapped_gaussian_log_density(float(s[i, 0]), xs[i, j], float(t[i, 0]),
                                                    ys[i, 0], sigma) for j in range(4)]
                      for i in range(3)]).view(np.int64))

    @pytest.mark.parametrize("s_bad, t_bad, sigma", [
        (0.5, 0.5, 1.0),  # s == t
        (0.6, 0.5, 1.0),  # s > t
        (np.nan, 0.5, 1.0),
        (0.0, np.nan, 1.0),
        (0.0, np.inf, 1.0),
        (-np.inf, 0.5, 1.0),
        (0.0, 0.5, -1.0),  # a bad sigma, once the times pass
        (0.0, 1e-300, 1e-100),  # the variance underflows to 0
        (0.0, 1e-200, 1e-60),  # the variance is subnormal
        (0.0, 4.0, _SIGMA_MAX),  # the variance overflows
    ])
    def test_one_bad_time_pair_raises_the_single_point_error(self, s_bad, t_bad, sigma):
        with pytest.raises(ValueError) as single:
            wrapped_gaussian_log_density(s_bad, (0.1, 0.2), t_bad, (0.0, 0.0), sigma)
        s = np.array([0.0, 0.1, s_bad, 0.2])
        t = np.array([0.5, 0.5, t_bad, 0.5])
        with pytest.raises(ValueError) as batch:
            wrapped_gaussian_log_density(s, np.zeros((4, 2)), t, (0.1, 0.2), sigma)
        assert str(batch.value) == str(single.value)
        assert "\n" not in str(batch.value)

    def test_scalar_times_return_a_float(self):
        for s, t in ((0.0, 0.5), (0, 1), (np.float64(0.0), np.float64(0.5)),
                     (np.array(0.0), np.array(0.5))):
            assert type(wrapped_gaussian_log_density(s, (0.1, 0.2), t, (0.0, 0.0), 0.8)) is float


_sigmas = st.floats(0.05, 3.0)
_taus = st.floats(1e-6, 1.0)
_targets = st.tuples(*[st.floats(-0.5, 0.5, exclude_max=True)] * 2)
_planes = st.tuples(*[st.floats(-50.0, 50.0)] * 2)
_stacks = st.sampled_from([(3, 4), (2, 1, 3), (1, 5), (4, 1)])


class TestSeparableKernelProperties:
    """The per-coordinate kernel against the direct sum over 81 lifts per axis.

    sigma in [0.05, 3] and tau in [1e-6, 1] put v = sigma^2 tau on both
    sides of the direct-sum/theta split, from 2.5e-9 to 9.
    """

    @settings(max_examples=300, deadline=None)
    @given(sigma=_sigmas, tau=_taus, a=_targets, x=_planes)
    def test_drift_matches_direct_sum(self, sigma, tau, a, x):
        m = TrueBridge(sigma=sigma, horizon=1.0, target=a)
        t = 1.0 - tau
        tau = 1.0 - t  # the rounded time to go the model sees
        np.testing.assert_allclose(
            m.drift(t, x), _drift_oracle(x, m.target, sigma, tau), rtol=1e-10, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(sigma=_sigmas, delta=_taus, y=_targets, x=_planes)
    def test_density_matches_direct_sum(self, sigma, delta, y, x):
        np.testing.assert_allclose(
            wrapped_gaussian_log_density(0.0, x, delta, y, sigma),
            _density_oracle(x, y, sigma, delta),
            rtol=1e-10, atol=1e-12,
        )

    def test_branches_agree_at_the_split(self):
        r = np.linspace(-0.5, 0.5, 10_001)
        for direct, theta in ((_direct_slope, _theta_slope),
                              (_direct_log_density, _theta_log_density)):
            np.testing.assert_allclose(direct(r, _THETA_SPLIT), theta(r, _THETA_SPLIT),
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("v", [2.5e-9, _THETA_SPLIT, np.nextafter(_THETA_SPLIT, 1.0), 9.0])
    def test_tie_lines_and_lifts_are_finite_and_exact(self, v):
        """At r = +-1/2, a hair inside and at a lift, under the suite's
        RuntimeWarning-as-error setting: there tan(pi r) is about 1.6e16 on
        the theta side and exp((r - 1/2) / v) is 1 on the direct side."""
        d = np.array([0.5, -0.5, 0.5 - 1e-12, -(0.5 - 1e-12), 0.0, 3.5, -7.0])
        log_p, slope = _axis_oracle(d, v)
        for kernel, expected in ((_axis_slope, slope), (_axis_log_density, log_p)):
            for got in (kernel(d, v), kernel(d, np.full(d.shape, v))):
                assert np.isfinite(got).all()
                np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(sigma=_sigmas, a=_targets, lead=_stacks, seed=st.integers(0, 2**32 - 1))
    def test_stacked_points_and_per_point_times(self, sigma, a, lead, seed):
        """Leading shapes beyond one batch axis and a time per point, as along a path."""
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-50.0, 50.0, size=lead + (2,))
        t = 1.0 - rng.uniform(1e-6, 1.0, size=lead)
        tau = 1.0 - t
        delta = float(tau.flat[0])
        m = TrueBridge(sigma=sigma, horizon=1.0, target=a)
        drifts = m.drift(t, xs)
        densities = wrapped_gaussian_log_density(0.0, xs, delta, a, sigma)
        assert drifts.shape == lead + (2,)
        assert densities.shape == lead
        for idx in np.ndindex(*lead):
            x = xs[idx]
            np.testing.assert_allclose(
                drifts[idx], _drift_oracle(x, m.target, sigma, tau[idx]), rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(
                densities[idx], _density_oracle(x, a, sigma, delta), rtol=1e-10, atol=1e-12)
            # The single point gives the stacked entry's bits.
            np.testing.assert_array_equal(m.drift(t[idx], x), drifts[idx])
            assert wrapped_gaussian_log_density(0.0, x, delta, a, sigma) == densities[idx]

    @settings(max_examples=50, deadline=None)
    @given(sigma=_sigmas, a=_targets, x=_planes, taus=st.lists(_taus, min_size=1, max_size=5))
    def test_time_array_wider_than_points(self, sigma, a, x, taus):
        m = TrueBridge(sigma=sigma, horizon=1.0, target=a)
        t = 1.0 - np.asarray(taus)
        drifts = m.drift(t, x)
        for row, ti in enumerate(t):
            np.testing.assert_array_equal(m.drift(ti, x), drifts[row])

    @settings(max_examples=100, deadline=None)
    @given(sigma=_sigmas, tau=_taus, a=_targets, xs=st.lists(_planes, min_size=1, max_size=6))
    def test_single_point_equals_batch_row(self, sigma, tau, a, xs):
        m = TrueBridge(sigma=sigma, horizon=1.0, target=a)
        t = 1.0 - tau
        batch = np.asarray(xs)
        drifts = m.drift(t, batch)
        densities = wrapped_gaussian_log_density(0.0, batch, tau, a, sigma)
        for row, x in enumerate(xs):
            np.testing.assert_array_equal(m.drift(t, x), drifts[row])
            assert wrapped_gaussian_log_density(0.0, x, tau, a, sigma) == densities[row]


# The kernels' out-of-place expressions, kept as the bitwise reference for
# their in-place forms.

def _ref_direct_slope(r, v):
    (p1, p2, p3), (m1, m2, m3) = _lift_weights(r, v)
    pull = (p1 - m1) + 2.0 * (p2 - m2) + 3.0 * (p3 - m3)
    sums = 1.0 + (p1 + m1) + (p2 + m2) + (p3 + m3)
    return (pull / sums - r) / v


def _ref_direct_log_density(r, v):
    (p1, p2, p3), (m1, m2, m3) = _lift_weights(r, v)
    sums = 1.0 + (p1 + m1) + (p2 + m2) + (p3 + m3)
    return np.log(sums) - r * r / (2.0 * v) - 0.5 * np.log(2.0 * np.pi * v)


def _ref_theta_slope(r, v):
    q, q4, q9 = _theta_powers(v)
    a0, a1, a2, a3 = 1.0 - 2.0 * q4, 2.0 * q - 6.0 * q9, 4.0 * q4, 8.0 * q9
    b0, b1, b2 = -4.0 * np.pi * (q - 3.0 * q9), -16.0 * np.pi * q4, -48.0 * np.pi * q9
    c0, c1 = a0 + a1 + a2 + a3, 3.0 * a0 + a1 - a2 - 3.0 * a3
    c2, c3 = 3.0 * a0 - a1 - a2 + 3.0 * a3, a0 - a1 + a2 - a3
    d0, d1, d2 = 2.0 * (b0 + b1 + b2), 4.0 * (b0 - b2), 2.0 * (b0 - b1 + b2)
    t = np.tan(np.pi * r)
    u = t * t
    return t * (d0 + u * (d1 + u * d2)) / (c0 + u * (c1 + u * (c2 + u * c3)))


def _ref_axis_slope(d, v):
    r = d - np.round(d)
    if np.ndim(v) == 0:
        v = float(v)
        return (_ref_direct_slope if v <= _THETA_SPLIT else _ref_theta_slope)(r, v)
    r, v = np.broadcast_arrays(r, v)
    out = np.empty(r.shape)
    small = v <= _THETA_SPLIT
    for mask, branch in ((small, _ref_direct_slope), (~small, _ref_theta_slope)):
        out[mask] = branch(r[mask], v[mask])
    return out


def _ref_drift(m, tau, x):
    a = np.broadcast_to(m.target, x.shape)
    if isinstance(m, TrueBridge):
        return m.sigma**2 * _ref_axis_slope(x - a, m.sigma**2 * _expand(tau))
    k = np.round(x - a)
    on_cut = np.any(np.abs(x - a - k) == 0.5, axis=-1)
    b = (a + k - x) / _expand(tau)
    b[np.broadcast_to(on_cut, b.shape[:-1])] = 0.0
    return b


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# r on a grid, the tie values +-1/2 and their neighbours, and signed zeros.
_R_GRID = np.concatenate([np.linspace(-0.5, 0.5, 41), [
    0.0, -0.0, np.nextafter(0.5, 0.0), np.nextafter(-0.5, 0.0), 1e-300, -1e-300]])
# Variances below, at and above the direct/theta split.
_VARIANCES = [2.5e-9, 1e-3, 0.05, _THETA_SPLIT, np.nextafter(_THETA_SPLIT, 1.0), 0.5, 9.0]
# The theta series can be negative at the smallest variances, where no point takes it.
_KERNEL_CASES = [
    (kernel, ref, v)
    for kernel, ref, v_min in ((_direct_slope, _ref_direct_slope, 0.0),
                               (_direct_log_density, _ref_direct_log_density, 0.0),
                               (_theta_slope, _ref_theta_slope, 0.05))
    for v in _VARIANCES if v >= v_min]


class TestInPlaceKernelBits:
    """Each in-place kernel gives its out-of-place expression's bits, signed zeros included."""

    @pytest.mark.parametrize("kernel, ref, v", _KERNEL_CASES,
                             ids=lambda p: getattr(p, "__name__", repr(p)))
    def test_one_dimensional_kernels(self, kernel, ref, v):
        np.testing.assert_array_equal(_bits(kernel(_R_GRID, v)), _bits(ref(_R_GRID, v)))
        per_point = np.full(_R_GRID.shape, v)
        np.testing.assert_array_equal(_bits(kernel(_R_GRID, per_point)),
                                      _bits(ref(_R_GRID, per_point)))
        one = _R_GRID[-3:-2]  # next to a tie
        np.testing.assert_array_equal(_bits(kernel(one, v)), _bits(ref(one, v)))

    def test_axis_slope_mixes_both_branches(self):
        d = np.add.outer([0.0, -3.0, 7.0], _R_GRID)[..., None].repeat(2, axis=-1)
        v = np.resize(_VARIANCES, d.shape)
        np.testing.assert_array_equal(_bits(_axis_slope(d, v)), _bits(_ref_axis_slope(d, v)))

    @pytest.mark.parametrize("m", [
        TrueBridge(sigma=0.3, horizon=1.0, target=(0.1, -0.2)),
        TrueBridge(sigma=1.0, horizon=1.0, target=A0),
        TrueBridge(sigma=2.5, horizon=1.0, target=(-0.5, 0.25)),
        ProposedBridge(sigma=0.7, horizon=1.0, target=(0.1, -0.2)),
        ProposedBridge(sigma=0.4, horizon=1.0, target=A0),
        ProposedBridge(sigma=1.3, horizon=1.0, target=(-0.5, 0.25)),
    ], ids=lambda m: f"{m.variant}-{m.sigma}")
    def test_drifts(self, m):
        """One point, a batch, a time per point, and a time array wider than the points."""
        r = _R_GRID[:, None]
        x = np.concatenate([np.asarray(m.target) + r + [[0.0, -2.0]],
                            np.asarray(m.target) + r[::-1] + [[3.0, 0.0]]], axis=1).reshape(-1, 2)
        taus = np.array([1.0, _THETA_SPLIT, 0.05, 1e-3, 1e-9])
        for tau in taus:
            for points in (x, x[5], x[:1]):
                np.testing.assert_array_equal(_bits(m._drift(np.float64(tau), points)),
                                              _bits(_ref_drift(m, np.float64(tau), points)))
        per_point = np.resize(taus, len(x))
        np.testing.assert_array_equal(_bits(m._drift(per_point, x)),
                                      _bits(_ref_drift(m, per_point, x)))
        for points, wide in ((x[5], taus), (x[:7], taus[:, None])):
            np.testing.assert_array_equal(_bits(m._drift(wide, points)),
                                          _bits(_ref_drift(m, wide, points)))


def _pooled_chi_square(observed, expected, min_expected=5.0):
    """Pearson's statistic and degrees of freedom after pooling each tail
    into one bin that expects at least ``min_expected``; with a unimodal
    ``expected`` every bin between them expects more."""
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    lo = int(np.argmax(np.cumsum(expected) >= min_expected))
    hi = len(expected) - 1 - int(np.argmax(np.cumsum(expected[::-1]) >= min_expected))

    def pool(a):
        return np.concatenate([[a[:lo + 1].sum()], a[lo + 1:hi], [a[hi:].sum()]])

    obs, exp = pool(observed), pool(expected)
    assert exp.min() >= min_expected
    return float(((obs - exp) ** 2 / exp).sum()), len(exp) - 1


class TestTrueBridgeLaw:
    def test_limiting_offsets_follow_the_lattice_gaussian(self):
        """Started on its target, the bridge ends at lift k with
        P(k) proportional to exp(-|k|^2 / (2 sigma^2 T)), one factor per axis.

        At sigma = 3 most paths end several squares away, so a lift window
        that clips far offsets fails this test.
        """
        sigma, n_paths = 3.0, 4000
        cfg = SimConfig(model=TrueBridge(sigma=sigma, horizon=1.0, target=A0), start=A0,
                        n_steps=500, seed=1, n_paths=n_paths)
        batch = simulate_batch(cfg, keep_paths=False)
        assert not batch.unresolved.any()
        k = batch.limiting_lattice_points.ravel()  # both coordinates, independent
        support = np.arange(-40, 41)
        p = np.exp(-support**2 / (2 * sigma**2))
        observed = np.array([(k == j).sum() for j in support])
        assert observed.sum() == k.size
        stat, dof = _pooled_chi_square(observed, k.size * p / p.sum())
        assert _chi2_sf(stat, dof) >= 1e-3, (stat, dof)

    def test_interior_law_matches_the_closed_form_marginal(self):
        """At interior times t the projected exact bridge has the density
        q_t(y) = p(t, x0, y) p(T - t, y, a) / p(T, x0, a), with p the wrapped
        Gaussian transition density; the unweighted proposal does not, which
        shows the test's power (chi-square about 270 and 470 on 63 dof)."""
        sigma, a, cells, n_paths = 0.8, (0.3, -0.2), 8, 4000
        configs = [SimConfig(model=cls(sigma=sigma, horizon=1.0, target=a), start=A0,
                             n_steps=500, seed=11, n_paths=n_paths)
                   for cls in (TrueBridge, ProposedBridge)]
        steps = {0.5: 250, 0.9: 450}
        exact, proposal = simulate_batch(configs, keep_paths=False,
                                         snapshot_steps=list(steps.values()))
        # Cell masses of q_t by a 10 x 10 midpoint rule per cell.
        fine = cells * 10
        mid = (np.arange(fine) + 0.5) / fine - 0.5
        y = np.stack(np.meshgrid(mid, mid, indexing="ij"), axis=-1)
        for t, step in steps.items():
            log_q = (wrapped_gaussian_log_density(0.0, A0, t, y, sigma)
                     + wrapped_gaussian_log_density(t, y, 1.0, a, sigma)
                     - wrapped_gaussian_log_density(0.0, A0, 1.0, a, sigma))
            mass = np.exp(log_q).reshape(cells, 10, cells, 10).sum(axis=(1, 3)).ravel() / fine**2
            assert abs(mass.sum() - 1.0) < 1e-9
            # Sorted by mass, the smallest cells pool into one bin that expects 5 or more.
            order = np.argsort(mass)
            for batch, fits in ((exact, True), (proposal, False)):
                x = project(batch.snapshots[step])
                observed, _, _ = np.histogram2d(x[:, 0], x[:, 1], bins=cells,
                                                range=[(-0.5, 0.5)] * 2)
                stat, dof = _pooled_chi_square(observed.ravel()[order], n_paths * mass[order])
                assert (_chi2_sf(stat, dof) >= 1e-3) == fits, (t, batch.config.model, stat)


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with an integer ``dof`` >= 1, from finite sums.

    With h = x / 2, an even dof gives the Poisson sum e^{-h} sum_{i < dof/2} h^i / i!.
    An odd dof gives erfc(sqrt h) + sqrt(2 / pi) e^{-h} sum_{r=1}^{(dof-1)/2}
    x^{r - 1/2} / (2r - 1)!!.
    """
    h = x / 2.0
    if dof % 2 == 0:
        term = total = 1.0
        for i in range(1, dof // 2):
            term *= h / i
            total += term
        return math.exp(-h) * total
    term, total = math.sqrt(x), 0.0
    for r in range(1, dof // 2 + 1):
        total += term
        term *= x / (2 * r + 1)
    return math.erfc(math.sqrt(h)) + math.sqrt(2.0 / math.pi) * math.exp(-h) * total


# scipy.stats.chi2.sf(x, dof) at scipy 1.17.1, computed once.
@pytest.mark.parametrize("dof, x, sf", [
    (1, 0.5, 0.47950012218695337),
    (2, 3.0, 0.22313016014842982),
    (3, 7.8, 0.050331097859853326),
    (4, 1.2, 0.8780986177504424),
    (7, 14.1, 0.04943107410040329),
    (10, 30.5, 0.000709274917404569),
    (15, 2.0, 0.9999703450227174),
    (19, 60.0, 3.869826300664181e-06),
    (20, 25.0, 0.2014311049455359),
    (36, 40.0, 0.29702839792467406),
])
def test_chi2_sf_matches_scipy(dof, x, sf):
    assert _chi2_sf(x, dof) == pytest.approx(sf, rel=1e-12, abs=0)
