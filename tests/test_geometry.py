"""Tests for the flat-torus geometry primitives."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from torusbridge import (
    AmbiguousLiftError,
    is_on_cut_locus,
    lift_nearest,
    nearest_offset,
    project,
    torus_distance,
)
from torusbridge.geometry import as_plane_point

# The integer offsets k with ||k||_inf <= 3, a 7x7 block.
_R = np.arange(-3.0, 4.0)
OFFSETS_7X7 = np.stack(np.meshgrid(_R, _R, indexing="ij"), axis=-1).reshape(-1, 2)


def test_plane_point_limit_is_2_52():
    limit = 2.0**52
    np.testing.assert_array_equal(as_plane_point((limit, -limit)), [limit, -limit])
    for bad in ((np.nextafter(limit, np.inf), 0.0), (0.0, -1e308)):
        with pytest.raises(ValueError, match="2\\*\\*52"):
            as_plane_point(bad, "start")


class TestProject:
    def test_identity_at_origin(self):
        np.testing.assert_array_equal(project((0.0, 0.0)), [0.0, 0.0])

    def test_mod_one_wrap(self):
        np.testing.assert_allclose(project((1.3, -0.7)), [0.3, 0.3], atol=1e-15)

    def test_half_boundary_maps_to_minus_half(self):
        """The half-open convention sends +1/2 to -1/2 exactly."""
        np.testing.assert_array_equal(project((0.5, -0.5)), [-0.5, -0.5])
        np.testing.assert_array_equal(project((1.5, 2.5)), [-0.5, -0.5])

    def test_idempotent(self):
        """Projecting a projected point changes nothing, bit for bit."""
        rng = np.random.default_rng(42)
        p = rng.uniform(-50.0, 50.0, size=(100_000, 2))
        once = project(p)
        np.testing.assert_array_equal(project(once), once)

    def test_range_invariant(self):
        rng = np.random.default_rng(43)
        pools = [
            rng.uniform(-100.0, 100.0, size=(100_000, 2)),
            rng.integers(-5, 5, size=(1000, 2)) + rng.choice([-1e-17, 0.0, 1e-17, 0.5], size=(1000, 2)),
        ]
        for p in pools:
            u = project(p)
            assert np.all(u >= -0.5) and np.all(u < 0.5)

    def test_nonfinite_rejected(self):
        for bad in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]):
            with pytest.raises(ValueError):
                project(bad)

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            project([1.0, 2.0, 3.0])


class TestLiftNearest:
    def test_nearest_integer_point(self):
        np.testing.assert_array_equal(lift_nearest((0.3, 0.4), (0.0, 0.0)), [0.0, 0.0])

    def test_componentwise_rounding(self):
        np.testing.assert_array_equal(lift_nearest((0.6, -0.7), (0.0, 0.0)), [1.0, -1.0])

    def test_shifted_target(self):
        np.testing.assert_array_equal(
            lift_nearest((0.9, 0.9), (0.25, 0.25)), [1.25, 1.25]
        )

    def test_tie_raises(self):
        with pytest.raises(AmbiguousLiftError):
            lift_nearest((0.5, 0.2), (0.0, 0.0))
        with pytest.raises(AmbiguousLiftError):
            lift_nearest((0.75, 0.1), (0.25, 0.25))

    def test_tolerance_band_raises(self):
        lift_nearest((0.45, 0.0), (0.0, 0.0), tol=0.01)
        with pytest.raises(AmbiguousLiftError):
            lift_nearest((0.45, 0.0), (0.0, 0.0), tol=0.06)

    def test_argmin_optimality_brute_force(self):
        """The returned lift strictly beats every lattice neighbour within radius 3."""
        rng = np.random.default_rng(44)
        for _ in range(300):
            a = rng.uniform(-0.5, 0.5, size=2)
            x = rng.uniform(-2.0, 2.0, size=2)
            if is_on_cut_locus(x, a):
                continue
            y = lift_nearest(x, a)
            best = np.linalg.norm(y - x)
            others = y + OFFSETS_7X7[np.any(OFFSETS_7X7 != 0, axis=1)]
            assert np.all(best < np.linalg.norm(others - x, axis=1))

    def test_fundamental_square_bound(self):
        """No point off the cut locus is farther than half a diagonal from its lift."""
        rng = np.random.default_rng(45)
        a = rng.uniform(-0.5, 0.5, size=2)
        x = rng.uniform(-4.0, 4.0, size=(100_000, 2))
        y = lift_nearest(x, a)
        assert np.all(np.linalg.norm(y - x, axis=1) <= np.sqrt(0.5))


class TestNearestOffset:
    @given(d=st.tuples(*[st.floats(-6.0, 6.0)] * 2), tol=st.sampled_from([0.0, 0.05]))
    @example(d=(2.5, -0.5), tol=0.0)
    @example(d=(-0.5, 0.5), tol=0.0)
    @example(d=(1.5, 0.3), tol=0.05)
    @example(d=(0.45, -5.55), tol=0.05)
    def test_matches_inline_rounding(self, d, tol):
        # The inline expression that the primitive replaced, kept as the oracle.
        d = np.asarray(d)
        k_old = np.round(d)
        tie_old = np.any(np.abs(np.abs(d - k_old) - 0.5) <= tol, axis=-1)
        k, tie = nearest_offset(d, tol)
        np.testing.assert_array_equal(k, k_old)
        assert tie == tie_old
        if tol == 0.0:  # the engine's old `== 0.0` test of terminal ties
            assert tie == np.any(np.abs(np.abs(d - k_old) - 0.5) == 0.0, axis=-1)

    @given(d=arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(2)),
                    elements=st.floats(-6.0, 6.0) | st.sampled_from([-2.5, -0.5, 0.5, 1.5, 0.45])),
           tol=st.sampled_from([0.0, 0.05]))
    def test_matches_inline_rounding_on_stacks(self, d, tol):
        k_old = np.round(d)
        tie_old = np.any(np.abs(np.abs(d - k_old) - 0.5) <= tol, axis=-1)
        k, tie = nearest_offset(d, tol)
        np.testing.assert_array_equal(k, k_old)
        assert tie.shape == d.shape[:-1] and tie.dtype == bool
        np.testing.assert_array_equal(tie, tie_old)
        for idx in np.ndindex(*d.shape[:-1]):
            assert nearest_offset(d[idx], tol)[1] == tie[idx]

    def test_half_integers_round_to_even_and_tie(self):
        k, tie = nearest_offset(np.array([[2.5, -0.5], [0.3, 1.7], [1.5, 0.0]]))
        np.testing.assert_array_equal(k, [[2.0, -0.0], [0.0, 2.0], [2.0, 0.0]])
        np.testing.assert_array_equal(tie, [True, False, True])


class TestCutLocus:
    def test_component_tie(self):
        assert is_on_cut_locus((0.75, 0.1), (0.25, 0.25)) is True

    def test_interior_point(self):
        assert is_on_cut_locus((0.3, 0.4), (0.0, 0.0)) is False

    def test_double_tie_corner(self):
        assert is_on_cut_locus((0.5, 0.5), (0.0, 0.0)) is True

    def test_measure_zero_in_practice(self):
        """Random continuous points never land on the exact tie lines."""
        rng = np.random.default_rng(46)
        x = rng.uniform(-3.0, 3.0, size=(100_000, 2))
        hits = is_on_cut_locus(x, (0.1, -0.2))
        assert hits.shape == (100_000,)
        assert hits.sum() == 0

    def test_tolerance_band(self):
        assert is_on_cut_locus((0.48, 0.0), (0.0, 0.0)) is False
        assert is_on_cut_locus((0.48, 0.0), (0.0, 0.0), tol=0.05) is True


class TestTorusDistance:
    def test_wraparound_is_shorter(self):
        assert torus_distance((0.4, 0.0), (-0.4, 0.0)) == pytest.approx(0.2, abs=1e-15)

    def test_identity(self):
        assert torus_distance((0.1, 0.2), (0.1, 0.2)) == 0.0

    def test_opposite_quarter_points(self):
        # Both wrap choices tie at sqrt(1/2); frozen from the 9-shift brute force.
        assert torus_distance((0.25, 0.25), (-0.25, -0.25)) == pytest.approx(
            0.7071067811865476, abs=1e-15
        )

    def test_matches_componentwise_wrap_formula(self):
        """Independent route: wrap each displacement component into [-1/2, 1/2)."""
        rng = np.random.default_rng(47)
        p = rng.uniform(-0.5, 0.5, size=(20_000, 2))
        q = rng.uniform(-0.5, 0.5, size=(20_000, 2))
        delta = (p - q + 0.5) % 1.0 - 0.5
        np.testing.assert_allclose(
            torus_distance(p, q), np.linalg.norm(delta, axis=1), atol=1e-15
        )

    def test_metric_axioms(self):
        rng = np.random.default_rng(48)
        p, q, r = rng.uniform(-0.5, 0.5, size=(3, 5000, 2))
        dpq = torus_distance(p, q)
        dqp = torus_distance(q, p)
        np.testing.assert_allclose(dpq, dqp, atol=1e-12)
        assert np.all(dpq >= 0)
        assert np.all(dpq > 0)  # distinct random points
        np.testing.assert_array_less(
            dpq, torus_distance(p, r) + torus_distance(r, q) + 1e-12
        )

    @given(pq=arrays(float, st.tuples(st.integers(1, 4), st.just(2), st.just(2)),
                     elements=st.floats(-0.5, 0.5, exclude_max=True)
                     | st.sampled_from([-0.5, np.nextafter(0.5, 0.0), 0.0, -0.25, 0.25])))
    @example(pq=np.array([[[-0.5, -0.5], [np.nextafter(0.5, 0.0), np.nextafter(0.5, 0.0)]]]))
    @example(pq=np.array([[[-0.5, 0.25], [0.0, -0.25]]]))
    def test_equals_nine_shift_minimum(self, pq):
        """Folding each axis gives the minimum over the nine shifts bit for bit."""
        p, q = pq[:, 0], pq[:, 1]
        shifts = np.array([(i, j) for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)])
        oracle = np.linalg.norm((p - q)[:, None, :] + shifts, axis=-1).min(axis=-1)
        np.testing.assert_array_equal(torus_distance(p, q), oracle)
        for i in range(len(p)):
            assert torus_distance(p[i], q[i]) == oracle[i]

    def test_diameter(self):
        """Nothing on the torus is farther than half a diagonal away."""
        rng = np.random.default_rng(49)
        p, q = rng.uniform(-0.5, 0.5, size=(2, 50_000, 2))
        assert np.all(torus_distance(p, q) <= np.sqrt(0.5) + 1e-15)


class TestLattice:
    def test_lifts_project_to_target(self):
        a = (0.13, -0.41)
        lifts = a + OFFSETS_7X7
        np.testing.assert_allclose(project(lifts), np.broadcast_to(a, (49, 2)), atol=1e-12)

    def test_target_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            lift_nearest((0.1, 0.1), (1.2, 0.0))
        with pytest.raises(ValueError):
            is_on_cut_locus((0.1, 0.1), (0.5, 0.0))
