"""Tests for the flat-torus geometry primitives."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from torusbridge import nearest_offset, project, torus_distance
from torusbridge.geometry import as_plane_point, as_torus_point

# The integer offsets k with ||k||_inf <= 3, a 7x7 block.
_R = np.arange(-3.0, 4.0)
OFFSETS_7X7 = np.stack(np.meshgrid(_R, _R, indexing="ij"), axis=-1).reshape(-1, 2)


def _lift(x, target):
    """The nearest lift target + k of the lattice target + Z^2 to x, and its
    tie flag, from the one nearest-offset primitive."""
    a = np.asarray(target, dtype=float)
    k, tie = nearest_offset(np.asarray(x, dtype=float) - a)
    return a + k, tie


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# Ties, their neighbouring doubles, a tie where doubles are spaced 1/2 apart,
# and a signed zero.
_NEAR_TIES = [0.5, -2.5, np.nextafter(0.5, 0.0), np.nextafter(-0.5, -1.0),
              2.0**52 - 0.5, -0.0, np.nextafter(1.5, 2.0)]
# Half-integers, the largest coordinates, points a hair off them, and signed
# and tiny zeros: where the half-open rule and the rounding of p + 1/2 act.
_PROJECT_EDGES = [0.5, -0.5, np.nextafter(0.5, 0.0), np.nextafter(-0.5, -1.0),
                  2.0**52, -(2.0**52), 2.0**52 - 0.5, np.nextafter(-1.5, -2.0),
                  -0.0, -1e-300, 1.5, np.nextafter(2.0**51, 0.0)]


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

    @pytest.mark.parametrize("bad", ["ab", [[0.0, 1.0], [2.0]], {"x": 1.0}])
    def test_non_numbers_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^point must hold numbers; got "):
            project(bad)

    @given(p=arrays(float, st.tuples(st.integers(1, 4), st.just(2)),
                    elements=st.floats(-2.0**52, 2.0**52) | st.sampled_from(_PROJECT_EDGES)))
    @example(p=np.array([_PROJECT_EDGES[:2], _PROJECT_EDGES[2:4], _PROJECT_EDGES[4:6]]))
    def test_properties_up_to_2_52(self, p):
        """Over every plane point a double can place on the torus: projecting
        twice gives the bits of projecting once, the image lies in
        [-1/2, 1/2)^2, and it is p on the torus up to the rounding of p."""
        u = project(p)
        np.testing.assert_array_equal(_bits(project(u)), _bits(u))
        assert np.all(u >= -0.5) and np.all(u < 0.5)
        scale = np.maximum(1.0, np.abs(p).max(axis=-1))
        assert np.all(torus_distance(p, u) <= 1e-15 * scale)


    @given(a=arrays(float, st.tuples(st.integers(1, 4), st.just(2)),
                    elements=st.floats(-0.5, 0.5, exclude_max=True)))
    @example(a=np.array([[0.2, 0.0], [0.3, -0.1], [-0.5, -0.0],
                         [np.nextafter(0.5, 0.0), -1e-300]]))
    def test_fundamental_domain_is_kept_bitwise(self, a):
        """A point of [-1/2, 1/2)^2 projects to itself, bit for bit: 0.2 stays
        0.2, not the 0.19999999999999996 that (0.2 + 1/2) mod 1 - 1/2 gives,
        and -0 keeps its sign."""
        np.testing.assert_array_equal(_bits(project(a)), _bits(a))


class TestLiftNearest:
    def test_nearest_integer_point(self):
        np.testing.assert_array_equal(_lift((0.3, 0.4), (0.0, 0.0))[0], [0.0, 0.0])

    def test_componentwise_rounding(self):
        np.testing.assert_array_equal(_lift((0.6, -0.7), (0.0, 0.0))[0], [1.0, -1.0])

    def test_shifted_target(self):
        np.testing.assert_array_equal(_lift((0.9, 0.9), (0.25, 0.25))[0], [1.25, 1.25])

    def test_tie_flagged(self):
        assert _lift((0.5, 0.2), (0.0, 0.0))[1]
        assert _lift((0.75, 0.1), (0.25, 0.25))[1]

    @given(d=arrays(float, st.tuples(st.integers(1, 4), st.just(2)),
                    elements=st.floats(-1e6, 1e6) | st.sampled_from(
                        [0.5, -0.5, 2.5, -0.0, np.nextafter(0.5, 0.0), np.nextafter(-1.5, 0.0)])))
    @example(d=np.array([[0.5, np.nextafter(0.5, 1.0)], [-2.5, 1e-300]]))
    def test_argmin_optimality_brute_force(self, d):
        """Per axis, |d - k| is at most 1/2 and no other integer within 3 is as
        near, except at a tie; each comparison is exact, since d - k is a
        double and rounding is monotone."""
        k, tie = nearest_offset(d)
        near = np.abs(d - k)
        assert np.all(near <= 0.5)
        np.testing.assert_array_equal(tie, np.any(near == 0.5, axis=-1))
        for j in np.arange(-3.0, 4.0)[np.arange(-3.0, 4.0) != 0]:
            other = np.abs(d - (k + j))
            assert np.all(np.where(near == 0.5, other >= near, other > near))

    def test_fundamental_square_bound(self):
        """No point off the cut locus is farther than half a diagonal from its lift."""
        rng = np.random.default_rng(45)
        a = rng.uniform(-0.5, 0.5, size=2)
        x = rng.uniform(-4.0, 4.0, size=(100_000, 2))
        y, tie = _lift(x, a)
        assert not tie.any()
        assert np.all(np.linalg.norm(y - x, axis=1) <= np.sqrt(0.5))


def _inline_rounding(d):
    """The inline expressions that the primitive replaced, kept as the oracle:
    the offset, and the engine's old `== 0.0` test of terminal ties."""
    k = np.round(d)
    return k, np.any(np.abs(np.abs(d - k) - 0.5) == 0.0, axis=-1)


class TestNearestOffset:
    @given(d=st.tuples(*[st.floats(-6.0, 6.0) | st.sampled_from(_NEAR_TIES)] * 2))
    @example(d=(2.5, -0.5))
    @example(d=(-0.5, 0.5))
    @example(d=(1.5, 0.3))
    @example(d=(0.45, -5.55))
    def test_matches_inline_rounding(self, d):
        d = np.asarray(d)
        k_old, tie_old = _inline_rounding(d)
        k, tie = nearest_offset(d)
        np.testing.assert_array_equal(_bits(k), _bits(k_old))
        assert tie == tie_old

    @given(d=arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(2)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)
                    | st.floats(-6.0, 6.0) | st.sampled_from(_NEAR_TIES)))
    @example(d=np.array([[_NEAR_TIES[:2], _NEAR_TIES[2:4]]]))
    def test_matches_inline_rounding_on_stacks(self, d):
        k_old, tie_old = _inline_rounding(d)
        k, tie = nearest_offset(d)
        np.testing.assert_array_equal(_bits(k), _bits(k_old))
        assert tie.shape == d.shape[:-1] and tie.dtype == bool
        np.testing.assert_array_equal(tie, tie_old)
        for idx in np.ndindex(*d.shape[:-1]):
            assert nearest_offset(d[idx])[1] == tie[idx]

    def test_half_integers_round_to_even_and_tie(self):
        k, tie = nearest_offset(np.array([[2.5, -0.5], [0.3, 1.7], [1.5, 0.0]]))
        np.testing.assert_array_equal(k, [[2.0, -0.0], [0.0, 2.0], [2.0, 0.0]])
        np.testing.assert_array_equal(tie, [True, False, True])


class TestCutLocus:
    def test_component_tie(self):
        assert _lift((0.75, 0.1), (0.25, 0.25))[1]

    def test_interior_point(self):
        assert not _lift((0.3, 0.4), (0.0, 0.0))[1]

    def test_double_tie_corner(self):
        assert _lift((0.5, 0.5), (0.0, 0.0))[1]

    def test_measure_zero_in_practice(self):
        """Random continuous points never land on the exact tie lines."""
        rng = np.random.default_rng(46)
        x = rng.uniform(-3.0, 3.0, size=(100_000, 2))
        hits = _lift(x, (0.1, -0.2))[1]
        assert hits.shape == (100_000,)
        assert hits.sum() == 0


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

    @given(pq=arrays(float, st.tuples(st.integers(1, 4), st.just(2), st.just(2)),
                     elements=st.floats(-1e6, 1e6)))
    @example(pq=np.array([[[1.7, 0.0], [0.0, 0.0]]]))
    @example(pq=np.array([[[2.5, -3.5], [0.0, 0.25]]]))
    def test_plane_points_give_the_distance_of_their_projections(self, pq):
        """Any plane points are as far apart as their projections, up to the
        rounding of the projection: (1.7, 0) is 0.3 from the origin, not 0.7."""
        p, q = pq[:, 0], pq[:, 1]
        tol = 4 * np.finfo(float).eps * (1.0 + np.abs(pq).max())
        np.testing.assert_allclose(torus_distance(p, q), torus_distance(project(p), project(q)),
                                   rtol=0, atol=tol)

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
        for target in ((1.2, 0.0), (0.5, 0.0)):
            with pytest.raises(ValueError, match="fundamental domain"):
                as_torus_point(target, "target")
