import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointspace import poincare as pc
from jointspace.graphs import WeightedGraph
from jointspace.poincare import (PROJECTION_MARGIN, BallPoint, d_edge_distance,
                                 exp_origin, hyp_distance, log_origin,
                                 mobius_add, project_to_ball)


def rand_point(rng, dim, c=1.0, max_scaled_norm=0.95) -> BallPoint:
    v = rng.normal(size=dim)
    v = v / np.linalg.norm(v) * rng.uniform(0, max_scaled_norm) / math.sqrt(c)
    return project_to_ball(v, c)


class TestCurvature:
    def test_radius(self):
        # At c = 4 the radius is 0.5: the margin point is inside, 0.5 is not.
        BallPoint(np.array([0.5 * (1.0 - PROJECTION_MARGIN), 0.0]), 4.0)
        with pytest.raises(ValueError, match="outside the ball margin"):
            BallPoint(np.array([0.5, 0.0]), 4.0)

    def test_positive_required(self):
        for make in (BallPoint, project_to_ball, exp_origin):
            for c in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(ValueError,
                                   match="curvature must be positive and finite"):
                    make(np.zeros(2), c)

    def test_ball_point_invariant(self):
        with pytest.raises(ValueError):
            BallPoint(np.array([1.5, 0.0]), 1.0)


class TestMobiusAdd:
    def test_identity_element(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rand_point(rng, int(rng.integers(1, 6)))
            zero = project_to_ball(np.zeros(x.coords.shape))
            assert np.abs(mobius_add(x, zero).coords - x.coords).max() < 1e-15

    def test_left_inverse(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rand_point(rng, int(rng.integers(1, 6)))
            neg = project_to_ball(-x.coords)
            assert np.abs(mobius_add(neg, x).coords).max() < 1e-10

    def test_worked_example(self):
        a = project_to_ball(np.array([-0.5, 0.0]))
        out = mobius_add(a, a)
        assert np.allclose(out.coords, [-0.8, 0.0], atol=1e-12)

    def test_left_cancellation(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            dim = int(rng.integers(1, 6))
            x = rand_point(rng, dim, max_scaled_norm=0.7)
            y = rand_point(rng, dim, max_scaled_norm=0.7)
            neg = project_to_ball(-x.coords)
            back = mobius_add(x, mobius_add(neg, y))
            assert np.abs(back.coords - y.coords).max() < 1e-8

    def test_mismatch_rejected(self):
        x = project_to_ball(np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="dimension"):
            mobius_add(x, project_to_ball(np.array([0.1, 0.2, 0.3])))
        with pytest.raises(ValueError, match="curvature"):
            mobius_add(x, project_to_ball(np.array([0.1, 0.2]), 2.0))


class TestExpLogMaps:
    def test_zero_maps(self):
        assert np.all(exp_origin(np.zeros(3)).coords == 0.0)
        assert np.all(log_origin(project_to_ball(np.zeros(3))) == 0.0)

    def test_worked_example(self):
        out = exp_origin(np.array([0.6, 0.0]))
        assert np.allclose(out.coords, [math.tanh(0.6), 0.0], atol=1e-14)

    def test_origin_round_trip_tangent(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            dim = int(rng.integers(1, 8))
            v = rng.normal(size=dim)
            v = v / np.linalg.norm(v) * rng.uniform(0, 3.0)
            assert np.abs(log_origin(exp_origin(v)) - v).max() < 1e-8

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_origin_round_trip_points(self, c):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x = rand_point(rng, int(rng.integers(1, 8)), c)
            back = exp_origin(log_origin(x), c)
            assert np.abs(back.coords - x.coords).max() < 1e-8


def matvec(w, x: BallPoint) -> BallPoint:
    """Mobius matrix action W (x) x = exp_0(W log_0(x)), composed from the maps."""
    return exp_origin(w @ log_origin(x), x.c)


class TestMatvecDistanceProjection:
    def test_matvec_identity(self):
        rng = np.random.default_rng(7)
        x = rand_point(rng, 5)
        out = matvec(np.eye(5), x)
        assert np.abs(out.coords - x.coords).max() < 1e-10

    def test_matvec_origin(self):
        out = matvec(np.ones((3, 4)), project_to_ball(np.zeros(4)))
        assert np.all(out.coords == 0.0)

    def test_matvec_composition(self):
        # The kernel's radial maps on rows, as HGAT applies them, give the
        # same points.
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = rng.normal(size=(3, 4))
            x = rand_point(rng, 4, max_scaled_norm=0.8)
            tangent = pc._radial(x.coords[None], 1.0, pc._log_scale)[0]
            rows = pc._radial(tangent @ w.T, 1.0, pc._exp_scale)[0]
            assert np.allclose(rows[0], matvec(w, x).coords, atol=1e-12)

    def test_distance_worked_pair(self):
        x = project_to_ball(np.array([0.5, 0.0]))
        y = project_to_ball(np.array([-0.5, 0.0]))
        assert abs(hyp_distance(x, y) - 2.0 * math.atanh(0.8)) < 1e-10

    def test_distance_symmetry_and_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            dim = int(rng.integers(1, 6))
            x, y = rand_point(rng, dim), rand_point(rng, dim)
            assert abs(hyp_distance(x, y) - hyp_distance(y, x)) < 1e-12
            assert hyp_distance(x, x) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            dim = int(rng.integers(1, 5))
            pts = [rand_point(rng, dim, max_scaled_norm=0.9) for _ in range(3)]
            dxz = hyp_distance(pts[0], pts[2])
            detour = hyp_distance(pts[0], pts[1]) + hyp_distance(pts[1], pts[2])
            assert dxz <= detour + 1e-9

    @pytest.mark.parametrize("c", [1e-4, 1e-6])
    def test_flat_limit_matches_euclidean(self, c):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = project_to_ball(rng.normal(size=3) * 0.2, c)
            y = project_to_ball(rng.normal(size=3) * 0.2, c)
            d = hyp_distance(x, y)
            e = 2.0 * np.linalg.norm(x.coords - y.coords)
            if e > 0:
                assert abs(d - e) / e < 1e-2

    def test_projection_contract(self):
        inside = project_to_ball(np.array([0.3, 0.1]))
        assert np.allclose(inside.coords, [0.3, 0.1])
        far = project_to_ball(np.array([10.0, 0.0]))
        assert abs(np.linalg.norm(far.coords) - (1.0 - PROJECTION_MARGIN)) < 1e-15
        assert np.all(project_to_ball(np.zeros(3)).coords == 0.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
           st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_projection_fuzz_always_valid(self, coords, c):
        p = project_to_ball(np.array(coords), c)
        assert math.sqrt(c) * np.linalg.norm(p.coords) <= 1.0 - PROJECTION_MARGIN + 1e-12

    def test_operations_stay_in_ball_extremes(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            c = float(rng.choice([0.5, 1.0, 2.0]))
            x = project_to_ball(rng.normal(size=dim) * 100.0, c)
            y = project_to_ball(rng.normal(size=dim) * 100.0, c)
            for p in (mobius_add(x, y), exp_origin(rng.normal(size=dim) * 50.0, c),
                      matvec(rng.normal(size=(dim, dim)) * 10.0, x)):
                assert math.sqrt(p.c) * np.linalg.norm(p.coords) \
                    <= 1.0 - PROJECTION_MARGIN + 1e-12


def _mp_distance(mp, x, y, c):
    """Geodesic distance through the Mobius sum -x (+)_c y, at 50 digits."""
    with mp.workdps(50):
        c = mp.mpf(c)
        x = [-mp.mpf(float(v)) for v in x]
        y = [mp.mpf(float(v)) for v in y]
        xy = mp.fsum(a * b for a, b in zip(x, y))
        x2 = mp.fsum(a * a for a in x)
        y2 = mp.fsum(b * b for b in y)
        den = 1 + 2 * c * xy + c * c * x2 * y2
        s = [((1 + 2 * c * xy + c * y2) * a + (1 - c * x2) * b) / den
             for a, b in zip(x, y)]
        u = mp.sqrt(c) * mp.sqrt(mp.fsum(v * v for v in s))
        return u, 2 / mp.sqrt(c) * mp.atanh(u)


class TestDistanceOracle:
    """hyp_distance against a 50-digit Mobius-sum oracle, and d_edge_distance
    against the kernel on the ball points it forms."""

    @staticmethod
    def pairs(kind, c, rng, n=24):
        def at(u, dirs):
            return dirs / np.linalg.norm(dirs, axis=1, keepdims=True) \
                * np.asarray(u).reshape(-1, 1) / math.sqrt(c)
        if kind == "interior":
            return (at(rng.uniform(0.0, 0.95, n), rng.normal(size=(n, 4))),
                    at(rng.uniform(0.0, 0.95, n), rng.normal(size=(n, 4))))
        if kind == "apart_1e-9":
            x = at(rng.uniform(0.0, 0.95, n), rng.normal(size=(n, 4)))
            return x, x + at(np.full(n, 1e-9 * math.sqrt(c)), rng.normal(size=(n, 4)))
        # Near the margin: half the pairs are close points at 2e-5 from the
        # boundary; the other half are far pairs whose sqrt(c) ||-x (+) y||
        # lies just below the clip.
        m = n // 2
        d = rng.normal(size=(m, 4))
        close = (at(np.full(m, 1.0 - 2e-5), d),
                 at(np.full(m, 1.0 - 2e-5), d + rng.normal(size=(m, 4)) * 1e-3))
        far = (at(np.full(m, 0.999), d),
               at(rng.uniform(0.85, 0.9, m), -d + rng.normal(size=(m, 4)) * 1e-2))
        return np.vstack([close[0], far[0]]), np.vstack([close[1], far[1]])

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("kind, bound", [("interior", 1e-13),
                                             ("apart_1e-9", 1e-13),
                                             ("near_margin", 1e-11)])
    def test_matches_mpmath(self, kind, bound, c):
        mp = pytest.importorskip("mpmath")
        x, y = self.pairs(kind, c, np.random.default_rng(13))
        oracle = [_mp_distance(mp, a, b, c) for a, b in zip(x, y)]
        assert all(u < 1.0 - PROJECTION_MARGIN for u, _ in oracle)   # none clipped
        if kind == "near_margin":
            assert all(u > 0.999 for u, _ in oracle[len(x) // 2:])
        ref = np.array([float(d) for _, d in oracle])
        points = np.array([hyp_distance(BallPoint(a, c), BallPoint(b, c))
                           for a, b in zip(x, y)])
        assert np.max(np.abs(points - ref) / ref) <= bound
        # d_edge_distance takes tangent rows and maps them with exp_0 itself.
        # Its values are bitwise the kernel's distance between those ball
        # points.  Float exp_0 moves each point by about 1e-16, which is 1e-7
        # of a distance of 1e-9, so the oracle reads the pairs above only.
        n = len(x)
        pairs = WeightedGraph(2 * n, tuple((i, n + i, 1.0) for i in range(n)))
        z = pc._radial(np.vstack([x, y]), c, pc._log_scale)[0]
        bx = pc._radial(z, c, pc._exp_scale)[0]
        want = pc._distance_parts(bx[n:], bx[:n], c, pc._sq_norm(bx[n:]),
                                  pc._sq_norm(bx[:n]))[0][:, 0]
        assert d_edge_distance(z, pairs, c).value[:n].tobytes() == want.tobytes()
