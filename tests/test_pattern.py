import numpy as np
import pytest

from palmlab.errors import IndexOutOfPattern, OutsideWindow
from palmlab.pattern import PointPattern, read_patterns, write_patterns

from conftest import random_pattern, rows_batch

W = (-10.0, 10.0)


def pp(*pts, window=W):
    return PointPattern(np.array(pts, dtype=float), window)


class TestConstruction:
    def test_requires_origin_interior(self):
        with pytest.raises(ValueError):
            PointPattern(np.array([1.0]), (0.5, 3.0))

    def test_requires_points_inside_window(self):
        with pytest.raises(OutsideWindow):
            pp(-11.0, 1.0)

    def test_rejects_near_duplicates(self):
        with pytest.raises(ValueError):
            pp(0.5, 0.5 + 1e-13)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            pp(1.0, -1.0)

    def test_immutable(self):
        p = pp(-1.0, 1.0)
        with pytest.raises(ValueError):
            p.points[0] = 0.0


class TestIndexing:
    def test_locate_basic(self):
        batch = rows_batch([[-3.0, 2.0], [-1.5, -0.2, 0.7, 2.1]], W)
        pos0 = batch.pos0()
        assert pos0.tolist() == [0, 3]
        assert batch.points[pos0[1]] == -0.2 and batch.points[pos0[1] + 1] == 0.7
        assert batch.straddled(pos0).all()

    def test_point_at_zero_is_t0(self):
        p = pp(0.0, 1.0)
        assert p.t(0) == 0.0 and p.t(1) == 1.0

    def test_no_straddle(self):
        batch = rows_batch([[0.3, 1.2], [-2.0, -1.0], [0.0, 1.0]], W)
        pos0 = batch.pos0()
        assert pos0.tolist() == [-1, 3, 4]
        assert batch.straddled(pos0).tolist() == [False, False, True]

    def test_indexed_point(self):
        p = pp(-0.2, 0.7)
        assert (p.position(1), p.t(1)) == (1, 0.7)
        with pytest.raises(IndexOutOfPattern):
            p.t(2)


class TestInterval:
    def test_alpha0(self):
        assert pp(-0.2, 0.7).interval(0) == pytest.approx(0.9)

    def test_alpha_minus1(self):
        assert pp(-3.0, -1.0, 2.0).interval(-1) == 2.0

    def test_missing_endpoint(self):
        with pytest.raises(IndexOutOfPattern):
            pp(-1.0, 4.0).interval(1)


class TestShifts:
    def test_shift_time(self):
        p = pp(-1.5, -0.2, 0.7).shift_time(0.7)
        assert np.allclose(p.points, [-2.2, -0.9, 0.0])
        assert p.window == (W[0] - 0.7, W[1] - 0.7)

    def test_shift_zero_is_identity(self):
        p = pp(-1.5, 0.2)
        assert p.shift_time(0.0) is p

    def test_roundtrip_within_ulp(self):
        # one ulp per shift, two shifts, at the scale of the larger operand
        p = pp(-1.5, -0.2, 0.7, 2.1)
        q = p.shift_time(1.3).shift_time(-1.3)
        tol = 2.0 * np.spacing(np.maximum(np.abs(p.points), 1.3))
        assert np.all(np.abs(q.points - p.points) <= tol)

    def test_composition(self, rng):
        p = random_pattern(rng)
        a = p.shift_time(0.5).shift_time(0.25)
        b = p.shift_time(0.75)
        assert np.allclose(a.points, b.points, rtol=0, atol=1e-12)


class TestCount:
    def test_basic(self):
        p = pp(-0.2, 0.7, 2.1)
        assert p.count(0.0, 2.0) == 1

    def test_empty_interval(self):
        assert pp(-0.2, 0.7).count(0.5, 0.5) == 0

    def test_half_open_boundaries(self):
        p = pp(-0.2, 0.7, 2.1)
        # left-open excludes 0.7, right-closed includes 2.1
        assert p.count(0.7, 2.1) == 1

    def test_outside_window(self):
        with pytest.raises(OutsideWindow):
            pp(-0.2, 0.7).count(0.0, 11.0)

    def test_additivity(self, rng):
        for _ in range(25):
            p = random_pattern(rng)
            a, b, c = sorted(rng.uniform(-9, 9, 3))
            assert p.count(a, c) == p.count(a, b) + p.count(b, c)

    def test_shift_covariance(self, rng):
        for _ in range(25):
            p = random_pattern(rng)
            y = rng.uniform(-2, 2)
            a, b = sorted(rng.uniform(-6, 6, 2))
            assert p.shift_time(y).count(a, b) == p.count(a + y, b + y)


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        patterns = [random_pattern(rng) for _ in range(3)]
        patterns.append(pp(-0.25, 0.125, window=(-2.0, 2.0)))
        path = tmp_path / "patterns.txt"
        write_patterns(path, patterns)
        back = read_patterns(path)
        assert len(back) == len(patterns)
        for p, q in zip(patterns, back):
            assert np.array_equal(p.points, q.points)
            assert p.window == q.window

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ValueError):
            read_patterns(path)
