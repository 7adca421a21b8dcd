import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from palmlab.errors import InsufficientContext, InsufficientWindow, UnknownTilt
from palmlab.estimate import est_event_probability
from palmlab.events import parse_eventuality
from palmlab.models import (
    LAW_TS,
    IntervalDistribution,
    MAX_ROW_DRAWS,
    Need,
    ProcessModel,
    deterministic,
    example44,
    example44_block_ends,
    example44_cesaro_exact,
    example44_labels,
    example44_times,
    example44_run_lengths,
    example84_exact,
    exponential,
    gamma_intervals,
    make_tilt,
    model_from_config,
    poisson_ts,
    pstar_model,
    redraw_rows,
    renewal_es,
    renewal_ts_from_es,
    sample_window,
    tilted_ts,
    uniform_intervals,
)
from palmlab.models import _assemble_two_sided, _row_flaws, clip_rows
from palmlab.pattern import MIN_GAP, PatternBatch
from palmlab.rng import CHUNK, chunk_rng

from conftest import agree, rows_batch, within


def sample_stat(model, window, n, seed, fn):
    """Mean and s.e. of a per-replication statistic."""
    gen = chunk_rng(seed, "test_models", 0)
    batch = sample_window(model, gen, window, n)
    vals = np.array([fn(batch.pattern(i)) for i in range(n)], dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


class TestChunkRng:
    @staticmethod
    def raw(seed, stream, chunk):
        return chunk_rng(seed, stream, chunk).bit_generator.random_raw(8).tolist()

    @pytest.mark.parametrize("stream, other", [("prob", "prob2"), (7, 8)])
    def test_stream_is_a_function_of_seed_stream_and_chunk(self, stream, other):
        # the same (seed, stream, chunk) gives the same stream; changing any
        # one of the three gives another
        base = self.raw(5, stream, 3)
        assert self.raw(5, stream, 3) == base
        variants = [self.raw(6, stream, 3), self.raw(5, other, 3), self.raw(5, stream, 4)]
        assert all(v != base for v in variants)
        assert len({tuple(v) for v in variants}) == 3


class TestIntervalDistributions:
    def test_means_exact(self):
        assert exponential(2.0).mean == 0.5
        assert gamma_intervals(2.0, 4.0).mean == 0.5
        assert deterministic(0.7).mean == 0.7
        assert uniform_intervals(1.0, 3.0).mean == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential(0.0)
        with pytest.raises(ValueError):
            gamma_intervals(-1.0, 1.0)
        with pytest.raises(ValueError):
            uniform_intervals(2.0, 1.0)

    @pytest.mark.parametrize("dist", [
        exponential(1.5),
        gamma_intervals(2.0, 1.0),
        uniform_intervals(0.5, 2.5),
        deterministic(1.25),
    ])
    def test_sample_mean(self, dist):
        rng = np.random.default_rng(5)
        x = dist.sample(rng, 40_000)
        se = x.std(ddof=1) / math.sqrt(x.size) if x.std() > 0 else 0.0
        assert abs(x.mean() - dist.mean) <= 4 * se + 1e-12

    @pytest.mark.parametrize("dist", [
        exponential(1.5),
        gamma_intervals(2.0, 1.0),
        uniform_intervals(0.5, 2.5),
        deterministic(1.25),
    ])
    def test_length_biased_moments(self, dist):
        # the reweighted law has mean E(X^2)/E(X); compare against a plain
        # sample reweighted by hand
        rng = np.random.default_rng(6)
        plain = dist.sample(rng, 200_000)
        target = float(np.sum(plain**2) / np.sum(plain))
        lb = dist.sample_length_biased(np.random.default_rng(7), 200_000)
        se = lb.std(ddof=1) / math.sqrt(lb.size) if lb.std() > 0 else 0.0
        assert abs(lb.mean() - target) <= 4 * se + 2e-3

    @pytest.mark.parametrize("rate", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("size", [1000, (64, 33)])
    def test_exponential_draws_are_numpys(self, rate, size):
        # standard draws scaled in place are rng.exponential(1 / rate) bit
        # for bit, on the chunk streams and on numpy's default generator
        for make in (lambda: chunk_rng(9, "exp", 0), lambda: np.random.default_rng(9)):
            got = exponential(rate).sample(make(), size)
            want = make().exponential(1.0 / rate, size)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_exponential_length_bias_is_gamma2(self):
        rng = np.random.default_rng(8)
        lb = exponential(2.0).sample_length_biased(rng, 200_000)
        assert abs(lb.mean() - 1.0) < 0.01
        assert abs(np.mean(lb**2) - 6.0 / 4.0) < 0.03


class TestPoisson:
    def test_window_too_small_raises(self):
        # a row holds an event of (-1e-9, 1e-9) with probability about
        # 2e-9: the redraw of empty rows gives up instead of drawing forever
        with pytest.raises(InsufficientWindow):
            sample_window(poisson_ts(1.0), chunk_rng(0, "x", 0), (-1e-9, 1e-9), 1)

    @pytest.mark.parametrize("window", [(-math.inf, 5.0), (-5.0, math.inf), (math.nan, 5.0),
                                        (0.0, 5.0), (-5.0, 0.0), (1.0, 5.0)])
    def test_non_finite_window_raises(self, window):
        # a window must be finite and hold the origin strictly inside it
        with pytest.raises(InsufficientWindow):
            sample_window(poisson_ts(1.0), chunk_rng(0, "x", 0), window, 4)

    @pytest.mark.parametrize("field", ["before", "after", "left", "right", "radius"])
    @pytest.mark.parametrize("value", [-1, math.inf, math.nan])
    def test_malformed_need_raises(self, field, value):
        with pytest.raises(InsufficientWindow):
            Need(**{field: value})

    def test_mean_count(self):
        m = poisson_ts(1.0)
        mean, se = sample_stat(m, (-20.0, 20.0), 10_000, 11,
                               lambda p: p.count(0.0, 10.0))
        assert abs(mean - 10.0) <= 3 * se

    def test_inverse_gap_identity(self):
        # independent oracle: the straddling gap of a unit Poisson process
        # is the length-biased exponential, i.e. Gamma(2, 1)
        oracle_rng = np.random.default_rng(13)
        g = oracle_rng.gamma(2.0, 1.0, 400_000)
        oracle = float(np.mean(1.0 / g))
        m = poisson_ts(1.0)
        mean, se = sample_stat(m, (-25.0, 25.0), 40_000, 12,
                               lambda p: 1.0 / p.interval(0))
        assert abs(mean - oracle) <= 3 * se + 0.02
        assert abs(oracle - 1.0) < 0.01

    def test_straddling_gap_survival(self):
        m = poisson_ts(1.0)
        mean, se = sample_stat(m, (-25.0, 25.0), 40_000, 14,
                               lambda p: float(p.interval(0) > 1.0))
        assert abs(mean - math.exp(-1) * 2.0) <= 3 * se + 0.002

    def test_reproducible(self):
        m = poisson_ts(2.0)
        b1 = sample_window(m, chunk_rng(42, "s", 3), (-10.0, 10.0), 50)
        b2 = sample_window(m, chunk_rng(42, "s", 3), (-10.0, 10.0), 50)
        assert np.array_equal(b1.points, b2.points)
        b3 = sample_window(m, chunk_rng(43, "s", 3), (-10.0, 10.0), 50)
        assert not np.array_equal(b1.points, b3.points)


class TestRenewalEs:
    def test_event_at_zero(self):
        m = renewal_es(gamma_intervals(2.0, 1.0))
        batch = sample_window(m, chunk_rng(1, "es", 0), (-15.0, 15.0), 200)
        for i in range(200):
            assert batch.pattern(i).t(0) == 0.0

    def test_deterministic_integers(self):
        m = renewal_es(deterministic(1.0))
        p = sample_window(m, chunk_rng(0, "es", 1), (-5.5, 5.5), 1).pattern(0)
        assert np.array_equal(p.points, np.arange(-5.0, 6.0))

    def test_exponential_case_matches_length_unbiased_gaps(self):
        m = renewal_es(exponential(1.0))
        mean, se = sample_stat(m, (-15.0, 15.0), 30_000, 3,
                               lambda p: p.interval(0))
        assert abs(mean - 1.0) <= 3 * se

    def test_gamma_mean(self):
        m = renewal_es(gamma_intervals(2.0, 1.0))
        mean, se = sample_stat(m, (-25.0, 25.0), 30_000, 4,
                               lambda p: p.interval(0))
        assert abs(mean - 2.0) <= 3 * se

    def test_rows_with_events_within_min_gap_are_redrawn(self):
        # gaps of shape 0.25 put two events within MIN_GAP in 143 of these
        # rows as first drawn; the sampler redraws them
        d, window, n = gamma_intervals(0.25, 0.25), (-20.0, 20.0), 4096
        raw = _assemble_two_sided(chunk_rng(1, "x", 0), Need(before=20.0, after=20.0), n,
                                  np.zeros((n, 1)), d)
        assert int(_row_flaws(raw).sum()) == 143
        batch = sample_window(renewal_es(d), chunk_rng(1, "x", 0), window, n)
        assert not _row_flaws(batch).any()
        assert int(np.count_nonzero(batch.points == 0.0)) == n

    def test_window_without_a_later_event(self):
        # with gaps of 2 no row has an event in (0, 1]; the rows keep the
        # event at 0 alone instead of being redrawn
        m = renewal_es(deterministic(2.0))
        batch = sample_window(m, chunk_rng(0, "x", 0), (-1.0, 1.0), 50)
        assert batch.points.tolist() == [0.0] * 50


class TestRenewalTs:
    def test_exponential_matches_poisson_straddle(self):
        # straddling gap must be Gamma(2, rate): mean 2, second moment 6
        m = renewal_ts_from_es(exponential(1.0))
        mean, se = sample_stat(m, (-25.0, 25.0), 40_000, 5,
                               lambda p: p.interval(0))
        assert abs(mean - 2.0) <= 3 * se
        m2, se2 = sample_stat(m, (-25.0, 25.0), 40_000, 6,
                              lambda p: p.interval(0) ** 2)
        assert abs(m2 - 6.0) <= 3 * se2

    def test_count_rate(self):
        m = renewal_ts_from_es(exponential(2.0))
        mean, se = sample_stat(m, (-10.0, 10.0), 30_000, 7,
                               lambda p: p.count(0.0, 1.0))
        assert abs(mean - 2.0) <= 3 * se

    def test_deterministic_lattice(self):
        m = renewal_ts_from_es(deterministic(1.0))
        gen = chunk_rng(9, "lat", 0)
        t1 = []
        for _ in range(20_000):
            p = sample_window(m, gen, (-6.5, 6.5), 1).pattern(0)
            assert abs(p.interval(0) - 1.0) < 1e-12
            t1.append(p.t(1))
        t1 = np.asarray(t1)
        # T_1 uniform(0, 1): mean 1/2, variance 1/12
        assert abs(t1.mean() - 0.5) < 0.01
        assert abs(t1.var() - 1.0 / 12.0) < 0.005

    def test_window_narrower_than_the_gap(self):
        # with gaps of 2 no row straddles the origin inside (-0.5, 0.5); the
        # empty rows are redrawn and every row keeps its one event
        m = renewal_ts_from_es(deterministic(2.0))
        batch = sample_window(m, chunk_rng(0, "x", 0), (-0.5, 0.5), 50)
        assert np.diff(batch.offsets).tolist() == [1] * 50

    def test_uniform_arrival_fraction(self):
        m = renewal_ts_from_es(gamma_intervals(2.0, 1.0))
        mean, se = sample_stat(m, (-25.0, 25.0), 30_000, 8,
                               lambda p: p.t(1) / p.interval(0))
        assert abs(mean - 0.5) <= 3 * se
        m2, se2 = sample_stat(m, (-25.0, 25.0), 30_000, 9,
                              lambda p: (p.t(1) / p.interval(0)) ** 2)
        assert abs(m2 - 1.0 / 3.0) <= 3 * se2


class TestTilted:
    def test_unknown_tilt(self):
        with pytest.raises(UnknownTilt):
            make_tilt("frobnicate", 1.0)
        with pytest.raises(UnknownTilt):
            make_tilt("alpha0", -1.0)

    def test_identity_tilt_matches_base(self):
        base = poisson_ts(1.0)
        tilted = tilted_ts(base, make_tilt("identity"))
        A = parse_eventuality("alpha(0)>1")
        (a,) = est_event_probability(tilted, [A], 20_000, seed=1)
        (b,) = est_event_probability(base, [A], 20_000, seed=2)
        agree(a, b, label="identity tilt")

    def test_alpha0_tilt_survival(self):
        tilted = tilted_ts(poisson_ts(1.0), make_tilt("alpha0", 0.5))
        A = parse_eventuality("alpha(0)>1")
        (est,) = est_event_probability(tilted, [A], 60_000, seed=3)
        within(est, math.exp(-1) * 2.5, label="reweighted survival")
        assert 0.0 < est.ess < est.reps

    def test_alpha0_tilt_on_the_floor_window(self):
        # the smallest need, the anchors alone, stores the straddling gap of
        # every row, so the tilt is defined on every row (the ten-gap floor
        # window it once took is gone)
        for tilt in (make_tilt("alpha0", 0.5), make_tilt("alpha01", 1.0, 0.5)):
            m = tilted_ts(poisson_ts(1.0), tilt)
            for ci in range(10):
                batch = m.sample_batch(chunk_rng(44, "floor-window", ci), Need(), CHUNK)
                pos0 = batch.pos0()
                assert batch.straddled(pos0).all()
                assert np.array_equal(batch.weights, tilt.value_batch(batch)[0])

    def test_tilt_on_a_plain_window(self):
        # a plain window is the need of its extent: the weights are the tilt
        # values of the rows drawn to it, taken before the rows are clipped,
        # so every chunk samples although no poisson_ts row is conditioned
        # on straddling the window
        for tilt in (make_tilt("alpha0", 0.5), make_tilt("alpha01", 1.0, 0.5)):
            m = tilted_ts(poisson_ts(1.0), tilt)
            for ci in range(40):
                full = m.sample_batch(chunk_rng(44, "floor-window", ci),
                                      Need(before=10.0, after=10.0), CHUNK)
                batch = sample_window(m, chunk_rng(44, "floor-window", ci), (-10.0, 10.0), CHUNK)
                assert np.array_equal(batch.weights, tilt.value_batch(full)[0])
                assert np.array_equal(batch.points, clip_rows(full, (-10.0, 10.0)).points)
            # on (-0.5, 0.5) most straddling gaps stick out of the window
            batch = sample_window(m, chunk_rng(44, "narrow-window", 0), (-0.5, 0.5), CHUNK)
            values, ok = tilt.value_batch(batch)
            assert (batch.weights > 0).all() and ok.mean() < 0.5
            assert np.array_equal(batch.weights[ok], values[ok])

    def test_alpha01_independence_frontier(self):
        # with weights (g0, g1), g1 = rate - 2 g0, the two gaps around the
        # origin stay independent only at the endpoints of the frontier
        def weighted_cov(g0, g1, seed):
            base = poisson_ts(1.0)
            m = tilted_ts(base, make_tilt("alpha01", g0, g1))
            gen = chunk_rng(seed, "cov", 0)
            batch = sample_window(m, gen, (-25.0, 25.0), 60_000)
            a0 = np.empty(batch.n)
            a1 = np.empty(batch.n)
            for i in range(batch.n):
                p = batch.pattern(i)
                a0[i] = p.interval(0)
                a1[i] = p.interval(1)
            w = batch.weights / batch.weights.sum()
            f = (a0 > 1.0).astype(float)
            g = (a1 > 1.0).astype(float)
            cov = np.sum(w * f * g) - np.sum(w * f) * np.sum(w * g)
            # crude batch s.e. for the weighted covariance
            nb = 60
            parts = []
            for chunk in np.array_split(np.arange(batch.n), nb):
                wc = batch.weights[chunk] / batch.weights[chunk].sum()
                parts.append(np.sum(wc * f[chunk] * g[chunk])
                             - np.sum(wc * f[chunk]) * np.sum(wc * g[chunk]))
            se = np.std(parts, ddof=1) / math.sqrt(nb)
            return cov, se

        for g0, g1, seed in ((0.0, 1.0, 21), (0.5, 0.0, 22)):
            cov, se = weighted_cov(g0, g1, seed)
            assert abs(cov) <= 3 * se + 0.002, (g0, g1, cov, se)
        cov, se = weighted_cov(0.25, 0.5, 23)
        assert abs(cov) > 3 * se, "interior weights must break independence"


class TestRedrawRows:
    def test_flagged_rows_take_first_accepted_draws_in_order(self):
        batch = rows_batch([[-1.0, 1.0], [-2.0, 2.0], [-3.0, 3.0]], (-5.0, 5.0))
        first = rows_batch([[-0.5, 0.25, 0.5]], (-6.0, 6.0))
        second = PatternBatch(np.array([-0.75, 0.75]), np.array([0, 2]),
                              np.array([[-7.0, 7.0]]), np.array([2.5]))
        draws = [second, None, first, None]  # pop() hands out None first
        out = redraw_rows(batch, np.array([True, False, True]), draws.pop)
        assert not draws
        assert out.points.tolist() == [-0.5, 0.25, 0.5, -2.0, 2.0, -0.75, 0.75]
        assert out.offsets.tolist() == [0, 3, 5, 7]
        assert out.windows.tolist() == [[-6.0, 6.0], [-5.0, 5.0], [-7.0, 7.0]]
        assert out.weights.tolist() == [1.0, 1.0, 2.5]
        assert batch.windows.tolist() == [[-5.0, 5.0]] * 3
        assert batch.weights.tolist() == [1.0] * 3

    def test_gives_up_after_max_row_draws(self):
        batch = rows_batch([[-1.0, 1.0]], (-5.0, 5.0))
        calls = []

        def draw_row():
            calls.append(1)
            return None

        with pytest.raises(InsufficientWindow):
            redraw_rows(batch, np.array([True]), draw_row)
        assert len(calls) == MAX_ROW_DRAWS

    def test_no_flagged_row_draws_nothing(self):
        batch = rows_batch([[-1.0, 1.0]], (-5.0, 5.0))

        def draw_row():
            raise AssertionError("no row is flagged")

        assert redraw_rows(batch, np.array([False]), draw_row) is batch

    def test_sample_batch_redraws_flawed_rows_of_a_draw(self):
        # rows 1 and 3 of the first draw hold two events within MIN_GAP;
        # sample_batch keeps rows 0 and 2 and fills 1 and 3, in row order,
        # from the one-row draws that follow, passing over a flawed one
        first = rows_batch([[-1.0, 1.0], [-2.0, -2.0 + MIN_GAP / 2, 2.0], [-3.0, 3.0],
                            [-4.0, 4.0, 4.0 + MIN_GAP / 2]], (-5.0, 5.0))
        later = [rows_batch([[-0.5, 0.5]], (-6.0, 6.0)),
                 rows_batch([[-0.5, 0.5, 0.5 + MIN_GAP]], (-8.0, 8.0)),
                 rows_batch([[-0.25, 0.75]], (-7.0, 7.0))]
        sizes = []

        def draw(rng, need, k):
            sizes.append(k)
            return first if k == 4 else later[len(sizes) - 2]

        model = ProcessModel(LAW_TS, {"model": "fixed"}, 1.0, draw)
        out = model.sample_batch(None, Need(1.0, 1.0), 4)
        assert sizes == [4, 1, 1, 1]
        assert not _row_flaws(out).any()
        assert out.points.tolist() == [-1.0, 1.0, -0.5, 0.5, -3.0, 3.0, -0.25, 0.75]
        assert out.offsets.tolist() == [0, 2, 4, 6, 8]
        assert out.windows.tolist() == [[-5.0, 5.0], [-6.0, 6.0], [-5.0, 5.0], [-7.0, 7.0]]


class TestTiltRows:
    # row 1 has no event after the origin; row 2 stores no gap after the
    # straddling one
    ROWS = [[-1.0, 0.5, 2.0, 2.5], [-2.0, -0.5], [-0.3, 0.7], [-1.5, 0.2, 1.0]]
    WINDOW = (-3.0, 3.0)

    @pytest.mark.parametrize("tilt, ok", [
        (make_tilt("identity"), [True, False, True, True]),
        (make_tilt("alpha0", 0.5), [True, False, True, True]),
        (make_tilt("alpha01", 1.0, 0.5), [True, False, False, True]),
    ], ids=["identity", "alpha0", "alpha01"])
    def test_per_row_validity(self, tilt, ok):
        values, got = tilt.value_batch(rows_batch(self.ROWS, self.WINDOW))
        assert got.tolist() == ok
        assert np.all(values[~got] == 0.0)
        # a valid row's value does not depend on the other rows
        for i in np.flatnonzero(got):
            alone, _ = tilt.value_batch(rows_batch([self.ROWS[i]], self.WINDOW))
            assert values[i] == alone[0]
        assert tilt.value_batch(rows_batch([self.ROWS[0]], self.WINDOW))[0][0] == {
            "identity": 1.0, "alpha0": 0.5 * 1.5, "alpha01": 1.5 + 0.5 * 1.5}[tilt.name]

    def test_tilted_sampler_fails_loudly(self):
        rows, window = self.ROWS, self.WINDOW
        base = ProcessModel(LAW_TS, {"model": "fixed"}, 1.0,
                            lambda rng, need, n: rows_batch(rows, window),
                            exact_rate=1.0)
        with pytest.raises(InsufficientContext):
            sample_window(tilted_ts(base, make_tilt("alpha0", 0.5)), None, self.WINDOW, 4)


class TestExample84:
    def test_matches_importance_sampling_oracle(self):
        # the exact sampler must agree with self-normalized reweighting of
        # the plain stationary law on a five-eventuality battery
        exact = example84_exact(1.0)
        tilted = tilted_ts(poisson_ts(1.0), make_tilt("alpha0", 0.5))
        five = [parse_eventuality(t) for t in (
            "alpha(0)>1", "alpha(0)>2", "alpha(1)>1", "count(0,1]==0", "T1<=0.5",
        )]
        for i, ev in enumerate(five):
            (a,) = est_event_probability(exact, [ev], 40_000, seed=30 + i)
            (b,) = est_event_probability(tilted, [ev], 40_000, seed=60 + i)
            agree(a, b, label=f"oracle equivalence {ev.label}")

    def test_survival_and_mean(self):
        m = example84_exact(1.0)
        mean, se = sample_stat(m, (-25.0, 25.0), 40_000, 31,
                               lambda p: p.interval(0))
        assert abs(mean - 3.0) <= 3 * se
        surv, se2 = sample_stat(m, (-25.0, 25.0), 40_000, 32,
                                lambda p: float(p.interval(0) > 2.0))
        assert abs(surv - 5.0 * math.exp(-2)) <= 3 * se2 + 0.002

    def test_uniform_origin_placement(self):
        m = example84_exact(1.0)
        mean, se = sample_stat(m, (-25.0, 25.0), 30_000, 33,
                               lambda p: p.t(1) / p.interval(0))
        assert abs(mean - 0.5) <= 3 * se


class TestLawRelations:
    """A law's relations to other laws are values stored on it."""

    def test_stationary_laws_hold_their_palm_version(self):
        for m in (poisson_ts(1.0), renewal_ts_from_es(gamma_intervals(2.0, 1.0))):
            palm = m.palm_companion()
            assert palm is m.palm_companion()
            assert palm.is_es and palm.interval == m.interval
            assert palm.label == renewal_es(m.interval).label

    def test_reweighted_laws_hold_tilt_and_untilted(self):
        base, tilt = poisson_ts(1.0), make_tilt("alpha0", 0.5)
        tilted = tilted_ts(base, tilt)
        assert tilted.tilt is tilt and tilted.untilted is base
        e84 = example84_exact(2.0)
        assert e84.tilt == make_tilt("alpha0", 1.0)
        assert e84.untilted.label == poisson_ts(2.0).label
        for m in (tilted, e84):
            ps = pstar_model(m)
            assert ps.tilt is m.tilt and ps.untilted is m.untilted
        assert poisson_ts(1.0).tilt is None and poisson_ts(1.0).untilted is None

    @pytest.mark.parametrize("model", [
        example84_exact(1.0),
        pstar_model(poisson_ts(1.0)),
        tilted_ts(poisson_ts(1.0), make_tilt("identity")),
        renewal_es(exponential(1.0)),
        example44(5),
    ], ids=["example84", "pstar", "tilted_ts", "renewal_es", "example44"])
    def test_no_palm_version(self, model):
        assert model.palm_companion() is None


class TestExample44:
    def test_run_lengths_and_block_ends(self):
        assert example44_run_lengths(7) == [4, 4, 8, 8, 24, 24, 72]
        assert example44_block_ends(6) == [4, 8, 16, 24, 48, 72]

    def test_labels_prefix(self):
        assert example44_labels(10).tolist() == [1, 1, 1, 1, 0, 0, 0, 0, 1, 1]

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 12, 100, 900, 5000])
    def test_labels_and_times_follow_the_run_lengths(self, n):
        # reference: the run-length recursion written out as a loop
        want, a, k = [], [4], 0
        while len(want) < n:
            want += [1 - k % 2] * a[-1]
            k += 1
            a.append(a[-1] if (k + 1) % 2 == 0 else sum(a))
        labels = example44_labels(n)
        assert labels.dtype == np.int8 and labels.tolist() == want[:n]
        times = example44_times(n)
        assert times[0] == 1.0 and np.diff(times).tolist() == [2 - x for x in want[:n]]

    def test_cesaro_exact_rationals(self):
        assert example44_cesaro_exact(8) == Fraction(1, 2)
        assert example44_cesaro_exact(16) == Fraction(3, 4)
        assert example44_cesaro_exact(24) == Fraction(1, 2)
        assert example44_cesaro_exact(48) == Fraction(3, 4)

    def test_gap_encoding(self):
        m = example44(50)
        p = sample_window(m, chunk_rng(0, "d", 0), (-4.5, 30.5), 1).pattern(0)
        assert p.t(0) == 0.0 and p.t(1) == 1.0
        labels = example44_labels(20)
        for i in range(1, 15):
            assert p.interval(i) == 2.0 - labels[i - 1]
        # mirrored side has unit gaps
        assert p.interval(-1) == 1.0 and p.interval(-2) == 1.0

    def test_seed_independent(self):
        m = example44(30)
        a = sample_window(m, chunk_rng(1, "d", 0), (-3.5, 20.5), 1).pattern(0)
        b = sample_window(m, chunk_rng(999, "other", 7), (-3.5, 20.5), 1).pattern(0)
        assert np.array_equal(a.points, b.points)

    def test_window_past_realization(self):
        m = example44(5)
        last = float(example44_times(5)[-1])
        with pytest.raises(InsufficientWindow):
            sample_window(m, chunk_rng(0, "d", 0), (-2.5, 100.0), 1)
        with pytest.raises(InsufficientWindow):
            sample_window(m, chunk_rng(0, "d", 0), (-2.5, last + 0.5), 1)
        # the window that ends at the last stored event is held
        row = sample_window(m, chunk_rng(0, "d", 0), (-2.5, last), 1)
        assert row.points[-1] == last and row.windows.tolist() == [[-2.5, last]]
        # a need past the realization gets all of it, and the row's window
        # ends at its last event
        row = m.sample_batch(chunk_rng(0, "d", 0), Need(after=100.0), 1)
        assert row.points[-1] == last and row.windows[0, 1] == last


class TestConfigRoundTrip:
    """Each law's config, written out as the CLI reads it (every value a
    string), reads back as that law."""

    @pytest.mark.parametrize("model, cfg", [
        (poisson_ts(1.5), {"model": "poisson_ts", "rate": "1.5"}),
        (renewal_es(gamma_intervals(2.0, 1.0)),
         {"model": "renewal_es", "interval": "gamma", "shape": "2.0", "rate": "1.0"}),
        (renewal_ts_from_es(uniform_intervals(0.5, 1.5)),
         {"model": "renewal_ts", "interval": "uniform", "lo": "0.5", "hi": "1.5"}),
        (renewal_ts_from_es(deterministic(1.0)),
         {"model": "renewal_ts", "interval": "deterministic", "value": "1.0"}),
        (example84_exact(2.0), {"model": "example84", "rate": "2.0"}),
        (example44(40), {"model": "example44", "pattern_len": "40"}),
        (tilted_ts(poisson_ts(1.0), make_tilt("alpha0", 0.5)),
         {"model": "tilted_ts", "base": "poisson_ts", "rate": "1.0", "tilt": "alpha0",
          "tilt_p0": "0.5"}),
        (tilted_ts(poisson_ts(1.0), make_tilt("alpha01", 0.25, 0.5)),
         {"model": "tilted_ts", "base": "poisson_ts", "rate": "1.0", "tilt": "alpha01",
          "tilt_p0": "0.25", "tilt_p1": "0.5"}),
        (renewal_ts_from_es(exponential(2.0)),
         {"model": "renewal_ts", "interval": "exponential", "rate": "2.0"}),
    ], ids=[f"model{i}" for i in range(9)])
    def test_round_trip(self, model, cfg):
        back = model_from_config(cfg)
        assert back.descriptor == model.descriptor
        assert back.law_tag == model.law_tag
        assert back.interval == model.interval

    def test_unknown_interval_family(self):
        with pytest.raises(ValueError, match="unknown interval family"):
            model_from_config({"model": "renewal_es", "interval": "pareto", "rate": "1"})
        with pytest.raises(ValueError, match="unknown interval family"):
            IntervalDistribution("pareto", (1.0,))


def _batch_digest(batch) -> str:
    h = hashlib.sha256()
    for arr in (batch.points, batch.offsets, batch.windows, batch.weights):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestGoldenBatches:
    """Fixed-seed batches are pinned byte for byte: a sampler may get
    faster but must keep every random draw and every output value.  The
    two-sided samplers' digests were re-recorded when their gap draws were
    right-sized (tests/test_gap_draws.py checks the law against the former
    rule), and the two over renewal_es(Gamma(0.25, 0.25)) when renewal_es
    began to redraw rows with two events within MIN_GAP.  The digests over
    poisson_ts were re-recorded when poisson_ts became an anchored sampler
    (tests/test_gap_draws.py checks its law against the former sampler).
    All of them were re-recorded when the first block of gap draws shrank
    to GAP_SLACK = 1 and the chunk streams moved from Philox to SFC64, and
    again when rows came to be drawn to a Need (event-indexed), Gamma(2)
    gaps came to be drawn from two uniforms, renewal_es came to draw T_1 as
    an anchor and poisson_ts stopped redrawing rows that do not straddle
    the origin inside a plain window.  The plain-window digests moved once
    more when a plain window (lo, hi) became Need(before=-lo, after=hi),
    measured from the anchors, for every sampler alike."""

    # (label, model factory, window, rows, seed, SHA-256 of the batch's
    # points, offsets, windows and weights)
    CASES = [
        ("poisson 300 rows", lambda: poisson_ts(1.0), (-30.0, 30.0), 300, 11,
         "933abafc922e71d7a80ac562aba62a918a41266b41dc42d10c2c056778ee5883"),
        ("poisson ams window", lambda: poisson_ts(1.0), (-15.0, 441.0), 40, 12,
         "9b452d43c7c83ca951b96486c09fea2ea8ece0bde2445cd1e52679376ba1b816"),
        # 2 of the 200 rows hold no event of the window and go through the
        # one-row redraw path
        ("poisson redraws", lambda: poisson_ts(1.0), (-2.5, 2.5), 200, 13,
         "43fad59d67b349b8e966345a4d8ed2f5077f11a85f88c6a2c1f52fb70bf912f4"),
        ("renewal_ts", lambda: renewal_ts_from_es(gamma_intervals(2.0, 1.0)),
         (-20.0, 20.0), 100, 14,
         "0475a79170cfa6bdab8b8d47657fbffa1f190eaac1f7c781c02bad0079161aad"),
        ("renewal_es", lambda: renewal_es(uniform_intervals(0.5, 1.5)),
         (-20.0, 20.0), 100, 15,
         "508d826b25a193e12ebbc44b19bdf5b8a0cff5429a54275ca5b1d926bae5e62a"),
        ("example84", lambda: example84_exact(1.0), (-20.0, 20.0), 100, 16,
         "d759c5c16c185fa5fd9de0a8bb02adbe2a752ae4f8de738311f50629301e6492"),
        ("tilted alpha0", lambda: tilted_ts(poisson_ts(1.0), make_tilt("alpha0", 0.5)),
         (-20.0, 20.0), 100, 17,
         "8aefb47426fcf330304b8cba2a056c0f30966425a07896d9f4795924be480b3e"),
        ("tilted alpha01",
         lambda: tilted_ts(poisson_ts(2.0), make_tilt("alpha01", 1.0, 0.5)),
         (-10.0, 10.0), 100, 18,
         "91748e955054566a0e1e28ad37dcec2406b8c4db9570fe1a5a1a68872f92d1c5"),
        ("pstar poisson", lambda: pstar_model(poisson_ts(1.0)), (-20.0, 20.0), 100, 19,
         "b2625fcc13220e45958d5b4f37473bd0ff8bd2c0acb3181c26a5139409cdfd90"),
        ("pstar renewal_es", lambda: pstar_model(renewal_es(gamma_intervals(2.0, 1.0))),
         (-20.0, 20.0), 100, 20,
         "af8cb92d2c49e42ce89ea2b13625be28bd736651fec8eb33b2f92a1e8feb28e5"),
        # 5 of the 200 rows hold no event of the window and go through the
        # one-row redraw path
        ("example84 redraws", lambda: example84_exact(1.0), (-2.5, 2.5), 200, 21,
         "1ef8484c7acd1e571056bba9e584fb90a05e2f49d1053d39cd0b843d30fd88f3"),
        ("renewal_ts ams window", lambda: renewal_ts_from_es(gamma_intervals(2.0, 1.0)),
         (-15.0, 441.0), 40, 22,
         "55f997a45ce96d2092ab07d000dbe8f120bc27a758df22b32f82a9513cfac2d9"),
        # gaps with coefficient of variation 2: 36 rows are topped up on the
        # left (four rounds) and 38 on the right (five rounds), and the two
        # rows with two events within MIN_GAP are redrawn
        ("renewal_es top-ups", lambda: renewal_es(gamma_intervals(0.25, 0.25)),
         (-20.0, 20.0), 100, 23,
         "8a6f88fcfce6fb95fdc8702b969668c4fab972a1f0f235064e3b445fb3930581"),
        # 20 of the 200 rows go through the one-row redraw path (21 draws)
        ("renewal_ts redraws", lambda: renewal_ts_from_es(gamma_intervals(2.0, 1.0)),
         (-1.5, 1.5), 200, 31,
         "e4a5f2e32c311697de05ea74092b61687dd8dd67957aa2e05765115eb55513da"),
    ]

    # rows drawn to a Need: each ends its window at its outermost events
    CASES += [
        ("poisson need", lambda: poisson_ts(1.0), Need(2.0, 3.0, 1, 2, 1.0), 300, 41,
         "dfa86d35e34f4f974a9b93d2e189b5737563824681f975ab0ff7188ecf0bdbc6"),
        ("renewal_es need", lambda: renewal_es(gamma_intervals(2.0, 1.0)),
         Need(0.0, 5.0, 2, 0, 0.5), 100, 42,
         "758d184635d920adfd6b0b4a404cff906a2d2380ef5f0e28873bc49ff332361d"),
        # the anchors alone, widened by the gap the tilt reads past T_1
        ("tilted alpha01 need",
         lambda: tilted_ts(poisson_ts(2.0), make_tilt("alpha01", 1.0, 0.5)), Need(), 100, 43,
         "50e103915cea609c8d9b4ad37f2413e0252aa3340a0a3bd9f2ac6c24c3230464"),
        ("pstar need",
         lambda: pstar_model(pstar_model(renewal_es(gamma_intervals(0.25, 0.25)))),
         Need(1.0, 1.0, 1, 1), 100, 44,
         "95d3a7d302c2d15c960693ac9d06fdea33207b68b23274e30df9ab8a503c48e8"),
        ("example44 need", lambda: example44(60), Need(2.0, 10.0, 1, 3, 1.5), 3, 45,
         "ed55f366419a11d3f8d5ef0bb8416e2b3e9f8d9007bc3ec6f080bec4f8512ecb"),
        # needs that every row holds in the same columns (a pure event need,
        # or the anchors alone), whose kept cells are taken as one slice;
        # recorded while the sampler still gathered them through a mask
        ("poisson right 64", lambda: poisson_ts(1.0), Need(right=64), 300, 46,
         "b8a07b9cc02906aa1b6fd4a316a9d8207568f47e951d36dcfd161f406e4422a0"),
        ("renewal_es anchors", lambda: renewal_es(gamma_intervals(2.0, 1.0)), Need(), 200, 47,
         "249dedbbce000a0c510e159c316c58edd3ad044644cb13ed3eda05baabc01fa1"),
        ("renewal_es exponential anchors", lambda: renewal_es(exponential(1.0)), Need(), 200,
         48, "c5c68d8b21f082aaceedaa6891d2695fe09d22a053f019a80e6e1c3e13dc8222"),
        ("example84 right 8", lambda: example84_exact(1.0), Need(right=8), 200, 49,
         "0fbf9a01f8925622649367605262568f888521bee0010ef6d7bd571c4a06d72d"),
    ]

    @pytest.mark.parametrize("label, factory, window, n, seed, digest", CASES,
                             ids=[c[0] for c in CASES])
    def test_digest(self, label, factory, window, n, seed, digest):
        model, rng = factory(), chunk_rng(seed, "golden", 0)
        if isinstance(window, Need):
            batch = model.sample_batch(rng, window, n)
        else:
            batch = sample_window(model, rng, window, n)
        assert _batch_digest(batch) == digest

    def test_pstar_redraws(self):
        # re-centered rows clipped to the plain window (-0.2, 0.2): 47 of the
        # 200 rows hold no event of it and are redrawn, taking 57 one-row
        # draws (and one base row with two events within MIN_GAP is redrawn)
        m = pstar_model(renewal_es(gamma_intervals(0.25, 0.25)))
        batch = sample_window(m, chunk_rng(34, "golden", 0), (-0.2, 0.2), 200)
        assert _batch_digest(batch) == (
            "ee3b4db8152ed4f7908e29b452817c6eca296d0ef706e1854387c87778768862")
