import hashlib
import math
import threading

import numpy as np
import pytest

from palmlab import estimate
from palmlab.ams import convert_es_to_ts, convert_ts_to_es
from palmlab.errors import InsufficientContext, InsufficientCoverage, ZeroDenominator
from palmlab.estimate import (
    GroupSums,
    est_event_probability,
    est_intensity,
    est_intermediate,
    est_palm_zero,
    est_shifted_palm,
    mc_mean,
    point_bins,
    row_need,
    run_kernel,
)
from palmlab.events import (
    BATTERY,
    EventContext,
    Eventuality,
    ev_interval_gt,
    ev_true,
    parse_eventuality,
)
from palmlab.models import (
    Need,
    deterministic,
    example44,
    example84_exact,
    exponential,
    gamma_intervals,
    ProcessModel,
    make_tilt,
    poisson_ts,
    pstar_model,
    renewal_es,
    renewal_ts_from_es,
    sample_window,
    tilted_ts,
)
from palmlab.pattern import ragged_ranges
from palmlab.rng import CHUNK, chunk_rng

from conftest import agree, palm_renewal_oracle, rows_batch, within

A_GAP = parse_eventuality("alpha(0)>1")


class TestPalmZero:
    def test_poisson_against_renewal_oracle(self):
        # event-centered law of a unit Poisson process has i.i.d. unit
        # exponential gaps
        oracle, oracle_se = palm_renewal_oracle(
            lambda r, size: r.exponential(1.0, size),
            lambda left, right: (right[:, 0] > 1.0).astype(float),
            200_000, seed=5,
        )
        assert abs(oracle - math.exp(-1)) < 0.004
        (est,) = est_palm_zero(poisson_ts(1.0), [A_GAP], 10.0, 50_000, seed=17)
        assert abs(est.value - oracle) <= 3 * math.hypot(est.std_error, oracle_se) + 0.002
        within(est, math.exp(-1), label="palm zero")

    def test_true_is_exactly_one(self):
        (est,) = est_palm_zero(poisson_ts(1.0), [ev_true()], 5.0, 2_000, seed=1)
        assert est.value == 1.0 and est.std_error == 0.0

    def test_renewal_matches_direct_es_simulation(self):
        d = gamma_intervals(2.0, 1.0)
        model = renewal_ts_from_es(d)
        (est,) = est_palm_zero(model, [A_GAP], 10.0, 50_000, seed=3)
        oracle, oracle_se = palm_renewal_oracle(
            lambda r, size: r.gamma(2.0, 1.0, size),
            lambda left, right: (right[:, 0] > 1.0).astype(float),
            200_000, seed=6,
        )
        assert abs(est.value - oracle) <= 3 * math.hypot(est.std_error, oracle_se) + 0.002

    def test_window_length_invariance(self):
        m = poisson_ts(1.0)
        (a,) = est_palm_zero(m, [A_GAP], 5.0, 40_000, seed=8, stream="xa")
        (b,) = est_palm_zero(m, [A_GAP], 20.0, 40_000, seed=8, stream="xb")
        agree(a, b, label="x invariance")

    def test_requires_ts(self):
        with pytest.raises(ValueError):
            est_palm_zero(renewal_es(exponential(1.0)), [A_GAP], 5.0, 100)

    def test_requires_positive_x(self):
        with pytest.raises(ValueError, match="x > 0"):
            est_palm_zero(poisson_ts(1.0), [A_GAP], 0.0, 100)

    def test_zero_denominator(self):
        # an eventuality window is irrelevant: force no events by an
        # empty analysis interval on a sparse model
        with pytest.raises(ZeroDenominator):
            est_palm_zero(poisson_ts(0.001), [ev_true()], 0.001, 64, seed=0)


class TestShiftedPalm:
    def test_flat_for_stationary(self):
        m = poisson_ts(1.0)
        edges = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        (bins,) = est_shifted_palm(m, [A_GAP], edges, 30_000, seed=4)
        (ref,) = est_palm_zero(m, [A_GAP], 10.0, 30_000, seed=5)
        for b in bins:
            assert b.events > 0
            agree(b.estimate, ref, label=f"bin {b.bin_lo}")

    def test_example84_left_side_independence(self):
        m = example84_exact(1.0)
        for c, expected in ((0.5, math.exp(-0.5)), (1.0, math.exp(-1.0))):
            ev = parse_eventuality(f"alpha(-1)>{c}")
            (bins,) = est_shifted_palm(m, [ev], np.array([-1.25, -0.75]), 50_000,
                                       seed=9)
            within(bins[0].estimate, expected, label=f"left independence c={c}")

    def test_true_in_every_bin(self):
        m = example84_exact(1.0)
        edges = np.array([-1.0, 0.0, 1.0])
        (bins,) = est_shifted_palm(m, [ev_true()], edges, 5_000, seed=2)
        for b in bins:
            assert b.events > 0 and b.marked == b.events
            assert b.estimate.value == 1.0

    def test_empty_bin_is_nan_with_infinite_error(self):
        m = poisson_ts(1.0)
        (bins,) = est_shifted_palm(m, [ev_true()], np.array([0.0, 1e-7]), 256, seed=3)
        assert bins[0].events == 0.0 and bins[0].marked == 0.0
        assert math.isnan(bins[0].estimate.value) and math.isinf(bins[0].estimate.std_error)


class TestIntensity:
    def test_poisson_flat(self):
        m = poisson_ts(2.0)
        edges = np.linspace(-2.0, 2.0, 9)
        (bins,) = est_intensity(m, [ev_true()], edges, 20_000, seed=5)
        for b in bins:
            assert abs(b.estimate.value - 2.0) <= 3 * b.estimate.std_error + 0.01

    def test_profile_integrates_to_mean_count(self):
        m = poisson_ts(1.0)
        edges = np.linspace(0.0, 3.0, 7)
        (bins,) = est_intensity(m, [ev_true()], edges, 30_000, seed=6)
        integral = sum(b.estimate.value * (b.bin_hi - b.bin_lo) for b in bins)
        se = math.sqrt(sum((b.estimate.std_error * (b.bin_hi - b.bin_lo)) ** 2 for b in bins))
        assert abs(integral - 3.0) <= 4 * se

    def test_example84_profile(self):
        m = example84_exact(1.0)
        ((bin0,),) = est_intensity(m, [ev_true()], np.array([-0.025, 0.025]), 80_000, seed=7)
        v0, s0 = bin0.estimate.value, bin0.estimate.std_error
        assert abs(v0 - 0.5) <= 3 * s0 + 0.01
        ((bin2,),) = est_intensity(m, [ev_true()], np.array([1.975, 2.025]), 80_000, seed=8)
        v2, s2 = bin2.estimate.value, bin2.estimate.std_error
        assert abs(v2 - (1.0 - math.exp(-2.0) / 2.0)) <= 3 * s2 + 0.01

    def test_example44_sawtooth_exact(self):
        # deterministic pattern: per-bin rate equals the event count over
        # the bin width, computed directly from the gap encoding
        m = example44(60)
        edges = np.arange(0.0, 12.5, 0.5)
        (bins,) = est_intensity(m, [ev_true()], edges, 1, seed=0)
        p = sample_window(m, np.random.default_rng(0), (-20.0, 40.0), 1).pattern(0)
        for lo, hi, b in zip(edges[:-1], edges[1:], bins):
            assert b.estimate.value == pytest.approx(p.count(lo, hi) / (hi - lo))

    def test_empty_bin_reports_zero_rate_infinite_error(self):
        m = example44(30)
        ((b,),) = est_intensity(m, [ev_true()], np.array([1.2, 1.8]), 1, seed=0)
        assert b.marked == 0.0
        assert b.estimate.value == 0.0 and math.isinf(b.estimate.std_error)

    def test_point_bins(self):
        # one bin around each point, in sorted order; each point reads its own
        bins, at = point_bins([0.0, -2.0, 2.0], 0.5)
        assert bins == [(-2.5, -1.5), (-0.5, 0.5), (1.5, 2.5)]
        assert at == [1, 0, 2]
        with pytest.raises(ValueError):
            est_intensity(poisson_ts(1.0), [ev_true()], point_bins([0.0, 0.5], 0.5)[0], 10)

    def test_events_between_point_bins_are_not_evaluated(self):
        class IndeterminateNearOrigin(Eventuality):
            label, radius = "indeterminate on (-1, 1]", 1.0

            def at_events(self, ctx, e, rep):
                x = ctx.points[e]
                return np.where((x > -1.0) & (x <= 1.0), -1, 1).astype(np.int8)

        m, ev = poisson_ts(1.0), IndeterminateNearOrigin()
        bins, _ = point_bins([-2.0, 2.0], 0.5)
        (apart,) = est_shifted_palm(m, [ev], bins, 256, seed=4)
        # edges over the same range put the events between into a bin of
        # their own, where they reject their rows
        (spanned,) = est_shifted_palm(m, [ev], [-2.5, -1.5, 1.5, 2.5], 256, seed=4)
        assert [b.estimate.rejected for b in apart] == [0, 0]
        assert [b.estimate.value for b in apart] == [1.0, 1.0]
        assert min(b.events for b in apart) > 100
        assert spanned[0].estimate.rejected > 100

    def test_marked_intensity(self):
        # rate of events whose following gap exceeds 1, for unit Poisson:
        # lambda * P0(gap > 1) = exp(-1)
        m = poisson_ts(1.0)
        ((b,),) = est_intensity(m, [A_GAP], np.array([-0.5, 0.5]), 40_000, seed=9)
        assert abs(b.estimate.value - math.exp(-1)) <= 3 * b.estimate.std_error + 0.002


class TestIntermediate:
    def test_event_stationary_invariance(self):
        m = renewal_es(gamma_intervals(2.0, 1.0))
        (ref,) = est_event_probability(m, [A_GAP], 30_000, seed=1)
        for n in (-2, 1, 3):
            (est,) = est_intermediate(m, n, [A_GAP], 30_000, seed=10 + n)
            agree(est, ref, label=f"n={n}")

    def test_poisson_against_es_oracle(self):
        # re-centering at T_0 weights the event-centered law by the gap:
        # oracle = rate * mean(gap * indicator) over i.i.d. exponential gaps
        rng = np.random.default_rng(3)
        g = rng.exponential(1.0, 400_000)
        oracle = float(np.mean(g * (g > 1.0)))
        (est,) = est_intermediate(poisson_ts(1.0), 0, [A_GAP], 50_000, seed=21)
        assert abs(est.value - oracle) <= 3 * est.std_error + 0.004
        assert est.coverage > 0.99

    def test_example84_straddling_survival(self):
        (est,) = est_intermediate(example84_exact(1.0), 0, [A_GAP], 50_000, seed=22)
        within(est, 2.5 * math.exp(-1), label="recentered survival")

    def test_example84_far_index_forgets_reweighting(self):
        # standing far from the origin, the view no longer overlaps the
        # reweighted straddling gap; the law is the plain event-centered one
        for n in (8, -8):
            (est,) = est_intermediate(example84_exact(1.0), n, [A_GAP], 40_000,
                                      seed=23 + n)
            within(est, math.exp(-1), label=f"far intermediate n={n}")

    def test_insufficient_coverage(self):
        # a sampler that ignores the requested window and stores (-5, 5)
        # never holds T_30
        base = renewal_es(deterministic(1.0))
        m = ProcessModel(base.law_tag, base.descriptor, base.scale,
                         lambda rng, need, n: sample_window(base, rng, (-5.0, 5.0), n))
        with pytest.raises(InsufficientCoverage):
            est_intermediate(m, 30, [ev_interval_gt(0, 1.0)], 256, seed=0)

    def test_partial_coverage_names_its_share(self):
        # rows clipped to (-0.5, 0.5) hold T_2 only now and then: some rows
        # are accepted, too few, and the error names the accepted share
        base = poisson_ts(1.0)
        m = ProcessModel(base.law_tag, base.descriptor, base.scale,
                         lambda rng, need, k: sample_window(base, rng, (-0.5, 0.5), k))
        with pytest.raises(InsufficientCoverage, match=r"accepted 13\.8% of replications"):
            est_intermediate(m, 2, [ev_true()], 4096, seed=3)


class TestResamplePstar:
    def test_uniform_arrival_ratio(self):
        ps = pstar_model(renewal_es(gamma_intervals(2.0, 1.0)))

        def kernel(batch, ctx):
            t0, t1, ok = ctx.gap(ctx.pos0())
            return [(np.where(ok, t1 / (t1 - t0), 0.0), ~ok)]

        (est,) = mc_mean(ps, Need(), kernel, 40_000, seed=31)
        within(est, 0.5, label="uniform ratio")

    def test_nested_redraws_keep_rows_inside_their_windows(self):
        # re-centered twice, a row drawn to a need keeps its own window,
        # from its first to its last event, and holds the need around its
        # anchors; on a plain window the re-centered rows are clipped to it,
        # and the rows left empty are redrawn
        m = pstar_model(pstar_model(renewal_es(exponential(1.0))))
        need = Need(3.0, 3.0)
        for b in (m.sample_batch(chunk_rng(35, "nested", 0), need, 400),
                  sample_window(m, chunk_rng(35, "nested", 0), (-0.5, 0.5), 400)):
            rep = np.repeat(np.arange(b.n), np.diff(b.offsets))
            assert np.all(b.points >= b.windows[rep, 0])
            assert np.all(b.points <= b.windows[rep, 1])
            assert np.all(np.diff(b.offsets) > 0)
        pos0 = b.pos0()
        assert np.all(b.windows == (-0.5, 0.5)) and not b.straddled(pos0).all()
        b = m.sample_batch(chunk_rng(35, "nested", 0), need, 400)
        pos0 = b.pos0()
        assert b.straddled(pos0).all()
        assert np.array_equal(b.windows[:, 0], b.points[b.offsets[:-1]])
        assert np.array_equal(b.windows[:, 1], b.points[b.offsets[1:] - 1])
        assert np.all(b.windows[:, 0] <= b.points[pos0] - 3.0)
        assert np.all(b.windows[:, 1] >= b.points[pos0 + 1] + 3.0)

    def test_redrawn_rows_keep_their_weights(self):
        # re-centering stays inside the straddling gap, so an alpha0-tilted
        # row keeps weight c * alpha_0
        m = pstar_model(tilted_ts(poisson_ts(1.0), make_tilt("alpha0", 0.5)))
        b = m.sample_batch(chunk_rng(36, "weighted", 0), Need(1.0, 1.0), 200)
        pos0 = b.pos0()
        assert b.straddled(pos0).all()
        a0 = b.points[pos0 + 1] - b.points[pos0]
        np.testing.assert_allclose(b.weights, 0.5 * a0, rtol=1e-12)

    def test_base_without_anchors_is_an_error(self):
        # a base that ignores the need and samples (-0.5, 0.5) leaves rows
        # without T_0 or T_1, which the re-centering cannot read
        base = poisson_ts(1.0)
        narrow = ProcessModel(base.law_tag, base.descriptor, base.scale,
                              lambda rng, need, n: sample_window(base, rng, (-0.5, 0.5), n))
        with pytest.raises(InsufficientContext):
            pstar_model(narrow).sample_batch(chunk_rng(37, "anchors", 0), Need(), 400)

    def test_idempotent_in_distribution(self):
        base = renewal_es(exponential(1.0))
        once = pstar_model(base)
        twice = pstar_model(once)
        for i, ev in enumerate(BATTERY):
            (a,) = est_event_probability(once, [ev], 20_000, seed=40 + i)
            (b,) = est_event_probability(twice, [ev], 20_000, seed=70 + i)
            agree(a, b, label=f"idempotence {ev.label}")

    def test_ts_model_is_fixed_point(self):
        m = poisson_ts(1.0)
        ps = pstar_model(m)
        for i, ev in enumerate([A_GAP, parse_eventuality("count(0,1]==0")]):
            (a,) = est_event_probability(m, [ev], 30_000, seed=50 + i)
            (b,) = est_event_probability(ps, [ev], 30_000, seed=80 + i)
            agree(a, b, label=f"fixed point {ev.label}")


def _former_binned_events(batch, ctx, bins):
    """_binned_events as it was: the events in (lo[0], hi[-1]] found by two
    searches from each row's origin, every event searched against every
    bin's right edge, then filtered to those right of their bin's left edge."""
    lo, hi = bins.T
    rows, origin = np.arange(batch.n), np.zeros(batch.n)
    e, rep = ragged_ranges(ctx.last_le(origin, rows, float(lo[0])) + 1,
                           ctx.last_le(origin, rows, float(hi[-1])) + 1)
    x = batch.points[e]
    bin_idx = np.searchsorted(hi, x, side="left")
    ok = x > lo[bin_idx]
    return e[ok], rep[ok], bin_idx[ok]


class TestBinnedEvents:
    """_binned_events counts each row's events in the bins' span, searches
    all but the last right edge (guessing the index on grids of
    estimate.GUESS_BINS bins or more) and skips the filter when every event
    lies in a bin; it must return what the searches and filter returned,
    events exactly on an edge included."""

    BINS = {
        "one bin": estimate._bins([0.0, 0.5]),
        "contiguous": estimate._bins(np.arange(-1.0, 1.0 + 0.25, 0.5)),
        "point bins": estimate._bins(point_bins([0.25, -0.5, 0.75], 0.1)[0]),
        # a grid as I-3.7 builds it, and uneven edges whose guesses are off
        "grid": estimate._bins(np.arange(-1.4, 1.4 + 0.05, 0.1)),
        "uneven": estimate._bins(np.sign(np.linspace(-1.2, 1.2, 25))
                                 * np.linspace(-1.2, 1.2, 25) ** 2),
    }

    def test_grids_take_the_guess(self):
        assert len(self.BINS["grid"]) >= estimate.GUESS_BINS
        assert len(self.BINS["uneven"]) >= estimate.GUESS_BINS
        assert len(self.BINS["contiguous"]) < estimate.GUESS_BINS

    @pytest.mark.parametrize("name", BINS)
    def test_events_on_edges(self, name):
        bins = self.BINS[name]
        edges = np.unique(bins)
        # every edge, one ulp either side of it, the midpoints between
        # edges and events outside the bins
        on = np.concatenate((edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                             (edges[1:] + edges[:-1]) / 2, [-2.0, 2.0]))
        rows = [np.unique(on), np.unique(on[::3]), [-2.0, 2.0], edges[:1], edges[-1:]]
        batch = rows_batch(rows, (-3.0, 3.0))
        ctx = EventContext(batch)
        got = estimate._binned_events(batch, bins)
        want = _former_binned_events(batch, ctx, bins)
        assert len(want[0]) > 0
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", BINS)
    def test_sampled_rows(self, name):
        model = renewal_ts_from_es(gamma_intervals(2.0, 1.0))
        batch = model.sample_batch(chunk_rng(7, "binned-events", 0), Need(1.5, 1.5), 512)
        ctx = EventContext(batch)
        for got, want in zip(estimate._binned_events(batch, self.BINS[name]),
                             _former_binned_events(batch, ctx, self.BINS[name])):
            assert np.array_equal(got, want)


class TestMachinery:
    def test_threads_share_one_pool(self):
        # every call at one thread count runs its chunks on the same workers
        seen = set()

        def kernel(batch, ctx):
            seen.add(threading.current_thread())
            return [(np.ones(batch.n), np.zeros(batch.n, bool))]

        for seed in (1, 2, 3):
            run_kernel(poisson_ts(1.0), Need(), 4 * CHUNK, 1, kernel, seed=seed,
                       stream="pool", threads=2)
        assert threading.current_thread() not in seen
        assert 1 <= len(seen) <= 2

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget must be positive"):
            run_kernel(poisson_ts(1.0), Need(), 0, 1,
                       lambda batch, ctx: [(np.ones(batch.n), np.zeros(batch.n, bool))],
                       seed=0, stream="zero")

    def test_plain_window_is_a_type_error(self):
        # the sampler reads a Need only; a plain (lo, hi) goes through
        # models.sample_window, which the error names
        m = poisson_ts(1.0)
        with pytest.raises(TypeError, match="sample_window"):
            m.sample_batch(chunk_rng(0, "plain", 0), (-5.0, 5.0), 4)
        with pytest.raises(TypeError, match="sample_window"):
            mc_mean(m, (-5.0, 5.0),
                    lambda batch, ctx: [(np.ones(batch.n), np.zeros(batch.n, bool))], 128)

    def test_thread_count_does_not_change_bits(self):
        m = poisson_ts(1.0)
        a = est_palm_zero(m, [A_GAP], 10.0, 12_000, seed=7, threads=1)
        b = est_palm_zero(m, [A_GAP], 10.0, 12_000, seed=7, threads=8)
        assert a == b

    def test_merge_order_independence(self):
        # the kernel runner reduces per variance batch, so chunk results
        # must combine identically whatever the execution interleaving
        m = renewal_ts_from_es(gamma_intervals(2.0, 1.0))

        def kernel(batch, ctx):
            t0, t1, ok = ctx.gap(ctx.pos0())
            return [(np.column_stack((np.where(ok, t1 - t0, 0.0), np.ones(batch.n))), ~ok)]

        window = Need()
        (sums1,) = run_kernel(m, window, 9000, 2, kernel, seed=3, stream="m",
                              threads=1).members
        (sums4,) = run_kernel(m, window, 9000, 2, kernel, seed=3, stream="m",
                              threads=4).members
        assert np.array_equal(sums1.cols, sums4.cols)
        assert np.array_equal(sums1.w, sums4.w)

    @pytest.mark.parametrize("budget, finite", [(64, False), (1, False), (128, True)])
    def test_one_variance_batch_has_unknown_se(self, budget, finite):
        # one batch says nothing about the spread: the s.e. is infinite,
        # so no identity check can fail on it
        (est,) = est_palm_zero(poisson_ts(1.0), [A_GAP], 10.0, budget, seed=7)
        assert math.isfinite(est.std_error) == finite
        assert 0.0 <= est.value <= 1.0

    def test_se_scaling_with_budget(self):
        # doubling the budget should shrink the s.e. by about sqrt(2)
        m = poisson_ts(1.0)
        ratios = []
        for i, ev in enumerate(BATTERY):
            (a,) = est_event_probability(m, [ev], 8_192, seed=100 + i,
                                         stream="sA")
            (b,) = est_event_probability(m, [ev], 16_384, seed=200 + i,
                                         stream="sB")
            if a.std_error > 0 and b.std_error > 0:
                ratios.append(b.std_error / a.std_error)
        mean_ratio = float(np.mean(ratios))
        assert 0.6 <= mean_ratio <= 0.82

    def test_ess_tracks_weights(self):
        from palmlab.models import make_tilt, tilted_ts

        tilted = tilted_ts(poisson_ts(1.0), make_tilt("alpha0", 0.5))
        (est,) = est_event_probability(tilted, [A_GAP], 20_000, seed=5)
        # weights are Gamma(2,1) gaps: effective fraction is 2/3
        assert abs(est.ess / est.reps - 2.0 / 3.0) < 0.03

    def test_rejected_plus_accepted(self):
        (est,) = est_intermediate(poisson_ts(1.0), 4, [A_GAP], 4_000, seed=6)
        assert est.rejected + est.accepted == est.reps

    def test_degenerate_weights_fail_loudly(self):
        from palmlab.errors import LowEffectiveSampleSize
        from palmlab.models import ProcessModel
        from palmlab.pattern import PatternBatch

        base = poisson_ts(1.0)

        def degenerate(rng, window, n):
            out = base.sample_batch(rng, window, n)
            w = np.full(n, 1e-9)
            w[0] = 1.0
            return PatternBatch(out.points, out.offsets, out.windows, w)

        bad = ProcessModel("TILTED_TS", {"model": "degenerate"}, 1.0, degenerate)
        with pytest.raises(LowEffectiveSampleSize):
            est_event_probability(bad, [ev_true()], 256, seed=0)


# three members that read different events but need the same of every row,
# in every estimator: nothing left of T_0, and as far right as T_1 or T_2
GROUP = [parse_eventuality(t) for t in ("alpha(0)>1", "T1<=0.5", "alpha(0)>0.5")]
# reads nothing but the anchors: its need lies inside GROUP's in every estimator
INNER = ev_true()
# reads the time radius 1 and no event
NARROW = parse_eventuality("count(0,1]==0")
# reads T_-1: wider than A_GAP at the origin
WIDE = parse_eventuality("alpha(-1)>0.5")


def _bin_digest(bins) -> str:
    """SHA-256 of a binned profile's numbers, bin by bin: the edges, value,
    standard error, reps, rejected and both counts as float64 bytes, so it
    pins the numbers whatever type carries them."""
    rows = [(b.bin_lo, b.bin_hi, b.estimate.value, b.estimate.std_error,
             b.estimate.reps, b.estimate.rejected, b.events, b.marked) for b in bins]
    return hashlib.sha256(np.array(rows, dtype=np.float64).tobytes()).hexdigest()


def group_runs():
    """Every estimator and conversion, as a function of the group, by name."""
    ts = renewal_ts_from_es(gamma_intervals(2.0, 1.0))
    es = renewal_es(gamma_intervals(2.0, 1.0))
    edges = np.array([-1.0, 0.0, 0.5, 1.5])
    return {
        "event_probability": lambda A: est_event_probability(ts, A, 5000, seed=4, threads=2),
        "palm_zero": lambda A: est_palm_zero(ts, A, 5.0, 5000, seed=4, threads=2),
        "shifted_palm": lambda A: est_shifted_palm(ts, A, edges, 5000, seed=4, threads=2),
        "intensity": lambda A: est_intensity(ts, A, edges, 5000, seed=4, threads=2),
        "intermediate": lambda A: est_intermediate(ts, 1, A, 5000, seed=4, threads=2),
        "es_to_ts": lambda A: convert_es_to_ts(es, A, 5000, seed=4, threads=2),
        "ts_to_es": lambda A: convert_ts_to_es(ts, A, 5000, seed=4, threads=2),
    }


class TestGroups:
    """Members of a group are evaluated on one set of draws, and each gets
    exactly what a run of that member alone gets."""

    def test_run_kernel_members_get_their_solo_sums(self):
        m = tilted_ts(poisson_ts(1.0), make_tilt("alpha0", 0.5))
        window = Need()

        def member(parity):
            def kernel(batch, ctx):
                t0, t1, ok = ctx.gap(ctx.pos0())
                reject = ~ok | (np.arange(batch.n) % 3 == parity)
                return [(np.column_stack((np.where(ok, t1 - t0, 0.0), np.ones(batch.n))),
                         reject)]
            return kernel

        kernels = [member(0), member(1)]

        def joint(batch, ctx):
            return [pair for k in kernels for pair in k(batch, ctx)]

        solo = [run_kernel(m, window, 9000, 2, k, seed=3, stream="g").members[0]
                for k in kernels]
        assert not np.array_equal(solo[0].rejected, solo[1].rejected)
        for threads in (1, 2):
            group = run_kernel(m, window, 9000, 2, joint, seed=3, stream="g", threads=threads)
            assert isinstance(group, GroupSums) and len(group.members) == 2
            for got, want in zip(group.members, solo):
                assert got.reps == want.reps
                for field in ("cols", "w", "w2", "rejected"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), field
            assert np.array_equal(group.rejected, solo[0].rejected + solo[1].rejected)

    def test_estimators_accept_groups(self):
        for run in group_runs().values():
            assert run(GROUP) == [est for A in GROUP for est in run([A])]

    @pytest.mark.parametrize("name", list(group_runs()))
    def test_one_result_per_member(self, name):
        # a group of one gets a list of one; an empty group and a bare
        # eventuality are errors, not groups
        run = group_runs()[name]
        assert len(run(GROUP[:1])) == 1
        with pytest.raises(ValueError):
            run([])
        with pytest.raises(TypeError):
            run(GROUP[0])

    def test_mc_mean_list_kernel(self):
        # a two-member kernel gets the Estimates of two one-member runs
        m = poisson_ts(1.0)
        window = Need()

        def gap(batch, ctx):
            t0, t1, ok = ctx.gap(ctx.pos0())
            return [(np.where(ok, t1 - t0, 0.0), ~ok)]

        def inverse(batch, ctx):
            t0, t1, ok = ctx.gap(ctx.pos0())
            return [(np.where(ok, 1.0 / (t1 - t0), 0.0), ~ok)]

        got = mc_mean(m, window, lambda b, c: gap(b, c) + inverse(b, c), 5000, seed=8)
        solo = [mc_mean(m, window, k, 5000, seed=8) for k in (gap, inverse)]
        assert len(got) == 2 and all(len(est) == 1 for est in solo)
        assert got == [est for (est,) in solo]

    def test_mixed_radius_group_uses_widest_window(self, monkeypatch):
        # at the origin WIDE needs T_-1 and A_GAP only the anchors
        m = poisson_ts(1.0)
        wide = row_need([WIDE])
        windows = []
        run = estimate.run_kernel

        def recording(model, window, *args, **kwargs):
            windows.append(window)
            return run(model, window, *args, **kwargs)

        monkeypatch.setattr(estimate, "run_kernel", recording)
        got = est_event_probability(m, [WIDE, A_GAP], 5000, seed=4)
        assert windows == [wide]
        # alone, the narrow member samples to its own, smaller need, whose
        # draws differ from the wide need's from the first chunk on
        windows.clear()
        est_event_probability(m, [A_GAP], 5000, seed=4)
        (narrow,) = windows
        assert narrow != wide
        first = [m.sample_batch(chunk_rng(4, "prob", 0), w, CHUNK) for w in (narrow, wide)]
        assert not np.array_equal(first[0].points, first[1].points)
        monkeypatch.undo()

        def narrow_kernel(batch, ctx):
            codes = A_GAP.at_origin(ctx)
            return [((codes == 1).astype(np.float64), codes == -1)]

        # the narrow member is evaluated on the draws of the wide need, not
        # on its own smaller one
        assert [got[1]] == mc_mean(m, wide, narrow_kernel, 5000, seed=4, stream="prob")
        assert [got[0]] == est_event_probability(m, [WIDE], 5000, seed=4)

    def test_member_depends_only_on_itself_and_the_window(self):
        # dropping a member whose need lies inside the others' changes no
        # other member's estimate, and a member whose need is the group's
        # gets its solo estimate
        for run in group_runs().values():
            mixed = run([GROUP[0], INNER, *GROUP[1:]])
            assert [mixed[0], *mixed[2:]] == run(GROUP)
            assert [mixed[0]] == run(GROUP[:1])


class TestWeightedGolden:
    """An importance-sampled estimate is pinned byte for byte, its ESS
    included: value, error and ESS all come from the weighted batch sums."""

    def test_tilted_event_probability(self):
        tilted = tilted_ts(poisson_ts(1.0), make_tilt("alpha0", 0.5))
        ests = est_event_probability(tilted, [A_GAP], 8192, seed=11)
        assert hashlib.sha256(repr(ests).encode()).hexdigest() == \
            "fb29a0fda6d836221e07cde45905d4e72ab7c58d8e7478f15bbbcb50f92d14d5"


class TestBinnedGolden:
    """Single-member binned estimates are pinned byte for byte: the event-
    centered probability on (0, x], the shifted law and the intensity
    profile (of all events and of A-events) all come from one binned-count
    kernel, and changing how it is shared must move none of their numbers.
    A one-bin (0, x] probability is pinned as its Estimate's repr; a
    profile is pinned by _bin_digest, which does not depend on the type
    of its bins."""

    TS = renewal_ts_from_es(gamma_intervals(2.0, 1.0))
    E84 = example84_exact(1.0)
    EDGES = np.array([-1.25, -0.75, 0.0, 0.5])
    CASES = [
        ("palm zero", lambda c: est_palm_zero(c.TS, [A_GAP], 5.0, 5000, seed=4, threads=2),
         "8cd21506af23a119a5a455d07c17bc3f176ca2445f2645f5ac36b4d53268527e"),
        ("palm zero narrow",
         lambda c: est_palm_zero(poisson_ts(1.0), [NARROW], 3.0, 5000, seed=5),
         "05a900ed2f5f91b09b7b7f54bbd85fc58c54df3c67858b9159cc0feccb0022bb"),
        ("shifted", lambda c: est_shifted_palm(c.E84, [A_GAP], c.EDGES, 5000, seed=4, threads=2),
         "97b2ce130638a2ca31ed47b2cb42334b4e4409516af961de3850625aafa37b46"),
        ("intensity",
         lambda c: est_intensity(c.E84, [ev_true()], c.EDGES, 5000, seed=4, threads=2),
         "f3a46bc3d4f6f99f48072d1a765249cb9ead74d60b7faf62651c799f65668f41"),
        ("intensity A",
         lambda c: est_intensity(c.E84, [A_GAP], c.EDGES, 5000, seed=4, threads=2),
         "9acf29eaddd3470fe9ecd3471be43c1d830b3f8a26ec549d38a47cd2f06f7980"),
        # an empty bin each: nan +- inf for the shifted law, 0 +- inf for a rate
        ("shifted empty bin",
         lambda c: est_shifted_palm(poisson_ts(1.0), [ev_true()], np.array([0.0, 1e-7, 1.0]),
                                    256, seed=3),
         "61ea395abd15c99a9e78d6c98327e0f5d7ced74178210c0df9309eeab0464bb6"),
        ("intensity empty bin",
         lambda c: est_intensity(example44(30), [ev_true()], np.array([0.9, 1.2, 1.8, 2.1]),
                                 1, seed=0),
         "b81fb9928b2996d27c98bcda468418502131ecbb9de2314da52e1b530897447c"),
    ]

    @pytest.mark.parametrize("run, digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_pinned(self, run, digest):
        (result,) = run(self)
        if isinstance(result, list):
            assert _bin_digest(result) == digest
        else:
            assert hashlib.sha256(repr(result).encode()).hexdigest() == digest
