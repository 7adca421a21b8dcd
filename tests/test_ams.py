import hashlib
import math

import numpy as np
import pytest

from palmlab.ams import (
    AmsVerdict,
    CesaroTrace,
    ams_verdict,
    cesaro_event,
    cesaro_time,
    convert_es_to_ts,
    convert_ts_to_es,
)
from palmlab.errors import (
    InsufficientWindow,
    LowEffectiveSampleSize,
    NoMean,
    TooFewCheckpoints,
)
from palmlab.estimate import est_event_probability
from palmlab.events import BATTERY, ev_example44, ev_true, parse_eventuality
from palmlab.models import (
    ProcessModel,
    example44,
    exponential,
    gamma_intervals,
    poisson_ts,
    renewal_es,
    renewal_ts_from_es,
    uniform_intervals,
)
from palmlab.pattern import PatternBatch

from conftest import agree, within

A_GAP = parse_eventuality("alpha(0)>1")


class TestCesaroEvent:
    def test_es_renewal_flat(self):
        m = renewal_es(exponential(1.0))
        trace = cesaro_event(m, A_GAP, 256, 3_000, seed=2)
        for v, s in zip(trace.values, trace.std_errors):
            assert abs(v - math.exp(-1)) <= 3 * s + 0.002
        assert ams_verdict(trace).status == "Convergent"

    def test_example44_landmarks_exact(self):
        trace = cesaro_event(example44(900), ev_example44(), 256, 1, seed=0)
        landmark = {8: 0.5, 16: 0.75, 24: 0.5, 48: 0.75, 72: 0.5,
                    144: 0.75, 216: 0.5}
        for n, want in landmark.items():
            i = np.flatnonzero(trace.checkpoints == n)
            assert i.size == 1
            assert trace.values[i[0]] == want
        assert np.all(trace.std_errors == 0.0)

    def test_example44_not_convergent(self):
        trace = cesaro_event(example44(900), ev_example44(), 256, 1, seed=0)
        verdict = ams_verdict(trace)
        assert verdict.status == "NotConvergent"
        assert verdict.oscillation >= 0.2

    def test_example44_past_the_realization(self):
        # example44(5) stores events up to 7; events 1..256 lie past them,
        # which more replications cannot mend
        with pytest.raises(InsufficientWindow, match=r"stored realization.*is at 7"):
            cesaro_event(example44(5), ev_example44(), 256, 1)
        # events 1..5 and their successors are stored
        assert cesaro_event(example44(5), ev_example44(), 5, 1).values[-1] == 0.8

    def test_blocks_of_256_rows_at_default_n_max(self, monkeypatch):
        # BLOCK_CELLS // n_max rows per block: 256 at n_max = 256, each block
        # one (rows, n_max) view with rep a (rows, 1) column
        A = parse_eventuality("alpha(0)>1")
        shapes = []
        original = A.codes_at

        def recording(pos):
            shapes.append((pos.y.shape, pos.rep.shape))
            return original(pos)

        monkeypatch.setattr(A, "codes_at", recording)
        cesaro_event(renewal_es(exponential(1.0)), A, 256, 3_000, seed=2)
        sizes = [y[0] for y, _ in shapes]
        assert all(y == (rows, 256) and rep == (rows, 1) for (y, rep), rows
                   in zip(shapes, sizes))
        assert max(sizes) == 256 and sizes.count(256) >= len(sizes) - 1

    def test_example84_approaches_es_limit(self):
        # far from the origin the re-centered views forget the reweighting;
        # the trace must settle at the plain event-centered value
        m = renewal_es(exponential(1.0))
        (es_ref,) = est_event_probability(m, [A_GAP], 40_000, seed=5)
        from palmlab.models import example84_exact
        trace = cesaro_event(example84_exact(1.0), A_GAP, 128, 3_000, seed=6)
        tail_value = trace.values[-1]
        tail_se = trace.std_errors[-1]
        # the n-average still carries O(1/n) memory of the first gap:
        # (1/n) sum includes the reweighted alpha_0 term once
        assert abs(tail_value - es_ref.value) <= 3 * math.hypot(tail_se, es_ref.std_error) + 1.0 / 128


class TestCesaroTime:
    def test_example44_past_the_realization(self):
        with pytest.raises(InsufficientWindow, match=r"stored realization.*is at 7"):
            cesaro_time(example44(5), ev_example44(), 400.0, 1)
        # (0, 7] ends at the last stored event
        assert cesaro_time(example44(5), ev_example44(), 7.0, 1).values[-1] == 5.0 / 7.0

    def test_poisson_void_flat(self):
        m = poisson_ts(1.0)
        void = parse_eventuality("count(0,1]==0")
        trace = cesaro_time(m, void, 200.0, 800, seed=3)
        for v, s in zip(trace.values, trace.std_errors):
            assert abs(v - math.exp(-1)) <= 3 * s + 0.004
        assert ams_verdict(trace).status == "Convergent"

    def test_true_trace_is_one(self):
        m = poisson_ts(1.0)
        trace = cesaro_time(m, ev_true(), 100.0, 64, seed=4)
        assert np.all(trace.values == 1.0)

    def test_example44_verdicts_agree(self):
        ev = ev_example44()
        te = cesaro_event(example44(900), ev, 256, 1, seed=0)
        tt = cesaro_time(example44(900), ev, 500.0, 1, seed=0)
        assert ams_verdict(te).status == ams_verdict(tt).status == "NotConvergent"

    def test_time_oscillation_values(self):
        # time fraction in unit gaps alternates between 1/3 and 3/5
        tt = cesaro_time(example44(900), ev_example44(), 500.0, 1, seed=0)
        assert tt.values.min() < 0.40 and tt.values.max() > 0.55


class TestExactIntegralGolden:
    """The exact time-shift integration is pinned byte for byte through its
    two sampled callers: it may lay out fewer events and sum differently
    shaped arrays, but must keep every output bit.  Digests recorded with
    the full-row integration (numpy 2.4.6), and re-recorded with the same
    integration when the chunk streams moved from Philox to SFC64, when the
    first block of gap draws shrank, and when rows came to be drawn to
    their kernel's need."""

    def test_cesaro_time_trace(self):
        tr = cesaro_time(renewal_ts_from_es(gamma_intervals(2.0, 1.0)),
                         parse_eventuality("count(0,1]==0"), 512.0, 4096, seed=7)
        blob = repr((tr.checkpoints.tobytes(), tr.values.tobytes(), tr.std_errors.tobytes(),
                     tr.kind, tr.reps, tr.rejected))
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            "06ce9e03a72f70b3d4d4a5b76fccb52160585aa8c53a9ceea8a9e1b1404c36c5"

    def test_es_to_ts_battery(self):
        ests = convert_es_to_ts(renewal_es(gamma_intervals(2.0, 1.0)), list(BATTERY), 5000,
                                seed=4, threads=2)
        assert hashlib.sha256(repr(ests).encode()).hexdigest() == \
            "be857b270ce9b4d25c537f02c3e789c8736ef41c0fde41738679c80eefcd56ad"


class TestEssFloor:
    """A trace of a weighted model fails loudly when its weights degenerate,
    as every estimate does: one row carries all the weight."""

    @staticmethod
    def degenerate():
        base = poisson_ts(1.0)

        def batch(rng, window, n):
            out = base.sample_batch(rng, window, n)
            w = np.full(n, 1e-9)
            w[0] = 1.0
            return PatternBatch(out.points, out.offsets, out.windows, w)

        return ProcessModel("TILTED_TS", {"model": "degenerate"}, 1.0, batch)

    def test_event_trace(self):
        with pytest.raises(LowEffectiveSampleSize):
            cesaro_event(self.degenerate(), A_GAP, 64, 256, seed=0)

    def test_time_trace(self):
        with pytest.raises(LowEffectiveSampleSize):
            cesaro_time(self.degenerate(), A_GAP, 32.0, 256, seed=0)


class TestEventTraceGolden:
    """The event trace's reduction is pinned byte for byte: its running
    averages are finished over the row weights, and moving where that
    denominator is summed must move none of its bits.  Re-recorded when
    rows came to be drawn to their kernel's need."""

    def test_cesaro_event_trace(self):
        tr = cesaro_event(poisson_ts(1.0), A_GAP, 256, 4096, seed=3)
        blob = repr((tr.checkpoints.tobytes(), tr.values.tobytes(), tr.std_errors.tobytes(),
                     tr.kind, tr.reps, tr.rejected))
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            "d5ed45cb2de4eb0f8c513d230e25b1314d010bbbbc87a1d40db851fbfacbff13"


class TestVerdict:
    def flat_trace(self, value, se, n=8):
        return CesaroTrace(np.arange(1, n + 1, dtype=float),
                           np.full(n, value), np.full(n, se), "event", 100, 0)

    def test_constant_trace_convergent(self):
        v = ams_verdict(self.flat_trace(0.4, 0.001))
        assert v.status == "Convergent"
        assert v.limit == pytest.approx(0.4)

    def test_noisy_short_trace_inconclusive(self):
        rng = np.random.default_rng(0)
        vals = 0.4 + 0.04 * rng.standard_normal(8)
        trace = CesaroTrace(np.arange(1, 9, dtype=float), vals,
                            np.full(8, 0.05), "event", 100, 0)
        assert ams_verdict(trace, tol=0.05).status == "Inconclusive"

    def test_too_few_checkpoints(self):
        with pytest.raises(TooFewCheckpoints):
            ams_verdict(self.flat_trace(0.4, 0.001, n=5))

    @pytest.mark.parametrize("tail_fraction", [0.0, 1.5])
    def test_tail_fraction_outside_unit_interval(self, tail_fraction):
        with pytest.raises(ValueError, match="tail_fraction"):
            ams_verdict(self.flat_trace(0.4, 0.001), tail_fraction=tail_fraction)

    def test_trace_lengths_must_be_positive(self):
        with pytest.raises(ValueError, match="n_max"):
            cesaro_event(poisson_ts(1.0), A_GAP, 0, 100)
        with pytest.raises(ValueError, match="x_max"):
            cesaro_time(poisson_ts(1.0), A_GAP, 0.0, 100)

    def test_verdict_fields(self):
        v = ams_verdict(self.flat_trace(0.4, 0.001), tail_fraction=0.25, tol=0.02)
        assert isinstance(v, AmsVerdict)
        assert v.tail_fraction == 0.25
        assert v.threshold >= 0.02


class TestConversions:
    def test_es_to_ts_closed_form(self):
        (est,) = convert_es_to_ts(renewal_es(exponential(1.0)), [A_GAP], 50_000,
                                  seed=8)
        within(est, 2.0 * math.exp(-1), label="es->ts closed form")

    def test_true_converts_to_one(self):
        (est,) = convert_es_to_ts(renewal_es(exponential(1.0)), [ev_true()], 2_000,
                                  seed=9)
        assert est.value == 1.0

    def test_es_law_without_interval_has_no_mean(self):
        # the plug-in mean gap is read from the law's interval distribution
        es = renewal_es(exponential(1.0))
        bare = ProcessModel(es.law_tag, {"model": "bare_es"}, 1.0, es._draw)
        with pytest.raises(NoMean):
            convert_es_to_ts(bare, [A_GAP], 100)

    def test_ts_to_es_poisson(self):
        (est,) = convert_ts_to_es(poisson_ts(1.0), [A_GAP], 50_000, seed=10)
        within(est, math.exp(-1), label="ts->es slivnyak")

    @pytest.mark.parametrize("d", [
        exponential(1.0),
        gamma_intervals(2.0, 1.0),
        uniform_intervals(0.5, 1.5),
    ])
    def test_es_to_ts_matches_inversion_sampler(self, d):
        # oracle: direct simulation of the inversion-built stationary law
        ts = renewal_ts_from_es(d)
        for i, ev in enumerate([A_GAP, parse_eventuality("count(0,1]==0")]):
            (conv,) = convert_es_to_ts(renewal_es(d), [ev], 25_000,
                                       seed=20 + i)
            (direct,) = est_event_probability(ts, [ev], 25_000, seed=50 + i)
            agree(conv, direct, label=f"{d.label}:{ev.label}")

    def test_round_trip_recovers_es_values(self):
        d = gamma_intervals(2.0, 1.0)
        ts = renewal_ts_from_es(d)
        es = renewal_es(d)
        for i, ev in enumerate(BATTERY[:5]):
            (back,) = convert_ts_to_es(ts, [ev], 25_000, seed=30 + i)
            (direct,) = est_event_probability(es, [ev], 25_000, seed=60 + i)
            agree(back, direct, label=f"round trip {ev.label}")

    def test_requires_matching_stationarity(self):
        with pytest.raises(ValueError):
            convert_es_to_ts(poisson_ts(1.0), [A_GAP], 100)
        with pytest.raises(ValueError):
            convert_ts_to_es(renewal_es(exponential(1.0)), [A_GAP], 100)
