import math

import numpy as np
import pytest

from palmlab import events
from palmlab.events import (
    BATTERY,
    EventContext,
    Positions,
    ev_and,
    ev_count_eq,
    ev_example44,
    ev_first_point_le,
    ev_interval_gt,
    ev_not,
    ev_or,
    ev_straddle,
    ev_true,
    parse_eventuality,
)
from palmlab.errors import IndexOutOfPattern
from palmlab.pattern import PatternBatch, PointPattern, padded_rows

from conftest import declared_breaks, random_pattern


def pp(*pts, window=(-10.0, 10.0)):
    return PointPattern(np.array(pts, dtype=float), window)


def batch_of(patterns):
    pts = np.concatenate([p.points for p in patterns])
    offsets = np.concatenate(([0], np.cumsum([len(p) for p in patterns])))
    windows = np.array([p.window for p in patterns])
    return PatternBatch(pts, offsets, windows, np.ones(len(patterns)))


class TestCatalog:
    def test_interval_gt(self):
        assert ev_interval_gt(0, 0.5).evaluate(pp(-0.2, 0.7)) is True
        assert ev_interval_gt(0, 0.0).evaluate(pp(-0.2, 0.7)) is True
        # strict comparison at the boundary
        assert ev_interval_gt(-1, 2.0).evaluate(pp(-3.0, -1.0, 2.0)) is False

    def test_interval_gt_indeterminate(self):
        assert ev_interval_gt(3, 1.0).evaluate(pp(-0.2, 0.7)) is None
        assert ev_interval_gt(0, 1.0).evaluate(pp(1.0, 2.0)) is None

    def test_count_eq(self):
        p = pp(-0.2, 0.7, 2.1)
        assert ev_count_eq(0, 2, 1).evaluate(p) is True
        assert ev_count_eq(0, 2, 0).evaluate(p) is False
        assert ev_count_eq(0, 11, 0).evaluate(p) is None
        assert ev_count_eq(0, 2, 1).radius == 2.0

    def test_first_point_le(self):
        assert ev_first_point_le(1.0).evaluate(pp(-0.2, 0.7)) is True
        assert ev_first_point_le(0.5).evaluate(pp(-0.2, 0.7)) is False

    def test_example44_eventuality(self):
        assert ev_example44().evaluate(pp(-1.0, 0.0, 1.0)) is True
        assert ev_example44().evaluate(pp(-1.0, 0.0, 2.0)) is False

    def test_poisson_void_probability(self):
        # oracle: the number of unit-Poisson points in (0, 1] is Poisson(1),
        # so the void probability is exp(-1)
        rng = np.random.default_rng(99)
        ev = ev_count_eq(0, 1, 0)
        hits = 0
        reps = 40_000
        for _ in range(reps):
            p = random_pattern(rng, span=6.0)
            hits += ev.evaluate(p)
        mc = hits / reps
        se = math.sqrt(mc * (1 - mc) / reps)
        assert abs(mc - math.exp(-1)) <= 3 * se + 0.002


class TestCombinators:
    def test_double_negation(self, rng):
        A = ev_interval_gt(0, 1.0)
        for _ in range(20):
            p = random_pattern(rng)
            assert ev_not(ev_not(A)).evaluate(p) == A.evaluate(p)

    def test_and_with_true(self, rng):
        A = ev_count_eq(0, 1, 0)
        for _ in range(20):
            p = random_pattern(rng)
            assert ev_and(A, ev_true()).evaluate(p) == A.evaluate(p)

    def test_excluded_middle(self, rng):
        A = ev_count_eq(-1, 1, 2)
        for _ in range(20):
            p = random_pattern(rng)
            assert ev_or(A, ev_not(A)).evaluate(p) is True

    def test_radius_propagation(self):
        # a combination reads what both sides read: the larger time radius
        # and the union of the event reaches
        A = ev_count_eq(0, 2, 1)
        B = ev_count_eq(-3, 1, 0)
        assert ev_and(A, B).radius == 3.0 and ev_and(A, B).reach is None
        assert ev_not(A).radius == 2.0
        mixed = ev_or(A, ev_interval_gt(0, 1.0))
        assert (mixed.radius, mixed.reach) == (2.0, (0, 1))
        assert ev_and(ev_straddle(1, 0.5), ev_first_point_le(1.0)).reach == (-1, 1)
        assert ev_not(ev_interval_gt(-2, 1.0)).reach == (-2, -1)

    def test_indeterminate_absorption(self):
        # False & Indeterminate is False; True | Indeterminate is True
        p = pp(-0.2, 0.7)
        broken = ev_interval_gt(5, 1.0)
        assert broken.evaluate(p) is None
        assert ev_and(ev_not(ev_true()), broken).evaluate(p) is False
        assert ev_or(ev_true(), broken).evaluate(p) is True
        assert ev_and(ev_true(), broken).evaluate(p) is None


class TestLocality:
    def clip(self, p, r):
        keep = np.abs(p.points) <= r
        return PointPattern(p.points[keep],
                            (max(p.window[0], -r), min(p.window[1], r)))

    def test_count_radius_locality(self, rng):
        ev = ev_count_eq(-1.5, 2.0, 1)
        for _ in range(40):
            p = random_pattern(rng)
            clipped = self.clip(p, ev.radius)
            assert ev.evaluate(p) == ev.evaluate(clipped)

    def test_interval_radius_locality(self, rng):
        for _ in range(40):
            p = random_pattern(rng, rate=2.0)
            r = abs(p.t(1)) + abs(p.t(0)) + 0.5
            ev = ev_interval_gt(0, 1.0)
            assert ev.evaluate(p) == ev.evaluate(self.clip(p, r))


class TestVectorizedConsistency:
    """at_origin / at_events agree with scalar evaluation through shifts."""

    CASES = list(BATTERY) + [
        ev_straddle(0, -0.5),
        ev_straddle(1, 0.7),
        ev_example44(),
        parse_eventuality("!(alpha(0)>1 | T1<=0.5)"),
    ]

    def test_at_origin_matches_evaluate(self, rng):
        patterns = [random_pattern(rng) for _ in range(50)]
        batch = batch_of(patterns)
        ctx = EventContext(batch)
        for ev in self.CASES:
            codes = ev.at_origin(ctx)
            for i, p in enumerate(patterns):
                want = ev.evaluate(p)
                got = {1: True, 0: False, -1: None}[int(codes[i])]
                assert got == want, (ev.label, i)

    def test_at_events_matches_shifted_evaluate(self, rng):
        patterns = [random_pattern(rng) for _ in range(20)]
        batch = batch_of(patterns)
        ctx = EventContext(batch)
        e, rep = [], []
        for i, p in enumerate(patterns):
            for j in range(len(p)):
                e.append(batch.offsets[i] + j)
                rep.append(i)
        e, rep = np.array(e), np.array(rep)
        for ev in self.CASES:
            codes = ev.at_events(ctx, e, rep)
            for k in range(e.size):
                p = patterns[rep[k]]
                local = int(e[k] - batch.offsets[rep[k]])
                shifted = p.shift_time(float(p.points[local]))
                want = ev.evaluate(shifted)
                got = {1: True, 0: False, -1: None}[int(codes[k])]
                assert got == want, (ev.label, k)


class TestGap:
    """EventContext.gap reads the gap at an array position as the scalar
    pattern's interval at the same index."""

    def test_matches_pattern_interval(self, rng):
        # one-event rows first and last, so the reads reach both ends of
        # the flat array
        patterns = ([pp(0.4)] + [random_pattern(rng) for _ in range(6)]
                    + [pp(-0.5, 0.3), pp(-0.2)])
        batch = batch_of(patterns)
        ctx = EventContext(batch)
        pos0 = batch.pos0()
        i, rep = [], []
        for r in range(batch.n):
            # every position from off_lo - 1 to off_hi - 1
            lo, hi = batch.offsets[r], batch.offsets[r + 1]
            i.extend(range(lo - 1, hi))
            rep.extend([r] * (hi - lo + 1))
        i, rep = np.array(i), np.array(rep)
        assert i[0] == -1 and i[-1] == batch.points.size - 1
        t_lo, t_hi, stored = ctx.gap(i, Positions(ctx, batch.points[i], rep).bounds)
        # unstored positions still read two adjacent stored events
        safe = np.clip(i, 0, batch.points.size - 2)
        assert np.array_equal(t_lo, batch.points[safe])
        assert np.array_equal(t_hi, batch.points[safe + 1])
        for k in range(i.size):
            p = patterns[rep[k]]
            n = int(i[k] - pos0[rep[k]])
            try:
                want = p.interval(n)
            except IndexOutOfPattern:
                assert not stored[k], k
                continue
            assert stored[k], k
            assert (t_lo[k], t_hi[k]) == (p.t(n), p.t(n + 1)), k
            assert t_hi[k] - t_lo[k] == want

    def test_rows_in_order_without_rep(self, rng):
        batch = batch_of([pp(0.4)] + [random_pattern(rng) for _ in range(6)] + [pp(-0.2)])
        ctx = EventContext(batch)
        rows = np.arange(batch.n)
        for k in (-1, 0, 1):
            got = ctx.gap(ctx.pos0() + k)
            want = ctx.gap(ctx.pos0() + k, Positions(ctx, np.zeros(batch.n), rows).bounds)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # at T_0 the gap is stored exactly where the origin is straddled
        assert np.array_equal(ctx.gap(ctx.pos0())[2], batch.straddled(ctx.pos0()))


class TestPositions:
    """Every way a Positions view finds le(c) gives ctx.last_le: settled
    from guesses far off, and walked from the known answer at events and at
    the origin over offsets that span several gaps."""

    @staticmethod
    def exact(batch, y, rep, c):
        """Per entry, the last event T of the row with T - y <= c, by a
        scalar search of the row's shifted times."""
        out = []
        for yk, r in zip(y, rep):
            pts = batch.points[batch.offsets[r]:batch.offsets[r + 1]]
            out.append(batch.offsets[r] + np.searchsorted(pts - yk, c, side="right") - 1)
        return np.array(out)

    def test_settle_from_guesses_far_off(self, rng):
        batch = batch_of([random_pattern(rng) for _ in range(6)])
        ctx = EventContext(batch)
        rep = np.repeat(np.arange(batch.n), 40)
        lo, hi = batch.windows[rep].T
        y = rng.uniform(lo, hi)
        first, last = batch.offsets[rep] - 1, batch.offsets[rep + 1] - 1
        for c in (0.0, 1.5, -2.25):
            want = self.exact(batch, y, rep, c)
            assert np.array_equal(ctx.last_le(y, rep, c), want)
            # guesses up to 30 events off on either side, past the row's
            # ends as well
            for shift in (-30, -7, -1, 1, 7, 30):
                got = ctx.settle(want + shift, y, first, last, c)
                assert np.array_equal(got, want), (c, shift)
            mixed = want + rng.integers(-30, 31, want.size)
            assert np.array_equal(ctx.settle(mixed, y, first, last, c), want)

    def test_walk_from_known_over_several_gaps(self, rng):
        batch = batch_of([random_pattern(rng, span=25.0) for _ in range(5)])
        ctx = EventContext(batch)
        e = np.arange(batch.points.size)
        rep = np.repeat(np.arange(batch.n), np.diff(batch.offsets))
        at_events = Positions(ctx, batch.points[e], rep, known=e)
        at_origin = Positions(ctx, np.zeros(batch.n), np.arange(batch.n), known=ctx.pos0())
        for pos in (at_events, at_origin):
            for c in (10.0, -10.0, 3.5, -7.0, 0.5, 24.0):
                want = ctx.last_le(pos.y, pos.rep, c)
                assert np.array_equal(pos.le(c), want), c
                assert np.array_equal(want, self.exact(batch, pos.y, pos.rep, c)), c
        for text in ("count(0,10]==3", "count(0,10]==10", "count(-10,-3]==7"):
            ev = parse_eventuality(text)
            codes = ev.at_events(ctx, e, rep)
            for k in range(e.size):
                p = batch.pattern(int(rep[k]))
                want = ev.evaluate(p.shift_time(float(batch.points[e[k]])))
                assert codes[k] == {True: 1, False: 0, None: -1}[want], (text, k)

    @pytest.mark.parametrize("passes", [0, 1, 3])
    def test_long_walks_are_searched(self, rng, monkeypatch, passes):
        # a walk from a known answer still moving after WALK_PASSES passes
        # is searched; the answer and the codes stay exact
        monkeypatch.setattr(events, "WALK_PASSES", passes)
        batch = batch_of([random_pattern(rng, span=25.0, rate=2.0) for _ in range(5)])
        ctx = EventContext(batch)
        e = np.arange(batch.points.size)
        rep = np.repeat(np.arange(batch.n), np.diff(batch.offsets))
        # a (rows, n) block of each row's first events, rep a (rows, 1) column
        block = batch.offsets[:-1, None] + np.arange(int(np.diff(batch.offsets).min()))
        for c in (20.0, -12.0, 2.5, -0.5):
            for pos in (Positions(ctx, batch.points[e], rep, known=e),
                        Positions(ctx, np.zeros(batch.n), np.arange(batch.n),
                                  known=ctx.pos0())):
                assert np.array_equal(pos.le(c), self.exact(batch, pos.y, pos.rep, c)), c
            pos = Positions(ctx, batch.points[block], np.arange(batch.n)[:, None], known=block)
            want = self.exact(batch, batch.points[block].ravel(),
                              np.repeat(np.arange(batch.n), block.shape[1]), c)
            assert np.array_equal(pos.le(c), want.reshape(block.shape)), c
        for text in ("count(0,10]==20", "count(-10,-3]==14", "count(0,1]==2",
                     "(count(0,20]==40 | count(-5,0]==10)"):
            ev = parse_eventuality(text)
            codes = ev.at_events(ctx, e, rep)
            for k in range(e.size):
                p = batch.pattern(int(rep[k]))
                want = ev.evaluate(p.shift_time(float(batch.points[e[k]])))
                assert codes[k] == {True: 1, False: 0, None: -1}[want], (text, k)


class TestIntegrate:
    """The exact integral must match brute-force shifted evaluation."""

    CASES = [
        parse_eventuality("alpha(0)>1"),
        parse_eventuality("alpha(-1)>0.5"),
        parse_eventuality("count(0,1]==0"),
        parse_eventuality("count(-1,1]==2"),
        parse_eventuality("T1<=0.5"),
        parse_eventuality("(alpha(0)>1 & count(0,2]==1)"),
        parse_eventuality("!count(0,1]==0 | T1<=1"),
        ev_straddle(1, 0.7),
    ]

    @staticmethod
    def pieces(ev, p, y_lo, y_hi):
        """Sorted distinct breaks of ev on p inside (y_lo, y_hi), plus the bounds."""
        lo, hi = p.window
        brk = declared_breaks(ev, p.points[None, :], [lo], [hi]).ravel()
        inner = brk[(brk > y_lo) & (brk < y_hi)]
        return np.unique(np.concatenate(([y_lo, y_hi], inner)))

    def test_pieces_match_pointwise(self, rng):
        for _ in range(12):
            p = random_pattern(rng)
            ctx = EventContext(batch_of([p]))
            for ev in self.CASES:
                edges = self.pieces(ev, p, -4.0, 4.0)
                rows = np.zeros(edges.size - 1, dtype=np.int64)
                vals, ok = ev.integrate(ctx, rows, edges[:-1], edges[1:])
                # probe three interior offsets of every piece
                for a, b, v, good in zip(edges[:-1], edges[1:], vals, ok):
                    got = {b - a: True, 0.0: False}[v] if good else None
                    for frac in (0.25, 0.5, 0.75):
                        y = a + frac * (b - a)
                        want = ev.evaluate(p.shift_time(float(y)))
                        assert got == want, (ev.label, float(y))

    def test_integral_matches_riemann(self, rng):
        # integral against a fine midpoint rule with bounded breakpoint error
        for ev in self.CASES[:4]:
            p = random_pattern(rng)
            vals, ok = ev.integrate(EventContext(batch_of([p])), [0], -3.0, 3.0)
            assert ok[0]
            grid = np.linspace(-3.0, 3.0, 6001)
            mids = 0.5 * (grid[:-1] + grid[1:])
            approx = sum(
                bool(ev.evaluate(p.shift_time(float(y)))) for y in mids
            ) * (6.0 / 6000)
            assert abs(vals[0] - approx) < 0.02

    def test_cuts_are_running_integrals(self, rng):
        patterns = [random_pattern(rng) for _ in range(6)]
        ctx = EventContext(batch_of(patterns))
        rows = np.arange(len(patterns))
        cuts = np.array([0.5, 1.0, 2.5, 4.0, 6.0])
        for ev in self.CASES[:4]:
            running, ok = ev.integrate(ctx, rows, 0.0, 4.0, cuts=cuts)
            assert running.shape == (rows.size, cuts.size)
            for k, cut in enumerate(cuts):
                whole, ok_k = ev.integrate(ctx, rows, 0.0, min(cut, 4.0))
                assert np.all(ok_k[ok])
                np.testing.assert_allclose(running[ok, k], whole[ok], rtol=1e-12, atol=1e-12)

    @staticmethod
    def laid_out(monkeypatch):
        """Record the per-row event counts of every block integrate lays out."""
        import palmlab.events as events_mod

        blocks = []

        def recording(values, lengths):
            blocks.append(lengths.tolist())
            return padded_rows(values, lengths)

        monkeypatch.setattr(events_mod, "padded_rows", recording)
        return blocks

    def test_block_boundaries_do_not_matter(self, rng, monkeypatch):
        import palmlab.events as events_mod

        patterns = [random_pattern(rng) for _ in range(7)]
        ctx = EventContext(batch_of(patterns))
        rows = np.array([6, 0, 3, 3, 5, 1, 2, 4])
        ev = self.CASES[5]
        blocks = self.laid_out(monkeypatch)
        want = ev.integrate(ctx, rows, -2.0, 2.5)
        (whole,) = blocks
        assert len(set(whole)) > 1, "rows of one width do not test the cut"
        # laid-out columns: both bounds, one per event and offset, two per
        # edge offset pair; three rows of the widest fit in one block
        widest = 2 + 2 * len(ev.edge_offsets) + len(ev.offsets) * max(whole)
        monkeypatch.setattr(events_mod, "BLOCK_CELLS", 3 * widest + 2)
        blocks.clear()
        got = ev.integrate(ctx, rows, -2.0, 2.5)
        assert blocks == [whole[:3], whole[3:6], whole[6:]]
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_narrow_rows_fit_one_block(self, rng, monkeypatch):
        # a one-gap integral lays out a few columns per row, so a whole
        # chunk's rows go in one block
        patterns = [random_pattern(rng) for _ in range(40)]
        ctx = EventContext(batch_of(patterns))
        rows = np.repeat(np.arange(len(patterns)), 100)
        i = ctx.pos0()[rows]
        blocks = self.laid_out(monkeypatch)
        vals, ok = parse_eventuality("alpha(0)>1").integrate(
            ctx, rows, ctx.point(i), ctx.point(i + 1))
        assert len(blocks) == 1 and len(blocks[0]) == rows.size
        gaps = ctx.point(i + 1) - ctx.point(i)
        assert ok.all()
        np.testing.assert_array_equal(vals, np.where(gaps > 1, gaps, 0.0))

    def test_first_point_without_successor_is_indeterminate(self):
        # no stored event after y in (1, 4]: T_1 is unknown there, so the
        # integral over a stretch reaching past the last event is rejected
        p = PointPattern(np.array([-1.0, 0.5, 1.0]), (-2.0, 5.0))
        ev = ev_first_point_le(0.5)
        ctx = EventContext(batch_of([p]))
        for y in (1.5, 3.0, 4.0):
            assert ev.evaluate(p.shift_time(y)) is None
            code = ev.codes_at(Positions(ctx, np.array([y]), np.array([0])))
            assert code[0] == -1
        vals, ok = ev.integrate(ctx, [0, 0], [0.0, 0.0], [1.0, 3.0])
        assert ok.tolist() == [True, False]
        assert vals[0] == 1.0


class TestParser:
    ROUND_TRIP = [
        "alpha(0)>0.5",
        "alpha(-1)>1",
        "alpha(0)==1",
        "count(0,1]==0",
        "count(-1.5,2]==3",
        "T1<=0.7",
        "true",
        "!alpha(0)>1",
        "(alpha(0)>1 & count(0,1]==0)",
        "(T1<=0.5 | !(alpha(1)>2 & true))",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_round_trip(self, text):
        ev = parse_eventuality(text)
        again = parse_eventuality(ev.label)
        assert again.label == ev.label

    def test_parse_equals_constructors(self):
        assert parse_eventuality("alpha(0)>1") == ev_interval_gt(0, 1.0)
        assert parse_eventuality("count(0,1]==0") == ev_count_eq(0.0, 1.0, 0)
        assert parse_eventuality("T1<=0.7") == ev_first_point_le(0.7)

    def test_precedence(self):
        ev = parse_eventuality("alpha(0)>1 | alpha(1)>1 & count(0,1]==0")
        # '&' binds tighter than '|'
        assert ev.label == "(alpha(0)>1 | (alpha(1)>1 & count(0,1]==0))"

    @pytest.mark.parametrize("bad", [
        "", "alpha(0)", "alpha(0.5)>1", "count(0,1)==0", "count(2,1]==0",
        "T1>=0.5", "alpha(0)>1 &", "(((alpha(0)>1)", "frobnicate>1",
        "alpha(0)>1 extra",
    ])
    def test_rejects_junk(self, bad):
        with pytest.raises(ValueError):
            parse_eventuality(bad)

    def test_battery_labels_round_trip(self):
        for ev in BATTERY:
            assert parse_eventuality(ev.label) == ev
