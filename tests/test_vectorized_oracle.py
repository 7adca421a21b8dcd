"""Vectorized evaluation against the scalar oracle on random batches.

`codes_at` (and through it `at_events`, `at_origin` and `integrate`) must
give exactly the three-valued result of `evaluate` on the shifted pattern,
including on wide windows, where the globally sorted search rounds, on
windows that end at the first and last stored events (as every row drawn
to a need has), and for events at or one ulp away from an eventuality's
boundaries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from palmlab.events import (EventContext, Positions, ev_example44, ev_straddle,
                            parse_eventuality)
from palmlab.models import Need, example44, example44_labels, example44_times
from palmlab.pattern import MIN_GAP, PatternBatch, PointPattern, padded_rows, ragged_ranges

from conftest import declared_breaks

CASES = [parse_eventuality(text) for text in (
    "true",
    "alpha(0)>1",
    "alpha(-1)>0.5",
    "alpha(1)>2",
    "alpha(0)==1",
    "count(0,1]==0",
    "count(-1,1]==2",
    "count(0.5,2]==1",
    "T1<=0.5",
    "T1<=1",
    "(alpha(0)>1 & count(0,2]==1)",
    "!(alpha(0)>1 | T1<=0.5)",
    "(count(0,1]==0 | T1<=1)",
)] + [ev_straddle(0, -0.5), ev_straddle(1, 0.7)]

# Offsets at which the codes above change, seen from the origin or an event.
BOUNDARIES = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -0.7, 0.7)

ALPHA_CONSTANTS = np.array([0.5, 1.0, 2.0])

CODE = {1: True, 0: False, -1: None}
CODE_OF = {v: k for k, v in CODE.items()}

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    print_blob=True, suppress_health_check=[HealthCheck.too_slow])


def _around(x: float) -> list[float]:
    return [x, float(np.nextafter(x, np.inf)), float(np.nextafter(x, -np.inf))]


@st.composite
def patterns(draw):
    """One pattern: uniform events plus events at (or one ulp from) the
    boundaries, seen from the origin and from another event."""
    span = draw(st.sampled_from([12.0, 1e4]))
    # per-row offset of the window, as re-centering samplers produce
    shift = draw(st.floats(-3.0, 3.0))
    lo, hi = -span + shift, span + shift
    pts = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=30))
    anchors = pts[: draw(st.integers(0, 3))] + [0.0]
    for t in anchors:
        for c in draw(st.lists(st.sampled_from(BOUNDARIES), max_size=4)):
            pts += _around(t + c)
    # the oracle shifts to events, so they stay inside the open window
    pts = np.unique(np.clip(np.array(pts), np.nextafter(lo, hi), np.nextafter(hi, lo)))
    keep = np.concatenate(([True], np.diff(pts) > 2 * MIN_GAP))
    return PointPattern(pts[keep], (lo, hi))


def _batch(rows: list[PointPattern], filler: int) -> tuple[PatternBatch, list[int]]:
    """The rows placed after `filler` one-event rows, so that they sit at
    large offsets in the globally sorted array."""
    pad = PointPattern(np.array([0.25]), (-1.0, 1.0))
    allrows = [pad] * filler + rows
    pts = np.concatenate([p.points for p in allrows])
    offsets = np.concatenate(([0], np.cumsum([len(p) for p in allrows])))
    windows = np.array([p.window for p in allrows])
    return PatternBatch(pts, offsets, windows, np.ones(len(allrows))), \
        list(range(filler, filler + len(rows)))


batches = st.tuples(st.lists(patterns(), min_size=1, max_size=3),
                    st.sampled_from([0, 4000]))


@SETTINGS
@given(batches, st.sampled_from(CASES))
def test_at_origin_and_at_events(data, ev):
    rows, filler = data
    batch, ids = _batch(rows, filler)
    ctx = EventContext(batch)
    origin = ev.at_origin(ctx)
    for i, p in zip(ids, rows):
        assert CODE[int(origin[i])] == ev.evaluate(p), (ev.label, p)
        e = np.arange(batch.offsets[i], batch.offsets[i + 1])
        codes = ev.at_events(ctx, e, np.full(e.size, i))
        for k, t in enumerate(p.points):
            assert CODE[int(codes[k])] == ev.evaluate(p.shift_time(float(t))), (ev.label, t)


@SETTINGS
@given(batches, st.sampled_from(CASES), st.data())
def test_codes_at_positions(data, ev, draw):
    rows, filler = data
    batch, ids = _batch(rows, filler)
    ctx = EventContext(batch)
    ys, reps = [], []
    for i, p in zip(ids, rows):
        lo, hi = p.window
        base = list(p.points) + [draw.draw(st.floats(lo, hi)) for _ in range(3)]
        for t in base:
            for c in draw.draw(st.lists(st.sampled_from(BOUNDARIES), max_size=2)):
                ys += _around(t - c)
                reps += [i] * 3
            ys.append(t)
            reps.append(i)
    # the oracle needs the origin inside the shifted window
    y, rep = np.array(ys), np.array(reps)
    lo, hi = batch.windows[rep].T
    inside = (lo - y < 0) & (hi - y > 0)
    y, rep = y[inside], rep[inside]
    j = ctx.last_le(y, rep)
    codes = ev.codes_at(Positions(ctx, y, rep))
    for k in range(y.size):
        p = rows[ids.index(rep[k])]
        want_j = batch.offsets[rep[k]] + np.searchsorted(p.points, y[k], side="right") - 1
        assert j[k] == want_j
        assert CODE[int(codes[k])] == ev.evaluate(p.shift_time(float(y[k]))), (ev.label, y[k])


@SETTINGS
@given(batches, st.sampled_from(CASES), st.data())
def test_integrate(data, ev, draw):
    rows, filler = data
    batch, ids = _batch(rows, filler)
    ctx = EventContext(batch)
    bounds = []
    for p in rows:
        lo, hi = p.window
        inside = st.floats(lo, hi, exclude_min=True, exclude_max=True)
        a, b = sorted(draw.draw(st.lists(inside, min_size=2, max_size=2)))
        bounds.append((a, b))
    y_lo, y_hi = np.array(bounds).T
    cuts = np.sort(np.array(draw.draw(st.lists(st.floats(-20.0, 20.0), max_size=3))))
    vals, ok = ev.integrate(ctx, ids, y_lo, y_hi)
    running, ok_cuts = ev.integrate(ctx, ids, y_lo, y_hi, cuts=cuts)
    assert np.array_equal(ok, ok_cuts)
    for k, p in enumerate(rows):
        a, b = bounds[k]
        brk = declared_breaks(ev, p.points[None, :], p.window[:1], p.window[1:]).ravel()
        edges = np.unique(np.concatenate(([a, b], cuts[(cuts > a) & (cuts < b)],
                                          brk[(brk > a) & (brk < b)])))
        # evaluate measures gaps between shifted times, so a gap within
        # rounding of an alpha constant flickers with y between breaks
        flicker = np.any(np.abs(np.diff(p.points)[:, None] - ALPHA_CONSTANTS) < 1e-9)
        want_ok, want, want_running = True, 0.0, np.zeros(cuts.size)
        for left, right in zip(edges[:-1], edges[1:]):
            code = ev.evaluate(p.shift_time(0.5 * (left + right)))
            if not flicker and right - left > 1e-6 * max(1.0, abs(left)):
                # the breaks are complete: the code is constant on the piece
                for frac in (0.1, 0.9):
                    y = left + frac * (right - left)
                    assert ev.evaluate(p.shift_time(y)) == code, (ev.label, y)
            want_ok &= code is not None
            if code:
                want += right - left
                want_running += (right - left) * (right <= cuts)
        assert ok[k] == want_ok, (ev.label, p, a, b)
        if want_ok:
            tol = 1e-12 * max(1.0, b - a, abs(a), abs(b))
            assert vals[k] == pytest.approx(want, abs=tol)
            assert running[k] == pytest.approx(want_running, abs=tol)
        else:
            assert vals[k] == 0.0 and not running[k].any()


@st.composite
def row_window_patterns(draw):
    """One pattern whose window ends at its first and last events, as the
    rows drawn to a need end theirs (the first may be an event at 0), with
    events at (or one ulp from) the boundaries seen from the origin and
    from both edges."""
    lo = draw(st.sampled_from([0.0]) | st.floats(-12.0, -1e-6))
    hi = draw(st.floats(1e-6, 12.0))
    pts = draw(st.lists(st.floats(lo, hi), max_size=20)) + [lo, hi]
    for t in (0.0, lo, hi):
        for c in draw(st.lists(st.sampled_from(BOUNDARIES), max_size=4)):
            pts += _around(t + c)
    pts = np.unique(np.clip(np.array(pts), lo, hi))
    keep = np.concatenate(([True], np.diff(pts) > 2 * MIN_GAP))
    pts = pts[keep]
    return PointPattern(pts, (pts[0], pts[-1]))


@SETTINGS
@given(st.tuples(st.lists(row_window_patterns(), min_size=1, max_size=3),
                 st.sampled_from([0, 4000])),
       st.sampled_from(CASES))
def test_codes_on_row_windows(data, ev):
    """On windows that end at the first and last stored events, as every
    row drawn to a need has, the codes at the origin, at every event but
    the last and at positions around the boundaries seen from both edges
    are evaluate's three-valued result on the row's own window."""
    rows, filler = data
    batch, ids = _batch(rows, filler)
    ctx = EventContext(batch)
    origin = ev.at_origin(ctx)
    ys, reps = [], []
    for i, p in zip(ids, rows):
        assert CODE[int(origin[i])] == ev.evaluate(p), (ev.label, p)
        # seen from the last event the window would end at the origin,
        # where no pattern is defined
        e = np.arange(batch.offsets[i], batch.offsets[i + 1] - 1)
        codes = ev.at_events(ctx, e, np.full(e.size, i))
        for k, t in enumerate(p.points[:-1]):
            assert CODE[int(codes[k])] == ev.evaluate(p.shift_time(float(t))), (ev.label, t)
        lo, hi = p.window
        near = [u for x in (lo, hi) for c in BOUNDARIES for u in _around(x + c) if lo < u < hi]
        ys += near
        reps += [i] * len(near)
    y, rep = np.array(ys, dtype=np.float64), np.array(reps, dtype=np.int64)
    codes = ev.codes_at(Positions(ctx, y, rep))
    for k in range(y.size):
        p = rows[ids.index(rep[k])]
        assert CODE[int(codes[k])] == ev.evaluate(p.shift_time(float(y[k]))), (ev.label, y[k])


def full_row_integrate(ev, ctx, rows, y_lo, y_hi, cuts=None):
    """Reference for Eventuality.integrate: the breaks of every stored event
    of each row, clipped into (y_lo, y_hi] and sorted, and one weighted
    bincount over the pieces per cut."""
    rows = np.asarray(rows, dtype=np.int64)
    m = rows.size
    lo = np.broadcast_to(np.asarray(y_lo, dtype=np.float64), (m,))[:, None]
    hi = np.broadcast_to(np.asarray(y_hi, dtype=np.float64), (m,))[:, None]
    starts, stops = ctx.off_lo[rows], ctx.off_hi[rows]
    pts, _ = padded_rows(ctx.points[ragged_ranges(starts, stops)[0]], stops - starts)
    cols = [lo, hi, declared_breaks(ev, pts, ctx.wlo[rows], ctx.whi[rows])]
    if cuts is not None:
        cols.append(np.broadcast_to(cuts, (m, cuts.size)))
    edges = np.sort(np.clip(np.concatenate(cols, axis=1), lo, hi), axis=1)
    widths = np.diff(edges, axis=1)
    pi, ci = np.nonzero(widths > 0)
    right = edges[pi, ci + 1]
    y = 0.5 * (edges[pi, ci] + right)
    rep = rows[pi]
    codes = ev.codes_at(Positions(ctx, y, rep))
    part = np.where(codes == 1, widths[pi, ci], 0.0)
    if cuts is None:
        values = np.bincount(pi, weights=part, minlength=m)
    else:
        values = np.zeros((m, cuts.size))
        for k, cut in enumerate(cuts):
            values[:, k] = np.bincount(pi, weights=part * (right <= cut), minlength=m)
    ok = np.ones(m, dtype=bool)
    ok[pi[codes == -1]] = False
    values[~ok] = 0.0
    return values, ok


@SETTINGS
@given(batches, st.sampled_from(CASES), st.data())
def test_integrate_equals_full_row(data, ev, draw):
    """Laying out only the events whose breaks can fall inside the interval
    and reading one running sum at the cuts changes no bit of the result:
    on filler rows and wide windows, over one-gap intervals and over
    intervals that end on, or one ulp from, a break or a window edge."""
    rows, filler = data
    batch, ids = _batch(rows, filler)
    ctx = EventContext(batch)
    reps, bounds, spots = [], [], []
    for i, p in zip(ids, rows):
        lo, hi = p.window
        brk = declared_breaks(ev, p.points[None, :], [lo], [hi]).ravel()
        row_spots = [u for x in np.concatenate((brk, p.points, [lo, hi])) for u in _around(x)]
        row_spots = [u for u in row_spots if lo <= u <= hi]
        spots += row_spots
        # one gap, the whole window, and two ends among the breaks and edges
        pairs = [(lo, hi), tuple(sorted(draw.draw(st.lists(
            st.sampled_from(row_spots), min_size=2, max_size=2))))]
        if len(p) >= 2:
            k = draw.draw(st.integers(0, len(p) - 2))
            pairs.append((p.points[k], p.points[k + 1]))
        inside = st.floats(lo, hi, exclude_min=True, exclude_max=True)
        pairs.append(tuple(sorted(draw.draw(st.lists(inside, min_size=2, max_size=2)))))
        reps += [i] * len(pairs)
        bounds += pairs
    y_lo, y_hi = np.array(bounds).T
    cuts = np.array(draw.draw(st.lists(st.sampled_from(spots) | st.floats(-20.0, 20.0),
                                       max_size=4)))
    for c in (None, cuts):
        got = ev.integrate(ctx, reps, y_lo, y_hi, cuts=c)
        want = full_row_integrate(ev, ctx, reps, y_lo, y_hi, cuts=c)
        assert np.array_equal(got[0], want[0]), (ev.label, c)
        assert np.array_equal(got[1], want[1]), (ev.label, c)


@pytest.mark.parametrize("ev, y_lo, y_hi, pts, k", [
    (parse_eventuality("count(0.5,2]==1"), -0.1394089208519178, 0.7199145702121658,
     [-4.912046154589423, -0.4543806406261819, -0.21724279224235943, 0.36059107914808225,
      1.609311738218329, 3.7813401201821364, 4.908386903230834], 3),
    (ev_straddle(1, 0.7), 0.25304682452811456, 0.7560429149449331,
     [-4.623018463619736, -1.0235703126290332, -0.44695317547188534, 0.1536528985299288,
      1.0302197139356553, 1.1307338502836641, 2.0546156335490657], 2),
])
def test_integrate_keeps_the_event_at_the_lower_search(ev, y_lo, y_hi, pts, k):
    # event k has T - y_lo rounding to <= -d but T + d rounding to > y_lo
    # (d the largest offset): the lower search stops at T, yet T's break
    # splits the first piece, which moves the last bit of the integral
    t, d = pts[k], ev.offsets[-1]
    assert t - y_lo <= -d and t + d > y_lo
    batch, ids = _batch([PointPattern(np.array(pts), (-6.0, 6.0))], 0)
    ctx = EventContext(batch)
    got = ev.integrate(ctx, ids, y_lo, y_hi)
    want = full_row_integrate(ev, ctx, ids, y_lo, y_hi)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("text", ["alpha(0)>1", "T1<=0.5", "count(0,1]==0", "alpha(-1)>0.5"])
def test_integrate_over_one_ulp_piece(text):
    # the one piece (a, T] is one ulp wide and its midpoint rounds onto the
    # event T, so the events left of the piece are not those left of the
    # midpoint: T is the last event <= y there, not the one before it
    t = 1.0 + 2.0 ** -51
    a = np.nextafter(t, -np.inf)
    assert 0.5 * (a + t) == t
    batch, ids = _batch([PointPattern(np.array([0.3, t, 2.6]), (-6.0, 6.0))], 0)
    ctx = EventContext(batch)
    ev = parse_eventuality(text)
    got = ev.integrate(ctx, ids, a, t)
    want = full_row_integrate(ev, ctx, ids, a, t)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _captured(ev, call) -> list:
    """The Positions views that call() hands to ev.codes_at."""
    seen = []

    def record(pos):
        seen.append(pos)
        return type(ev).codes_at(ev, pos)

    ev.codes_at = record
    try:
        call()
    finally:
        del ev.codes_at
    return seen


# the row and piece of test_integrate_over_one_ulp_piece
ULP_T = 1.0 + 2.0 ** -51
ULP_ROW = PointPattern(np.array([0.3, ULP_T, 2.6]), (-6.0, 6.0))


@SETTINGS
@given(batches, st.sampled_from(CASES), st.data())
def test_positions_equal_searches(data, ev, draw):
    """The Positions that integrate, at_events and at_origin build answer
    le(-d) as ctx.last_le does at every declared offset d and at 0, at every
    entry whose code is read, whether the answer is known, walked from it,
    taken from integrate's sort or settled; integrate's block view reads
    exactly the pieces of positive width, one per midpoint of the sorted
    distinct breaks, and the batch always holds the one-ulp piece whose
    midpoint rounds onto an event."""
    rows, filler = data
    batch, ids = _batch(rows + [ULP_ROW], filler)
    ctx = EventContext(batch)
    bounds = []
    for p in rows:
        lo, hi = p.window
        inside = st.floats(lo, hi, exclude_min=True, exclude_max=True)
        bounds.append(sorted(draw.draw(st.lists(inside, min_size=2, max_size=2))))
    bounds.append((np.nextafter(ULP_T, -np.inf), ULP_T))
    y_lo, y_hi = np.array(bounds).T
    e = np.arange(batch.offsets[ids[0]], batch.points.size)
    rep = np.repeat(ids, np.diff(batch.offsets)[ids])
    seen = _captured(ev, lambda: (ev.integrate(ctx, ids, y_lo, y_hi),
                                  ev.at_events(ctx, e, rep), ev.at_origin(ctx)))
    assert len(seen) == 3
    block = seen[0]
    assert block.y.ndim == 2 and np.array_equal(block.rep[:, 0], ids)
    for k, p in enumerate(rows + [ULP_ROW]):
        brk = declared_breaks(ev, p.points[None, :], p.window[:1], p.window[1:]).ravel()
        u = np.unique(np.clip(np.concatenate(([y_lo[k], y_hi[k]], brk)), y_lo[k], y_hi[k]))
        assert np.array_equal(np.sort(block.y[k][block.live[k]]), 0.5 * (u[:-1] + u[1:]))
    for pos in seen:
        live = np.ones(pos.y.shape, dtype=bool) if pos.live is None else pos.live
        y, rep_at = pos.y[live], np.broadcast_to(pos.rep, pos.y.shape)[live]
        for d in {0.0, *ev.offsets}:
            assert np.array_equal(pos.le(-d)[live], ctx.last_le(y, rep_at, -d)), (ev.label, d)


def midpoint_oracle(ev, p: PointPattern, a: float, b: float) -> tuple[float, bool]:
    """integrate's (value, ok) on one row from scalar evaluate: the code at
    the midpoint of each piece between consecutive distinct breaks in
    [a, b], the widths of the true pieces summed in order."""
    brk = declared_breaks(ev, p.points[None, :], p.window[:1], p.window[1:]).ravel()
    edges = np.unique(np.clip(np.concatenate(([a, b], brk)), a, b))
    total, ok = 0.0, True
    for left, right in zip(edges[:-1], edges[1:]):
        code = ev.evaluate(p.shift_time(float(0.5 * (left + right))))
        ok &= code is not None
        if code:
            total += right - left
    return (total if ok else 0.0), ok


def _ulps(x: float, k: int) -> float:
    return float(x + k * abs(np.spacing(x)))


@st.composite
def narrow_patterns(draw):
    """One pattern whose breaks fall a few ulps apart, so that integrate
    settles the pieces between them: events a few ulps from where another
    event's or a window edge's break lands at a declared offset
    difference, on uniform events or on example44's lattice (unit gaps
    left of 0, gaps of 1 and 2 right of it) with the window ending at the
    first and last events."""
    if draw(st.booleans()):
        pts = list(np.concatenate((-np.arange(1.0, 8.0)[::-1], [0.0], example44_times(12))))
        lo, hi = pts[0], pts[-1]
    else:
        span = draw(st.sampled_from([12.0, 1e4]))
        lo, hi = -span, span
        pts = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=20))
    anchors = pts[: draw(st.integers(0, 3))] + [0.0, lo, hi]
    for t in anchors:
        for c in draw(st.lists(st.sampled_from(BOUNDARIES), max_size=3)):
            pts.append(_ulps(t + c, draw(st.integers(-4, 4))))
    pts = np.unique(np.clip(np.array(pts), lo, hi))
    keep = np.concatenate(([True], np.diff(pts) > 2 * MIN_GAP))
    return PointPattern(pts[keep], (lo, hi))


@SETTINGS
@given(st.tuples(st.lists(narrow_patterns(), min_size=1, max_size=3), st.sampled_from([0, 4000])),
       st.sampled_from(CASES), st.data())
def test_integrate_settles_narrow_pieces(data, ev, draw):
    """Where breaks lie within the sure bound of each other, the pieces
    between them fall back to settle: the integral is still exactly the sum
    of scalar evaluate's codes at the piece midpoints, and the block view
    answers le as last_le at every piece of positive width."""
    rows, filler = data
    batch, ids = _batch(rows, filler)
    ctx = EventContext(batch)
    bounds = []
    for p in rows:
        lo, hi = p.window
        brk = declared_breaks(ev, p.points[None, :], [lo], [hi]).ravel()
        spots = [u for x in np.concatenate((brk, p.points)) for k in (-2, 0, 2)
                 for u in [_ulps(x, k)] if lo < u < hi]
        ends = st.sampled_from(spots) if spots else st.nothing()
        pair = draw.draw(st.lists(ends | st.floats(lo, hi, exclude_min=True, exclude_max=True),
                                  min_size=2, max_size=2))
        bounds.append(sorted(pair))
    y_lo, y_hi = np.array(bounds).T
    seen_out = []
    seen = _captured(ev, lambda: seen_out.append(ev.integrate(ctx, ids, y_lo, y_hi)))
    (vals, ok), = seen_out
    for k, p in enumerate(rows):
        want, want_ok = midpoint_oracle(ev, p, y_lo[k], y_hi[k])
        assert (vals[k], ok[k]) == (want, want_ok), (ev.label, p, y_lo[k], y_hi[k])
    for pos in seen:
        rep_at = np.broadcast_to(pos.rep, pos.y.shape)[pos.live]
        for d in ev.offsets:
            assert np.array_equal(pos.le(-d)[pos.live], ctx.last_le(pos.y[pos.live], rep_at, -d))


@pytest.mark.parametrize("text", ["count(0,1]==0", "T1<=1", "(count(0,1]==0 | T1<=1)"])
def test_few_ulp_breaks_are_settled(text):
    # 1.3 - 1 rounds one ulp above 0.3, so the breaks T - 1 of T = 1.3 and
    # T - 0 of T = 0.3 sit one ulp apart: the piece between them is
    # narrower than the sure bound and its guesses are settled
    ev = parse_eventuality(text)
    p = PointPattern(np.array([-0.6, 0.3, 1.3, 2.2]), (-6.0, 6.0))
    assert 1.3 - 1.0 == np.nextafter(0.3, 1.0)
    batch, ids = _batch([p], 4000)
    ctx = EventContext(batch)
    out = []
    (pos,) = _captured(ev, lambda: out.append(ev.integrate(ctx, ids, -0.5, 2.0)))
    assert pos.unsure.size > 0
    want, want_ok = midpoint_oracle(ev, p, -0.5, 2.0)
    assert (out[0][0][0], out[0][1][0]) == (want, want_ok)


def test_gap_between_shifted_times():
    # seen from y = 0.5 the gap before T_0 rounds to exactly 0.5, while the
    # unshifted event times lie one ulp more than 0.5 apart
    p = PointPattern(np.array([np.nextafter(-0.5, -1.0), -5e-324, 1.0]), (-12.0, 12.0))
    batch, (i,) = _batch([p], 0)
    ctx = EventContext(batch)
    ev = parse_eventuality("alpha(-1)>0.5")
    y, rep = np.array([0.5]), np.array([i])
    assert ev.evaluate(p.shift_time(0.5)) is False
    assert ev.codes_at(Positions(ctx, y, rep))[0] == 0


def test_wide_window_point_past_count_edge():
    # an event 3e-10 past the right end of (0, 1] on +-1e4 windows: the
    # offsets of the globally sorted array round it into the interval on
    # most of 4096 rows, the exact search never does
    n = 4096
    row = np.array([-0.5, 1.0 + 3e-10, 5.0])
    batch = PatternBatch(np.tile(row, n), np.arange(n + 1) * row.size,
                         np.tile([-1e4, 1e4], (n, 1)), np.ones(n))
    ctx = EventContext(batch)
    ev = parse_eventuality("count(0,1]==0")
    p = PointPattern(row, (-1e4, 1e4))
    assert ev.evaluate(p) is True
    assert np.all(ev.at_origin(ctx) == 1)
    want = [CODE_OF[ev.evaluate(p.shift_time(float(t)))] for t in row]
    codes = ev.at_events(ctx, np.arange(batch.points.size), np.repeat(np.arange(n), row.size))
    assert np.array_equal(codes.reshape(n, row.size), np.tile(want, (n, 1)))


@st.composite
def lattice_rows(draw):
    """example44's lattice rows: one to three copies of its realization,
    drawn to a need, each window ending at the row's first and last events."""
    model = example44(draw(st.integers(3, 40)))
    need = Need(after=draw(st.floats(0.0, 30.0)), right=draw(st.integers(0, 4)))
    batch = model.sample_batch(np.random.default_rng(0), need, draw(st.integers(1, 3)))
    return [batch.pattern(i) for i in range(batch.n)]


@SETTINGS
@given(batches | st.tuples(lattice_rows(), st.sampled_from([0, 4000])),
       st.sampled_from(CASES), st.integers(1, 12), st.data())
def test_row_block_views(data, ev, n, draw):
    """A (rows, n) view of consecutive events with rep a (rows, 1) column,
    as cesaro_event evaluates its blocks, gives the flat at_events codes and
    evaluate's result.  A row that ends before the block's last column
    repeats its last event there."""
    rows, filler = data
    batch, ids = _batch(rows, filler)
    ctx = EventContext(batch)
    first = [batch.offsets[i] + draw.draw(st.integers(0, len(p) - 1)) for i, p in zip(ids, rows)]
    e = np.minimum(np.array(first)[:, None] + np.arange(n), ctx.off_hi[ids, None] - 1)
    codes = ev.codes_at(Positions(ctx, ctx.points[e], np.array(ids)[:, None], known=e))
    assert codes.shape == e.shape
    assert np.array_equal(codes.ravel(), ev.at_events(ctx, e.ravel(), np.repeat(ids, n)))
    for r, p in enumerate(rows):
        for k in range(n):
            t = float(ctx.points[e[r, k]])
            # a window that ends at its last event holds no pattern seen from it
            if t < p.window[1]:
                assert CODE[int(codes[r, k])] == ev.evaluate(p.shift_time(t)), (ev.label, t)


def test_row_block_views_past_the_realization():
    # example44's labels from events 1..8 of a realization whose last
    # stored event is T_6: seen from T_6 the gap alpha_0 is not stored, so
    # columns 6..8 (the last event, repeated) are -1
    batch = example44(5).sample_batch(np.random.default_rng(0), Need(right=8), 3)
    ctx = EventContext(batch)
    e = np.minimum(ctx.pos0()[:, None] + np.arange(1, 9), ctx.off_hi[:, None] - 1)
    codes = ev_example44().codes_at(Positions(ctx, ctx.points[e], np.arange(3)[:, None],
                                              known=e))
    want = np.concatenate((example44_labels(5), [-1, -1, -1]))
    assert np.array_equal(codes, np.tile(want, (3, 1)))
