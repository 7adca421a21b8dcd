"""The two-sided samplers' gap draws: right-sized with top-ups, same law.

`models._side_cumsum` draws per + c*sqrt(per + 1) + c gaps per row for a
need of per mean gaps (c = models.GAP_SLACK = 1, so with exponential gaps
about one row in six is short after the first block) and tops up only the
rows still short of the need, with blocks of c*sqrt(per + 1) + c gaps.
`reference_side_cumsum` below is the rule it replaced (generous first
block, the whole matrix redrawn at twice the width when any row falls
short); the samplers built on either must have the same law.
The reference returns one matrix, which is a single block covering every
row in `_side_cumsum`'s block form.

`poisson_ts` is the anchored sampler with exponential gaps;
`reference_poisson_ts` below is the Poisson sampler it replaced, which
conditioned its rows on straddling the origin; the two must have the same
law on the rows that straddle the origin inside the window.

A row drawn to a Need (event-indexed) stops once it holds what its kernel
reads; the events it holds must have the law they have on a wide time
window.  Gamma(2) gaps are drawn as -log of a product of two uniforms and
must have the law of `Generator.gamma`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palmlab import models
from palmlab.models import (
    LAW_TS,
    IntervalDistribution,
    Need,
    ProcessModel,
    example84_exact,
    exponential,
    gamma_intervals,
    poisson_ts,
    pstar_model,
    renewal_es,
    renewal_ts_from_es,
    sample_window,
)
from palmlab.pattern import MIN_GAP, PatternBatch
from palmlab.rng import CHUNK, chunk_rng


def reference_side_cumsum(rng, dist, n_rows, span, k=0, r=0.0):
    """Per-row cumulative gap sums guaranteed to hold the need (the former
    sampler rule, kept as the reference), and the sums each row keeps."""
    per = (span + r) / dist.mean + k
    m = int(per + 10.0 * math.sqrt(per + 1.0) + 10.0)
    while True:
        cum = dist.sample(rng, (n_rows, m))
        np.cumsum(cum, axis=1, out=cum)
        keep = models._stop(cum, span, k, r)
        if np.all(keep >= 0):
            return cum, keep
        m *= 2


def reference_poisson_ts(rate):
    """The former Poisson sampler, kept as the reference: per row a Poisson
    count of uniform positions on the window, sorted by (row, value) with
    np.lexsort; a row that is empty, holds two events within MIN_GAP or does
    not straddle the origin is redrawn one row at a time, in row order."""

    def draw(rng, window, k):
        lo, hi = window
        counts = rng.poisson(rate * (hi - lo), k)
        vals = lo + (hi - lo) * rng.random(int(counts.sum()))
        vals = vals[np.lexsort((vals, np.repeat(np.arange(k), counts)))]
        return np.split(vals, np.cumsum(counts)[:-1])

    def flawed(row):
        straddles = row.size > 0 and row[0] <= 0.0 < row[-1]
        return not straddles or bool(np.any(np.diff(row) <= MIN_GAP))

    def batch(rng, need, n):
        # a plain window reaches the sampler as Need(before=-lo, after=hi);
        # the rows fill that window and the clip to it changes nothing
        window = (-need.before, need.after)
        rows = draw(rng, window, n)
        for i in range(n):
            while flawed(rows[i]):
                (rows[i],) = draw(rng, window, 1)
        offsets = np.concatenate(([0], np.cumsum([r.size for r in rows])))
        windows = np.tile(np.array(window, dtype=np.float64), (n, 1))
        return PatternBatch(np.concatenate(rows), offsets, windows, np.ones(n))

    return ProcessModel(LAW_TS, {"model": "reference_poisson_ts", "rate": rate}, 1.0 / rate, batch)


# (label, model factory, window, sub-windows (a, b] whose per-row counts are
# compared); the sub-windows sit at both window edges, next to the origin
# and, for the wide window, in the middle
CASES = [
    ("renewal_ts gamma(2,1)", lambda: renewal_ts_from_es(gamma_intervals(2.0, 1.0)),
     (-25.0, 25.0), [(-25.0, -20.0), (-3.0, 0.0), (0.0, 3.0), (20.0, 25.0), (-25.0, 25.0)]),
    ("renewal_es exp(1)", lambda: renewal_es(exponential(1.0)),
     (-25.0, 25.0), [(-25.0, -20.0), (-3.0, 0.0), (0.0, 3.0), (20.0, 25.0), (-25.0, 25.0)]),
    ("example84", lambda: example84_exact(1.0),
     (-15.0, 441.0), [(-15.0, -10.0), (-2.0, 0.0), (0.0, 2.0), (200.0, 210.0),
                      (431.0, 441.0), (-15.0, 441.0)]),
]

ROWS = 4 * CHUNK
Z_CRIT = 4.0
# asymptotic two-sample Kolmogorov-Smirnov critical value at level 1e-4
KS_CRIT = math.sqrt(-0.5 * math.log(0.5e-4))


def _statistics(model, window, subs, seed, stream):
    """Per-row counts in each sub-window and the straddling gap T_1 - T_0,
    over the rows that straddle the origin inside the window among ROWS
    rows drawn chunk by chunk, as one column each."""
    cols = []
    for ci in range(ROWS // CHUNK):
        batch = sample_window(model, chunk_rng(seed, stream, ci), window, CHUNK)
        rep = np.repeat(np.arange(batch.n), np.diff(batch.offsets))
        pts = batch.points
        counts = [np.bincount(rep[(pts > a) & (pts <= b)], minlength=batch.n)
                  for a, b in subs]
        pos0 = batch.pos0()
        ok = batch.straddled(pos0)
        gap = pts[np.where(ok, pos0 + 1, 0)] - pts[np.where(ok, pos0, 0)]
        cols.append(np.column_stack(counts + [gap])[ok])
    return np.vstack(cols).astype(np.float64)


def _ks(x, y):
    grid = np.union1d(x, y)
    fx = np.searchsorted(np.sort(x), grid, side="right") / x.size
    fy = np.searchsorted(np.sort(y), grid, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def _assert_same_law(new, ref, label):
    for k in range(new.shape[1]):
        x, y = new[:, k], ref[:, k]
        z = (x.mean() - y.mean()) / math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
        assert abs(z) < Z_CRIT, f"{label} statistic {k}: z = {z:.2f}"
        d = _ks(x, y)
        assert d < KS_CRIT * math.sqrt(1.0 / x.size + 1.0 / y.size), \
            f"{label} statistic {k}: KS D = {d:.4f}"


@pytest.mark.parametrize("slack", [models.GAP_SLACK, 0.0], ids=["default", "c=0"])
@pytest.mark.parametrize("label, factory, window, subs", CASES, ids=[c[0] for c in CASES])
def test_same_law_as_reference(monkeypatch, slack, label, factory, window, subs):
    """Per-row counts in fixed sub-windows and the straddling gap length have
    the same law under the sampler and under the reference rule.

    16,384 rows per side at fixed seeds (independent streams).  Each
    statistic passes a two-sample z-test on its mean (|z| < 4) and a
    two-sample Kolmogorov-Smirnov test at level 1e-4 (D < 3.15/sqrt(n) with
    n rows per side).  Power: a mean shift of 0.058 standard deviations
    ((4 + 1.28) * sqrt(2/n)) is caught with probability 0.9, and so is a
    difference of 0.038 between the two distribution functions
    ((2.23 + 1.22) * sqrt(2/n)).  With c = 0 about half the rows of every
    side go through the top-up path.
    """
    monkeypatch.setattr(models, "GAP_SLACK", slack)
    new = _statistics(factory(), window, subs, 91, "gap-draws:new")

    def reference(*args):
        cum, keep = reference_side_cumsum(*args)
        return [(slice(None), cum)], keep

    monkeypatch.setattr(models, "_side_cumsum", reference)
    ref = _statistics(factory(), window, subs, 92, "gap-draws:ref")
    _assert_same_law(new, ref, label)


# (window, sub-windows) for poisson_ts(1.0); on (-3, 3) about 10% of the rows
# do not straddle the origin inside the window, and both sides compare the
# rows that do
POISSON_CASES = [
    ((-25.0, 25.0), [(-25.0, -20.0), (-3.0, 0.0), (0.0, 3.0), (20.0, 25.0), (-25.0, 25.0)]),
    ((-3.0, 3.0), [(-3.0, -2.0), (-1.0, 0.0), (0.0, 1.0), (2.0, 3.0), (-3.0, 3.0)]),
    ((-15.0, 441.0), [(-15.0, -10.0), (-2.0, 0.0), (0.0, 2.0), (200.0, 210.0),
                      (431.0, 441.0), (-15.0, 441.0)]),
]


@pytest.mark.parametrize("window, subs", POISSON_CASES, ids=[str(c[0]) for c in POISSON_CASES])
def test_poisson_same_law_as_former_sampler(window, subs):
    """poisson_ts (anchored, exponential gaps) against the Poisson sampler
    it replaced, with the statistics and tests of test_same_law_as_reference:
    per-row counts in fixed sub-windows and the straddling gap length, on
    the rows that straddle the origin inside the window (the law the
    former sampler drew by redraw)."""
    new = _statistics(poisson_ts(1.0), window, subs, 94, "poisson:new")
    ref = _statistics(reference_poisson_ts(1.0), window, subs, 95, "poisson:ref")
    _assert_same_law(new, ref, f"poisson_ts on {window}")


def _check_side_cumsum(dist, slack, k, r):
    """Laid side by side, every row is an increasing run of partial sums
    that keeps exactly what the stopping rule asks: through the first sum
    at or past max(span, c_q + r), q being k sums past the last one within
    span (checked here row by row in plain Python); rows short of that
    after the first block are exactly the ones that were topped up."""
    span = 30.0
    blocks, keep = models._side_cumsum(np.random.default_rng(3), dist, 2000, span, k, r)
    cum = np.full((2000, max(b.shape[1] for _, b in blocks)), np.inf)
    models._put_side(blocks, np.add, np.zeros((2000, 1)), cum)
    for row, m in zip(cum, keep):
        sums = [0.0] + [float(c) for c in row if math.isfinite(c)]
        assert all(a <= b for a, b in zip(sums, sums[1:]))
        q = sum(c <= span for c in sums[1:]) + k
        t = max(span, sums[q] + r)
        assert m == next(j for j, c in enumerate(sums) if c >= t)
    per = (span + r) / dist.mean + k
    first = int(per) + max(1, int(slack * (math.sqrt(per + 1.0) + 1.0)))
    topped = np.zeros(2000, dtype=bool)
    for rows, _ in blocks[1:]:
        topped[rows] = True
    assert np.array_equal(topped, keep > first)
    if slack == 0.0:
        assert topped.mean() > 0.3


GAP_LAWS = [exponential(1.0), gamma_intervals(0.25, 0.25), gamma_intervals(2.0, 1.0)]


@pytest.mark.parametrize("slack", [models.GAP_SLACK, 0.0], ids=["default", "c=0"])
@pytest.mark.parametrize("dist", GAP_LAWS, ids=lambda d: d.label)
def test_side_cumsum_rows(monkeypatch, slack, dist):
    """The rows drawn for a span alone: each keeps its sums through the
    first one past the span (see _check_side_cumsum)."""
    monkeypatch.setattr(models, "GAP_SLACK", slack)
    _check_side_cumsum(dist, slack, 0, 0.0)


@pytest.mark.parametrize("slack", [models.GAP_SLACK, 0.0], ids=["default", "c=0"])
@pytest.mark.parametrize("dist", GAP_LAWS, ids=lambda d: d.label)
def test_side_cumsum_rows_hold_events_and_radius_past_the_span(monkeypatch, slack, dist):
    """The rows drawn for a span, 3 events past it and a time radius of 2.5
    past those (see _check_side_cumsum)."""
    monkeypatch.setattr(models, "GAP_SLACK", slack)
    _check_side_cumsum(dist, slack, 3, 2.5)


def _stop_reference(row, span, k, r):
    """_stop's docstring rule for one row of sums, in plain Python: the
    sums kept through the first c_m >= max(span, c_q + r), q being k past
    the last sum within span (c_0 = 0), or -1 where the row ends first."""
    sums = [0.0, *map(float, row)]
    q = sum(c <= span for c in sums[1:]) + k
    if q >= len(sums):
        return -1
    t = max(span, sums[q] + r)
    return next((m for m, c in enumerate(sums) if c >= t), -1)


# half-unit gaps, spans and radii make sums land exactly on span and on
# c_q + r, zero gaps repeat a sum; the free floats cover the rest
GAPS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5]),
                 st.floats(0.01, 3.0, allow_nan=False, allow_infinity=False))


@st.composite
def stop_cases(draw):
    n = draw(st.integers(1, 8))
    w = draw(st.integers(1, 6))
    gaps = np.array(draw(st.lists(GAPS, min_size=n * w, max_size=n * w))).reshape(n, w)
    span = draw(st.sampled_from([0.0, 1.0, 2.5, 3.0, 4.7]))
    k = draw(st.integers(0, 3))
    r = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 0.3]))
    return np.cumsum(gaps, axis=1), span, k, r


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stop_cases())
def test_stop_matches_its_rule_row_by_row(case):
    """_stop's whole-array counts against its rule applied to each row
    alone: sums equal to span and to c_q + r, k = 0, r = 0, width-1 rows
    and rows too short to tell (-1)."""
    cum, span, k, r = case
    got = models._stop(cum, span, k, r)
    assert got.dtype == np.int64
    assert got.tolist() == [_stop_reference(row, span, k, r) for row in cum]


def test_stop_edge_rows():
    """Hand-picked rows: a sum exactly on span, one exactly on c_q + r, a
    width-1 row that tells and one that does not, and a zero span."""
    cum = np.array([[1.0, 2.0, 3.0], [0.5, 2.0, 2.5], [2.0, 2.5, 4.0]])
    assert models._stop(cum, 2.0, 0, 0.0).tolist() == [2, 2, 1]
    assert models._stop(cum, 2.0, 1, 0.0).tolist() == [3, 3, 2]
    assert models._stop(cum, 2.0, 0, 1.0).tolist() == [3, -1, 3]
    assert models._stop(cum, 0.0, 0, 0.0).tolist() == [0, 0, 0]
    assert models._stop(np.array([[3.0], [1.0]]), 2.0, 0, 0.0).tolist() == [1, -1]


@pytest.mark.parametrize("label, factory, window, bound", [
    ("renewal_ts gamma(2,1)", lambda: renewal_ts_from_es(gamma_intervals(2.0, 1.0)),
     (-25.0, 25.0), 1.45),
    ("example84", lambda: example84_exact(1.0), (-15.0, 441.0), 1.18),
    ("poisson_ts", lambda: poisson_ts(1.0), (-15.0, 15.0), 1.42),
], ids=["renewal_ts gamma(2,1)", "example84", "poisson_ts"])
def test_gaps_drawn_per_event_kept(monkeypatch, label, factory, window, bound):
    """Gaps drawn per event kept on a fixed-seed 4096-row batch, at most
    about 10% above the measured 1.31, 1.07 and 1.29 (with c = 3 the rule
    drew 2.08, 1.18 and 1.87; the generous rule it replaced drew 4.7 and
    1.6 on the first two)."""
    drawn = []
    sample = IntervalDistribution.sample

    def counting(self, rng, size):
        out = sample(self, rng, size)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(IntervalDistribution, "sample", counting)
    batch = sample_window(factory(), chunk_rng(93, "gap-draws:count", 0), window, CHUNK)
    assert sum(drawn) / batch.points.size <= bound


# (label, model factory); pstar re-centers a Gamma(2) renewal law
NEED_CASES = [
    ("poisson_ts", lambda: poisson_ts(1.0)),
    ("renewal_ts gamma(2,1)", lambda: renewal_ts_from_es(gamma_intervals(2.0, 1.0))),
    ("renewal_es exp(1)", lambda: renewal_es(exponential(1.0))),
    ("example84", lambda: example84_exact(1.0)),
    ("pstar renewal_es gamma(2,1)", lambda: pstar_model(renewal_es(gamma_intervals(2.0, 1.0)))),
]

# what the statistics below read: every event in (-2, 2], and T_-3..T_3
# (three events past T_0 and two past T_1, even where no event but the
# anchors lies within 2 of them)
NEED = Need(before=2.0, after=2.0, left=3, right=2)


def _event_statistics(sample, seed, stream):
    """Per row: the gaps between T_-3 and T_3 (six columns), T_1, and the
    counts in (-2, 0] and (0, 2], over ROWS rows drawn chunk by chunk by
    sample(rng, n)."""
    cols = []
    for ci in range(ROWS // CHUNK):
        batch = sample(chunk_rng(seed, stream, ci), CHUNK)
        pos0, pts = batch.pos0(), batch.points
        assert np.all(pos0 - 3 >= batch.offsets[:-1]) and np.all(pos0 + 3 < batch.offsets[1:])
        ev = pts[pos0[:, None] + np.arange(-3, 4)]
        rep = np.repeat(np.arange(batch.n), np.diff(batch.offsets))
        counts = [np.bincount(rep[(pts > a) & (pts <= b)], minlength=batch.n)
                  for a, b in ((-2.0, 0.0), (0.0, 2.0))]
        cols.append(np.column_stack([np.diff(ev, axis=1), ev[:, 4], *counts]))
    return np.vstack(cols).astype(np.float64)


@pytest.mark.parametrize("label, factory", NEED_CASES, ids=[c[0] for c in NEED_CASES])
def test_event_indexed_rows_same_law_as_time_window(label, factory):
    """Rows drawn to a Need against rows of the time window (-40, 40), with
    the tests of test_same_law_as_reference, on the statistics a kernel
    with that need reads: the six gaps from T_-3 to T_3, T_1, and the
    counts in (-2, 0] and (0, 2].  No event-indexed row is short of them."""
    model = factory()
    new = _event_statistics(lambda rng, n: model.sample_batch(rng, NEED, n), 96, "need:new")
    ref = _event_statistics(lambda rng, n: sample_window(model, rng, (-40.0, 40.0), n), 97,
                            "need:ref")
    _assert_same_law(new, ref, f"{label} event-indexed")


def test_gamma2_gaps_same_law_as_generator_gamma():
    """Gamma(2, rate) gaps, drawn as -log((1 - u1)(1 - u2)) / rate, against
    Generator.gamma(2, 1/rate) on 65,536 draws each (independent streams):
    a two-sample z-test on the mean and on the mean of the logarithm, and
    the two-sample Kolmogorov-Smirnov test at level 1e-4."""
    n, rate = 16 * CHUNK, 1.5
    new = gamma_intervals(2.0, rate).sample(chunk_rng(98, "gamma2:new", 0), (n // 64, 64))
    ref = chunk_rng(99, "gamma2:ref", 0).gamma(2.0, 1.0 / rate, n)
    assert new.shape == (n // 64, 64) and np.all(new > 0.0)
    new = new.ravel()
    for f in (lambda x: x, np.log):
        x, y = f(new), f(ref)
        z = (x.mean() - y.mean()) / math.sqrt(x.var(ddof=1) / n + y.var(ddof=1) / n)
        assert abs(z) < Z_CRIT
    assert _ks(new, ref) < KS_CRIT * math.sqrt(2.0 / n)
