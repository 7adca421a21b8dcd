"""Seedable exact samplers for every process law the toolkit verifies.

Samplers fill the requested window; estimators choose windows wide enough
that shifted evaluations inside their analysis region never reach the
edge.  All samplers are pure functions of (generator, window), so
replications are reproducible and parallelism-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import InsufficientContext, InsufficientWindow, NoMean, UnknownTilt
from .pattern import MIN_GAP, PatternBatch

LAW_TS = "TS"
LAW_ES = "ES"
LAW_TILTED_TS = "TILTED_TS"
LAW_DETERMINISTIC = "DETERMINISTIC"


# -- interval distributions ------------------------------------------------


@dataclass(frozen=True)
class IntervalDistribution:
    """Positive gap law with an exact sampler, exact mean, and an exact
    sampler of its length-biased version (density x f(x) / mean)."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in ("exponential", "gamma", "deterministic", "uniform"):
            raise ValueError(f"unknown interval family {self.family!r}")

    @property
    def mean(self) -> float:
        if self.family == "exponential":
            return 1.0 / self.params[0]
        if self.family == "gamma":
            shape, rate = self.params
            return shape / rate
        if self.family == "deterministic":
            return self.params[0]
        a, b = self.params
        return 0.5 * (a + b)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.family == "exponential":
            return rng.exponential(1.0 / self.params[0], size)
        if self.family == "gamma":
            shape, rate = self.params
            return rng.gamma(shape, 1.0 / rate, size)
        if self.family == "deterministic":
            return np.full(size, self.params[0])
        a, b = self.params
        return rng.uniform(a, b, size)

    def sample_length_biased(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.family == "exponential":
            return rng.gamma(2.0, 1.0 / self.params[0], size)
        if self.family == "gamma":
            shape, rate = self.params
            return rng.gamma(shape + 1.0, 1.0 / rate, size)
        if self.family == "deterministic":
            return np.full(size, self.params[0])
        # inverse CDF of x f(x)/m on [a, b]: F(x) = (x^2 - a^2)/(b^2 - a^2)
        a, b = self.params
        u = rng.random(size)
        return np.sqrt(a * a + u * (b * b - a * a))

    @property
    def label(self) -> str:
        inner = ",".join(repr(p) for p in self.params)
        return f"{self.family}({inner})"


def exponential(rate: float) -> IntervalDistribution:
    if not rate > 0:
        raise ValueError("need rate > 0")
    return IntervalDistribution("exponential", (float(rate),))


def gamma_intervals(shape: float, rate: float) -> IntervalDistribution:
    if not (shape > 0 and rate > 0):
        raise ValueError("need shape > 0 and rate > 0")
    return IntervalDistribution("gamma", (float(shape), float(rate)))


def deterministic(value: float) -> IntervalDistribution:
    if not value > 0:
        raise ValueError("need value > 0")
    return IntervalDistribution("deterministic", (float(value),))


def uniform_intervals(a: float, b: float) -> IntervalDistribution:
    if not (0 <= a < b):
        raise ValueError("need 0 <= a < b")
    return IntervalDistribution("uniform", (float(a), float(b)))


# -- weight functionals (tilts) ---------------------------------------------


@dataclass(frozen=True)
class Tilt:
    """Nonnegative weight functional of the straddling gaps.

    Registered families read only the gaps around the origin, so their
    value is constant while the origin moves inside the straddling
    interval; that property is what identity checks on the re-centered
    law rely on.
    """

    name: str
    params: tuple[float, ...]

    def value_batch(self, batch: PatternBatch) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the value at the row's own origin and whether the row
        stores every gap the tilt reads (see values_at)."""
        pos0 = batch.pos0()
        return self.values_at(batch.points, pos0, batch.straddled(pos0), batch.offsets[1:])

    def values_at(self, points, i, ok, row_end) -> tuple[np.ndarray, np.ndarray]:
        """Values read from the gap (points[i], points[i+1]) and the ones
        after it, per row, and the rows whose values are defined: those
        where ok (the gap is stored) and every further gap read ends before
        the row's end offset row_end.  Values are 0 where not defined."""
        if self.name not in ("identity", "alpha0", "alpha01"):
            raise UnknownTilt(self.name)
        if self.name == "alpha01":
            ok = ok & (i + 2 < row_end)
        i = i[ok]
        values = np.zeros(ok.size)
        if self.name == "identity":
            values[ok] = 1.0
        elif self.name == "alpha0":
            values[ok] = self.params[0] * (points[i + 1] - points[i])
        else:
            g0, g1 = self.params
            values[ok] = g0 * (points[i + 1] - points[i]) + g1 * (points[i + 2] - points[i + 1])
        return values, ok

    @property
    def label(self) -> str:
        inner = ",".join(repr(p) for p in self.params)
        return f"{self.name}({inner})"


def make_tilt(name: str, *params: float) -> Tilt:
    if name == "identity":
        return Tilt("identity", ())
    if name == "alpha0":
        (c,) = params
        if not c > 0:
            raise UnknownTilt("alpha0 tilt needs c > 0")
        return Tilt("alpha0", (float(c),))
    if name == "alpha01":
        g0, g1 = params
        if g0 < 0 or g1 < 0 or (g0 == 0 and g1 == 0):
            raise UnknownTilt("alpha01 tilt needs nonnegative weights, not both zero")
        return Tilt("alpha01", (float(g0), float(g1)))
    raise UnknownTilt(name)


@dataclass(frozen=True)
class TiltInfo:
    """How a law relates to a time-stationary base: weight functional,
    base intensity, and a sampler of the base's event-centered law."""

    tilt: Tilt
    base_rate: float
    base_palm: Callable[[], "ProcessModel"]


# -- core model type ---------------------------------------------------------


class ProcessModel:
    """A named law with a batch sampler and metadata used by estimators."""

    def __init__(
        self,
        law_tag: str,
        descriptor: dict,
        scale: float,
        batch_fn: Callable[[np.random.Generator, tuple[float, float], int], PatternBatch],
        *,
        exact_rate: float | None = None,
        interval: IntervalDistribution | None = None,
        tilt_info: TiltInfo | None = None,
        palm_factory: Callable[[], "ProcessModel"] | None = None,
    ):
        self.law_tag = law_tag
        self.descriptor = dict(descriptor)
        self.scale = float(scale)
        self.exact_rate = exact_rate
        self.interval = interval
        self.tilt_info = tilt_info
        self._batch_fn = batch_fn
        self._palm_factory = palm_factory

    @property
    def is_ts(self) -> bool:
        return self.law_tag == LAW_TS

    @property
    def is_es(self) -> bool:
        return self.law_tag == LAW_ES

    @property
    def is_deterministic(self) -> bool:
        return self.law_tag == LAW_DETERMINISTIC

    def sample_batch(self, rng, window, n: int) -> PatternBatch:
        return self._batch_fn(rng, window, n)

    def palm_companion(self) -> "ProcessModel | None":
        """The event-stationary law standing to this one as its Palm version."""
        return self._palm_factory() if self._palm_factory is not None else None

    @property
    def label(self) -> str:
        name = self.descriptor.get("model", self.law_tag)
        rest = ",".join(
            f"{k}={v}" for k, v in sorted(self.descriptor.items()) if k != "model"
        )
        return f"{name}({rest})"

    def __repr__(self):
        return f"<ProcessModel {self.label} [{self.law_tag}]>"


# -- batch assembly helpers ---------------------------------------------------


# redraw_rows gives up on a row after this many rejected draws in a row:
# the window is then too small for the law to fill it
MAX_ROW_DRAWS = 10_000


def redraw_rows(batch: PatternBatch, bad: np.ndarray, draw_row) -> PatternBatch:
    """Replace each flagged row's points, window and weight, in row order,
    with the first one-row batch that draw_row() returns; None rejects a
    draw, and MAX_ROW_DRAWS rejections for one row raise InsufficientWindow."""
    if not bad.any():
        return batch
    windows = batch.windows.copy()
    weights = batch.weights.copy()
    counts = np.diff(batch.offsets)
    # the kept points between flagged rows go over in one piece each
    pieces, kept_from = [], 0
    for i in np.flatnonzero(bad):
        for _ in range(MAX_ROW_DRAWS):
            row = draw_row()
            if row is not None:
                break
        else:
            raise InsufficientWindow(
                f"no acceptable row in {MAX_ROW_DRAWS} draws: the window is too small for the law")
        pieces += [batch.points[kept_from:batch.offsets[i]], row.points]
        kept_from = batch.offsets[i + 1]
        windows[i], weights[i], counts[i] = row.windows[0], row.weights[0], row.points.size
    pieces.append(batch.points[kept_from:])
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return PatternBatch(np.concatenate(pieces), offsets, windows, weights)


def _redraw_flawed(batch: PatternBatch, draw, flaws) -> PatternBatch:
    """Redraw the rows flaws(batch) flags from draw(1) until one passes."""
    def draw_row():
        row = draw(1)
        return None if flaws(row)[0] else row

    return redraw_rows(batch, flaws(batch), draw_row)


def _row_flaws(batch: PatternBatch) -> np.ndarray:
    """Rows that are empty or hold two events within MIN_GAP."""
    bad = np.diff(batch.offsets) == 0
    tiny = np.diff(batch.points) <= MIN_GAP
    # a difference across a row boundary compares two rows' events
    inner = batch.offsets[1:-1]
    tiny[inner[(inner > 0) & (inner <= tiny.size)] - 1] = False
    bad[np.searchsorted(batch.offsets[1:], np.flatnonzero(tiny), side="right")] = True
    return bad


def _straddle_flaws(batch: PatternBatch) -> np.ndarray:
    """The rows _row_flaws flags and those that do not straddle the origin
    inside their window (poisson_ts's row rule)."""
    return _row_flaws(batch) | ~batch.straddled(batch.pos0())


# slack of the gap draws, in standard deviations of a Poisson count: a side
# draws per + c*sqrt(per + 1) + c gaps for a span of per mean gaps, and a row
# still short of the span gets blocks of c*sqrt(per + 1) + c more gaps
GAP_SLACK = 1.0


def _side_cumsum(rng, dist: IntervalDistribution, n_rows: int, span: float) -> list:
    """Per-row cumulative sums of i.i.d. gaps, each row drawn until a sum
    exceeds span, as blocks (rows, sums) laid side by side.

    The first block holds every row.  Each later block tops up only the
    rows still short of span and continues their sums.  Whether a row draws
    again reads only its own sums, so every row stays an i.i.d. gap
    sequence.
    """
    per = max(span, 0.0) / dist.mean
    extra = max(1, int(GAP_SLACK * (math.sqrt(per + 1.0) + 1.0)))
    cum = dist.sample(rng, (n_rows, int(per) + extra))
    np.cumsum(cum, axis=1, out=cum)
    blocks = [(slice(None), cum)]
    rows = np.flatnonzero(cum[:, -1] <= span)
    last = cum[rows, -1]
    while rows.size:
        top = dist.sample(rng, (rows.size, extra))
        top[:, 0] += last
        np.cumsum(top, axis=1, out=top)
        blocks.append((rows, top))
        short = top[:, -1] <= span
        rows, last = rows[short], top[short, -1]
    return blocks


def _used_columns(blocks, inside) -> int:
    """Number of leading columns of the side-by-side blocks in which some
    row is inside (a boolean function of a block), for rows that leave the
    window monotonically (inside is a per-row prefix)."""
    used = start = 0
    for _, b in blocks:
        k = int(np.count_nonzero(inside(b).any(axis=0)))
        if k:
            used = start + k
        start += b.shape[1]
    return used


def _put_columns(blocks, dst: np.ndarray, pad: float) -> None:
    """Write the leading columns of the side-by-side blocks into dst, with
    pad where a row has no draw."""
    k = dst.shape[1]
    start = 0
    for rows, b in blocks:
        if start >= k:
            break
        w = min(b.shape[1], k - start)
        if start:
            dst[:, start:start + w] = pad
        dst[rows, start:start + w] = b[:, :w]
        start += b.shape[1]


def _assemble_two_sided(
    rng,
    window,
    n: int,
    anchors: np.ndarray,
    left_dist: IntervalDistribution,
    right_dist: IntervalDistribution,
) -> PatternBatch:
    """Anchor columns (ascending per row) plus i.i.d. gaps extending to both
    window edges; events outside the window are discarded."""
    lo, hi = window
    left = _side_cumsum(rng, left_dist, n, float(np.max(anchors[:, 0]) - lo))
    right = _side_cumsum(rng, right_dist, n, float(hi - np.min(anchors[:, -1])))
    # event times outward from the anchors; the trailing columns that no row
    # keeps are left out of the matrix, which drops no event
    for rows, b in left:
        np.subtract(anchors[rows, :1], b, out=b)
    for rows, b in right:
        np.add(anchors[rows, -1:], b, out=b)
    kl = _used_columns(left, lambda b: b >= lo)
    kr = _used_columns(right, lambda b: b <= hi)
    ka = anchors.shape[1]
    matrix = np.empty((n, kl + ka + kr))
    _put_columns(left, matrix[:, :kl][:, ::-1], -np.inf)
    matrix[:, kl:kl + ka] = anchors
    _put_columns(right, matrix[:, kl + ka:], np.inf)
    valid = (matrix >= lo) & (matrix <= hi)
    counts = valid.sum(axis=1)
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    windows = np.tile(np.array(window, dtype=np.float64), (n, 1))
    return PatternBatch(matrix[valid], offsets, windows, np.ones(n))


def _check_window(window) -> tuple[float, float]:
    lo, hi = float(window[0]), float(window[1])
    if not (-math.inf < lo < 0.0 < hi < math.inf):
        raise InsufficientWindow(f"window must be finite and contain the origin, got ({lo}, {hi})")
    return lo, hi


def _anchored_ts(straddle_length, d: IntervalDistribution, flaws):
    """Batch sampler of a time-stationary law built from its event-centered
    one: the origin-straddling gap has the law of straddle_length(rng, k),
    the origin lands uniformly inside it, and i.i.d. gaps of law d extend
    outward on both sides.  Rows that flaws (a row rule) flags are redrawn."""

    def batch(rng, window, n):
        _check_window(window)

        def draw(k: int) -> PatternBatch:
            length = straddle_length(rng, k)
            u = rng.random(k)
            t0 = -u * length
            anchors = np.column_stack((t0, t0 + length))
            return _assemble_two_sided(rng, window, k, anchors, d, d)

        return _redraw_flawed(draw(n), draw, flaws)

    return batch


# -- model factories ----------------------------------------------------------


def poisson_ts(rate: float) -> ProcessModel:
    """Time-stationary homogeneous Poisson law: the renewal law with
    exponential gaps, built by inversion from its event-centered law, so the
    straddling gap is Gamma(2, rate).  Unlike the other laws, its rows are
    conditioned (by redraw) on straddling the origin inside the window."""
    d = exponential(rate)
    return ProcessModel(
        LAW_TS,
        {"model": "poisson_ts", "rate": rate},
        1.0 / rate,
        _anchored_ts(d.sample_length_biased, d, _straddle_flaws),
        exact_rate=rate,
        interval=d,
        palm_factory=lambda: renewal_es(d),
    )


def renewal_es(d: IntervalDistribution) -> ProcessModel:
    """Event-stationary renewal law: an event at exactly 0 and i.i.d. gaps
    extended independently to both window edges.  Rows with two events
    within MIN_GAP are redrawn, as in every other sampler."""

    def batch(rng, window, n):
        _check_window(window)

        def draw(k: int) -> PatternBatch:
            return _assemble_two_sided(rng, window, k, np.zeros((k, 1)), d, d)

        return _redraw_flawed(draw(n), draw, _row_flaws)

    return ProcessModel(
        LAW_ES,
        {"model": "renewal_es", "interval": d.label},
        d.mean,
        batch,
        interval=d,
    )


def renewal_ts_from_es(d: IntervalDistribution) -> ProcessModel:
    """Time-stationary renewal law built by inversion: the origin-straddling
    gap is drawn length-biased, the origin lands uniformly inside it, and
    i.i.d. gaps extend outward on both sides."""
    mean = d.mean
    if not (math.isfinite(mean) and mean > 0):
        raise NoMean("interval distribution must have a finite positive mean")
    return ProcessModel(
        LAW_TS,
        {"model": "renewal_ts", "interval": d.label},
        mean,
        _anchored_ts(d.sample_length_biased, d, _row_flaws),
        exact_rate=1.0 / mean,
        interval=d,
        palm_factory=lambda: renewal_es(d),
    )


def tilted_ts(base: ProcessModel, tilt: Tilt) -> ProcessModel:
    """Importance sampler for the law obtained by reweighting a TS base with
    the given functional; estimators self-normalize the weights."""
    if not base.is_ts:
        raise ValueError("tilted_ts needs a time-stationary base model")
    if base.exact_rate is None:
        raise ValueError("tilted_ts needs a base with known intensity")
    base_rate = base.exact_rate

    def batch(rng, window, n):
        out = base.sample_batch(rng, window, n)
        sigma, ok = tilt.value_batch(out)
        if not ok.all():
            raise InsufficientContext("tilt evaluation needs origin-straddling patterns "
                                      "that store every gap the tilt reads")
        return PatternBatch(out.points, out.offsets, out.windows, out.weights * sigma)

    return ProcessModel(
        LAW_TILTED_TS,
        dict(base.descriptor, model="tilted_ts", base=base.descriptor["model"], tilt=tilt.label),
        base.scale,
        batch,
        tilt_info=TiltInfo(tilt, base_rate, lambda: base.palm_companion()),
    )


def example84_exact(rate: float) -> ProcessModel:
    """Exact unweighted sampler of the gap-reweighted Poisson law: the
    origin-straddling gap has a Gamma(3, rate) length with the origin
    uniform inside it, and plain exponential gaps extend outward."""
    if not rate > 0:
        raise ValueError("need rate > 0")
    return ProcessModel(
        LAW_TILTED_TS,
        {"model": "example84", "rate": rate},
        1.0 / rate,
        _anchored_ts(lambda rng, k: rng.gamma(3.0, 1.0 / rate, k), exponential(rate),
                     _row_flaws),
        tilt_info=TiltInfo(
            make_tilt("alpha0", rate / 2.0), rate, lambda: renewal_es(exponential(rate))
        ),
    )


# -- the non-AMS lattice construction ----------------------------------------


def example44_run_lengths(k_max: int) -> list[int]:
    """Block lengths a(1..k_max): a(k) repeats the previous value at even k
    and jumps to the running total at odd k."""
    a = [4]
    for k in range(2, k_max + 1):
        a.append(a[-1] if k % 2 == 0 else sum(a))
    return a


def example44_block_ends(k_max: int) -> list[int]:
    """Cumulative block ends b(1..k_max)."""
    out = []
    total = 0
    for ak in example44_run_lengths(k_max):
        total += ak
        out.append(total)
    return out


def example44_labels(n: int) -> np.ndarray:
    """The 0/1 label sequence x_1..x_n: blocks alternate 1-runs and 0-runs
    with the run lengths above."""
    k = 1
    while example44_block_ends(k)[-1] < n:
        k += 1
    runs = np.repeat(1 - np.arange(k) % 2, example44_run_lengths(k))
    return runs[:n].astype(np.int8)


def example44_times(n: int) -> np.ndarray:
    """Event times T_1..T_n+1 of the realization: T_1 = 1, and gap i is 1
    where x_i = 1 and 2 where x_i = 0 (exact integers)."""
    return np.concatenate(([1.0], 1.0 + np.cumsum(2.0 - example44_labels(n))))


def example44_cesaro_exact(n: int) -> Fraction:
    """Exact running average of the labels, as a rational."""
    labels = example44_labels(n)
    return Fraction(int(labels.sum()), n)


def example44(pattern_len: int) -> ProcessModel:
    """Deterministic realization of the non-AMS label sequence: unit gaps at
    and left of the origin, and gap i equal to 1 where x_i = 1 and 2 where
    x_i = 0, so the indicator of [alpha_0 = 1] seen from event i is x_i."""
    if pattern_len < 1:
        raise ValueError("need pattern_len >= 1")
    right = example44_times(pattern_len)

    def batch(rng, window, n):
        lo, hi = _check_window(window)
        if hi > right[-1]:
            raise InsufficientWindow(
                f"window reaches {hi} but the realization stops at {right[-1]}; "
                f"increase pattern_len"
            )
        left = -np.arange(0.0, -lo + 1.0)  # 0, -1, -2, ...
        left = left[left >= lo][::-1]
        pts = np.concatenate((left, right[right <= hi]))
        counts = np.full(n, pts.size, dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        windows = np.tile(np.array((lo, hi), dtype=np.float64), (n, 1))
        return PatternBatch(np.tile(pts, n), offsets, windows, np.ones(n))

    return ProcessModel(
        LAW_DETERMINISTIC,
        {"model": "example44", "pattern_len": pattern_len},
        1.5,
        batch,
    )


def example44_natural_window(pattern_len: int) -> tuple[float, float]:
    """simulate's default window: from -2.5 to the last stored event, T_n+1."""
    return (-2.5, float(example44_times(pattern_len)[-1]))


# -- config round trip --------------------------------------------------------


def _interval_to_config(d: IntervalDistribution) -> dict:
    cfg = {"interval": d.family}
    if d.family == "exponential":
        cfg["rate"] = d.params[0]
    elif d.family == "gamma":
        cfg["shape"], cfg["rate"] = d.params
    elif d.family == "deterministic":
        cfg["value"] = d.params[0]
    else:
        cfg["lo"], cfg["hi"] = d.params
    return cfg


def _interval_from_config(cfg) -> IntervalDistribution:
    family = cfg["interval"]
    if family == "exponential":
        return exponential(float(cfg["rate"]))
    if family == "gamma":
        return gamma_intervals(float(cfg["shape"]), float(cfg["rate"]))
    if family == "deterministic":
        return deterministic(float(cfg["value"]))
    if family == "uniform":
        return uniform_intervals(float(cfg["lo"]), float(cfg["hi"]))
    raise ValueError(f"unknown interval family {family!r}")


def model_to_config(model: ProcessModel) -> dict:
    """Flat key-value descriptor with stable field names."""
    name = model.descriptor["model"]
    cfg = {"model": name}
    if name == "poisson_ts":
        cfg["rate"] = model.exact_rate
    elif name in ("renewal_es", "renewal_ts"):
        cfg.update(_interval_to_config(model.interval))
    elif name == "example84":
        cfg["rate"] = model.descriptor["rate"]
    elif name == "example44":
        cfg["pattern_len"] = model.descriptor["pattern_len"]
    elif name == "tilted_ts":
        cfg["base"] = model.descriptor["base"]
        cfg["rate"] = model.descriptor["rate"]
        tilt = model.tilt_info.tilt
        cfg["tilt"] = tilt.name
        for i, p in enumerate(tilt.params):
            cfg[f"tilt_p{i}"] = p
    else:
        raise ValueError(f"cannot serialize model {name!r}")
    return cfg


def model_from_config(cfg) -> ProcessModel:
    name = cfg.get("model")
    if name == "poisson_ts":
        return poisson_ts(float(cfg["rate"]))
    if name == "renewal_es":
        return renewal_es(_interval_from_config(cfg))
    if name == "renewal_ts":
        return renewal_ts_from_es(_interval_from_config(cfg))
    if name == "example84":
        return example84_exact(float(cfg["rate"]))
    if name == "example44":
        return example44(int(cfg["pattern_len"]))
    if name == "tilted_ts":
        base_name = cfg.get("base", "poisson_ts")
        if base_name != "poisson_ts":
            raise ValueError("tilted_ts config supports poisson_ts bases")
        base = poisson_ts(float(cfg["rate"]))
        tilt_params = []
        i = 0
        while f"tilt_p{i}" in cfg:
            tilt_params.append(float(cfg[f"tilt_p{i}"]))
            i += 1
        return tilted_ts(base, make_tilt(cfg["tilt"], *tilt_params))
    raise ValueError(f"unknown model {name!r}")
