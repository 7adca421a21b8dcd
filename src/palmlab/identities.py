"""Registry of distributional identities checked by paired Monte Carlo runs.

Each entry evaluates a left and a right side with independent seed
streams and passes when |lhs - rhs| <= Z_CRIT * combined s.e. + atol.
Entries may probe several parameter values (k, n, x or y); the report
carries the worst probe.  The probes of a check share one sampling per
side, to the union of their needs, so each probe's lhs and rhs stay
independent.  The exception is the right side of I-3.13, a ratio of two
intensities: its numerator and denominator keep separate streams, since
on shared draws their ratio would be est_shifted_palm's own estimator,
and the check would compare that estimator with itself.

Z_CRIT = 4 with atol = 0.002 is meant to keep the family-wise
false-failure rate of the default suite (58 checks, 102 probes) low, but
that rate is not yet confirmed: over 300 seeds of the suite at budget
4096, 2 runs had a failing row (0.7%, 95% interval roughly 0.1-2.4%).
That figure was measured on the Philox chunk stream, before chunks moved
to SFC64; it is to be re-measured on the current stream (ROADMAP item 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ams import convert_es_to_ts, convert_ts_to_es
from .errors import NotApplicable, ZeroDenominator
from .estimate import (
    Estimate,
    est_event_probability,
    est_intensity,
    est_intermediate,
    est_palm_zero,
    est_shifted_palm,
    mc_mean,
    point_bins,
    row_need,
    _binned_events,
    _bins,
    _marked,
    _members,
    _reject_from_codes,
)
from .events import (
    Eventuality,
    Positions,
    SUITE_BATTERY,
    _kleene_and,
    ev_straddle,
    ev_true,
    parse_eventuality,
    straddle_codes,
)
from .models import (
    Need,
    ProcessModel,
    example84_exact,
    gamma_intervals,
    poisson_ts,
    pstar_model,
    renewal_ts_from_es,
)

Z_CRIT = 4.0
ATOL = 0.002


@dataclass(frozen=True)
class RunParams:
    budget: int
    seed: int
    threads: int
    check: str  # "<identity id>:<model label>", the prefix of every stream tag

    def side(self, name: str) -> dict:
        """Seed, stream and threads of one side of the check: its stream is
        tagged "<identity id>:<model label>:<name>", so the checks of one
        identity on different models draw from different streams."""
        return dict(seed=self.seed, stream=f"{self.check}:{name}", threads=self.threads)


@dataclass(frozen=True)
class IdentitySpec:
    id: str
    description: str
    needs_eventuality: bool
    applies: Callable[[ProcessModel], bool]
    run: Callable[[ProcessModel, tuple, RunParams], list]
    atol: float = ATOL
    budget_factor: float = 1.0


@dataclass(frozen=True)
class IdentityReport:
    id: str
    model: str
    eventuality: str
    probe: str
    lhs: Estimate
    rhs: Estimate
    z: float
    verdict: str  # "pass" | "fail"
    budget: int


# -- small estimate arithmetic -------------------------------------------------


def _exact(value: float) -> Estimate:
    return Estimate(float(value), 0.0, 0, 0, 0.0)


def _scaled(est: Estimate, factor: float) -> Estimate:
    return Estimate(est.value * factor, est.std_error * abs(factor),
                    est.reps, est.rejected, est.ess)


def _inverted(est: Estimate) -> Estimate:
    v = est.value
    return Estimate(1.0 / v, est.std_error / (v * v), est.reps, est.rejected, est.ess)


def _indep_ratio(num: Estimate, den: Estimate) -> Estimate:
    """num / den of two independent estimates, its s.e. by the delta method;
    a zero numerator keeps its own s.e., and a zero denominator (no event
    in an intensity's bin) raises ZeroDenominator, as ratio_estimate does."""
    if den.value == 0.0:
        raise ZeroDenominator("no occurrences observed in the denominator")
    v = num.value / den.value
    se = math.hypot(num.std_error / den.value, v * den.std_error / den.value)
    return Estimate(v, se, num.reps, num.rejected + den.rejected,
                    min(num.ess, den.ess) if num.ess and den.ess else 0.0)


def combined_se(a: Estimate, b: Estimate) -> float:
    return math.hypot(a.std_error, b.std_error)


# -- shared kernels -------------------------------------------------------------


def _count_rate(model: ProcessModel, rp: RunParams, side: str) -> Estimate:
    """Occurrence rate of all events on (0, 10 mean gaps]."""
    ((rate,),) = est_intensity(model, [ev_true()], [0.0, 10.0 * model.scale], rp.budget,
                               **rp.side(side))
    return rate.estimate


def _mean_alpha0(model: ProcessModel, rp: RunParams, side: str) -> Estimate:
    def kernel(batch, ctx):
        t0, t1, ok = ctx.gap(ctx.pos0())
        return [(np.where(ok, t1 - t0, 0.0), ~ok)]

    # the straddling gap is the anchors' own
    (est,) = mc_mean(model, Need(), kernel, rp.budget, **rp.side(side))
    return est


def _gap_at(ctx, y: float) -> np.ndarray:
    """Per replication: array position of the gap containing y, that is of
    its left end (an event exactly at y owns its right gap)."""
    return ctx.last_le(np.full(ctx.batch.n, y), np.arange(ctx.batch.n))


def _probe_means(model, need, probes, kernel, rp: RunParams, side: str) -> list:
    """One mc_mean over all probes: kernel(batch, ctx, p) gives probe p's
    (values, reject) pairs, and each probe gets its list of Estimates."""
    def joint(batch, ctx):
        return [pair for p in probes for pair in kernel(batch, ctx, p)]

    ests = mc_mean(model, need, joint, rp.budget, **rp.side(side))
    m = len(ests) // len(probes)
    return [ests[i * m:(i + 1) * m] for i in range(len(probes))]


# -- identity runners ------------------------------------------------------------
#
# A runner gets a group of eventualities (or (None,) for identities that
# take none) and evaluates every member on the same draws, sampled to the
# need of its kernel and the whole group (row_need).  It returns probes
# (note, lhs, rhs); each field is one value shared by all members or a list
# with one value per member.  Its kernels read a gap through ctx.gap and
# return one (values, reject) pair per member, so mc_mean gives one
# Estimate per member; a kernel that takes no eventuality returns a list of
# one.
#
# The probes of a check share one sampling per side, to the union of their
# needs, with one member per (probe, eventuality) (_probe_means); only an
# estimator that takes the probe as a parameter (est_intermediate's n) is
# called once per probe.  Each side has its own stream, rp.side(name), so a
# probe's lhs and rhs stay independent, as combined_se assumes.  I-3.13's
# numerator and denominator are two sides of their own: on shared draws
# their ratio would be est_shifted_palm's estimator, the lhs itself.


def _run_i23(model, group, rp):
    lhs = _count_rate(model, rp, "L")

    def kernel(batch, ctx):
        t0, t1, ok = ctx.gap(ctx.pos0())
        return [(np.where(ok, 1.0 / (t1 - t0), 0.0), ~ok)]

    (rhs,) = mc_mean(model, Need(), kernel, rp.budget, **rp.side("R"))
    return [("rate vs E(1/alpha0)", lhs, rhs)]


def _run_i24(model, group, rp):
    x1, x2 = 5.0 * model.scale, 20.0 * model.scale
    lhs = est_palm_zero(model, group, x1, rp.budget, **rp.side("L"))
    rhs = est_palm_zero(model, group, x2, rp.budget, **rp.side("R"))
    return [(f"x={x1:g} vs x={x2:g}", lhs, rhs)]


def _run_i26(model, group, rp):
    palm = model.palm_companion()
    lam = model.exact_rate
    # the lhs does not depend on k: one estimate serves both probes
    lhs = est_event_probability(model, group, rp.budget, **rp.side("L"))

    def kernel(batch, ctx, k):
        # integrate over (T_-k, T_-k+1]
        return [A.integrate_gap(ctx, ctx.pos0() - k, True) for A in group]

    ks = (0, 1)
    # a shift in (T_-1, T_1] is seen from T_-1, T_0 or T_1
    rhs = _probe_means(palm, row_need(group, at=(-1, 1)), ks, kernel, rp, "R")
    return [(f"k={k}", lhs, [_scaled(est, lam) for est in ests]) for k, ests in zip(ks, rhs)]


def _run_i27a(model, group, rp):
    palm = model.palm_companion()
    lam = model.exact_rate
    ns = (0, 1)
    lhs = [est_intermediate(model, n, group, rp.budget, **rp.side(f"n{n}:L")) for n in ns]

    def kernel(batch, ctx, n):
        t_lo, t_hi, ok = ctx.gap(ctx.pos0() - n)
        return [_marked(A.at_origin(ctx), ok, t_hi - t_lo) for A in group]

    # the gaps read reach back to T_-max(ns)
    need = row_need(group) | Need(left=max(ns))
    rhs = _probe_means(palm, need, ns, kernel, rp, "R")
    return [(f"n={n}", lhs_n, [_scaled(est, lam) for est in ests])
            for n, lhs_n, ests in zip(ns, lhs, rhs)]


def _run_i27b(model, group, rp):
    lam = model.exact_rate
    ns = (0, 1)
    lhs = est_palm_zero(model, group, 10.0 * model.scale, rp.budget, **rp.side("L"))

    def kernel(batch, ctx, n):
        pos0 = ctx.pos0()
        t0, t1, ok = ctx.gap(pos0)
        e = np.clip(pos0 + n, 0, max(batch.points.size - 1, 0))
        ok = ok & (pos0 + n >= ctx.off_lo) & (pos0 + n < ctx.off_hi)
        rows = np.arange(batch.n)
        return [_marked(A.at_events(ctx, e, rows), ok, 1.0 / (t1 - t0)) for A in group]

    rhs = _probe_means(model, row_need(group, at=(min(ns), max(ns))), ns, kernel, rp, "R")
    return [(f"n={n}", lhs, [_scaled(est, 1.0 / lam) for est in ests])
            for n, ests in zip(ns, rhs)]


def _i28c_partner(A: Eventuality) -> Eventuality:
    partner = parse_eventuality("T1<=0.5")
    return parse_eventuality("count(0,1]==0") if partner == A else partner


def _pairing_kernel(pairs):
    """Per pair (f, g): [f at the origin] times the mean of [g] over the
    straddling gap."""

    def kernel(batch, ctx):
        pos0 = ctx.pos0()
        t0, t1, ok = ctx.gap(pos0)
        out = []
        for f, g in pairs:
            codes = f.at_origin(ctx)
            integrals, reject = g.integrate_gap(ctx, pos0, codes == 1)
            # a row where f fails counts, with value 0
            reject &= ~(ok & (codes == 0))
            out.append((np.divide(integrals, t1 - t0, out=np.zeros(batch.n), where=~reject),
                        reject))
        return out

    return kernel


def _run_i28c(model, group, rp):
    partners = [_i28c_partner(A) for A in group]
    # one need covers every member and every partner, at the origin and
    # over the straddling gap
    need = row_need([*group, *partners], at=(0, 1))
    pairs = list(zip(group, partners))
    lhs = mc_mean(model, need, _pairing_kernel(pairs), rp.budget, **rp.side("L"))
    rhs = mc_mean(model, need, _pairing_kernel([(g, f) for f, g in pairs]),
                  rp.budget, **rp.side("R"))
    return [([f"partner={partner.label}" for partner in partners], lhs, rhs)]


def _run_i210c(model, group, rp):
    xs = [mult * model.scale for mult in (0.5, 1.0, 3.0)]

    def kernel(batch, ctx, x):
        t0, t1, ok = ctx.gap(ctx.pos0())
        # count in the half-open [x+T0, x+T1): events <= the float below each end
        rows = np.arange(batch.n)
        cnt = (ctx.last_le(np.nextafter(x + t1, -np.inf), rows)
               - ctx.last_le(np.nextafter(x + t0, -np.inf), rows))
        ok = ok & (x + t1 <= ctx.whi)
        return [(np.where(ok, cnt / (t1 - t0), 0.0), ~ok)]

    # the counts read up to x + T_1
    lhs = _probe_means(model, Need(after=max(xs)), xs, kernel, rp, "L")
    return [(f"x={x:g}", est, _exact(model.exact_rate)) for x, (est,) in zip(xs, lhs)]


def _run_i37(model, group, rp):
    # span sets the truncation of the integral over shifted laws; 14 mean
    # gaps keeps the discarded tail well inside this identity's atol.
    # The bin width drives the discretization bias of the straddle
    # condition, which is first order in the width.
    width = 0.1 * model.scale
    span = 14.0 * model.scale
    ks = (0, 1)
    lhs = [est_intermediate(model, k, group, rp.budget, **rp.side(f"k{k}:L")) for k in ks]
    # k=0 integrates over bins on (-span, 0], k=1 over bins on (0, span]
    bins = [_bins(np.arange(lo, lo + span + width / 2, width)) for lo in (-span, 0.0)]
    # every event of the bins is seen with the members and both straddles
    need = row_need([*group, *(ev_straddle(k, 0.0) for k in ks)], before=span, after=span,
                    at=(0, 1))

    def kernel(batch, ctx, k):
        # [T_-k <= -x < T_-k+1] with x the centre of each event's bin
        e, rep, bin_idx = _binned_events(batch, ctx, bins[k])
        codes_b = straddle_codes(Positions(ctx, ctx.points[e], rep, known=e), k,
                                 bins[k][bin_idx].mean(axis=1))
        pairs = []
        for A in group:
            both = _kleene_and(A.at_events(ctx, e, rep), codes_b)
            vals = np.bincount(rep[both == 1], minlength=batch.n).astype(np.float64)
            pairs.append((vals, _reject_from_codes(batch.n, rep, both)))
        return pairs

    rhs = _probe_means(model, need, ks, kernel, rp, "R")
    return [(f"k={k}", lhs_k, rhs_k) for k, lhs_k, rhs_k in zip(ks, lhs, rhs)]


def _run_i313(model, group, rp):
    xs = [x * model.scale for x in (-1.0, 0.5)]
    bins, at = point_bins(xs, 0.05 * model.scale)
    lhs = est_shifted_palm(model, group, bins, rp.budget, **rp.side("L"))
    # numerator and denominator on streams of their own (see the runner notes)
    num = est_intensity(model, group, bins, rp.budget, **rp.side("RA"))
    (den,) = est_intensity(model, [ev_true()], bins, rp.budget, **rp.side("RB"))
    return [(f"x={x:g}", [prof[b].estimate for prof in lhs],
             [_indep_ratio(prof[b].estimate, den[b].estimate) for prof in num])
            for x, b in zip(xs, at)]


def _run_i44(model, group, rp):
    ts_member, es_member = _companion_pair(model)
    lhs1 = convert_es_to_ts(es_member, group, rp.budget, **rp.side("es2ts:L"))
    rhs1 = est_event_probability(ts_member, group, rp.budget, **rp.side("es2ts:R"))
    lhs2 = convert_ts_to_es(ts_member, group, rp.budget, **rp.side("ts2es:L"))
    rhs2 = est_event_probability(es_member, group, rp.budget, **rp.side("ts2es:R"))
    return [("es->ts", lhs1, rhs1), ("ts->es", lhs2, rhs2)]


def _run_i45(model, group, rp):
    ts_member, es_member = _companion_pair(model)
    lhs = _count_rate(ts_member, rp, "L")
    rhs = _inverted(_mean_alpha0(es_member, rp, "R"))
    return [("rate vs 1/mean gap", lhs, rhs)]


def _delta0_kernel(tilt, lam: float, members):
    """Kernel of lam * alpha0 * sigma at the base's event, one column per
    member, times its indicator at the origin.  Rows that lack a gap sigma
    reads (ok implies straddling) are rejected, not fatal."""
    def kernel(batch, ctx):
        pos0 = ctx.pos0()
        t0, t1, ok = ctx.gap(pos0)
        sigma, ok = tilt.values_at(ctx.points, pos0, ok, ctx.off_hi)
        vals = lam * (t1 - t0) * sigma
        return [_marked(A.at_origin(ctx), ok, vals) for A in members]
    return kernel


def _run_i52a(model, group, rp):
    lhs = est_intermediate(model, 0, group, rp.budget, **rp.side("L"))
    # the normalization is the member ev_true() of the rhs sampling
    kernel = _delta0_kernel(model.tilt, model.untilted.exact_rate, [ev_true(), *group])
    need = row_need(group) | model.tilt.need
    norm, *rhs = mc_mean(model.untilted.palm_companion(), need, kernel, rp.budget,
                         **rp.side("R"))
    return [("normalization", norm, _exact(1.0)), ("reweighted", lhs, rhs)]


def _run_i71b(model, group, rp):
    lhs = est_event_probability(model, group, rp.budget, **rp.side("L"))
    rhs = est_event_probability(pstar_model(model), group, rp.budget, **rp.side("R"))
    return [("uniform re-centering fixed point", lhs, rhs)]


def _run_i81a(model, group, rp):
    ys = [y * model.scale for y in (0.0, 1.0, -1.0, 2.0, -2.0)]
    bins, at = point_bins(ys, 0.025 * model.scale)
    (lhs,) = est_intensity(model, [ev_true()], bins, rp.budget, **rp.side("L"))
    # the gap holding -y starts at most one event outside the extent, and
    # the tilt reads on from there
    y_max = max(map(abs, ys))
    need = Need(before=y_max, after=y_max, left=1, right=model.tilt.need.right + 1)

    def kernel(batch, ctx, y):
        # sigma applied to the view from -y; values are 0 where undefined
        i = _gap_at(ctx, -y)
        _, _, stored = ctx.gap(i)
        vals, ok = model.tilt.values_at(ctx.points, i, stored, ctx.off_hi)
        return [(vals, ~ok)]

    rhs = _probe_means(model.untilted.palm_companion(), need, ys, kernel, rp, "R")
    return [(f"y={y:g}", lhs[b].estimate, _scaled(est, model.untilted.exact_rate))
            for y, b, (est,) in zip(ys, at, rhs)]


def _run_i84rho(model, group, rp):
    lam = model.untilted.exact_rate
    xs = [x * model.scale for x in (-1.0, 0.5)]
    bins, at = point_bins(xs, 0.05 * model.scale)
    lhs = est_shifted_palm(model, group, bins, rp.budget, **rp.side("L"))

    def kernel(batch, ctx, x):
        t_lo, t_hi, ok = ctx.gap(_gap_at(ctx, -x))
        return [_marked(A.at_origin(ctx), ok, t_hi - t_lo) for A in group]

    # the gap holding -x ends at most one event outside the extent
    x_max = max(map(abs, xs))
    need = row_need(group) | Need(before=x_max, after=x_max, left=1, right=1)
    rhs = _probe_means(model.untilted.palm_companion(), need, xs, kernel, rp, "R")
    return [(f"x={x:g}", [prof[b].estimate for prof in lhs],
             [_scaled(est, lam / (2.0 - math.exp(-lam * abs(x)))) for est in ests])
            for x, b, ests in zip(xs, at, rhs)]


# -- applicability --------------------------------------------------------------


def _is_ts(model: ProcessModel) -> bool:
    return model.is_ts


def _has_palm_pair(model: ProcessModel) -> bool:
    return model.is_ts and model.palm_companion() is not None and model.exact_rate is not None


def _has_interval_pair(model: ProcessModel) -> bool:
    return model.interval is not None and (model.is_ts or model.is_es)


def _is_tilted(model: ProcessModel) -> bool:
    return model.tilt is not None


def _companion_pair(model: ProcessModel):
    """(TS law, its Palm version) of a law with an interval pair."""
    if model.is_ts:
        return model, model.palm_companion()
    return renewal_ts_from_es(model.interval), model


REGISTRY: tuple[IdentitySpec, ...] = (
    IdentitySpec("I-2.3", "count rate equals the mean inverse straddling gap",
                 False, _is_ts, _run_i23),
    IdentitySpec("I-2.4", "event-centered ratio estimate is invariant in the window length",
                 True, _is_ts, _run_i24),
    IdentitySpec("I-2.6", "inversion: plain probability from the event-centered law",
                 True, _has_palm_pair, _run_i26),
    IdentitySpec("I-2.7a", "re-centered law as a gap-weighted event-centered mean",
                 True, _has_palm_pair, _run_i27a),
    IdentitySpec("I-2.7b", "event-centered law as an inverse-gap-weighted plain mean",
                 True, _is_ts, _run_i27b),
    IdentitySpec("I-2.8c", "symmetry of gap-averaged pairings",
                 True, _is_ts, _run_i28c),
    IdentitySpec("I-2.10c", "displaced straddling-interval count rate is the intensity",
                 False, _is_ts, _run_i210c),
    IdentitySpec("I-3.7", "re-centered law as a binned integral of shifted event-centered laws",
                 True, _is_tilted, _run_i37, atol=0.01, budget_factor=2.0),
    IdentitySpec("I-3.13", "shifted event-centered law equals the intensity ratio",
                 True, _is_tilted, _run_i313),
    IdentitySpec("I-4.4", "stationary limit conversions agree with direct simulation",
                 True, _has_interval_pair, _run_i44),
    IdentitySpec("I-4.5", "limit count rate is the inverse limit mean gap",
                 False, _has_interval_pair, _run_i45),
    IdentitySpec("I-5.2a", "re-centered density against the base event-centered law",
                 True, _is_tilted, _run_i52a),
    IdentitySpec("I-7.1b", "shift-local weight makes the law a re-centering fixed point",
                 True, _is_tilted, _run_i71b),
    IdentitySpec("I-8.1a", "intensity profile from the shifted weight functional",
                 False, _is_tilted, _run_i81a),
    IdentitySpec("I-8.4rho", "shifted event-centered law from the gap-length reweighting",
                 True, _is_tilted, _run_i84rho),
)

REGISTRY_BY_ID = {spec.id: spec for spec in REGISTRY}

DEFAULT_SUITE_MODELS = (
    poisson_ts(1.0),
    renewal_ts_from_es(gamma_intervals(2.0, 1.0)),
    example84_exact(1.0),
)


def _member(value, i: int):
    """Member i's share of a probe field (a list holds one value per member)."""
    return value[i] if isinstance(value, list) else value


def _report(spec: IdentitySpec, model: ProcessModel, label: str, probes,
            budget: int) -> IdentityReport:
    """The verdict over all probes, carrying the worst one."""
    worst = None
    all_pass = True
    for note, lhs, rhs in probes:
        se = combined_se(lhs, rhs)
        diff = abs(lhs.value - rhs.value)
        z = diff / se if se > 0 else (math.inf if diff > spec.atol else 0.0)
        ok = diff <= Z_CRIT * se + spec.atol
        all_pass &= ok
        if worst is None or z > worst[3]:
            worst = (note, lhs, rhs, z)
    note, lhs, rhs, z = worst
    return IdentityReport(spec.id, model.label, label, note, lhs, rhs, z,
                          "pass" if all_pass else "fail", budget)


def check_identity(
    spec: IdentitySpec,
    model: ProcessModel,
    A,
    budget: int = 100_000,
    *,
    seed: int = 2026,
    threads: int = 1,
) -> list[IdentityReport]:
    """Evaluate one identity on one model, one report per member of the
    group A; a report carries the worst probe.

    A group is a sequence of eventualities evaluated on one set of draws,
    sampled to the union of what its members need; A=None (for identities
    that take none) gets a list of one report.  A member's report depends
    only on that member and that need, so a member whose own need is the
    group's gets the report of that member checked alone.

    The probes share the draws too: each side samples once, to the union
    of its probes' needs, on the stream "<spec.id>:<model label>:<side>",
    so a probe's two sides stay independent.  I-3.13's intensity ratio keeps separate
    streams for its numerator and denominator, which on shared draws
    would give est_shifted_palm's estimator, its own lhs.
    """
    if not spec.applies(model):
        raise NotApplicable(f"{spec.id} does not apply to {model.label}")
    if spec.needs_eventuality and A is None:
        raise ValueError(f"{spec.id} needs an eventuality")
    group = (None,) if A is None else _members(A)
    rp = RunParams(int(budget * spec.budget_factor), seed, threads, f"{spec.id}:{model.label}")
    probes = spec.run(model, group, rp)
    return [
        _report(spec, model, ev.label if spec.needs_eventuality else "-",
                [tuple(_member(field, i) for field in probe) for probe in probes],
                rp.budget)
        for i, ev in enumerate(group)
    ]


def run_suite(
    models: Sequence[ProcessModel] = DEFAULT_SUITE_MODELS,
    budget: int = 100_000,
    *,
    seed: int = 2026,
    battery: Sequence[Eventuality] = SUITE_BATTERY,
    only: str | None = None,
    threads: int = 1,
) -> list[IdentityReport]:
    """Every applicable (identity, model, battery-eventuality) triple, in
    deterministic order; non-applicable pairs are skipped.  The whole
    battery is checked as one group (see check_identity): one set of draws
    per (identity, model), to the union of its members' needs, with rows in
    battery order.  An only that names no identity raises ValueError."""
    if only is not None and only not in REGISTRY_BY_ID:
        raise ValueError(f"unknown identity id {only!r}; known ids: {', '.join(REGISTRY_BY_ID)}")
    kw = dict(seed=seed, threads=threads)
    reports = []
    for spec in REGISTRY:
        if only is not None and spec.id != only:
            continue
        for model in models:
            if not spec.applies(model):
                continue
            if not spec.needs_eventuality:
                reports.extend(check_identity(spec, model, None, budget, **kw))
            elif battery:
                reports.extend(check_identity(spec, model, battery, budget, **kw))
    return reports
