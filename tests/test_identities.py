import hashlib
import math

import numpy as np
import pytest

from palmlab import ams, estimate, identities
from palmlab.errors import NotApplicable, ZeroDenominator
from palmlab.estimate import Estimate, _binned_events, _bins
from palmlab.events import (
    SUITE_BATTERY,
    EventContext,
    Positions,
    ev_straddle,
    ev_true,
    parse_eventuality,
    straddle_codes,
)
from palmlab.identities import (
    DEFAULT_SUITE_MODELS,
    REGISTRY,
    REGISTRY_BY_ID,
    _delta0_kernel,
    _i28c_partner,
    _indep_ratio,
    check_identity,
    run_suite,
)
from palmlab.models import (
    example84_exact,
    example44,
    exponential,
    gamma_intervals,
    make_tilt,
    poisson_ts,
    renewal_es,
    sample_window,
)
from palmlab.rng import chunk_rng

from conftest import rows_batch

A_GAP = parse_eventuality("alpha(0)>1")

# The suite battery plus T1<=0.5, whose I-2.8c partner differs from the
# other members' (the partner swap).
JOINT_BATTERY = tuple(SUITE_BATTERY) + (parse_eventuality("T1<=0.5"),)
# reads what A_GAP reads, with the same I-2.8c partner: the two need the
# same of every row in every identity
TWIN = parse_eventuality("alpha(0)>0.5")
# reads every event and time any member of JOINT_BATTERY reads, partners
# included, so its need is the need of any group it is in
WIDEST = parse_eventuality("((alpha(-1)>0.5 & count(0,1]==0) | T1<=0.5)")
JOINT_CASES = [(spec, model) for spec in REGISTRY if spec.needs_eventuality
               for model in DEFAULT_SUITE_MODELS if spec.applies(model)]


SUITE_CASES = [(spec, model) for spec in REGISTRY for model in DEFAULT_SUITE_MODELS
               if spec.applies(model)]

# run_kernel calls of one check on a default model: one sampling per side,
# shared by the probes, plus one lhs per n or k where the estimator takes it
# (est_intermediate); I-3.13's intensity ratio keeps separate streams for
# its numerator and denominator, and I-4.4 has two pairs of sides.
CALLS_PER_CHECK = {
    "I-2.3": 2, "I-2.4": 2, "I-2.6": 2, "I-2.7a": 3, "I-2.7b": 2, "I-2.8c": 2,
    "I-2.10c": 1, "I-3.7": 3, "I-3.13": 3, "I-4.4": 4, "I-4.5": 2, "I-5.2a": 2,
    "I-7.1b": 2, "I-8.1a": 2, "I-8.4rho": 2,
}


@pytest.fixture
def kernel_calls(monkeypatch):
    """(window, stream) of every run_kernel call made by the test, in order."""
    calls = []
    run = estimate.run_kernel

    def recording(model, window, *args, **kwargs):
        calls.append((window, kwargs["stream"]))
        return run(model, window, *args, **kwargs)

    monkeypatch.setattr(estimate, "run_kernel", recording)
    # ams imports run_kernel by name
    monkeypatch.setattr(ams, "run_kernel", recording)
    return calls


def need_groups(battery=JOINT_BATTERY + (TWIN,)):
    """The battery's members grouped by what they declare they read (and
    their I-2.8c partner): members of one group need the same of every row
    in every identity."""
    groups: dict = {}
    for A in battery:
        groups.setdefault((A.reach, A.radius, _i28c_partner(A)), []).append(A)
    return list(groups.values())


class TestRegistry:
    def test_ids_unique_and_described(self):
        ids = [s.id for s in REGISTRY]
        assert len(ids) == len(set(ids))
        assert all(s.description for s in REGISTRY)

    def test_expected_ids_present(self):
        expected = {
            "I-2.3", "I-2.4", "I-2.6", "I-2.7a", "I-2.7b", "I-2.8c",
            "I-2.10c", "I-3.7", "I-3.13", "I-4.4", "I-4.5", "I-5.2a",
            "I-7.1b", "I-8.1a", "I-8.4rho",
        }
        assert {s.id for s in REGISTRY} == expected

    def test_applicability_split(self):
        poisson = poisson_ts(1.0)
        e84 = DEFAULT_SUITE_MODELS[2]
        stationary_ids = {"I-2.3", "I-2.4", "I-2.6", "I-2.7a", "I-2.7b",
                          "I-2.8c", "I-2.10c", "I-4.4", "I-4.5"}
        tilted_ids = {"I-3.7", "I-3.13", "I-5.2a", "I-7.1b", "I-8.1a", "I-8.4rho"}
        assert {s.id for s in REGISTRY if s.applies(poisson)} == stationary_ids
        assert {s.id for s in REGISTRY if s.applies(e84)} == tilted_ids
        es = renewal_es(gamma_intervals(2.0, 1.0))
        assert {s.id for s in REGISTRY if s.applies(es)} == {"I-4.4", "I-4.5"}


class TestCheckIdentity:
    def test_not_applicable_raises(self):
        es = renewal_es(exponential(1.0))
        with pytest.raises(NotApplicable):
            check_identity(REGISTRY_BY_ID["I-2.3"], es, None, 100)

    def test_needs_eventuality(self):
        with pytest.raises(ValueError):
            check_identity(REGISTRY_BY_ID["I-2.4"], poisson_ts(1.0), None, 100)

    @pytest.mark.parametrize("ident", ["I-2.3", "I-2.4"])
    def test_group_contract_edges(self, ident):
        # an empty group and a bare eventuality are errors, not groups
        with pytest.raises(ValueError):
            check_identity(REGISTRY_BY_ID[ident], poisson_ts(1.0), [], 100)
        with pytest.raises(TypeError):
            check_identity(REGISTRY_BY_ID[ident], poisson_ts(1.0), A_GAP, 100)

    def test_report_shape(self):
        # None is a group of one report
        (rep,) = check_identity(REGISTRY_BY_ID["I-2.3"], poisson_ts(1.0), None,
                                20_000, seed=3)
        assert rep.id == "I-2.3"
        assert rep.eventuality == "-"
        assert rep.verdict in ("pass", "fail")
        assert rep.lhs.reps == rep.budget

    def test_rate_two_poisson(self):
        (rep,) = check_identity(REGISTRY_BY_ID["I-2.3"], poisson_ts(2.0), None,
                                20_000, seed=3)
        assert rep.verdict == "pass"
        assert abs(rep.lhs.value - 2.0) <= 3 * rep.lhs.std_error + 0.01

    @pytest.mark.parametrize("d", [gamma_intervals(2.0, 1.0), exponential(1.0)],
                             ids=["gamma2", "exponential"])
    @pytest.mark.parametrize("ident", ["I-4.4", "I-4.5"])
    def test_event_stationary_law_pairs_with_its_inversion(self, ident, d):
        # an ES law is checked against the time-stationary law built from
        # the same gaps
        spec = REGISTRY_BY_ID[ident]
        group = SUITE_BATTERY if spec.needs_eventuality else None
        reports = check_identity(spec, renewal_es(d), group, 16_384, seed=7)
        assert [r.verdict for r in reports] == ["pass"] * len(reports)

    def test_seed_swap_stability(self):
        for seed in (11, 12):
            (rep,) = check_identity(REGISTRY_BY_ID["I-4.5"], poisson_ts(1.0), None,
                                    30_000, seed=seed)
            assert rep.verdict == "pass"
        for seed in (11, 12):
            (rep,) = check_identity(REGISTRY_BY_ID["I-5.2a"],
                                    DEFAULT_SUITE_MODELS[2], [A_GAP],
                                    30_000, seed=seed)
            assert rep.verdict == "pass"


class TestRunSuite:
    def test_empty_model_list(self):
        assert run_suite([], 100) == []

    def test_example44_has_no_applicable_identities(self):
        # the deterministic lattice law is neither stationary nor a
        # reweighting of one; its diagnostics live in the trace machinery
        reports = run_suite([example44(60)], 100)
        assert reports == []

    def test_only_filter(self):
        reports = run_suite([poisson_ts(1.0)], 10_000, only="I-2.3", seed=5)
        assert [r.id for r in reports] == ["I-2.3"]
        assert reports[0].verdict == "pass"

    def test_unknown_only_raises(self):
        # a typo in only must not pass as an empty, failure-free suite
        with pytest.raises(ValueError, match="I-2.3"):
            run_suite([poisson_ts(1.0)], 1_000, only="I-9.9")

    def test_deterministic_given_seed(self):
        a = run_suite([poisson_ts(1.0)], 5_000, only="I-2.10c", seed=9)
        b = run_suite([poisson_ts(1.0)], 5_000, only="I-2.10c", seed=9)
        assert a == b

    def test_triple_enumeration(self):
        reports = run_suite([poisson_ts(1.0)], 2_000, only="I-2.4", seed=2)
        assert len(reports) == len(SUITE_BATTERY)
        assert {r.eventuality for r in reports} == {e.label for e in SUITE_BATTERY}

    def test_budget_monotonicity(self):
        # quadrupling the budget must not surface hidden bias: verdicts
        # stay green and z-scores stay in the unbiased range
        m = poisson_ts(1.0)
        for ident in ("I-2.3", "I-2.10c", "I-4.5"):
            (small,) = check_identity(REGISTRY_BY_ID[ident], m, None, 10_000, seed=4)
            (big,) = check_identity(REGISTRY_BY_ID[ident], m, None, 40_000, seed=4)
            assert small.verdict == big.verdict == "pass"
            assert big.z <= 4.0

    def test_default_suite_pinned(self):
        # every report of the default suite, byte for byte: a refactor that
        # keeps the draws and the arithmetic must keep this digest
        reports = run_suite(budget=4096, seed=3)
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
            "e93082dfdb3648e0307ef780354cd07b7495d2e452421bb242f32e205ceb1983")


class TestJointEvaluation:
    """A battery is checked on one set of draws, sampled to the union of
    its members' needs.  A member's report depends only on that member and
    that need: members sharing a need get their solo reports exactly."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("spec, model", JOINT_CASES,
                             ids=[f"{s.id}-{m.descriptor['model']}" for s, m in JOINT_CASES])
    def test_group_equals_solo(self, spec, model, threads):
        groups = need_groups()
        assert sorted(len(g) for g in groups) == [1, 1, 1, 2]
        for group in groups:
            joint = check_identity(spec, model, group, 1024, seed=17, threads=threads)
            solo = [rep for A in group
                    for rep in check_identity(spec, model, [A], 1024, seed=17, threads=threads)]
            assert joint == solo

    def test_group_equals_solo_across_chunks(self):
        # three chunks on a thread pool against one thread, member by member
        spec, model = REGISTRY_BY_ID["I-2.7b"], poisson_ts(1.0)
        group = [A_GAP, TWIN]
        joint = check_identity(spec, model, group, 9000, seed=19, threads=2)
        assert joint == [rep for A in group
                         for rep in check_identity(spec, model, [A], 9000, seed=19)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_suite_rows_equal_battery_check(self, threads):
        # 5000 replications: two chunks, so threads=2 runs them on the pool
        model = poisson_ts(1.0)
        reports = run_suite([model], 5000, seed=2, battery=JOINT_BATTERY, threads=threads)
        want = []
        for spec in REGISTRY:
            if not spec.applies(model):
                continue
            want.extend(check_identity(
                spec, model, JOINT_BATTERY if spec.needs_eventuality else None,
                5000, seed=2, threads=threads))
        assert reports == want
        assert [r.eventuality for r in reports if r.id == "I-2.4"] == [
            A.label for A in JOINT_BATTERY]

    @pytest.mark.parametrize("spec, model", JOINT_CASES,
                             ids=[f"{s.id}-{m.descriptor['model']}" for s, m in JOINT_CASES])
    def test_mixed_radius_group_uses_widest_window(self, spec, model, kernel_calls):
        # WIDEST first, then JOINT_BATTERY, whose count(0,1]==0 reads no
        # event and is dropped below
        battery = (WIDEST, *JOINT_BATTERY)
        wide = [A for A in battery if A.reach is not None]
        assert len(wide) == len(battery) - 1 and wide[0] == WIDEST
        joint = check_identity(spec, model, battery, 1024, seed=17)
        mixed_calls, kernel_calls[:] = list(kernel_calls), []
        without = check_identity(spec, model, wide, 1024, seed=17)
        wide_calls, kernel_calls[:] = list(kernel_calls), []
        (solo,) = check_identity(spec, model, [WIDEST], 1024, seed=17)
        # every identity samples to the needs of its widest member checked
        # alone, one per side (and per n or k for est_intermediate), whatever
        # else is in the group; and dropping a member whose need lies inside
        # leaves every other report bit-identical
        assert mixed_calls == wide_calls == kernel_calls
        assert [r for r, A in zip(joint, battery) if A.reach is not None] == without
        assert joint[0] == solo

    def test_identity_without_eventuality_reports_each_member(self):
        spec = REGISTRY_BY_ID["I-2.3"]
        reports = check_identity(spec, poisson_ts(1.0), [A_GAP, A_GAP], 1024, seed=3)
        solo = check_identity(spec, poisson_ts(1.0), None, 1024, seed=3)
        assert reports == solo + solo


class TestStreamsAndRejections:
    def test_models_of_one_identity_draw_different_streams(self, kernel_calls):
        # the stream tag names the model, so I-2.3's rows on poisson_ts and
        # renewal_ts do not share draws
        for model in DEFAULT_SUITE_MODELS[:2]:
            check_identity(REGISTRY_BY_ID["I-2.3"], model, None, 256, seed=17)
        streams = [stream for _, stream in kernel_calls]
        assert len(streams) == 4 and len(set(streams)) == 4
        assert [s.split(":")[1] for s in streams] == [DEFAULT_SUITE_MODELS[0].label] * 2 + [
            DEFAULT_SUITE_MODELS[1].label] * 2

    def test_index_based_members_are_never_rejected(self, monkeypatch):
        # every probe of every check of the default suite: rows are drawn
        # as far as their kernel reads, so no row of an index-based member
        # (nor of any identity that takes no eventuality) is rejected
        probes = []
        report = identities._report

        def recording(spec, model, label, member_probes, budget):
            probes.extend((spec.id, label, lhs, rhs) for _, lhs, rhs in member_probes)
            return report(spec, model, label, member_probes, budget)

        monkeypatch.setattr(identities, "_report", recording)
        reports = run_suite(budget=4096, seed=5)
        assert len(probes) > len(reports) == 58
        index_based = {"-", "alpha(0)>1", "alpha(-1)>0.5"}
        assert {label for _, label, _, _ in probes} == index_based | {"count(0,1]==0"}
        for ident, label, lhs, rhs in probes:
            if label in index_based:
                assert lhs.rejected == rhs.rejected == 0, (ident, label)


class TestSamplingsPerCheck:
    """The probes of a check share one sampling per side."""

    @pytest.mark.parametrize("spec, model", SUITE_CASES,
                             ids=[f"{s.id}-{m.descriptor['model']}" for s, m in SUITE_CASES])
    def test_calls_and_streams_pinned(self, spec, model, kernel_calls):
        check_identity(spec, model, SUITE_BATTERY if spec.needs_eventuality else None,
                       1024, seed=17)
        streams = [stream for _, stream in kernel_calls]
        assert len(streams) == CALLS_PER_CHECK[spec.id]
        # every side draws from its own stream, tagged with the identity id
        assert len(set(streams)) == len(streams)
        assert all(stream.startswith(f"{spec.id}:") for stream in streams)


@pytest.mark.parametrize("num, want", [
    ((0.0, math.inf), (0.0, math.inf)),
    ((0.0, 0.02), (0.0, 0.04)),
    ((0.3, 0.01), (0.6, 0.6 * math.hypot(0.01 / 0.3, 0.02))),
], ids=["empty-bin", "zero", "nonzero"])
def test_indep_ratio_delta_method(num, want):
    # (value, s.e.) over 0.5 +- 0.01: a zero numerator keeps its own
    # uncertainty, so 0 +- inf is not a certain 0
    got = _indep_ratio(Estimate(*num, 100, 0, 100.0), Estimate(0.5, 0.01, 100, 0, 100.0))
    assert (got.value, got.std_error) == pytest.approx(want, rel=1e-12)


def test_indep_ratio_empty_denominator_bin():
    # est_intensity reports an empty bin as 0 +- inf; a ratio over it is
    # undefined, not a float division error
    with pytest.raises(ZeroDenominator):
        _indep_ratio(Estimate(0.3, 0.01, 16, 0, 16.0), Estimate(0.0, math.inf, 16, 0, 0.0))


class TestI52aRows:
    """An event-centered base row with no event after 0 is rejected by
    I-5.2a's kernel instead of failing the chunk."""

    WINDOW = (-15.0, 15.0)
    ROWS = [[-1.0, 0.0, 0.7, 2.0], [-2.0, -0.5, 0.0], [-0.4, 0.0, 1.5, 1.6]]
    KEPT = [0, 2]

    @pytest.mark.parametrize("members", [(ev_true(),),
                                         (ev_true(), parse_eventuality("alpha(0)>1"))],
                             ids=["normalization", "members"])
    def test_row_without_positive_event(self, members):
        kernel = _delta0_kernel(make_tilt("alpha0", 0.5), 1.0, members)
        batch = rows_batch(self.ROWS, self.WINDOW)
        kept = rows_batch([self.ROWS[i] for i in self.KEPT], self.WINDOW)
        got = kernel(batch, EventContext(batch))
        ref = kernel(kept, EventContext(kept))
        for (vals, reject), (ref_vals, ref_reject) in zip(got, ref):
            assert reject.tolist() == [False, True, False]
            assert vals[1] == 0.0
            assert vals[self.KEPT].tobytes() == np.asarray(ref_vals).tobytes()
            assert not ref_reject.any()


@pytest.mark.parametrize("k", [0, 1])
def test_i37_straddle_codes_equal_per_bin_loop(k):
    """I-3.7's one straddle evaluation with per-event distances gives the
    codes of one ev_straddle per bin, byte for byte."""
    model = example84_exact(1.0)
    batch = sample_window(model, chunk_rng(5, "i37-codes", 0), (-45.0, 45.0), 512)
    ctx = EventContext(batch)
    width, span = 0.1 * model.scale, 14.0 * model.scale
    edges = (np.arange(-span, 0.0 + width / 2, width) if k == 0
             else np.arange(0.0, span + width / 2, width))
    centers = 0.5 * (edges[:-1] + edges[1:])
    e, rep, bin_idx = _binned_events(batch, ctx, _bins(edges))
    per_bin = np.empty(e.size, dtype=np.int8)
    for b, c in enumerate(centers):
        sel = bin_idx == b
        per_bin[sel] = ev_straddle(k, float(c)).at_events(ctx, e[sel], rep[sel])
    joint = straddle_codes(Positions(ctx, ctx.points[e], rep, known=e), k, centers[bin_idx])
    assert e.size > 5_000 and {0, 1} <= set(np.unique(joint).tolist())
    assert joint.dtype == per_bin.dtype and joint.tobytes() == per_bin.tobytes()
