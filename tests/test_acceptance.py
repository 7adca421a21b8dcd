"""Acceptance criteria.

Every criterion runs at the default budget of 1e5 replications unless its
statement says otherwise, with tolerance 3 * combined s.e. + 0.002 unless
stated, and prints one PASS/FAIL line (visible with pytest -s).
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from palmlab.ams import ams_verdict, cesaro_event, convert_es_to_ts
from palmlab.cli import main as cli_main
from palmlab.estimate import (
    est_event_probability,
    est_intensity,
    est_shifted_palm,
    mc_mean,
)
from palmlab.events import BATTERY, ev_example44, ev_true, parse_eventuality
from palmlab.identities import DEFAULT_SUITE_MODELS, REGISTRY, run_suite
from palmlab.models import (
    Need,
    example44,
    example44_block_ends,
    example44_cesaro_exact,
    example44_run_lengths,
    example84_exact,
    exponential,
    gamma_intervals,
    poisson_ts,
    pstar_model,
    renewal_es,
    renewal_ts_from_es,
)

BUDGET = 100_000
ATOL = 0.002


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def check(est, expected, label, z=3.0, atol=ATOL):
    diff = abs(est.value - expected)
    tol = z * est.std_error + atol
    assert diff <= tol, (
        f"{label}: {est.value:.5f} vs {expected:.5f} (diff {diff:.5f} > {tol:.5f})"
    )


def check_pair(a, b, label, z=3.0, atol=ATOL):
    se = math.hypot(a.std_error, b.std_error)
    diff = abs(a.value - b.value)
    assert diff <= z * se + atol, (
        f"{label}: {a.value:.5f} vs {b.value:.5f} (diff {diff:.5f} > {z * se + atol:.5f})"
    )


def test_criterion_1_example84_survival():
    with criterion(1, "reweighted-law survival matches the closed form at x in {0.5, 1, 2}"):
        model = example84_exact(1.0)
        for i, x in enumerate((0.5, 1.0, 2.0)):
            (est,) = est_event_probability(
                model, [parse_eventuality(f"alpha(0)>{x}")], BUDGET,
                seed=101 + i, stream=f"acc1:{x}",
            )
            expected = math.exp(-x) * (x * x / 2 + x + 1)
            check(est, expected, f"survival at {x}")


def test_criterion_2_example84_intensity():
    with criterion(2, "reweighted-law intensity is 0.5 at the origin and 0.9323 at +-2"):
        model = example84_exact(1.0)
        for i, (y, expected) in enumerate((
            (0.0, 0.5),
            (2.0, 1.0 - math.exp(-2.0) / 2.0),
            (-2.0, 1.0 - math.exp(-2.0) / 2.0),
        )):
            ((b,),) = est_intensity(
                model, [ev_true()], np.array([y - 0.025, y + 0.025]), BUDGET,
                seed=111 + i, stream=f"acc2:{y}",
            )
            v, s = b.estimate.value, b.estimate.std_error
            diff = abs(v - expected)
            assert diff <= 3 * s + ATOL, f"intensity at {y}: {v:.5f} vs {expected:.5f}"


def test_criterion_3_example84_shifted_palm_independence():
    with criterion(3, "left-of-origin shifted law of the previous gap is the plain "
                      "exponential survival"):
        model = example84_exact(1.0)
        for i, c in enumerate((0.5, 1.0)):
            (bins,) = est_shifted_palm(
                model, [parse_eventuality(f"alpha(-1)>{c}")],
                np.array([-1.25, -0.75]), BUDGET,
                seed=121 + i, stream=f"acc3:{c}",
            )
            check(bins[0].estimate, math.exp(-c), f"shifted law at -1, c={c}")


def test_criterion_4_example44_exactness():
    with criterion(4, "lattice construction integers, exact running averages, and "
                      "NotConvergent verdict with oscillation >= 0.2"):
        assert example44_run_lengths(7) == [4, 4, 8, 8, 24, 24, 72]
        assert example44_block_ends(6) == [4, 8, 16, 24, 48, 72]
        assert example44_cesaro_exact(8) == Fraction(1, 2)
        assert example44_cesaro_exact(24) == Fraction(1, 2)
        assert example44_cesaro_exact(16) == Fraction(3, 4)
        assert example44_cesaro_exact(48) == Fraction(3, 4)
        trace = cesaro_event(example44(900), ev_example44(), 256, 1, seed=0)
        verdict = ams_verdict(trace)
        assert verdict.status == "NotConvergent"
        assert verdict.oscillation >= 0.2


def test_criterion_5_inversion_consistency():
    with criterion(5, "inversion-built stationary renewal law is indistinguishable "
                      "from the homogeneous law on the ten-eventuality battery"):
        built = renewal_ts_from_es(exponential(1.0))
        reference = poisson_ts(1.0)
        for i, ev in enumerate(BATTERY):
            (a,) = est_event_probability(built, [ev], BUDGET, seed=131 + i,
                                         stream=f"acc5a:{i}")
            (b,) = est_event_probability(reference, [ev], BUDGET, seed=161 + i,
                                         stream=f"acc5b:{i}")
            check_pair(a, b, f"battery {ev.label}")

        def count_kernel(batch, ctx):
            gs, shifts = ctx.gsorted()
            cnt = (np.searchsorted(gs, shifts + 1.0, side="right")
                   - np.searchsorted(gs, shifts, side="right"))
            return [(cnt.astype(float), np.zeros(batch.n, dtype=bool))]

        # every event within 1 of T_1 covers (0, 1]
        (mean_count,) = mc_mean(built, Need(after=1.0), count_kernel, BUDGET,
                                seed=191, stream="acc5c")
        check(mean_count, 1.0, "mean count on (0, 1]")


def test_criterion_6_uniform_conditional_arrival():
    with criterion(6, "arrival fraction T1/alpha0 has uniform moments under "
                      "re-centered catalog models and the exact reweighted sampler"):
        cases = [
            ("pstar(poisson)", pstar_model(poisson_ts(1.0))),
            ("pstar(renewal_es gamma)", pstar_model(renewal_es(gamma_intervals(2.0, 1.0)))),
            ("pstar(example44)", pstar_model(example44(120))),
            ("example84", example84_exact(1.0)),
        ]

        def ratio_kernel(batch, ctx):
            # T1/alpha0 and its square, on the same draws
            t0, t1, ok = ctx.gap(ctx.pos0())
            ratio = np.where(ok, t1 / (t1 - t0), 0.0)
            return [(ratio, ~ok), (ratio * ratio, ~ok)]

        for i, (name, model) in enumerate(cases):
            # the straddling gap is the anchors' own
            m1, m2 = mc_mean(model, Need(), ratio_kernel, BUDGET,
                             seed=201 + i, stream=f"acc6a:{name}")
            check(m1, 0.5, f"{name}: mean")
            check(m2, 1.0 / 3.0, f"{name}: second moment")


def test_criterion_7_identity_suite():
    with criterion(7, "every registry identity passes on every applicable catalog "
                      "model at z_crit 4 (exit status would be 0)"):
        reports = run_suite(DEFAULT_SUITE_MODELS, BUDGET, seed=2026)
        failures = [r for r in reports if r.verdict == "fail"]
        for r in reports:
            print(f"    {r.id:9s} {r.model:34s} {r.eventuality:16s} "
                  f"{r.probe:14s} z={r.z:+.2f} {r.verdict}")
        assert not failures, [f"{r.id}@{r.model}" for r in failures]
        covered = {r.id for r in reports}
        applicable = {
            s.id for s in REGISTRY for m in DEFAULT_SUITE_MODELS if s.applies(m)
        }
        assert covered == applicable == {s.id for s in REGISTRY}
        exit_code = 1 if failures else 0
        assert exit_code == 0


def test_criterion_8_conversion_closed_form():
    with criterion(8, "event-to-time conversion of the exponential renewal law gives "
                      "2/e for the straddling-gap survival"):
        (est,) = convert_es_to_ts(
            renewal_es(exponential(1.0)), [parse_eventuality("alpha(0)>1")],
            BUDGET, seed=261,
        )
        check(est, 2.0 * math.exp(-1.0), "converted survival")


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical config and seed give byte-identical reports on 1 "
                      "and 8 threads"):
        cfg = tmp_path / "run.ini"
        cfg.write_text("""
[palm]
model = renewal_ts
interval = gamma
shape = 2.0
rate = 1.0
eventualities = alpha(0)>1; count(0,1]==0; T1<=0.5
x = 10
reps = 40000

[suite]
reps = 20000

[suite:model:1]
model = poisson_ts
rate = 1.0
""")
        outputs = {}
        for threads in (1, 8):
            out = tmp_path / f"t{threads}"
            assert cli_main(["palm", "--config", str(cfg), "--seed", "2026",
                             "--threads", str(threads), "--out", str(out)]) == 0
            assert cli_main(["suite", "--config", str(cfg), "--seed", "2026",
                             "--threads", str(threads), "--only", "I-2.3",
                             "--out", str(out)]) == 0
            outputs[threads] = (
                (out / "palm.csv").read_bytes(),
                (out / "suite.csv").read_bytes(),
            )
        assert outputs[1] == outputs[8]
