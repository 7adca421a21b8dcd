"""The benchmark's tracer still finds every hook point it patches.

perfbench/tracer.py wraps palmlab's public callables by name: run_suite,
check_identity, the estimators, run_kernel and the kernel it receives, the
samplers and EventContext.  perfbench/layers.py then checks that the span
tree is complete: every run_kernel sits under an estimator or AMS entry
point, every suite run_kernel under an identity check, and each has one
sampler and one kernel span per chunk.  A refactor that renames, bypasses
or inlines one of these leaves the benchmark's traced runs incorrect; this
test runs one small command of each kind under the tracer and fails first.
It reads perfbench/ and changes nothing there.  The coverage check is left
out: at these tiny budgets the top-level spans cover less than 95% of the
wall time.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from layers import SpanTree, completeness_problems  # noqa: E402
from tracer import NAME, PARENT, Tracer, instrument  # noqa: E402

from palmlab import cli  # noqa: E402

POISSON = "model = poisson_ts\nrate = 1\n"
GAMMA21 = "model = renewal_ts\ninterval = gamma\nshape = 2\nrate = 1\n"

# (argv head, INI text or None)
COMMANDS = [
    (("suite", "--only", "I-2.4"), None),
    (("palm",), "[palm]\n" + POISSON + "mode = shifted\neventualities = alpha(0)>1\n"
                "bin_lo = -2\nbin_hi = 2\nbin_width = 0.5\n"),
    (("ams",), "[ams]\n" + POISSON + "kind = event\neventualities = alpha(0)>1\n"),
    (("ams",), "[ams]\n" + GAMMA21 + "kind = time\neventualities = count(0,1]==0\n"),
    (("example84",), None),
]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    tracer = Tracer()
    codes = []
    with instrument(tracer):
        for i, (head, config) in enumerate(COMMANDS):
            argv = list(head) + ["--seed", "5", "--reps", "64",
                                 "--out", str(root / f"out{i}")]
            if config is not None:
                path = root / f"cmd{i}.ini"
                path.write_text(config, encoding="utf8")
                argv += ["--config", str(path)]
            with tracer.command(head[0]):
                codes.append(cli.main(argv))
    return tracer, codes


def test_commands_ran(traced):
    _, codes = traced
    # a suite row may fail at 64 replications; nothing may crash
    assert codes[0] in (0, 1)
    assert codes[1:] == [0] * (len(COMMANDS) - 1)


def test_no_completeness_problems(traced):
    tracer, _ = traced
    tree = SpanTree(tracer.spans)
    roots = [rec for rec in tracer.spans if rec[PARENT] == -1]
    assert completeness_problems(tree, roots) == []


def test_every_layer_is_seen(traced):
    tracer, _ = traced
    names = {rec[NAME] for rec in tracer.spans}
    assert {
        "identities.run_suite", "identities.check", "estimate.est_palm_zero",
        "estimate.est_shifted_palm", "estimate.est_event_probability",
        "estimate.est_intensity", "estimate.mc_mean", "ams.cesaro_event",
        "ams.cesaro_time", "estimate.run_kernel", "estimate.kernel",
        "models.sample_batch", "events.context", "pattern.global_sorted",
    } <= names
