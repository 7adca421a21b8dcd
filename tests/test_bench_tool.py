"""The frame and the counting wrappers of tools/bench.py.

No layer runs here: the frame is driven with a stub layer and the
wrappers with small calls, so the module takes a few seconds, most of
them in the frame's host-speed probes.
"""

import contextlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench  # noqa: E402

from palmlab import ams, estimate, identities  # noqa: E402
from palmlab.events import parse_eventuality  # noqa: E402
from palmlab.models import IntervalDistribution, Need, exponential, poisson_ts  # noqa: E402
from palmlab.rng import CHUNK  # noqa: E402


@pytest.fixture
def stub_layer(monkeypatch):
    """Register a layer `stub` whose run holds its label's call count."""
    calls = []

    def stub(budget, seed, repeats):
        calls.append(seed)
        return {"calls": len(calls)}

    monkeypatch.setitem(bench.LAYERS, "stub", (stub, {"budget": 8, "seed": 3, "repeats": 2}))
    return calls


def test_labels_are_kept_and_replaced(tmp_path, stub_layer):
    out = str(tmp_path / "BENCH_stub.json")
    bench.main(["stub", "--label", "a", "--out", out])
    bench.main(["stub", "--label", "b", "--out", out])
    runs = json.loads(Path(out).read_text())["runs"]
    assert list(runs) == ["a", "b"]
    assert (runs["a"]["calls"], runs["b"]["calls"]) == (1, 2)
    bench.main(["stub", "--label", "a", "--out", out])
    again = json.loads(Path(out).read_text())["runs"]
    assert (again["a"]["calls"], again["b"]) == (3, runs["b"])


def test_every_run_has_the_metadata_block(tmp_path, monkeypatch, stub_layer):
    monkeypatch.chdir(tmp_path)
    bench.main(["stub", "--label", "a"])
    run = json.loads((tmp_path / "BENCH_stub.json").read_text())["runs"]["a"]
    assert run["numpy"] == np.__version__
    assert {k: run[k] for k in ("budget", "seed", "repeats")} == \
        {"budget": 8, "seed": 3, "repeats": 2}
    assert {"cores", "python"} <= run.keys()
    # the host-speed probe's median seconds before and after the layer
    assert run["speed_probe_s"].keys() == {"before", "after"}
    assert all(0.0 < s < 10.0 for s in run["speed_probe_s"].values())


def test_unknown_layer_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        bench.main(["nope", "--label", "a", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def _wrappers():
    budgets, sizes = [], []
    return [
        (bench.counted_run_kernel(budgets), [(estimate, "run_kernel"), (ams, "run_kernel")]),
        (bench.counted_gaps(sizes), [(IntervalDistribution, "sample")]),
        (bench.counted_checks({}, budgets, sizes), [(identities, "check_identity")]),
        (bench.counted_searches([]), [(np, "searchsorted")]),
    ]


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("which", range(4))
def test_wrappers_put_the_originals_back(which, raises):
    wrapper, targets = _wrappers()[which]
    originals = [getattr(owner, name) for owner, name in targets]
    with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
        with wrapper:
            assert all(getattr(owner, name) is not fn
                       for (owner, name), fn in zip(targets, originals))
            if raises:
                raise RuntimeError("inside the block")
    assert [getattr(owner, name) for owner, name in targets] == originals


def test_gaps_are_counted_by_values_drawn():
    sizes = []
    with bench.counted_gaps(sizes):
        exponential(1.0).sample(np.random.default_rng(0), (3, 4))
        exponential(1.0).sample(np.random.default_rng(0), 5)
    assert sizes == [12, 5]


def test_searches_are_counted_by_keys():
    keys = []
    with bench.counted_searches(keys):
        np.searchsorted(np.arange(5.0), np.zeros((2, 3)))
        np.searchsorted(np.arange(5.0), 2.5, side="right")
    assert keys == [6, 1]


def test_integrate_counts_searched_keys(monkeypatch):
    # each member with offsets searches its rows' first and last laid-out
    # events; `true` has none and reads no event position, so searches none
    def stub():
        def calls(ctx):
            rows = np.arange(ctx.batch.n)
            return [lambda A=parse_eventuality(text): A.integrate(ctx, rows, -1.0, 1.0)
                    for text in ("count(0,1]==0", "alpha(0)>1", "true")]
        return poisson_ts(1.0), Need(before=5.0, after=5.0), calls

    monkeypatch.setitem(bench.INTEGRATE_WINDOWS, "stub", stub)
    res = bench._integrate_window("stub", 2, 7, 1)
    assert res["searched_keys_per_chunk"] == (2 + 2) * CHUNK


def test_suite_counts_sum_over_identities():
    budgets, sizes, checks = [], [], {}
    with bench.counted_run_kernel(budgets), bench.counted_gaps(sizes), \
            bench.counted_checks(checks, budgets, sizes):
        reports = identities.run_suite(budget=64, seed=5, only="I-2.4")
    assert list(checks) == ["I-2.4"]
    wall, calls, gaps = checks["I-2.4"]
    assert wall > 0 and calls == len(budgets) > 0 and gaps == sum(sizes) > 0
    assert bench.report_digest(reports) == bench.report_digest(
        identities.run_suite(budget=64, seed=5, only="I-2.4"))
