import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from palmlab import estimate
from palmlab.cli import main


def write_config(tmp_path: Path, text: str) -> str:
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_example44_deterministic_file(self, tmp_path):
        cfg = write_config(tmp_path, """
[simulate]
model = example44
pattern_len = 60
reps = 3
window_lo = -4.5
window_hi = 40.5
""")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "patterns.txt").read_bytes() == (out2 / "patterns.txt").read_bytes()

    def test_example44_natural_window(self, tmp_path):
        # without window_hi the window ends at the last stored event
        cfg = write_config(tmp_path, """
[simulate]
model = example44
pattern_len = 60
reps = 3
""")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "patterns.txt").read_text()
        assert sum(1 for line in text.splitlines() if not line.startswith("#")) == 3

    def test_poisson_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, """
[simulate]
model = poisson_ts
rate = 1.0
reps = 2
window_lo = -15
window_hi = 15
""")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--config", cfg, "--seed", "7",
                         "--out", str(out)]) == 0
        text = (out1 / "patterns.txt").read_text()
        assert text == (out2 / "patterns.txt").read_text()
        assert sum(1 for line in text.splitlines() if not line.startswith("#")) == 2

    @pytest.mark.parametrize("model, digest", [
        ("model = renewal_ts\ninterval = gamma\nshape = 2\nrate = 1",
         "a6686c0f7e188489cb0ec7e06c2c0d4de06fc39bd21c5b41429ad36438df35a2"),
        ("model = example84\nrate = 1",
         "e5232706d9a593fc710940968d7521523f171b010ec8d2fea2dabf5a3b3999ea"),
        ("model = poisson_ts\nrate = 1",
         "610f505594f0d2ed522949fb436918d07a180611b9917df08d7f0991240088f2"),
    ], ids=["renewal_ts", "example84", "poisson_ts"])
    def test_patterns_pinned(self, tmp_path, model, digest):
        # SHA-256 of patterns.txt pins every replication's stream and values
        cfg = write_config(tmp_path, f"""
[simulate]
{model}
reps = 20
window_lo = -3
window_hi = 3
""")
        assert main(["simulate", "--config", cfg, "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "patterns.txt").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest

    @pytest.mark.parametrize("model", ["model = poisson_ts\nrate = 1",
                                       "model = example44\npattern_len = 60"])
    def test_non_finite_window_is_an_error(self, tmp_path, capsys, model):
        # a window must be finite and hold the origin strictly inside it
        for lo in ("-inf", "0"):
            cfg = write_config(tmp_path, f"""
[simulate]
{model}
reps = 2
window_lo = {lo}
window_hi = 5
""")
            out = tmp_path / f"out{lo}"
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
            assert "finite" in capsys.readouterr().err
            assert not out.exists()

    def test_invalid_model_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[simulate]
model = nonexistent_process
""")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "model" in capsys.readouterr().err

    def test_missing_model_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[simulate]\nreps = 2\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "'model'" in capsys.readouterr().err


class TestCounts:
    """reps and threads below 1 are configuration errors (exit 2), whether
    they come from a flag or a config field; exit 1 stays a suite failure."""

    @pytest.mark.parametrize("argv, key", [
        (["suite", "--only", "I-2.3", "--reps", "-3"], "'reps'"),
        (["example84", "--reps", "0"], "'reps'"),
        (["example84", "--reps", "100", "--threads", "0"], "'threads'"),
        (["suite", "--only", "I-2.3", "--reps", "100", "--threads", "-1"], "'threads'"),
    ])
    def test_flag_below_one(self, tmp_path, capsys, argv, key):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("field, key", [
        ("reps = 0", "'reps'"),
        ("reps = 100\nthreads = 0", "'threads'"),
    ])
    def test_field_below_one(self, tmp_path, capsys, field, key):
        cfg = write_config(tmp_path, f"""
[palm]
model = poisson_ts
rate = 1.0
eventualities = alpha(0)>1
{field}
""")
        out = tmp_path / "out"
        assert main(["palm", "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not (out / "palm.csv").exists()


class TestMalformedConfig:
    """A config file that configparser cannot parse is a configuration
    error (exit 2), not a traceback with exit 1, the suite-failure code."""

    @pytest.mark.parametrize("command, text", [
        ("simulate", "[simulate]\nmodel = poisson_ts\nrate = 1.0\nrate = 2.0\n"),
        ("simulate", "model = poisson_ts\nrate = 1.0\n"),
        ("simulate", "[simulate]\nmodel = poisson_ts\nrate = 1.0\nwindow_lo = -5%\n"),
        ("suite", "[suite]\nonly = I-2.3\n[suite:model:1]\nmodel = poisson_ts\nrate = 1%\n"),
    ], ids=["duplicate-key", "no-section-header", "bare-percent", "bare-percent-suite-model"])
    def test_is_config_error(self, tmp_path, capsys, command, text):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--reps", "2"]) == 2
        assert "malformed config file" in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    """Each of these runs exits 2 before any run, names what is wrong and
    writes no output file."""

    PALM = "[palm]\nmodel = poisson_ts\nrate = 1.0\neventualities = alpha(0)>1\nreps = 20\n"

    @pytest.mark.parametrize("command, text, env_seed, message", [
        ("palm", None, None, "cannot read config file"),
        ("palm", PALM, "abc", "PALMLAB_SEED must be an integer"),
        ("ams", "[ams]\nmodel = poisson_ts\nrate = 1.0\n"
                "eventualities = alpha(0)>1; T1<=1\nreps = 20\n", None,
         "exactly one eventuality"),
        ("suite", "[suite]\nonly = I-2.3\n[suite:model:1]\nmodel = nope\n", None,
         "invalid model in section"),
        ("palm", "[palm]\nmodel = poisson_ts\nrate = 1.0\nreps = 20\n", None,
         "missing required field 'eventualities'"),
    ], ids=["missing-config-file", "non-integer-env-seed", "ams-two-eventualities",
            "suite-invalid-model", "palm-without-eventualities"])
    def test_is_config_error(self, tmp_path, capsys, monkeypatch, command, text,
                             env_seed, message):
        cfg = str(tmp_path / "missing.ini") if text is None else write_config(tmp_path, text)
        if env_seed is not None:
            monkeypatch.setenv("PALMLAB_SEED", env_seed)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestPalm:
    def test_values_in_expected_band(self, tmp_path):
        cfg = write_config(tmp_path, """
[palm]
model = poisson_ts
rate = 1.0
eventualities = alpha(0)>1; count(0,1]==0
x = 10
reps = 20000
""")
        assert main(["palm", "--config", cfg, "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "palm.csv")
        assert rows[0] == ["label", "value", "std_error", "reps", "rejected", "ess"]
        values = {r[0]: float(r[1]) for r in rows[1:]}
        assert 0.35 <= values["alpha(0)>1"] <= 0.39
        assert "count(0,1]==0" in values

    def test_empty_eventualities_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[palm]
model = poisson_ts
rate = 1.0
eventualities =
""")
        assert main(["palm", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "eventualities" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        "model = renewal_es\ninterval = exponential\nrate = 1",
        "model = example84\nrate = 1",
    ], ids=["renewal_es", "example84"])
    def test_zero_mode_needs_time_stationary_model(self, tmp_path, capsys, fields):
        # a config the estimator cannot run: exit 2, mode and model named
        cfg = write_config(tmp_path, f"[palm]\n{fields}\neventualities = alpha(0)>1\n"
                                     "mode = zero\nreps = 20\n")
        out = tmp_path / "out"
        assert main(["palm", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'zero'" in err and fields.split()[2] in err
        assert not out.exists()

    def test_shifted_mode_writes_bins(self, tmp_path):
        cfg = write_config(tmp_path, """
[palm]
model = example84
rate = 1.0
mode = shifted
eventualities = alpha(-1)>1
bin_lo = -1.5
bin_hi = -0.5
bin_width = 0.5
reps = 20000
""")
        assert main(["palm", "--config", cfg, "--seed", "4",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "palm.csv")
        assert rows[0][:2] == ["bin_lo", "bin_hi"]
        assert len(rows) == 3
        for row in rows[1:]:
            assert abs(float(row[3]) - math.exp(-1)) < 0.05


    @pytest.mark.parametrize("fields, digest", [
        ("model = renewal_ts\ninterval = gamma\nshape = 2\nrate = 1\n"
         "eventualities = alpha(0)>1; count(0,1]==0\nx = 5",
         "b2c0c9059f5cd3619b3662789e4999096bb86012cc5c6539e21c94efcd99580f"),
        ("model = example84\nrate = 1.0\nmode = shifted\n"
         "eventualities = alpha(-1)>1; T1<=0.5\nbin_lo = -1.5\nbin_hi = -0.5\nbin_width = 0.5",
         "c3b4953b5b7cbb179dd014a5cd6c7abdab3116b1d58905262f2b981e82d73327"),
    ], ids=["zero", "shifted"])
    def test_csv_pinned(self, tmp_path, fields, digest):
        # SHA-256 of palm.csv pins every estimate of both eventualities
        cfg = write_config(tmp_path, f"[palm]\n{fields}\n")
        assert main(["palm", "--config", cfg, "--reps", "2000", "--seed", "11",
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "palm.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest

    def test_group_row_equals_widest_member_alone(self, tmp_path):
        # the eventualities of one command share the draws of the group's
        # need; T1<=0.5 needs no more of a row than alpha(0)>1 does, so the
        # row of alpha(0)>1 is its own run's row
        rows = {}
        for name, evs in (("both", "alpha(0)>1; T1<=0.5"), ("alone", "alpha(0)>1")):
            cfg = write_config(tmp_path, f"""
[palm]
model = poisson_ts
rate = 1.0
eventualities = {evs}
x = 5
""")
            out = tmp_path / name
            assert main(["palm", "--config", cfg, "--reps", "3000", "--seed", "9",
                         "--out", str(out)]) == 0
            rows[name] = (out / "palm.csv").read_text().splitlines()
        assert rows["both"][1].startswith("alpha(0)>1,")
        assert rows["both"][1] == rows["alone"][1]

    @pytest.mark.parametrize("fields, key", [
        ("x = 0", "'x'"),
        ("x = -1", "'x'"),
        ("x = inf", "'x'"),
        ("x = nan", "'x'"),
        ("mode = shifted\nbin_lo = -1\nbin_hi = 1\nbin_width = 0", "'bin_width'"),
        ("mode = shifted\nbin_lo = -1\nbin_hi = 1\nbin_width = -0.5", "'bin_width'"),
        ("mode = shifted\nbin_lo = -1\nbin_hi = 1\nbin_width = inf", "'bin_width'"),
        ("mode = shifted\nbin_lo = -1\nbin_hi = 1\nbin_width = 5", "'bin_width'"),
        ("mode = shifted\nbin_lo = 0\nbin_hi = 1\nbin_width = 0.3", "'bin_width'"),
        ("mode = shifted\nbin_lo = 0\nbin_hi = 1\nbin_width = 0.6", "'bin_width'"),
        ("mode = shifted\nbin_lo = 1\nbin_hi = 1", "'bin_lo'"),
        ("mode = shifted\nbin_lo = 2\nbin_hi = 1", "'bin_lo'"),
        ("mode = shifted\nbin_lo = -inf\nbin_hi = 1", "'bin_lo'"),
        ("mode = shifted\nbin_lo = nan\nbin_hi = 1", "'bin_lo'"),
        ("mode = sideways", "'mode'"),
        ("x = ten", "'x'"),
    ])
    def test_bad_field_is_config_error(self, tmp_path, capsys, fields, key):
        # rejected before any run: exit 2, the field named, nothing written
        cfg = write_config(tmp_path, f"""
[palm]
model = poisson_ts
rate = 1.0
eventualities = alpha(0)>1
reps = 20
{fields}
""")
        out = tmp_path / "out"
        assert main(["palm", "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestAms:
    def test_example44_not_convergent(self, tmp_path):
        cfg = write_config(tmp_path, """
[ams]
model = example44
pattern_len = 900
eventualities = alpha(0)==1
n_max = 256
reps = 1
""")
        assert main(["ams", "--config", cfg, "--out", str(tmp_path)]) == 0
        verdict = json.loads((tmp_path / "ams_verdict.json").read_text())
        assert verdict["status"] == "NotConvergent"
        assert verdict["oscillation"] >= 0.2
        assert set(verdict) >= {"status", "oscillation", "threshold", "tail_fraction"}
        rows = read_csv(tmp_path / "ams_trace.csv")
        assert rows[0] == ["checkpoint", "value", "std_error"]

    def test_example44_past_the_realization(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[ams]
model = example44
pattern_len = 5
eventualities = alpha(0)==1
n_max = 256
reps = 1
""")
        out = tmp_path / "out"
        assert main(["ams", "--config", cfg, "--out", str(out)]) == 2
        assert "past the stored realization of example44(pattern_len=5)" in capsys.readouterr().err
        assert not out.exists()

    def test_poisson_convergent(self, tmp_path):
        cfg = write_config(tmp_path, """
[ams]
model = poisson_ts
rate = 1.0
eventualities = alpha(0)>1
n_max = 256
reps = 1500
""")
        assert main(["ams", "--config", cfg, "--seed", "6",
                     "--out", str(tmp_path)]) == 0
        verdict = json.loads((tmp_path / "ams_verdict.json").read_text())
        assert verdict["status"] == "Convergent"
        assert "limit" in verdict

    def test_tiny_n_max_inconclusive(self, tmp_path):
        cfg = write_config(tmp_path, """
[ams]
model = poisson_ts
rate = 1.0
eventualities = alpha(0)>1
n_max = 12
reps = 200
""")
        assert main(["ams", "--config", cfg, "--out", str(tmp_path)]) == 0
        verdict = json.loads((tmp_path / "ams_verdict.json").read_text())
        assert verdict["status"] == "Inconclusive"

    @pytest.mark.parametrize("fields, key", [
        ("n_max = 0", "'n_max'"),
        ("n_max = -5", "'n_max'"),
        ("kind = time\nx_max = 0", "'x_max'"),
        ("kind = time\nx_max = -3", "'x_max'"),
        ("kind = time\nx_max = nan", "'x_max'"),
        ("kind = time\nx_max = inf", "'x_max'"),
        ("tail_fraction = 0", "'tail_fraction'"),
        ("tail_fraction = 1.5", "'tail_fraction'"),
        ("tail_fraction = nan", "'tail_fraction'"),
        ("tol = nan", "'tol'"),
        ("tol = inf", "'tol'"),
        ("tol = -0.1", "'tol'"),
        ("kind = space", "'kind'"),
        ("n_max = 2.5", "'n_max'"),
    ])
    def test_bad_field_is_config_error(self, tmp_path, capsys, fields, key):
        # rejected before any run: exit 2, the field named, nothing written
        cfg = write_config(tmp_path, f"""
[ams]
model = poisson_ts
rate = 1.0
eventualities = alpha(0)>1
reps = 20
{fields}
""")
        out = tmp_path / "out"
        assert main(["ams", "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestSuite:
    def test_only_filter_single_check(self, tmp_path):
        cfg = write_config(tmp_path, """
[suite]
reps = 10000

[suite:model:1]
model = poisson_ts
rate = 1.0
""")
        code = main(["suite", "--config", cfg, "--only", "I-2.3",
                     "--seed", "4", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "suite.csv")
        assert rows[0] == ["id", "model", "eventuality", "lhs", "lhs_se",
                           "rhs", "rhs_se", "z", "verdict"]
        assert len(rows) == 2
        assert rows[1][0] == "I-2.3"
        assert rows[1][-1] == "pass"

    def test_unknown_only_is_config_error(self, tmp_path, capsys):
        # a typo in --only exits 2 and names the known ids, instead of
        # writing an empty suite that reads as a pass
        out = tmp_path / "out"
        assert main(["suite", "--only", "I-9.9", "--reps", "64", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'I-9.9'" in err and "I-2.3" in err and "I-8.4rho" in err
        assert not out.exists()

    def test_empty_denominator_bin_is_an_error(self, tmp_path, capsys):
        # at 16 replications some model has no event in one of I-3.13's
        # denominator bins: exit 2 with the error named, no traceback
        out = tmp_path / "out"
        assert main(["suite", "--only", "I-3.13", "--reps", "16", "--seed", "0",
                     "--out", str(out)]) == 2
        assert "error: no occurrences observed in the denominator" in capsys.readouterr().err

    def test_tiny_budget_runs_and_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[suite]
reps = 192

[suite:model:1]
model = poisson_ts
rate = 1.0
""")
        code = main(["suite", "--config", cfg, "--only", "I-2.4",
                     "--seed", "4", "--out", str(tmp_path)])
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "checks" in out and "failures" in out

    def test_quoting_of_labels_with_commas(self, tmp_path):
        cfg = write_config(tmp_path, """
[suite]
reps = 6000
eventualities = count(0,1]==0

[suite:model:1]
model = poisson_ts
rate = 1.0
""")
        main(["suite", "--config", cfg, "--only", "I-2.4", "--seed", "4",
              "--out", str(tmp_path)])
        raw = (tmp_path / "suite.csv").read_text()
        assert '"count(0,1]==0"' in raw
        rows = read_csv(tmp_path / "suite.csv")
        assert rows[1][2] == "count(0,1]==0"


class TestOneSamplingPerEstimator:
    """Each estimator call of a command samples its group once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        run_kernel = estimate.run_kernel

        def counting(*args, **kwargs):
            counted.append(kwargs["stream"])
            return run_kernel(*args, **kwargs)

        monkeypatch.setattr(estimate, "run_kernel", counting)
        return counted

    @pytest.mark.parametrize("fields", [
        "eventualities = alpha(0)>1; count(0,1]==0; T1<=0.5\nx = 5",
        "mode = shifted\neventualities = alpha(0)>1; T1<=0.5\n"
        "bin_lo = -1\nbin_hi = 1\nbin_width = 0.5",
    ], ids=["zero", "shifted"])
    def test_palm_samples_once(self, tmp_path, calls, fields):
        cfg = write_config(tmp_path, f"[palm]\nmodel = poisson_ts\nrate = 1\n{fields}\n")
        assert main(["palm", "--config", cfg, "--reps", "200",
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_example84_samples_once_per_estimator(self, tmp_path, calls):
        assert main(["example84", "--reps", "200", "--out", str(tmp_path)]) == 0
        assert len(calls) == 3


class TestDeterminism:
    def test_thread_count_invariance(self, tmp_path):
        cfg = write_config(tmp_path, """
[palm]
model = renewal_ts
interval = gamma
shape = 2.0
rate = 1.0
eventualities = alpha(0)>1; T1<=0.5
x = 8
reps = 9000
""")
        out1 = tmp_path / "t1"
        out8 = tmp_path / "t8"
        assert main(["palm", "--config", cfg, "--seed", "11", "--threads", "1",
                     "--out", str(out1)]) == 0
        assert main(["palm", "--config", cfg, "--seed", "11", "--threads", "8",
                     "--out", str(out8)]) == 0
        assert (out1 / "palm.csv").read_bytes() == (out8 / "palm.csv").read_bytes()

    def test_env_seed_respected(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, """
[palm]
model = poisson_ts
rate = 1.0
eventualities = alpha(0)>1
x = 5
reps = 3000
""")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out3 = tmp_path / "c"
        monkeypatch.setenv("PALMLAB_SEED", "123")
        assert main(["palm", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["palm", "--config", cfg, "--out", str(out2)]) == 0
        # explicit flag beats the environment
        assert main(["palm", "--config", cfg, "--seed", "777",
                     "--out", str(out3)]) == 0
        assert (out1 / "palm.csv").read_bytes() == (out2 / "palm.csv").read_bytes()
        assert (out1 / "palm.csv").read_bytes() != (out3 / "palm.csv").read_bytes()


class TestExampleCommands:
    def test_example44_outputs(self, tmp_path):
        assert main(["example44", "--out", str(tmp_path), "--reps", "1"]) == 0
        rows = read_csv(tmp_path / "example44_exact.csv")
        assert rows[0] == ["k", "run_length", "block_end", "cesaro_at_block_end"]
        table = {int(r[0]): r for r in rows[1:]}
        assert [int(table[k][1]) for k in range(1, 8)] == [4, 4, 8, 8, 24, 24, 72]
        assert [int(table[k][2]) for k in range(1, 7)] == [4, 8, 16, 24, 48, 72]
        assert table[2][3] == "1/2" and table[3][3] == "3/4"
        verdict = json.loads((tmp_path / "example44_verdict.json").read_text())
        assert verdict["status"] == "NotConvergent"

    def test_example44_bad_eventuality_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[example44]\neventuality = alpha(0)>>1\nreps = 1\n")
        out = tmp_path / "out"
        assert main(["example44", "--config", cfg, "--out", str(out)]) == 2
        assert "bad eventuality expression" in capsys.readouterr().err
        assert not out.exists()

    def test_example44_bad_field_writes_nothing(self, tmp_path, capsys):
        # every field is checked before the exact table is written
        cfg = write_config(tmp_path, "[example44]\ntol = nan\nreps = 1\n")
        out = tmp_path / "out"
        assert main(["example44", "--config", cfg, "--out", str(out)]) == 2
        assert "'tol'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["-1", "0", "nan", "inf"])
    def test_example84_bad_rate_is_config_error(self, tmp_path, capsys, rate):
        cfg = write_config(tmp_path, f"[example84]\nrate = {rate}\nreps = 20\n")
        out = tmp_path / "out"
        assert main(["example84", "--config", cfg, "--out", str(out)]) == 2
        assert "'rate'" in capsys.readouterr().err
        assert not out.exists()

    def test_example84_csv_pinned(self, tmp_path):
        assert main(["example84", "--out", str(tmp_path), "--reps", "2000",
                     "--seed", "11"]) == 0
        text = (tmp_path / "example84.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == (
            "f32bfd539520e7b2a90682f3897e05f92ff1e03bc025ba3815ddb34acdbeb5af")

    def test_example84_outputs(self, tmp_path):
        assert main(["example84", "--out", str(tmp_path), "--reps", "20000",
                     "--seed", "2"]) == 0
        rows = read_csv(tmp_path / "example84.csv")
        assert rows[0] == ["quantity", "label", "value", "std_error", "expected"]
        for row in rows[1:]:
            value, se, expected = float(row[2]), float(row[3]), float(row[4])
            assert abs(value - expected) <= 4 * se + 0.01
