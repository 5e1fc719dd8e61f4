"""Command-line interface: flags, config files, outputs, exit codes."""

import csv
import json
import time
import tracemalloc

import pytest

from corsim import cli, harness
from corsim.adversary import POLICIES
from corsim.cli import DEFAULTS, main
from corsim.env import make_params, params_validate
from corsim.harness import ConfigError, TrialConfig


def test_run_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    code = main([
        "run", "--n", "4", "--t", "1", "--log-size", "3", "--index-num", "8",
        "--rounds", "80", "--trials", "2", "--seed", "9", "--out", str(out),
    ])
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["seed"] == "9" and rows[1]["seed"] == "10"
    assert "median stabilization round" in capsys.readouterr().out


def test_default_run_writes_nothing_to_stderr(tmp_path, capsys):
    assert main(["run", "--rounds", "20", "--out", str(tmp_path / "r.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "trials: 1" in captured.out


@pytest.mark.parametrize("t", range(5))
def test_default_kappa_is_valid_at_every_t(tmp_path, capsys, t):
    n = 3 * t + 1
    assert params_validate(make_params(n, t, log_size=3, index_num=8)) == []
    argv = ["run", "--n", str(n), "--t", str(t), "--rounds", "2",
            "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_invalid_params_exit_2(tmp_path, capsys):
    code = main(["run", "--n", "3", "--t", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "3t+1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, size, limit", [
    (["--n", "31", "--t", "10", "--rounds", "8"], "(31)_11", "1,000,000"),
    (["--index-num", "50000000", "--rounds", "1"], "150,000,000", "262,144"),
    (["--n", "20000", "--t", "0", "--index-num", "2", "--log-size", "0", "--rounds", "1"],
     "400,000,000", "1,048,576"),
])
def test_infeasible_size_exits_2_before_allocating(tmp_path, capsys, argv, size, limit):
    tracemalloc.start()
    start = time.perf_counter()
    code = main(["run", *argv, "--out", str(tmp_path / "x.csv")])
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert size in err and limit in err
    assert elapsed < 1.0
    assert peak < 1_000_000
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("n, t, index_num, ok", [
    (13, 4, 8, True),  # (13)_5 = 154,440 leaves
    (17, 4, 8, True),  # (17)_5 = 742,560
    (18, 4, 8, False),  # (18)_5 = 1,028,160
    (16, 5, 8, False),  # (16)_6 = 5,765,760, the smallest count at t = 5
    (10**9, 3 * 10**8, 8, False),  # stops multiplying once past the limit
    (4, 1, 87_381, True),  # 262,143 objects
    (4, 1, 87_382, False),  # 262,146
    (1024, 0, 8, True),  # n^2 = 2^20 deliveries per round
    (1025, 0, 8, False),  # 1,050,625
])
def test_size_limits(n, t, index_num, ok):
    config = TrialConfig(params=make_params(n, t, log_size=3, index_num=index_num))
    if ok:
        config.check()
    else:
        with pytest.raises(ConfigError):
            config.check()


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "t": 1, "rounds": 40, "seed": 3, "adversary": "random"}))
    out = tmp_path / "o.csv"
    code = main(["run", "--config", str(cfg), "--rounds", "60", "--out", str(out)])
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["rounds"] == "60"  # CLI wins
    assert rows[0]["adversary"] == "random"  # file value survives


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["run", "--config", str(cfg)]) == 2


def test_trace_flag_writes_trace_files(tmp_path):
    out = tmp_path / "runs.csv"
    code = main([
        "run", "--rounds", "30", "--trials", "1", "--seed", "4",
        "--out", str(out), "--trace",
    ])
    assert code == 0
    assert (tmp_path / "trace_4.json").exists()


def test_trials_write_their_traces_as_they_end(tmp_path):
    # only (trial, metrics) outlive a trial, so more trials do not raise the peak
    argv = ["run", "--core", "mmr-lite", "--log-size", "30", "--index-num", "64",
            "--rounds", "3000", "--trace"]
    peaks = {}
    for trials in (1, 3):
        out = tmp_path / str(trials)
        out.mkdir()
        tracemalloc.start()
        assert main(argv + ["--trials", str(trials), "--out", str(out / "runs.csv")]) == 0
        peaks[trials] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert sorted(p.name for p in (tmp_path / "3").iterdir()) == [
        "runs.csv", "trace_1.json", "trace_2.json", "trace_3.json"
    ]
    assert peaks[3] - peaks[1] < 1_000_000


def test_cli_writes_what_emit_writes(tmp_path, capsys):
    # streaming the traces changes no byte of the CSV, the summary or a trace
    argv = ["--adversary", "random", "--inject", "full", "--rounds", "60", "--trials", "2",
            "--seed", "5", "--strict", "--log-traffic"]
    streamed, listed = tmp_path / "streamed", tmp_path / "listed"
    streamed.mkdir()
    listed.mkdir()
    assert main(["run", *argv, "--trace", "--out", str(streamed / "runs.csv")]) == 0
    summary = capsys.readouterr().out
    config = TrialConfig(params=make_params(4, 1, 3, 8, seed=5), rounds=60, adversary="random",
                         inject="full", log_traffic=True)
    results = harness.run_ensemble(config, 2)
    assert harness.emit(results, str(listed / "runs.csv"),
                        trace_dir=str(listed)) == (summary.rstrip("\n"), 0)
    names = sorted(p.name for p in listed.iterdir())
    assert names == sorted(p.name for p in streamed.iterdir())
    for name in names:
        assert (streamed / name).read_bytes() == (listed / name).read_bytes()


def test_log_traffic_writes_one_line_per_delivery(tmp_path):
    out = tmp_path / "runs.csv"
    code = main([
        "run", "--rounds", "12", "--seed", "4", "--adversary", "equivocate",
        "--out", str(out), "--trace", "--log-traffic",
    ])
    assert code == 0
    trace = json.loads((tmp_path / "trace_4.json").read_text())
    correct, byz = trace["correct_ids"], trace["byz_ids"]
    # correct senders reach all n nodes, Byzantine senders the correct ones
    expected = [
        (r, i, j)
        for r in range(12)
        for i in sorted(correct + byz)
        for j in (sorted(correct + byz) if i in correct else correct)
    ]
    lines = [line.split() for line in trace["traffic"]]
    assert [(int(r), int(i), int(j)) for r, i, j, _ in lines] == expected
    assert all(bytes.fromhex(raw)[0] == int(i) for _, i, _, raw in lines)


def test_no_recycling_flag_pins_slot_zero(tmp_path):
    out = tmp_path / "runs.csv"
    assert main(["run", "--rounds", "40", "--seed", "4", "--inject", "full",
                 "--no-recycling", "--out", str(out), "--trace"]) == 0
    with out.open() as fh:
        assert next(csv.DictReader(fh))["recycling"] == "False"
    trace = json.loads((tmp_path / "trace_4.json").read_text())
    assert trace["meta"]["recycling"] is False
    assert all(rec["active"] == [0, 0, 0] for rec in trace["rounds"])
    assert trace["traffic"] == []


@pytest.mark.parametrize("policy", list(POLICIES))
def test_adversary_flag_spelling(tmp_path, policy):
    out = tmp_path / "runs.csv"
    code = main([
        "run", "--adversary", policy.replace("_", "-"), "--inject", "targeted",
        "--rounds", "80", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["adversary"] == policy


def test_strict_mode_zero_exit_on_clean_run(tmp_path):
    code = main([
        "run", "--rounds", "120", "--seed", "5", "--strict",
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 0


def test_strict_mode_fails_a_run_where_no_instance_completed(tmp_path, capsys):
    """With decisions delayed past the run, every predicate holds trivially."""
    argv = ["run", "--dmax", "100000", "--rounds", "300", "--trials", "2",
            "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    assert "instances completed (total): 0" in capsys.readouterr().out
    assert main(argv + ["--strict"]) == 1
    out = capsys.readouterr().out
    assert "stabilized: 2/2" in out
    assert "no instance completed" in out


def test_identical_invocations_identical_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "--rounds", "70", "--trials", "2", "--seed", "12", "--inject", "full"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, config, message", [
    (["--trials", "0"], None, "trials >= 1"),
    (["--trials", "-3", "--strict"], None, "trials >= 1"),
    ([], {"trials": 0}, "trials >= 1"),
    ([], {"n": "4"}, "n must be an integer"),
    ([], {"seed": True}, "seed must be an integer"),
    ([], {"n": None}, "n must be an integer"),
    ([], {"adversary": 3}, "adversary must be a string"),
    ([], {"out": 5}, "out must be a string"),
    ([], {"out": 1}, "out must be a string"),
    ([], [4], "JSON object"),
    ([], "{not json", "cannot read config"),
    ([], {"recycling": 0}, "recycling must be a boolean"),
    ([], {"log_traffic": "yes"}, "log_traffic must be a boolean"),
    (["--rounds", "0"], None, "rounds >= 1"),
    (["--dmax", "-1"], None, "dmax >= 0"),
    (["--t", "-1"], None, "t >= 0"),
    (["--n", "0"], None, "n >= 1"),
    (["--index-num", "1"], None, "index_num >= 2"),
    (["--out", "{tmp}/missing/r.csv"], None, "cannot write output"),
    (["--out", "{tmp}/missing/r.csv", "--trace"], None, "cannot write output"),
    (["--out", "{tmp}"], None, "is a directory"),
    (["--out", "{tmp}", "--trace"], None, "cannot write output"),
    # too short for a validity-checked cycle end, the first at round 2*kappa-1
    (["--rounds", "5", "--strict"], None, "--strict needs rounds >= 2*kappa = 10"),
    (["--kappa", "12", "--rounds", "20", "--strict"], None,
     "--strict needs rounds >= 2*kappa = 24"),
    # the traffic log is written only into trace files
    (["--log-traffic"], None, "log_traffic needs --trace"),
    ([], {"log_traffic": True}, "log_traffic needs --trace"),
])
def test_bad_input_exits_2_with_message(
    tmp_path, capsys, monkeypatch, argv, config, message
):
    # bad input is refused before any trial runs
    def no_trial(self):
        raise AssertionError("a trial ran")

    stream_ensemble = cli.stream_ensemble

    def no_ensemble(config, trials, trace_dir=None):
        # stream_ensemble itself refuses trials < 1, before any trial
        if trials >= 1:
            raise AssertionError("an ensemble ran")
        return stream_ensemble(config, trials, trace_dir)

    monkeypatch.setattr(harness.RoundEngine, "run", no_trial)
    monkeypatch.setattr(cli, "stream_ensemble", no_ensemble)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert main(["run", "--rounds", "20", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


# each option's type as its error message names it, and values of other types
INTEGER = ("an integer", ["4", True, 2.5])
STRING = ("a string", [3, True])
BOOLEAN = ("a boolean", [0, "yes", None])
OPTION_KINDS = {
    "n": INTEGER, "t": INTEGER, "log_size": INTEGER, "index_num": INTEGER,
    "kappa": INTEGER, "trials": INTEGER, "seed": INTEGER, "rounds": INTEGER,
    "dmax": INTEGER, "adversary": STRING, "inject": STRING, "core": STRING,
    "out": STRING, "recycling": BOOLEAN, "log_traffic": BOOLEAN,
}


def test_option_kinds_cover_every_option():
    assert OPTION_KINDS.keys() == DEFAULTS.keys()


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, monkeypatch, key):
    def no_trial(self):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness.RoundEngine, "run", no_trial)
    kind, wrong_values = OPTION_KINDS[key]
    cfg = tmp_path / "cfg.json"
    for value in wrong_values:
        cfg.write_text(json.dumps({key: value}))
        assert main(["run", "--config", str(cfg)]) == 2, value
        err = capsys.readouterr().err
        assert f"{key} must be {kind} (got {value!r})" in err
