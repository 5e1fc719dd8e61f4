"""Command-line interface: flags, config files, outputs, exit codes."""

import csv
import json

import pytest

from corsim.adversary import POLICIES
from corsim.cli import main


def test_run_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    code = main([
        "run", "--n", "4", "--t", "1", "--log-size", "3", "--index-num", "8",
        "--rounds", "80", "--trials", "2", "--seed", "9", "--out", str(out),
    ])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2
    assert rows[0]["seed"] == "9" and rows[1]["seed"] == "10"
    assert "median stabilization round" in capsys.readouterr().out


def test_default_run_prints_phase_overlap_warning(tmp_path, capsys):
    # the default kappa is 5, below t+5 = 6 at t=1
    assert main(["run", "--rounds", "20", "--out", str(tmp_path / "r.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: kappa < t+5: ")
    assert captured.err.count("warning: ") == 1
    assert "trials: 1" in captured.out


def test_invalid_params_exit_2(tmp_path, capsys):
    code = main(["run", "--n", "3", "--t", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "3t+1" in capsys.readouterr().err


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "t": 1, "rounds": 40, "seed": 3, "adversary": "random"}))
    out = tmp_path / "o.csv"
    code = main(["run", "--config", str(cfg), "--rounds", "60", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
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
    assert list(csv.DictReader(out.open()))[0]["recycling"] == "False"
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
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["adversary"] == policy


def test_strict_mode_zero_exit_on_clean_run(tmp_path):
    code = main([
        "run", "--rounds", "120", "--seed", "5", "--strict",
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 0


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
])
def test_bad_input_exits_2_with_message(tmp_path, capsys, argv, config, message):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert main(["run", "--rounds", "20", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
