"""Checks on the benchmark itself: run with `python3 -m pytest bench`.

Short trials stand in for the workloads' full ones; the point is that every
wrapped name is still called, that tracing changes no trace byte, and that
the exact counts repeat.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import layers
import pace
import run
from run import harness
from workloads import DEFAULT_SEED, ROOT, WORKLOADS

SHORT_ROUNDS = {"n4-worstsig-recovery": 60, "n10-eig-split": 12, "n4-mmr-wide-window": 120}


def short(name: str, **changes):
    """The workload with short trials, plus any other changed fields."""
    return dataclasses.replace(WORKLOADS[name], rounds=SHORT_ROUNDS[name], **changes)


def traced_ensemble(workload, out_dir):
    """One traced run_ensemble + emit of a single trial."""
    tracer = layers.Tracer()
    with layers.traced(tracer):
        results = harness.run_ensemble(workload.config(DEFAULT_SEED), 1)
        harness.emit(results, str(out_dir / "runs.csv"), trace_dir=str(out_dir))
    return tracer, results[0][2].digest()


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_wrapped_name_is_hit_and_tracing_changes_nothing(name, tmp_path):
    workload = short(name)
    untraced = harness.RoundEngine(workload.config(DEFAULT_SEED)).run().digest()

    first, first_digest = traced_ensemble(workload, tmp_path)
    second, second_digest = traced_ensemble(workload, tmp_path)

    assert layers.missing_hits(first.hits, workload) == []
    assert first_digest == second_digest == untraced
    assert first.counts == second.counts
    assert first.counts["harness.rounds"] == workload.rounds


def test_adversary_derived_int_is_hit_under_equivocate(tmp_path):
    workload = short("n4-worstsig-recovery", adversary="equivocate")
    tracer, _ = traced_ensemble(workload, tmp_path)
    assert tracer.hits["corsim.adversary:derived_int"] > 0
    assert layers.missing_hits(tracer.hits, workload) == []


def test_unknown_name_fails_and_restores_the_installed_wrappers():
    import corsim.harness

    original = corsim.harness.exchange
    hooks = (
        layers.Hook("corsim.harness:exchange", "transport.exchange_s", True),
        layers.Hook("corsim.harness:no_such_name", "transport.digest_s", True),
    )
    with pytest.raises(AttributeError, match="no_such_name"):
        with layers.traced(layers.Tracer(), hooks):
            pass
    assert corsim.harness.exchange is original


def test_trial_timer_times_every_trial_of_an_ensemble_and_restores_corsim():
    workload = short("n4-worstsig-recovery")
    original_trial, original_run = harness.run_trial, harness.RoundEngine.run
    timer = layers.TrialTimer()
    with timer.installed():
        harness.run_ensemble(workload.config(DEFAULT_SEED), 2)
        trials, runs = timer.take()
    assert [seed for seed, _ in runs] == [DEFAULT_SEED, DEFAULT_SEED + 1]
    assert len(trials) == 2
    assert all(trial > run_s > 0 for trial, (_, run_s) in zip(trials, runs))
    assert timer.take() == ([], [])
    assert (harness.run_trial, harness.RoundEngine.run) == (original_trial, original_run)


# n4-worstsig-recovery seeds whose trials fail the gate with the current
# sources: an instance read at round 0 from injected state is evicted unread
# at other nodes after r*. Fixing that in corsim should fail this test.
KNOWN_FAILING_SEEDS = (364, 449, 466, 858)


@pytest.mark.parametrize("seed", KNOWN_FAILING_SEEDS)
def test_gate_reports_the_known_baseline_failures(seed):
    config = WORKLOADS["n4-worstsig-recovery"].config(seed)
    trace = harness.RoundEngine(config).run()
    metrics = harness.compute_metrics(trace, config.params)
    _, problems = run.trial_problems(trace, metrics, config.params, None)
    assert [p for p in problems if "assumption-1" in p], problems


def test_gate_recounts_post_stabilization_violations():
    config = short("n4-worstsig-recovery").config(DEFAULT_SEED)
    trace = harness.RoundEngine(config).run()
    metrics = harness.compute_metrics(trace, config.params)
    assert metrics.stabilization_round is not None
    # a metrics object that places r* too early must fail on the recount
    early = dataclasses.replace(metrics, stabilization_round=0)
    _, problems = run.trial_problems(trace, early, config.params, None)
    assert [p for p in problems if "post-stabilization" in p], problems


def test_recorded_digests_match_the_sources():
    table = json.loads(run.DIGESTS.read_text())
    for name, workload in WORKLOADS.items():
        assert len(table[name]) == run.RECORDED_TRIALS
        trace = harness.RoundEngine(workload.config(DEFAULT_SEED)).run()
        assert trace.digest() == table[name][0], name


def test_pace_normalizes_by_the_measured_reference_pace():
    assert pace.normalize(2.0, 2 * pace.NOMINAL_ITERATION_S) == pytest.approx(1.0)
    measured = pace.reference_pace(0.01)
    assert 0 < measured < 0.1
    assert pace.Pacer().paced(0.01) > 0
