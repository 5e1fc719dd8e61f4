"""Round engine, trace legality checks, metrics and CSV emission."""

import pytest

import test_golden_digests as golden
from corsim.env import Params, make_params
from corsim.harness import (
    VIOLATION_KINDS,
    ConfigError,
    TrialConfig,
    assumption1_violations,
    compute_metrics,
    emit,
    legality_violations,
    run_ensemble,
    run_trial,
)


def config(seed=1, rounds=120, adversary="silent", inject="none", core="stub",
           dmax=3, recycling=True, n=4, t=1, log_size=3, index_num=8):
    return TrialConfig(
        params=make_params(n, t, log_size, index_num, seed=seed),
        rounds=rounds,
        adversary=adversary,
        inject=inject,
        core=core,
        dmax=dmax,
        recycling=recycling,
    )


class TestRunTrial:
    def test_faultfree_run_is_legal_from_round_zero(self):
        trace, metrics = run_trial(config(rounds=500))
        assert metrics.stabilized
        assert metrics.stabilization_round == 0
        assert all(v == 0 for v in metrics.cor_violations.values())

    def test_injected_run_stabilizes_then_stays_clean(self):
        trace, metrics = run_trial(config(seed=3, rounds=300, inject="full"))
        assert metrics.stabilized
        assert metrics.stabilization_round > 0
        viol = legality_violations(trace, trace_params(trace))
        r_star = metrics.stabilization_round
        assert all(r < r_star for rounds in viol.values() for r in rounds)

    def test_invalid_config_reports_violations(self):
        bad = TrialConfig(
            params=Params(n=3, t=1, kappa=5, index_num=8, log_size=3),
        )
        with pytest.raises(ConfigError) as err:
            run_trial(bad)
        assert any("3t+1" in v for v in err.value.violations)

    def test_t_zero_converges_within_first_cycle(self):
        # no Byzantine interference: distinct indices collapse to zero at once
        for seed in range(20):
            p = make_params(4, 0, 3, 8, seed=700 + seed)
            cfg = TrialConfig(params=p, rounds=60, adversary="silent",
                              inject="targeted", core="stub")
            trace, metrics = run_trial(cfg)
            assert metrics.cycles_to_index_agreement == 0

    def test_reveal_order_recorded(self):
        trace, _ = run_trial(config(rounds=10))
        assert trace.reveal_order == ("byz_outboxes", "coin_reveal", "node_compute")

    def test_instance_bookkeeping_consistent(self):
        trace, metrics = run_trial(config(rounds=400))
        assert metrics.instances_completed > 10
        assert assumption1_violations(trace) == []
        for key, reads in trace.retrievals.items():
            for node, (round_index, value) in reads.items():
                assert value in ("0", "1")


def trace_params(trace):
    m = trace.meta
    return Params(
        n=m["n"], t=m["t"], kappa=m["kappa"],
        index_num=m["index_num"], log_size=m["log_size"], seed=m["seed"],
    )


class TestDeterminism:
    def test_identical_config_identical_trace(self):
        cfg = config(seed=5, rounds=150, adversary="worst_sig", inject="full")
        t1, m1 = run_trial(cfg)
        t2, m2 = run_trial(cfg)
        assert t1.to_bytes() == t2.to_bytes()
        assert m1 == m2

    def test_different_seeds_differ(self):
        t1, _ = run_trial(config(seed=6, rounds=80, inject="full"))
        t2, _ = run_trial(config(seed=7, rounds=80, inject="full"))
        assert t1.digest() != t2.digest()


class TestMeasureStabilization:
    def test_clean_trace_round_zero(self):
        trace, _ = run_trial(config(rounds=200))
        metrics = compute_metrics(trace, trace_params(trace))
        assert metrics.stabilization_round == 0
        assert metrics.cycles_to_index_agreement == 0

    def test_injected_trace_bounded_tail(self):
        hits = 0
        for seed in range(40):
            trace, metrics = run_trial(config(seed=1000 + seed, rounds=300, inject="full"))
            assert metrics.stabilized
            if metrics.stabilization_round <= 10 * trace.meta["kappa"]:
                hits += 1
        assert hits >= 38  # >= 95% of seeds within 10 cycles

    def test_unstabilized_when_trace_too_short(self):
        # violations at the very end leave no clean suffix to report
        trace, metrics = run_trial(config(seed=2, rounds=3, inject="targeted"))
        assert not metrics.stabilized
        assert metrics.cycles_to_index_agreement is None


def three_pass_violations(trace, params):
    """Reference checker: one pass per group of predicates, as first written.

    The sweep in legality_violations must report exactly what this does.
    """
    kappa = params.kappa
    bound = params.index_num
    rows = trace.rounds
    viol = {name: [] for name in VIOLATION_KINDS}

    for rec in rows:
        if len(set(rec.idx)) > 1:
            viol["index_agreement"].append(rec.round)
        if len(set(rec.recycled)) > 1:
            viol["cor_agreement"].append(rec.round)

    for rec in rows:
        if rec.phase != kappa - 1 or rec.round == 0:
            continue
        prev = rows[rec.round - 1].idx
        if len(set(prev)) != 1:
            continue
        v = prev[0]
        expected = tuple((v + rec.inc[k]) % bound for k in range(len(rec.idx)))
        if rec.idx != expected:
            viol["closure"].append(rec.round)
        if len(set(rec.idx)) == 1 and rec.idx[0] == (v + 1) % bound and all(
            x == 1 for x in rec.inc
        ):
            sample_round = rec.round - (2 * kappa - 1)
            if sample_round < 0:
                viol["cor_validity1"].append(rec.round)
            else:
                samples = rows[sample_round].sample or ()
                if not any(s == 1 for s in samples):
                    viol["cor_validity1"].append(rec.round)

    for rec in rows:
        if rec.phase != 0 or rec.sample is None:
            continue
        if not all(s == 1 for s in rec.sample):
            continue
        due = rec.round + 2 * kappa - 1
        if due >= len(rows):
            continue
        before, after = rows[due - 1].idx, rows[due].idx
        incremented = (
            len(set(before)) == 1
            and len(set(after)) == 1
            and after[0] == (before[0] + 1) % bound
        )
        if not incremented:
            viol["cor_validity2"].append(due)
    return viol


# One breach per predicate, planted in the seed-1 fault-free trial (n=4, t=1,
# kappa=5, index_num=8), which no engine run breaks: there the index rests at
# 6 over the cycle ends 64 and 69 and steps 6 -> 7 at 74, answering the
# all-ones sample of round 65; the sample of round 60 is all zeros. Each
# planter edits the trace and returns the round of its breach.
def split_index(rows):
    rows[62].idx = (6, 7, 6)
    return 62


def split_recycled(rows):
    rows[63].recycled = ((), (2,), ())
    return 63


def skip_index(rows):
    rows[64].idx = (0, 0, 0)  # 6 + inc 0 is 6
    return 64


def unbacked_increment(rows):
    rows[65].sample = (0, 0, 0)  # no report backs the step at 74
    return 74


def missed_increment(rows):
    rows[60].sample = (1, 1, 1)  # due at 69, which keeps 6
    return 69


PLANTERS = {
    "index_agreement": split_index,
    "cor_agreement": split_recycled,
    "closure": skip_index,
    "cor_validity1": unbacked_increment,
    "cor_validity2": missed_increment,
}


@pytest.fixture
def clean():
    """The seed-1 fault-free trace, checked to be in the shape the planters expect."""
    trace, metrics = run_trial(config(rounds=120))
    rows = trace.rounds
    assert metrics.stabilization_round == 0
    assert [rows[r].idx for r in (63, 64, 69, 73, 74)] == [(6, 6, 6)] * 4 + [(7, 7, 7)]
    assert [rows[r].inc for r in (64, 69, 74)] == [(0, 0, 0), (0, 0, 0), (1, 1, 1)]
    assert (rows[60].sample, rows[65].sample) == ((0, 0, 0), (1, 1, 1))
    return trace


class TestPlantedBreaches:
    """Each predicate is shown to fire on a trace that breaks it, at its round."""

    P = config().params

    @pytest.mark.parametrize("kind", list(PLANTERS))
    def test_each_breach_found_at_its_round(self, clean, kind):
        bad_round = PLANTERS[kind](clean.rounds)
        viol = legality_violations(clean, self.P)
        assert viol == {name: [bad_round] if name == kind else [] for name in VIOLATION_KINDS}
        assert viol == three_pass_violations(clean, self.P)
        metrics = compute_metrics(clean, self.P)
        assert metrics.stabilization_round == bad_round + 1
        assert all(count == 0 for count in metrics.cor_violations.values())

    def test_all_breaches_together(self, clean):
        rounds = {kind: plant(clean.rounds) for kind, plant in PLANTERS.items()}
        viol = legality_violations(clean, self.P)
        assert viol == {kind: [r] for kind, r in rounds.items()}
        assert viol == three_pass_violations(clean, self.P)
        metrics = compute_metrics(clean, self.P)
        assert metrics.stabilization_round == 75
        # the first cycle end after the split index at 62
        assert metrics.cycles_to_index_agreement == 12

    def test_increment_before_the_first_sample_is_unbacked(self, clean):
        # cycle end 4 has no phase-0 sample 2 * kappa - 1 rounds before it
        clean.rounds[4].idx = clean.rounds[4].inc = (1, 1, 1)
        viol = legality_violations(clean, self.P)
        assert viol == {name: [4] if name == "cor_validity1" else [] for name in VIOLATION_KINDS}
        assert viol == three_pass_violations(clean, self.P)

    def test_late_breach_leaves_trial_unstabilized(self, clean):
        for plant in PLANTERS.values():
            plant(clean.rounds)
        clean.rounds[118].recycled = ((4,), (), ())
        metrics = compute_metrics(clean, self.P)
        # r* = 119 leaves less than one clean cycle before round 120
        assert not metrics.stabilized and metrics.stabilization_round is None
        assert metrics.cycles_to_index_agreement == 12
        # the tail is the last max(10 * kappa, 120 // 4) = 50 rounds: 70..119
        assert metrics.cor_violations == {
            "index_agreement": 0, "cor_agreement": 1, "closure": 0,
            "cor_validity1": 1, "cor_validity2": 0,
        }


@pytest.mark.parametrize("case", golden.grid(), ids=golden.case_id)
def test_sweep_matches_three_pass_reference_on_golden_traces(case):
    trace = golden.run(case)
    params = trace_params(trace)
    for cut in (golden.ROUNDS, 57):  # a whole trace and one cut mid-cycle
        trace.rounds = trace.rounds[:cut]
        assert legality_violations(trace, params) == three_pass_violations(trace, params)


class TestEmit:
    def test_rows_one_per_trial(self, tmp_path):
        out = tmp_path / "runs.csv"
        results = run_ensemble(config(rounds=60), trials=3)
        summary, code = emit(results, str(out))
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert code == 0
        assert "trials: 3" in summary

    def test_strict_flags_unstabilized(self, tmp_path):
        results = run_ensemble(config(rounds=3, inject="targeted"), trials=1)
        _, code = emit(results, str(tmp_path / "r.csv"), strict=True)
        assert code == 1
        _, code_lax = emit(results, str(tmp_path / "r2.csv"), strict=False)
        assert code_lax == 0

    def test_trace_files_written(self, tmp_path):
        results = run_ensemble(config(rounds=20), trials=2)
        emit(results, str(tmp_path / "r.csv"), trace_dir=str(tmp_path))
        assert (tmp_path / "trace_1.json").exists()
        assert (tmp_path / "trace_2.json").exists()

    def test_unwritable_path_raises_oserror(self, tmp_path):
        results = run_ensemble(config(rounds=10), trials=1)
        with pytest.raises(OSError):
            emit(results, str(tmp_path / "missing" / "r.csv"))

    def test_csv_rows_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_ensemble(config(rounds=60), trials=2), str(a))
        emit(run_ensemble(config(rounds=60), trials=2), str(b))
        assert a.read_bytes() == b.read_bytes()


def test_optional_traffic_log_lines():
    cfg = config(rounds=6)
    logged = TrialConfig(
        params=cfg.params, rounds=6, adversary="silent", inject="none",
        core="stub", dmax=3, log_traffic=True,
    )
    trace, _ = run_trial(logged)
    assert trace.traffic
    round_index, sender, receiver, payload = trace.traffic[0].split()
    assert round_index == "0"
    assert bytes.fromhex(payload)[0] == int(sender)


def test_mmr_core_end_to_end_recovery():
    """The coin-based core drives the full stack too: instances complete and
    recycle, and a fully corrupted start still reaches a legal suffix."""
    clean, _ = run_trial(config(seed=42, rounds=600, core="mmr-lite"))
    clean_metrics = run_trial(config(seed=42, rounds=600, core="mmr-lite"))[1]
    assert clean_metrics.stabilization_round == 0
    assert clean_metrics.instances_completed >= 20
    assert assumption1_violations(clean) == []

    injected, metrics = run_trial(
        config(seed=43, rounds=600, core="mmr-lite", inject="full", adversary="random")
    )
    assert metrics.stabilized
    assert metrics.instances_completed >= 10
    assert assumption1_violations(injected, from_round=metrics.stabilization_round) == []
