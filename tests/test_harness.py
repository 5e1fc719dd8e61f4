"""Round engine, trace legality checks, metrics and CSV emission."""

import pytest

from corsim.env import Params, make_params
from corsim.harness import (
    ConfigError,
    TrialConfig,
    assumption1_violations,
    emit,
    legality_violations,
    measure_stabilization,
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
        report = measure_stabilization(trace, trace_params(trace))
        assert report.stabilization_round == 0

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
