"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test prints a single PASS line once its assertions hold, so running
`pytest tests/test_acceptance.py -v -s` gives one line per criterion. All
randomness is seed-fixed; outcomes are reproducible bit for bit.
"""

import pytest

from corsim import adversary
from corsim.env import make_params
from corsim.harness import (
    TrialConfig,
    assumption1_violations,
    instances_completed,
    run_trial,
)
from corsim.recycler import window

from drivers import enumerate_eig_byzantine_t1

POLICIES = tuple(adversary.POLICIES)


def params_for(trace):
    m = trace.meta
    return make_params(
        m["n"], m["t"], m["log_size"], m["index_num"], kappa=m["kappa"], seed=m["seed"]
    )


def run(seed, *, rounds, adversary="silent", inject="none", core="stub",
        dmax=3, recycling=True, t=1):
    params = make_params(4, t, 3, 8, seed=seed)
    cfg = TrialConfig(params=params, rounds=rounds, adversary=adversary,
                      inject=inject, core=core, dmax=dmax, recycling=recycling)
    return run_trial(cfg)


@pytest.fixture(scope="module")
def stabilized_ensemble():
    """200 injected trials (40 seeds x 5 policies) shared by criteria 5-7."""
    ensemble = []
    for k in range(200):
        policy = POLICIES[k % len(POLICIES)]
        trace, metrics = run(5000 + k, rounds=200, adversary=policy, inject="full")
        assert metrics.stabilized, (policy, 5000 + k)
        ensemble.append((trace, metrics))
    # expected-O(kappa) recovery with a geometric tail: 10 cycles cover >=95%
    kappa = ensemble[0][0].meta["kappa"]
    prompt = sum(1 for _, m in ensemble if m.stabilization_round <= 10 * kappa)
    assert prompt >= 190, prompt
    return ensemble


def test_c01_mvc_stabilization_bound():
    """Criterion 1: from round 2*kappa on, every phase-0 capture agrees across
    correct nodes and respects the inputs sampled one cycle earlier."""
    violations = 0
    captures = 0
    for k in range(100):
        policy = POLICIES[k % len(POLICIES)]
        trace, _ = run(4000 + k, rounds=30, adversary=policy, inject="full")
        kappa = trace.meta["kappa"]
        rows = trace.rounds
        for rec in rows:
            if rec.phase != 0 or rec.round < 2 * kappa:
                continue
            captures += 1
            if len(set(rec.mvc)) != 1:
                violations += 1
            samples = rows[rec.round - kappa].sample
            if samples and len(set(samples)) == 1 and rec.mvc[0] != samples[0]:
                violations += 1
    assert captures >= 100
    assert violations == 0
    print(f"\n[C1] MVC stabilization bound: {captures} captures, 0 violations: PASS")


def test_c02_eig_oracle_exhaustive():
    """Criterion 2: n=4, t=1, every Byzantine message choice over {0,1,bot}:
    validity, agreement and decision at exactly the (t+1)-th exchange."""
    cases = 0
    for p0 in (0, 1):
        for p1 in (0, 1):
            for p2 in (0, 1):
                proposals = (p0, p1, p2)
                unanimous = len(set(proposals)) == 1
                for a, decisions, timely in enumerate_eig_byzantine_t1(proposals):
                    cases += 1
                    assert timely, (proposals, a)
                    assert len(decisions) == 1, (proposals, a, decisions)
                    if unanimous:
                        assert decisions == {proposals[0]}, (proposals, a, decisions)
    assert cases == 8 * 27
    print(f"\n[C2] EIG oracle equivalence: {cases} strategy classes, 100% clean: PASS")


def test_c03_sig_index_convergence():
    """Criterion 3: distinct corrupted indices + worst-sig adversary converge
    within 7 cycles in >=95% of 200 trials; per-cycle frequency >=0.45."""
    within = 0
    attempts = 0
    successes = 0
    for seed in range(200):
        trace, _ = run(3000 + seed, rounds=50, adversary="worst_sig", inject="targeted")
        kappa = trace.meta["kappa"]
        converged_cycle = None
        for rec in trace.rounds:
            if rec.phase != kappa - 1:
                continue
            if converged_cycle is None:
                attempts += 1
                if len(set(rec.idx)) == 1:
                    successes += 1
                    converged_cycle = rec.round // kappa
        if converged_cycle is not None and converged_cycle <= 6:
            within += 1
    frequency = successes / attempts
    assert within >= 190, within
    assert frequency >= 0.45, frequency
    print(f"\n[C3] SIG-index convergence: {within}/200 within 7 cycles, "
          f"per-cycle frequency {frequency:.2f}: PASS")


def test_c04_sig_index_closure():
    """Criterion 4: once agreed, the index follows (v + sum of inc) mod bound
    at every correct node over 50+ consecutive cycles of mixed decisions."""
    trace, metrics = run(77, rounds=300)
    assert metrics.stabilization_round == 0
    kappa = trace.meta["kappa"]
    bound = trace.meta["index_states"]
    cycle_ends = [rec for rec in trace.rounds if rec.phase == kappa - 1]
    assert len(cycle_ends) >= 51
    running = cycle_ends[0].idx[0]
    assert len(set(cycle_ends[0].idx)) == 1
    incs_seen = set()
    for rec in cycle_ends[1:51]:
        assert len(set(rec.inc)) == 1, rec
        running = (running + rec.inc[0]) % bound
        incs_seen.add(rec.inc[0])
        assert rec.idx == (running,) * len(rec.idx), (rec.round, rec.idx, running)
    assert incs_seen == {0, 1}
    print("\n[C4] SIG-index closure: 50 cycles, mixed decisions, exact evolution: PASS")


def test_c05_cor_agreement(stabilized_ensemble):
    """Criterion 5: post-stabilization recycle sets identical and same-round
    at all correct nodes, across 200 injected trials."""
    violations = 0
    events = 0
    for trace, metrics in stabilized_ensemble:
        r_star = metrics.stabilization_round
        for rec in trace.rounds:
            if rec.round < r_star:
                continue
            if any(rec.recycled):
                events += 1
            if len(set(rec.recycled)) != 1:
                violations += 1
    assert events > 200
    assert violations == 0
    print(f"\n[C5] COR-agreement: {events} post-stabilization recycle rounds, "
          f"0 violations over 200 trials: PASS")


def test_c06_cor_validity_1(stabilized_ensemble):
    """Criterion 6: every post-stabilization increment is preceded, one
    pipeline cycle earlier, by a delivery report at some correct node."""
    increments = 0
    violations = 0
    for trace, metrics in stabilized_ensemble:
        kappa = trace.meta["kappa"]
        bound = trace.meta["index_states"]
        rows = trace.rounds
        r_star = metrics.stabilization_round
        for rec in rows:
            if rec.phase != kappa - 1 or rec.round < max(r_star, 1):
                continue
            prev = rows[rec.round - 1].idx
            if len(set(prev)) != 1 or len(set(rec.idx)) != 1:
                continue
            if rec.idx[0] != (prev[0] + 1) % bound:
                continue
            increments += 1
            sample_round = rec.round - (2 * kappa - 1)
            samples = rows[sample_round].sample if sample_round >= 0 else None
            if not samples or not any(s == 1 for s in samples):
                violations += 1
    assert increments > 400
    assert violations == 0
    print(f"\n[C6] COR-validity-1: {increments} increments, all preceded by a "
          f"correct delivery report: PASS")


def test_c07_cor_validity_2(stabilized_ensemble):
    """Criterion 7: unanimous retained delivery reports at a sampling phase
    lead to an increment within two cycles."""
    antecedents = 0
    violations = 0
    for trace, metrics in stabilized_ensemble:
        kappa = trace.meta["kappa"]
        bound = trace.meta["index_states"]
        rows = trace.rounds
        r_star = metrics.stabilization_round
        for rec in rows:
            if rec.phase != 0 or rec.round < r_star or rec.sample is None:
                continue
            if not all(s == 1 for s in rec.sample):
                continue
            due = rec.round + 2 * kappa - 1
            if due >= len(rows):
                continue
            antecedents += 1
            before, after = rows[due - 1].idx, rows[due].idx
            ok = (
                len(set(before)) == 1
                and len(set(after)) == 1
                and after[0] == (before[0] + 1) % bound
            )
            if not ok:
                violations += 1
    assert antecedents > 400
    assert violations == 0
    print(f"\n[C7] COR-validity-2: {antecedents} unanimous-delivery phases, "
          f"increment within 2 cycles every time: PASS")


def test_c08_delivery_indication_propagation():
    """Criterion 8: recycling disabled, delay stub at dmax=10: once one
    correct node retains wasDelivered()=1, all do within dmax+2 rounds."""
    checked = 0
    violations = 0
    dmax = 10
    for k in range(100):
        policy = POLICIES[k % len(POLICIES)]
        trace, _ = run(8000 + k, rounds=60, adversary=policy, inject="full",
                       dmax=dmax, recycling=False)
        rows = trace.rounds
        node_count = len(trace.correct_ids)
        retained_from = []
        for i in range(node_count):
            start = None
            for rec in reversed(rows):
                if rec.wd[i] == 1:
                    start = rec.round
                else:
                    break
            retained_from.append(start)
        reached = [r for r in retained_from if r is not None]
        if not reached:
            continue
        first = min(reached)
        if first + dmax + 2 >= len(rows):
            continue  # bound not observable before end of run
        checked += 1
        if any(r is None or r > first + dmax + 2 for r in retained_from):
            violations += 1
    assert checked >= 95
    assert violations == 0
    print(f"\n[C8] delivery-indication propagation: {checked} trials within "
          f"dmax+2 rounds, 0 violations: PASS")


def test_c09_end_to_end_recycling():
    """Criterion 9: 1000 instances flow through the 8-slot array; every
    correct node reads every instance before its slot is recycled; never
    more than log_size+1 slots in use."""
    trace, metrics = run(9001, rounds=11000)
    assert metrics.stabilization_round == 0
    assert metrics.instances_completed >= 1000
    assert assumption1_violations(trace) == []
    # every retrieved instance was read by every correct node
    complete = instances_completed(trace)
    assert complete == len(trace.retrievals)
    # bounded retrieval: last read lands within log_size rounds of the
    # (t+1)-th correct read
    t, log_size = trace.meta["t"], trace.meta["log_size"]
    for reads in trace.retrievals.values():
        rounds = sorted(r for r, _ in reads.values())
        if len(rounds) >= t + 1:
            assert rounds[-1] - rounds[t] <= log_size
    worst = max(max(rec.non_fresh) for rec in trace.rounds)
    assert worst <= trace.meta["log_size"] + 1
    print(f"\n[C9] end-to-end recycling: {metrics.instances_completed} instances, "
          f"all read before recycle, max {worst} slots in use: PASS")


def test_c10_window_algebra():
    """Criterion 10: window matches brute-force enumeration for every
    index_num <= 16; exactly one slot leaves per unit slide."""
    checked = 0
    for index_num in range(2, 17):
        for log_size in range(0, index_num - 1):
            for ind in range(index_num):
                expected = {(ind - k) % index_num for k in range(log_size + 1)}
                assert window(ind, index_num, log_size) == expected
                nxt = window((ind + 1) % index_num, index_num, log_size)
                gone = window(ind, index_num, log_size) - nxt
                assert gone == {(ind - log_size) % index_num}
                checked += 1
    assert checked > 1000
    print(f"\n[C10] window algebra: {checked} (index_num, log_size, ind) cases: PASS")


def test_c11_determinism(tmp_path):
    """Criterion 11: identical configuration implies byte-identical traces
    and CSV rows."""
    from corsim.harness import emit, run_ensemble

    params = make_params(4, 1, 3, 8, seed=31)
    cfg = TrialConfig(params=params, rounds=150, adversary="worst_sig",
                      inject="full", core="stub")
    trace_a, _ = run_trial(cfg)
    trace_b, _ = run_trial(cfg)
    assert trace_a.to_bytes() == trace_b.to_bytes()

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(run_ensemble(cfg, trials=2), str(out_a))
    emit(run_ensemble(cfg, trials=2), str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    print("\n[C11] determinism: byte-identical traces and CSV rows: PASS")
