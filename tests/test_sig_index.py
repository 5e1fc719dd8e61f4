"""Increment-or-get index: phase logic, quorum arithmetic, convergence cases."""

from itertools import combinations, product

from corsim.env import make_params
from corsim.sig_index import SigIndex, read_kind, tally
from corsim.transport import SigPayload

from drivers import run_sig_cycle, sig_script

P = make_params(n=4, t=1, log_size=3, index_num=8, seed=0)


def pulse(sig, phase, msgs):
    """One pulse on the tally of msgs that the phase reads, with mvc result and coin 0."""
    return sig.pulse(phase, tally(msgs.values(), read_kind(phase, P.kappa)), 0, 0)


class TestGetIndex:
    def test_plain_read(self):
        assert SigIndex(P).index == 0
        sigs = run_sig_cycle(P, indices=[5, 5, 5], byz_script={},
                             mvc_results=[0, 0, 0], coin_bit=0)
        assert [s.index for s in sigs.values()] == [5, 5, 5]

    def test_in_range_corruption_read_raw(self):
        # a planted in-range index is what the next write builds on
        sigs = run_sig_cycle(P, indices=[7, 7, 7], byz_script={},
                             mvc_results=[1, 1, 1], coin_bit=0)
        assert [s.index for s in sigs.values()] == [0, 0, 0]

    def test_out_of_range_corruption_read_raw_until_write(self):
        sig = SigIndex(P)
        sig.index = 12
        assert sig.index == 12
        sigs = run_sig_cycle(P, indices=[12, 12, 12], byz_script={},
                             mvc_results=[0, 0, 0], coin_bit=0)
        assert [s.index for s in sigs.values()] == [12 % 8] * 3


class TestHandSimulatedCycles:
    def test_idle_cycle_keeps_index(self):
        # hand simulation: unanimous index 3, no increment, silent byz
        sent = {}
        sigs = run_sig_cycle(P, indices=[3, 3, 3], byz_script={},
                             mvc_results=[0, 0, 0], coin_bit=1, sent=sent)
        assert all(s.index == 3 for s in sigs.values())
        assert all(s.save == 3 for s in sigs.values())
        assert [out.value for out in sent[P.kappa - 2].values()] == [1, 1, 1]
        assert all(s.last_quorum == "ones" for s in sigs.values())

    def test_increment_cycle(self):
        sigs = run_sig_cycle(P, indices=[3, 3, 3], byz_script={},
                             mvc_results=[1, 1, 1], coin_bit=0)
        assert all(s.index == 4 for s in sigs.values())

    def test_wraparound_increment(self):
        sigs = run_sig_cycle(P, indices=[7, 7, 7], byz_script={},
                             mvc_results=[1, 1, 1], coin_bit=0)
        assert all(s.index == 0 for s in sigs.values())

    def test_out_of_range_value_normalized_at_write(self):
        sigs = run_sig_cycle(P, indices=[12, 12, 12], byz_script={},
                             mvc_results=[0, 0, 0], coin_bit=1)
        assert all(s.index == 12 % 8 for s in sigs.values())

    def test_distinct_indices_zero_quorum_forces_zero(self):
        # 3 distinct values: nobody can vote, all bits 0, zero branch fires
        sigs = run_sig_cycle(P, indices=[1, 2, 3], byz_script={},
                             mvc_results=[0, 0, 0], coin_bit=1)
        assert all(s.index == 0 for s in sigs.values())
        assert all(s.last_quorum == "zeros" for s in sigs.values())

    def test_mixed_bits_and_coin_zero_converge_to_zero(self):
        """No node collects a bit quorum; the zero coin lands everyone on 0."""
        script = {
            "k-4": sig_script("index", {0: 5, 1: 5, 2: 999}),
            "k-3": sig_script("propose", {0: 5, 1: None, 2: None}),
            "k-2": sig_script("bit", {0: 1, 1: 1, 2: 1}),
        }
        sigs = run_sig_cycle(P, indices=[5, 5, 2], byz_script=script,
                             mvc_results=[0, 0, 0], coin_bit=0)
        assert all(s.last_quorum == "coin" for s in sigs.values())
        assert all(s.index == 0 for s in sigs.values())

    def test_mixed_bits_and_coin_one_can_split(self):
        # same scenario, coin 1: saves differ (5 vs defaulted 0), no convergence
        script = {
            "k-4": sig_script("index", {0: 5, 1: 5, 2: 999}),
            "k-3": sig_script("propose", {0: 5, 1: None, 2: None}),
            "k-2": sig_script("bit", {0: 1, 1: 1, 2: 1}),
        }
        sigs = run_sig_cycle(P, indices=[5, 5, 2], byz_script=script,
                             mvc_results=[0, 0, 0], coin_bit=1)
        values = [sigs[i].index for i in range(3)]
        assert values == [5, 0, 0]

    def test_byz_cannot_steal_save_from_unanimous_correct(self):
        script = {
            "k-4": sig_script("index", {0: 6, 1: 6, 2: 6}),
            "k-3": sig_script("propose", {0: 6, 1: 6, 2: 6}),
            "k-2": sig_script("bit", {0: 0, 1: 0, 2: 0}),
        }
        sigs = run_sig_cycle(P, indices=[2, 2, 2], byz_script=script,
                             mvc_results=[0, 0, 0], coin_bit=0)
        assert all(s.save == 2 for s in sigs.values())
        assert all(s.index == 2 for s in sigs.values())


class TestPhaseDetails:
    def test_no_traffic_outside_protocol_phases(self):
        sig = SigIndex(P)
        assert pulse(sig, 0, {}) is None

    def test_propose_requires_quorum(self):
        sig = SigIndex(P)
        msgs = {j: SigPayload(kind="index", value=4) for j in range(2)}
        out = pulse(sig, P.kappa - 3, msgs)
        assert out.value is None

    def test_bit_counts_distinct_senders_not_values(self):
        sig = SigIndex(P)
        msgs = {
            0: SigPayload(kind="propose", value=1),
            1: SigPayload(kind="propose", value=2),
            2: SigPayload(kind="propose", value=3),
            3: SigPayload(kind="propose", value=None),
        }
        out = pulse(sig, P.kappa - 2, msgs)
        assert out.value == 1  # three non-empty votes from distinct senders
        assert sig.save == 0  # but no majority value: default

    def test_mistyped_payloads_ignored(self):
        sig = SigIndex(P)
        sig.index = 9
        msgs = {j: SigPayload(kind="bit", value=1) for j in range(4)}
        out = pulse(sig, P.kappa - 3, msgs)
        assert out.value is None  # bit messages do not count as index votes

    def test_mvc_bot_treated_as_no_increment(self):
        sigs = run_sig_cycle(P, indices=[3, 3, 3], byz_script={},
                             mvc_results=[None, None, None], coin_bit=0)
        assert all(s.index == 3 for s in sigs.values())


def test_quorum_intersection_exhaustive_small_n():
    """Two n-vectors differing in at most t < n/3 entries cannot hold n-t
    copies of different values (checked by full enumeration)."""
    alphabet = (0, 1, 2)
    for n in (4, 5, 6):
        t = (n - 1) // 3
        for base in product(alphabet, repeat=n):
            counts = {v: base.count(v) for v in alphabet}
            winners_a = {v for v, c in counts.items() if c >= n - t}
            if not winners_a:
                continue
            for flips in combinations(range(n), t):
                for replacement in product(alphabet, repeat=t):
                    other = list(base)
                    for pos, val in zip(flips, replacement):
                        other[pos] = val
                    counts_b = {v: other.count(v) for v in alphabet}
                    winners_b = {v for v, c in counts_b.items() if c >= n - t}
                    assert len(winners_a) <= 1 and len(winners_b) <= 1
                    if winners_a and winners_b:
                        assert winners_a == winners_b


def test_one_quorum_observer_implies_common_save_and_mvc():
    """Whenever some correct node collects n-t one-bits at the write phase,
    every correct node holds the same (mvc result, save) pair that round."""
    from corsim import TrialConfig, run_trial

    checked = 0
    for seed in range(25):
        p = make_params(4, 1, 3, 8, seed=2600 + seed)
        for policy in ("random", "worst_sig", "equivocate"):
            cfg = TrialConfig(params=p, rounds=12 * p.kappa, adversary=policy,
                              inject="full", core="stub")
            trace, _ = run_trial(cfg)
            for rec in trace.rounds:
                if rec.phase != p.kappa - 1 or rec.round < p.kappa:
                    continue
                if "ones" in rec.branch:
                    checked += 1
                    assert len(set(rec.save)) == 1, (seed, policy, rec)
                    assert len(set(rec.mvc)) == 1, (seed, policy, rec)
    assert checked > 50


def test_paired_indices_worst_case_split_holds_convergence_to_coin():
    """From a two-against-one index split, the sharpest adversary play (plant
    a partial quorum, split saves, balance bits) pins per-cycle convergence
    to the coin: measured frequency ~1/2, and the geometric tail still lands
    inside 7 cycles."""
    from corsim import TrialConfig
    from corsim.harness import RoundEngine

    successes = attempts = 0
    within7 = 0
    trials = 60
    for seed in range(trials):
        p = make_params(4, 1, 3, 8, seed=12000 + seed)
        cfg = TrialConfig(params=p, rounds=14 * p.kappa, adversary="worst_sig",
                          inject="none", core="stub")
        engine = RoundEngine(cfg)
        engine.nodes[0].sig.index = 5
        engine.nodes[1].sig.index = 5
        engine.nodes[2].sig.index = 2
        trace = engine.run()
        converged = None
        for rec in trace.rounds:
            if rec.phase == p.kappa - 1 and converged is None:
                attempts += 1
                if len(set(rec.idx)) == 1:
                    successes += 1
                    converged = rec.round // p.kappa
        if converged is not None and converged <= 6:
            within7 += 1
    frequency = successes / attempts
    assert 0.35 <= frequency <= 0.65, frequency
    assert within7 >= trials - 3
