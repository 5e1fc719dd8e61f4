"""Core contract checks for the delay stub and the coin-based consensus."""

from corsim.cores import (
    CORE_FAULT,
    DECIDED,
    DelayStubCore,
    StubOracle,
    mmr_core_factory,
)
from corsim.env import make_params
from corsim.harness import RoundEngine, TrialConfig
from corsim.recyclable import RecyclableObject


def wire_objects(oracle, n=4, t=1, slot=0):
    return {
        i: RecyclableObject(n, t, i, slot, lambda s, i=i: DelayStubCore(oracle, i, s), set())
        for i in oracle.correct_ids
    }


class TestDelayStub:
    def test_decides_majority_of_correct_proposals(self):
        oracle = StubOracle(seed=3, correct_ids=[0, 1, 2], dmax=0)
        objs = wire_objects(oracle)
        values = {0: 1, 1: 1, 2: 0}
        for i, obj in objs.items():
            obj.propose(values[i])
        oracle.observe(0, {i: [objs[i]] for i in objs})
        oracle.begin_round(5)
        decisions = {i: objs[i].core.decided() for i in objs}
        assert all(d == (DECIDED, 1) for d in decisions.values())

    def test_waits_for_all_correct_proposals(self):
        oracle = StubOracle(seed=3, correct_ids=[0, 1, 2], dmax=0)
        objs = wire_objects(oracle)
        objs[0].propose(1)
        oracle.observe(0, {i: [objs[i]] for i in objs})
        oracle.begin_round(9)
        assert objs[0].core.decided() is None

    def test_reveal_delays_bounded_by_dmax(self):
        dmax = 6
        oracle = StubOracle(seed=4, correct_ids=[0, 1, 2], dmax=dmax)
        objs = wire_objects(oracle)
        for obj in objs.values():
            obj.propose(1)
        oracle.observe(2, {i: [objs[i]] for i in objs})
        rec = oracle.records[0]
        assert all(2 <= r <= 2 + dmax for r in rec.reveal.values())

    def test_decision_not_served_to_recycled_core(self):
        oracle = StubOracle(seed=5, correct_ids=[0, 1, 2], dmax=0)
        objs = wire_objects(oracle)
        for obj in objs.values():
            obj.propose(1)
        oracle.observe(0, {i: [objs[i]] for i in objs})
        oracle.begin_round(4)
        objs[1].recycle()
        assert objs[1].core.decided() is None
        assert objs[0].core.decided() == (DECIDED, 1)

    def test_record_clears_when_incarnation_ends(self):
        """In an engine run a slot's record lives exactly as long as its
        incarnation: it is dropped, and slot_gen advances, in the round where
        every correct copy of the slot is back to its initial state."""
        engine = RoundEngine(TrialConfig(params=make_params(4, 1, 3, 8, seed=6), rounds=200))
        ended = 0
        for r in range(engine.config.rounds):
            recorded = set(engine.stub_oracle.records)
            gens = dict(engine.slot_gen)
            engine._round(r)
            for slot in recorded:
                copies = [node.objects.slots[slot] for node in engine.nodes.values()]
                if all(obj.is_fresh() for obj in copies):
                    assert slot not in engine.stub_oracle.records
                    assert engine.slot_gen[slot] == gens[slot] + 1
                    ended += 1
                else:
                    assert slot in engine.stub_oracle.records
        assert ended > 10

    def test_corrupted_cache_reports_fault(self):
        oracle = StubOracle(seed=7, correct_ids=[0, 1, 2], dmax=0)
        core = DelayStubCore(oracle, 0, 0)
        core.decided_cache = 5
        assert core.decided() == (CORE_FAULT, None)


def run_mmr_network(cores, rounds=30, byz=None):
    """Faultless lock-step driver with self-delivery, like the transport."""
    out = {i: None for i in cores}
    for r in range(rounds):
        inbox = {
            i: {j: out[j] for j in cores if out[j] is not None}
            for i in cores
        }
        if byz:
            for i in cores:
                msg = byz(r, i)
                if msg is not None:
                    inbox[i][99] = msg
        out = {i: cores[i].step(inbox[i]) for i in cores}
        if all(c.decided() is not None for c in cores.values()):
            return r
    return None


class TestMmrLite:
    def test_unanimous_inputs_decide_that_value(self):
        for value in (0, 1):
            cores = {i: mmr_core_factory(4, 1, i, seed=1)(0) for i in range(3)}
            for c in cores.values():
                c.propose(value)
            decided_round = run_mmr_network(cores)
            assert decided_round is not None
            assert {c.decided() for c in cores.values()} == {(DECIDED, value)}

    def test_mixed_inputs_agree(self):
        for seed in range(6):
            cores = {i: mmr_core_factory(4, 1, i, seed=seed)(2) for i in range(3)}
            votes = {0: 1, 1: 0, 2: 1}
            for i, c in cores.items():
                c.propose(votes[i])
            assert run_mmr_network(cores) is not None
            assert len({c.decided() for c in cores.values()}) == 1

    def test_byzantine_echoes_tolerated(self):
        def byz(r, receiver):
            return ("MMR", 1 + r // 2, (receiver % 2,), receiver % 2)

        cores = {i: mmr_core_factory(4, 1, i, seed=9)(1) for i in range(3)}
        for c in cores.values():
            c.propose(1)
        assert run_mmr_network(cores, byz=byz) is not None
        assert {c.decided() for c in cores.values()} == {(DECIDED, 1)}

    def test_corrupted_state_eventually_faults_not_hangs(self):
        core = mmr_core_factory(4, 1, 0, seed=2)(3)
        core.propose(1)
        core.round = 500  # desynchronized past recovery: nobody else is there
        for r in range(200):
            core.step({})
            if core.decided() is not None:
                break
        assert core.decided() == (CORE_FAULT, None)

    def test_out_of_domain_state_flags_fault(self):
        core = mmr_core_factory(4, 1, 0, seed=2)(3)
        core.propose(1)
        core.est = 7
        core.step({})
        assert core.decided() == (CORE_FAULT, None)
