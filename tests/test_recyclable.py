"""Recyclable object layer: delivery indications, consistency test, recycling."""

from itertools import product

from corsim.cores import DelayStubCore, StubOracle, mmr_core_factory
from corsim.recyclable import CORE_ERROR, RecyclableObject


def make_object(n=4, t=1, node_id=0, slot=0, oracle=None):
    oracle = oracle or StubOracle(seed=0, correct_ids=list(range(n - t)), dmax=0)
    obj = RecyclableObject(n, t, node_id, slot, lambda s: DelayStubCore(oracle, node_id, s),
                           set(), set())
    return obj, oracle


class TestPropose:
    def test_fresh_propose_recorded(self):
        obj, _ = make_object()
        obj.propose(1)
        assert obj.proposed == 1

    def test_double_propose_is_noop(self):
        obj, _ = make_object()
        obj.propose(0)
        obj.propose(1)
        assert obj.proposed == 0
        assert obj.core.proposed == 0

    def test_propose_after_recycle_accepted(self):
        obj, _ = make_object()
        obj.propose(0)
        obj.recycle()
        obj.propose(1)
        assert obj.proposed == 1


class TestResult:
    def test_decided_core_sets_local_flag(self):
        obj, _ = make_object()
        obj.core.decided_cache = 1
        assert obj.observe_result() == 1
        assert obj.delivered[0] is True

    def test_undecided_returns_none_flag_unchanged(self):
        obj, _ = make_object()
        assert obj.observe_result() is None
        assert obj.delivered[0] is False

    def test_corrupted_core_yields_error_symbol(self):
        obj, _ = make_object()
        obj.core.decided_cache = 7  # out of domain: core self-check fails
        assert obj.observe_result() is CORE_ERROR
        assert obj.delivered[0] is True


class TestWasDelivered:
    def test_three_of_four(self):
        obj, _ = make_object()
        obj.delivered = [True, True, True, False]
        assert obj.was_delivered() == 1

    def test_all_false(self):
        obj, _ = make_object()
        assert obj.was_delivered() == 0

    def test_two_of_four(self):
        obj, _ = make_object()
        obj.delivered = [True, True, False, False]
        assert obj.was_delivered() == 0

    def test_exhaustive_threshold_small_n(self):
        # brute-force oracle: the report is exactly (true count >= n-t)
        for n in (4, 5, 6):
            t = (n - 1) // 3
            obj, _ = make_object(n=n, t=t)
            for pattern in product([False, True], repeat=n):
                obj.delivered = list(pattern)
                expected = 1 if sum(pattern) >= n - t else 0
                assert obj.was_delivered() == expected


class TestRecycle:
    def test_recycle_after_decision_resets(self):
        settled = {0, 5}
        obj = RecyclableObject(4, 1, 0, 0, lambda s: DelayStubCore(None, 0, s), set(), settled)
        obj.propose(1)
        obj.core.decided_cache = 1
        obj.observe_result()
        obj.recycle()
        assert obj.was_delivered() == 0
        assert obj.is_fresh()
        # the object takes only its own slot out of the array's settled set
        assert settled == {5}

    def test_recycle_clears_corruption(self):
        obj, _ = make_object()
        obj.core.decided_cache = 9
        obj.delivered = [True] * 4
        obj.recycle()
        assert obj.is_fresh()

    def test_recycle_idempotent(self):
        obj, _ = make_object()
        obj.propose(0)
        obj.recycle()
        state1 = (obj.proposed, list(obj.delivered))
        obj.recycle()
        assert (obj.proposed, list(obj.delivered)) == state1


class TestPulseStep:
    def test_consistency_test_clears_spurious_local_flag(self):
        obj, _ = make_object()
        obj.delivered[0] = True  # transient corruption: flag without decision
        obj.pulse_step({})
        assert obj.delivered[0] is False

    def test_no_arrivals_leaves_remote_flags(self):
        obj, _ = make_object()
        obj.delivered[2] = True
        obj.pulse_step({})
        assert obj.delivered[2] is True

    def test_emits_slot_and_local_flag(self):
        obj, _ = make_object()
        obj.core.decided_cache = 1
        out = obj.pulse_step({})
        assert out.slot == 0
        assert out.delivered is True


def read_leaves_fresh(obj):
    assert obj.is_fresh()
    assert obj.observe_result() is None
    assert obj.is_fresh()


def make_mmr_object(n=4, t=1, node_id=0, slot=0):
    return RecyclableObject(n, t, node_id, slot, mmr_core_factory(n, t, node_id, seed=0),
                            set(), set())


class TestReadingAFreshObject:
    """observe_result() on a fresh object returns None and leaves it fresh.

    The node relies on this to read only the slots its array tracks.
    """

    def test_new_stub_object(self):
        read_leaves_fresh(make_object()[0])

    def test_recycled_stub_object_whose_slot_keeps_a_record(self):
        oracle = StubOracle(seed=0, correct_ids=[0, 1, 2], dmax=0)
        objs = {i: make_object(node_id=i, oracle=oracle)[0] for i in oracle.correct_ids}
        for obj in objs.values():
            obj.propose(1)
        oracle.observe(0, {i: [obj] for i, obj in objs.items()})
        oracle.begin_round(1)
        assert objs[0].observe_result() == 1
        objs[0].recycle()
        # the record still binds the slot to the previous core
        assert oracle.records[0].members[0] is not objs[0].core
        read_leaves_fresh(objs[0])

    def test_new_mmr_object(self):
        read_leaves_fresh(make_mmr_object())

    def test_recycled_mmr_object(self):
        obj = make_mmr_object()
        obj.propose(1)
        obj.pulse_step({j: ("MMR", 1, (1,), 1) for j in (1, 2, 3)})
        obj.core.decided_cache = 1
        assert obj.observe_result() == 1
        obj.recycle()
        read_leaves_fresh(obj)

    def test_stepping_an_unproposed_object_leaves_it_fresh(self):
        for obj in (make_object()[0], make_mmr_object()):
            obj.pulse_step({j: ("MMR", 1, (1,), 1) for j in (1, 2, 3)})
            read_leaves_fresh(obj)


class TestLocalState:
    def test_remote_flags_alone_are_not_local_state(self):
        obj, _ = make_object()
        obj.delivered[3] = True
        assert obj.has_local_state() is False
        assert not obj.is_fresh()

    def test_proposal_is_local_state(self):
        obj, _ = make_object()
        obj.propose(1)
        assert obj.has_local_state() is True


def test_delivery_indication_propagates_to_all_correct():
    """Object-level closure of the delivery indication: once one correct copy
    reports delivery and keeps it, est exchange brings every correct copy to
    wasDelivered()=1 (single object, no recycling, lock-step by hand)."""
    n, t = 4, 1
    oracle = StubOracle(seed=1, correct_ids=[0, 1, 2], dmax=2)
    objs = {i: RecyclableObject(n, t, i, 0, lambda s, i=i: DelayStubCore(oracle, i, s),
                                set(), set())
            for i in range(3)}
    for i, obj in objs.items():
        obj.propose(1)
    outboxes = {i: None for i in objs}
    first_report = None
    for r in range(12):
        oracle.begin_round(r)
        inboxes = {
            i: {
                j: outboxes[j]
                for j in objs
                if j != i and outboxes[j] is not None
            }
            for i in objs
        }
        for i, obj in objs.items():
            # the node merges every arriving flag before stepping the active object
            for j, est in inboxes[i].items():
                obj.merge_flag(j, est.delivered)
            outboxes[i] = obj.pulse_step({j: est.core for j, est in inboxes[i].items()
                                          if est.core is not None})
        oracle.observe(r, {i: [objs[i]] for i in objs})
        if first_report is None and any(o.was_delivered() for o in objs.values()):
            first_report = r
    assert first_report is not None
    assert all(o.was_delivered() == 1 for o in objs.values())
