"""Recyclable object layer: delivery indications, consistency test, recycling."""

from itertools import product

from corsim.cores import DelayStubCore, StubOracle, mmr_core_factory
from corsim.recyclable import CORE_ERROR, RecyclableObject
from corsim.recycler import ObjectArray


def make_object(n=4, t=1, node_id=0, slot=0):
    return RecyclableObject(n, t, node_id, slot, DelayStubCore())


def make_array(core_factory=None):
    """Node 0's array at n=4, t=1 over 8 slots; window(5) = {2, 3, 4, 5} leaves slot 0 out."""
    return ObjectArray(4, 1, 0, 8, 3, core_factory or (lambda s: DelayStubCore()))


class TestPropose:
    def test_fresh_propose_recorded(self):
        obj = make_object()
        obj.propose(1)
        assert obj.proposed == 1

    def test_double_propose_is_noop(self):
        obj = make_object()
        obj.propose(0)
        obj.propose(1)
        assert obj.proposed == 0
        assert obj.core.proposed == 0

    def test_propose_after_recycle_accepted(self):
        arr = make_array()
        arr.get(0).propose(0)
        assert arr.recycler_pulse(5) == [0]
        arr.get(0).propose(1)
        assert arr.get(0).proposed == 1


class TestResult:
    def test_decided_core_sets_local_flag(self):
        obj = make_object()
        obj.core.decided_cache = 1
        assert obj.observe_result() == 1
        assert obj.delivered[0] is True

    def test_undecided_returns_none_flag_unchanged(self):
        obj = make_object()
        assert obj.observe_result() is None
        assert obj.delivered[0] is False

    def test_corrupted_core_yields_error_symbol(self):
        obj = make_object()
        obj.core.decided_cache = 7  # out of domain: core self-check fails
        assert obj.observe_result() is CORE_ERROR
        assert obj.delivered[0] is True


class TestWasDelivered:
    def test_three_of_four(self):
        obj = make_object()
        obj.delivered = [True, True, True, False]
        assert obj.was_delivered() == 1

    def test_all_false(self):
        obj = make_object()
        assert obj.was_delivered() == 0

    def test_two_of_four(self):
        obj = make_object()
        obj.delivered = [True, True, False, False]
        assert obj.was_delivered() == 0

    def test_exhaustive_threshold_small_n(self):
        # brute-force oracle: the report is exactly (true count >= n-t)
        for n in (4, 5, 6):
            t = (n - 1) // 3
            obj = make_object(n=n, t=t)
            for pattern in product([False, True], repeat=n):
                obj.delivered = list(pattern)
                expected = 1 if sum(pattern) >= n - t else 0
                assert obj.was_delivered() == expected


class TestRecycle:
    """Recycling pops a slot's object; the slot's next get builds a fresh one."""

    def test_recycle_after_decision_resets(self):
        arr = make_array()
        for slot in (0, 5):
            obj = arr.get(slot)
            obj.propose(1)
            obj.core.decided_cache = 1
        assert arr.read({0, 5}) == [(0, 1), (5, 1)]  # as the node does on its read
        assert arr.unread == set()
        old = arr.get(0)
        assert arr.recycler_pulse(5) == [0]
        new = arr.get(0)
        assert new is not old
        assert new.was_delivered() == 0
        assert new.is_fresh()
        # the rebuilt object is read again; the kept one stays read
        assert new.read_value is None and arr.unread == {0}
        assert arr.get(5).read_value == 1

    def test_recycle_clears_corruption(self):
        arr = make_array()
        obj = arr.get(0)
        obj.core.decided_cache = 9
        obj.delivered = [True] * 4
        assert arr.recycler_pulse(5) == [0]
        assert arr.get(0).is_fresh()

    def test_recycle_idempotent(self):
        arr = make_array()
        arr.get(0).propose(0)
        assert arr.recycler_pulse(5) == [0]
        state1 = (arr.get(0).proposed, list(arr.get(0).delivered))
        assert arr.recycler_pulse(5) == []
        assert (arr.get(0).proposed, list(arr.get(0).delivered)) == state1


class TestPulseStep:
    def test_consistency_test_clears_spurious_local_flag(self):
        obj = make_object()
        obj.delivered[0] = True  # transient corruption: flag without decision
        obj.pulse_step({})
        assert obj.delivered[0] is False

    def test_no_arrivals_leaves_remote_flags(self):
        obj = make_object()
        obj.delivered[2] = True
        obj.pulse_step({})
        assert obj.delivered[2] is True

    def test_emits_slot_and_local_flag(self):
        obj = make_object()
        obj.core.decided_cache = 1
        out = obj.pulse_step({})
        assert out.slot == 0
        assert out.delivered is True


def read_leaves_fresh(obj):
    assert obj.is_fresh()
    assert obj.observe_result() is None
    assert obj.is_fresh()


def make_mmr_object(n=4, t=1, node_id=0, slot=0):
    return RecyclableObject(n, t, node_id, slot, mmr_core_factory(n, t, seed=0)(slot))


class TestReadingAFreshObject:
    """observe_result() on a fresh object returns None and leaves it fresh.

    The node relies on this to read only the slots that hold a live object.
    """

    def test_new_stub_object(self):
        read_leaves_fresh(make_object())

    def test_rebuilt_stub_object_whose_slot_keeps_a_record(self):
        arrays = {i: ObjectArray(4, 1, i, 8, 3, lambda s: DelayStubCore()) for i in range(3)}
        oracle = StubOracle(
            seed=0, dmax=0, objects_by_node={i: arr.live for i, arr in arrays.items()}
        )
        for arr in arrays.values():
            arr.get(0).propose(1)
        oracle.observe(0)
        assert arrays[0].get(0).observe_result() == 1
        assert arrays[0].recycler_pulse(5) == [0]
        # the record outlives node 0's incarnation, but the sweep binds no new core
        oracle.observe(1)
        assert 0 in oracle.records
        read_leaves_fresh(arrays[0].get(0))

    def test_new_mmr_object(self):
        read_leaves_fresh(make_mmr_object())

    def test_rebuilt_mmr_object(self):
        arr = make_array(mmr_core_factory(4, 1, seed=0))
        obj = arr.get(0)
        obj.propose(1)
        obj.pulse_step({j: ("MMR", 1, (1,), 1) for j in (1, 2, 3)})
        obj.core.decided_cache = 1
        assert obj.observe_result() == 1
        assert arr.recycler_pulse(5) == [0]
        read_leaves_fresh(arr.get(0))

    def test_stepping_an_unproposed_object_leaves_it_fresh(self):
        for obj in (make_object(), make_mmr_object()):
            obj.pulse_step({j: ("MMR", 1, (1,), 1) for j in (1, 2, 3)})
            read_leaves_fresh(obj)


class TestLocalState:
    def test_remote_flags_alone_are_not_local_state(self):
        obj = make_object()
        obj.delivered[3] = True
        assert obj.has_local_state() is False
        assert not obj.is_fresh()

    def test_proposal_is_local_state(self):
        obj = make_object()
        obj.propose(1)
        assert obj.has_local_state() is True


def test_delivery_indication_propagates_to_all_correct():
    """Object-level closure of the delivery indication: once one correct copy
    reports delivery and keeps it, est exchange brings every correct copy to
    wasDelivered()=1 (single object, no recycling, lock-step by hand)."""
    n, t = 4, 1
    objs = {i: RecyclableObject(n, t, i, 0, DelayStubCore()) for i in range(3)}
    oracle = StubOracle(seed=1, dmax=2, objects_by_node={i: {0: objs[i]} for i in objs})
    for i, obj in objs.items():
        obj.propose(1)
    outboxes = {i: None for i in objs}
    first_report = None
    for r in range(12):
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
            obj.merge_flags({j: est.delivered for j, est in inboxes[i].items()})
            outboxes[i] = obj.pulse_step({j: est.core for j, est in inboxes[i].items()
                                          if est.core is not None})
        oracle.observe(r)
        if first_report is None and any(o.was_delivered() for o in objs.values()):
            first_report = r
    assert first_report is not None
    assert all(o.was_delivered() == 1 for o in objs.values())
