"""Correct node step: the one place where delivery flags are merged."""

from corsim import TrialConfig
from corsim.cores import DelayStubCore
from corsim.env import make_params
from corsim.harness import RoundEngine
from corsim.node import CorrectNode, read_round
from corsim.transport import Envelope, EstPayload, RoundMail, SigPayload

P = make_params(n=4, t=1, log_size=3, index_num=8)


def make_node(node_id=0):
    return CorrectNode(P, node_id, lambda s: DelayStubCore(), lambda s, n: 0)


def flag(sender, slot, delivered):
    """An envelope carrying only a delivery flag for one slot."""
    return Envelope(sender=sender, est=EstPayload(slot=slot, core=None, delivered=delivered))


def step(node, inbox, phase=1):
    i = node.node_id
    reading = read_round({i: RoundMail({}, inbox)}, [i], phase, P)[i]
    return node.step(phase=phase, reading=reading, coin_bit=0, memo={})


def test_step_merges_each_flag_into_the_slot_its_est_names():
    node = make_node(0)
    assert node.active_slot() == 0
    # slot 6 is in the window of index 0 but not active; 14 names slot 6 too
    step(node, {1: flag(1, 0, True), 2: flag(2, 6, True), 3: flag(3, 14, True)})
    slots = node.objects.live
    assert slots[0].delivered == [False, True, False, False]
    assert slots[6].delivered == [False, False, True, True]
    assert sorted(node.objects.non_fresh_slots()) == [0, 6]


def test_merge_adopts_arriving_flag():
    node = make_node(0)
    node.objects.get(0).delivered[2] = True
    step(node, {2: flag(2, 0, False), 3: flag(3, 0, True)})
    assert node.objects.live[0].delivered == [False, False, False, True]


def test_a_flag_that_is_not_set_builds_no_object():
    node = make_node(0)
    node.fixed_slot = 0
    node.objects.get(6).delivered[2] = True
    step(node, {1: flag(1, 5, False), 2: flag(2, 6, False)})
    # slot 5 was fresh, and merging False into a fresh object changes nothing
    assert set(node.objects.live) == {0, 6}
    assert node.objects.live[6].delivered == [False, False, False, False]


def test_reading_the_active_report_builds_no_object():
    node = make_node(0)
    assert node.was_delivered_active() == 0
    assert node.objects.live == {}
    node.objects.get(0).delivered = [False, True, True, True]
    assert node.was_delivered_active() == 1


def test_self_flag_never_merged_from_wire():
    node = make_node(1)
    # no recycling and no background reads, so nothing but the merge touches slot 5
    node.fixed_slot = 0
    step(node, {1: flag(1, 5, True), 2: flag(2, 5, True)})
    assert node.objects.live[5].delivered == [False, False, True, False]


def test_est_that_is_not_an_est_payload_is_skipped():
    engine = RoundEngine(TrialConfig(params=P, rounds=5))
    assert engine.byz_ids == [3]
    engine.pending[0].plant(3, Envelope(sender=3, est="garbage"))
    engine._round(0)
    # a slot without a live object has every flag clear
    assert not any(obj.delivered[3] for obj in engine.nodes[0].objects.live.values())


def test_mail_that_is_not_an_envelope_reads_as_an_absent_sender():
    engine = RoundEngine(TrialConfig(params=P, rounds=5))
    engine.pending[0].plant(3, "garbage")
    engine._round(0)
    # round-0 mail is empty unless the injector plants some
    reference = RoundEngine(TrialConfig(params=P, rounds=5))
    assert 3 not in reference.pending[0].inbox
    reference._round(0)
    assert engine.trace.rounds == reference.trace.rounds


def test_an_unhashable_sig_value_is_not_tallied():
    """Node 0 and worst_sig's predictions tally the index votes of round
    kappa-3; a value that cannot be a dict key counts as no vote."""
    engines = [RoundEngine(TrialConfig(params=P, rounds=P.kappa, adversary="worst_sig"))
               for _ in range(2)]
    for engine, sig in zip(engines, (SigPayload(kind="index", value=[1]), None)):
        for r in range(P.kappa - 3):
            engine._round(r)
        engine.pending[0].plant(3, Envelope(sender=3, sig=sig))
        engine._round(P.kappa - 3)
    planted, reference = engines
    assert planted.trace.rounds == reference.trace.rounds
    # node 0's vote, as its broadcast carries it
    assert planted.pending[0].inbox[0].sig == reference.pending[0].inbox[0].sig


def test_each_incarnation_is_reported_read_once():
    node = make_node(0)
    node.fixed_slot = 0
    first = node.objects.get(0)
    first.core.decided_cache = 1
    assert node.objects.unread == {0}
    assert step(node, {})[1].retrievals == ((0, 1),)
    assert node.objects.unread == set()
    assert step(node, {})[1].retrievals == ()
    assert node.objects.recycler_pulse(4) == [0]  # window(4) = {1, 2, 3, 4}
    second = node.objects.get(0)
    assert second is not first and node.objects.unread == {0}
    second.core.decided_cache = 0
    assert step(node, {})[1].retrievals == ((0, 0),)
    assert node.objects.unread == set()
