"""Byzantine strategies and the one-shot fault injector."""

import tracemalloc
from itertools import permutations

import pytest

from corsim.adversary import (
    POLICIES,
    Adversary,
    AdversaryView,
    inject,
    plan_corruption,
    predict,
)
from corsim.cores import DelayStubCore
from corsim.env import make_params
from corsim.harness import RoundEngine, TrialConfig
from corsim.node import CorrectNode, read_round
from corsim.sig_index import index_vote, vote_bit
from corsim.transport import RoundMail

P = make_params(n=4, t=1, log_size=3, index_num=8, seed=11)


def fresh_nodes(params=P):
    return {
        i: CorrectNode(params, i, lambda s: DelayStubCore(), lambda s, n: 0)
        for i in range(3)
    }


def view_for(nodes, round_index=6, phase=1):
    mail = {i: RoundMail({}, {}) for i in range(P.n)}
    return AdversaryView(
        round=round_index,
        phase=phase,
        params=P,
        correct_nodes=nodes,
        mail=mail,
        readings=read_round(mail, sorted(nodes), phase, P),
    )


class TestStrategies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Adversary("nope", P, [3])

    def test_silent_sends_empty_fields(self):
        adv = Adversary("silent", P, [3])
        out = adv.byz_outboxes(view_for(fresh_nodes()))
        for env in out[3].values():
            assert (env.est, env.co, env.sig) == (None, None, None)

    def test_sender_ids_always_truthful(self):
        for policy in POLICIES:
            adv = Adversary(policy, P, [3])
            out = adv.byz_outboxes(view_for(fresh_nodes(), phase=P.kappa - 4))
            for b, box in out.items():
                assert all(env.sender == b for env in box.values())

    def test_equivocate_splits_receivers_at_index_phase(self):
        adv = Adversary("equivocate", P, [3])
        out = adv.byz_outboxes(view_for(fresh_nodes(), phase=P.kappa - 4))
        values = {j: env.sig.value for j, env in out[3].items()}
        assert values[0] == values[1]  # low half gets one story
        assert values[0] != values[2]  # high half another

    def test_worst_sig_splits_index_quorum_one_short_of_threshold(self):
        # two-against-one: the leader is pushed over n-t at exactly the
        # receivers needed to split saves later, and starved elsewhere
        nodes = fresh_nodes()
        nodes[0].sig.index = 4
        nodes[1].sig.index = 4
        nodes[2].sig.index = 6
        adv = Adversary("worst_sig", P, [3])
        out = adv.byz_outboxes(view_for(nodes, phase=P.kappa - 4))
        values = {j: env.sig.value for j, env in out[3].items()}
        assert values[0] == 4 and values[1] == 4
        assert values[2] != 4

    def test_worst_sig_denies_quorum_from_distinct_indices(self):
        nodes = fresh_nodes()
        for i, v in ((0, 1), (1, 2), (2, 3)):
            nodes[i].sig.index = v
        adv = Adversary("worst_sig", P, [3])
        out = adv.byz_outboxes(view_for(nodes, phase=P.kappa - 4))
        for env in out[3].values():
            # no tally can reach n-t: the runner-up is boosted, never the top
            assert env.sig.value != 1

    def test_worst_sig_predictions_are_exact(self):
        # the adversary's view of the index rules matches what every correct
        # node computes in the same round, whatever the Byzantine traffic
        checked = set()
        for seed in range(3):
            for policy, inject_mode, plant in (
                ("worst_sig", "full", False), ("worst_sig", "targeted", False),
                ("random", "full", False), ("worst_sig", "full", True),
            ):
                p = make_params(4, 1, 3, 8, seed=40 + seed)
                engine = RoundEngine(TrialConfig(params=p, rounds=15 * p.kappa,
                                                 adversary=policy, inject=inject_mode))
                for r in range(engine.config.rounds):
                    phase = r % p.kappa
                    if plant and phase == p.kappa - 3:
                        # read as an absent sender, by the node and by predict
                        engine.pending[0].plant(1, "garbage")
                        checked.add("planted")
                    readings = read_round(engine.pending, engine.correct_ids, phase, p)
                    view = AdversaryView(round=r, phase=phase, params=p,
                                         correct_nodes=engine.nodes, mail=engine.pending,
                                         readings=readings)
                    votes = predict(view, index_vote)
                    bits = predict(view, vote_bit)
                    engine._round(r)
                    ids = sorted(engine.nodes)
                    # each node's vote and bit, as its broadcast carries them
                    sent = [engine.pending[0].inbox[i].sig for i in ids]
                    if phase == p.kappa - 3:
                        assert votes == [sig.value for sig in sent]
                        checked.add(("vote", votes[0] is None))
                    if phase == p.kappa - 2:
                        assert bits == [sig.value for sig in sent]
                        checked.add(("bit", bits[0]))
        # both outcomes of each rule were exercised
        assert checked == {("vote", True), ("vote", False), ("bit", 0), ("bit", 1), "planted"}

    def test_worst_sig_predicts_once_per_round(self, monkeypatch):
        # a prediction is the same for every (sender, receiver) pair, so
        # each index rule is simulated once per round that needs it
        import corsim.adversary as adversary

        rounds = []
        original = adversary.predict

        def counting(view, rule):
            rounds.append(view.round)
            return original(view, rule)

        monkeypatch.setattr(adversary, "predict", counting)
        p = make_params(7, 2, 3, 8, seed=12)
        RoundEngine(TrialConfig(params=p, rounds=100, adversary="worst_sig")).run()
        assert rounds == [r for r in range(100) if r % p.kappa in (p.kappa - 3, p.kappa - 2)]

    def test_equivocate_derives_once_per_sender_per_round(self, monkeypatch):
        # both stories depend only on (round, sender), not on the receiver
        import corsim.adversary as adversary

        calls = []
        original = adversary.derived_int

        def counting(*args, **kwargs):
            calls.append(args[1:4])
            return original(*args, **kwargs)

        monkeypatch.setattr(adversary, "derived_int", counting)
        p = make_params(7, 2, 3, 8, seed=12)
        RoundEngine(TrialConfig(params=p, rounds=100, adversary="equivocate")).run()
        assert len(calls) == 2 * p.t * 100
        assert len(set(calls)) == len(calls)

    def test_deterministic_given_seed_and_policy(self):
        a1 = Adversary("random", P, [3])
        a2 = Adversary("random", P, [3])
        v1 = a1.byz_outboxes(view_for(fresh_nodes()))
        v2 = a2.byz_outboxes(view_for(fresh_nodes()))
        assert v1 == v2

    def test_view_carries_no_coin(self):
        # unpredictability by construction: the observable surface has no
        # channel for the current round's coin
        from dataclasses import fields

        from corsim.adversary import AdversaryView

        names = {f.name for f in fields(AdversaryView)}
        assert names == {"round", "phase", "params", "correct_nodes", "mail", "readings"}


class TestInjection:
    def test_none_mode_touches_nothing(self):
        nodes = fresh_nodes()
        before = {i: nodes[i].sig.index for i in nodes}
        plan = plan_corruption("none", P, [0, 1, 2])
        inject(nodes, {i: RoundMail({}, {}) for i in range(4)}, plan, P)
        assert {i: nodes[i].sig.index for i in nodes} == before

    def test_targeted_mode_sets_distinct_indices(self):
        nodes = fresh_nodes()
        plan = plan_corruption("targeted", P, [0, 1, 2])
        inject(nodes, {i: RoundMail({}, {}) for i in range(4)}, plan, P)
        indices = [nodes[i].sig.index for i in nodes]
        assert len(set(indices)) == 3
        assert all(nodes[i].mvc.current_result == 1 for i in nodes)
        # every object is still fresh, so none is built
        assert all(nodes[i].objects.live == {} for i in nodes)

    def test_targeted_tree_resolves_to_one(self):
        nodes = fresh_nodes()
        plan = plan_corruption("targeted", P, [0, 1, 2])
        inject(nodes, {i: RoundMail({}, {}) for i in range(4)}, plan, P)
        assert all(nodes[i].mvc.co.result({}) == 1 for i in nodes)

    def test_full_mode_preserves_structure(self):
        nodes = fresh_nodes()
        mail = {i: RoundMail({}, {}) for i in range(4)}
        plan = plan_corruption("full", P, [0, 1, 2])
        inject(nodes, mail, plan, P)
        for i, node in nodes.items():
            assert isinstance(node.sig.index, int)
            # about half of the slots are garbled, each through a built object
            assert 0 < len(node.objects.live) < P.index_num
            for slot, obj in node.objects.live.items():
                assert obj.slot == slot
                assert len(obj.delivered) == P.n
        # round-0 channel contents may be corrupted, senders stay channel-bound
        for receiver, box in mail.items():
            for sender, env in box.inbox.items():
                assert env.sender == sender

    def test_full_mode_deterministic(self):
        nodes1, nodes2 = fresh_nodes(), fresh_nodes()
        p1 = plan_corruption("full", P, [0, 1, 2])
        p2 = plan_corruption("full", P, [0, 1, 2])
        inject(nodes1, {i: RoundMail({}, {}) for i in range(4)}, p1, P)
        inject(nodes2, {i: RoundMail({}, {}) for i in range(4)}, p2, P)
        assert [nodes1[i].sig.index for i in nodes1] == [
            nodes2[i].sig.index for i in nodes2
        ]

    def test_targeted_plants_one_level_for_every_node(self):
        """At n=10, t=3 all seven correct nodes hold one planted level, a
        full trial never mutates it in place, and building the engine
        allocates about one level, not one per node."""
        cfg = TrialConfig(params=make_params(10, 3, 3, 8, seed=1), rounds=60,
                          adversary="worst_eig", inject="targeted", core="stub")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fresh = dict.fromkeys(permutations(range(10), 4), 1)
            level_bytes = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            eng = RoundEngine(cfg)
            construction_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert construction_peak < 2 * level_bytes
        planted = eng.nodes[0].mvc.co.tree
        assert all(eng.nodes[i].mvc.co.tree is planted for i in eng.correct_ids)
        eng.run()
        assert planted == fresh and repr(planted) == repr(fresh)

    def test_params_never_in_plan(self):
        plan = plan_corruption("full", P, [0, 1, 2])
        flat = repr(plan)
        assert "kappa" not in flat and "log_size" not in flat
