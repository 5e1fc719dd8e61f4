"""Core contract checks for the delay stub and the coin-based consensus."""

import copy
import dataclasses

import pytest

from corsim.adversary import _garble_objects
from corsim.cores import (
    CORE_FAULT,
    DECIDED,
    DelayStubCore,
    MmrLiteCore,
    StubOracle,
    mmr_core_factory,
)
from corsim.env import derived_int, make_params, seeded_rng
from corsim.harness import CORES, RoundEngine, TrialConfig
from corsim.recyclable import CORE_ERROR, RecyclableObject


def wire_objects(count=3, n=4, t=1, slot=0):
    return {i: RecyclableObject(n, t, i, slot, DelayStubCore()) for i in range(count)}


def live(objs, slot=0):
    """What the engine binds the oracle to: each node's live objects by slot."""
    return {i: {slot: obj} for i, obj in objs.items()}


def first_visible(oracle, objs, rounds):
    """Round from which each node's reads see a decision, sweeping as the engine does.

    A read in round r follows observe(r - 1), so a decision that observe(r)
    writes is first visible in round r + 1.
    """
    visible = {}
    for r in rounds:
        oracle.observe(r)
        for i, obj in objs.items():
            if i not in visible and obj.core.decided() is not None:
                visible[i] = r + 1
    return visible


class TestDelayStub:
    def test_decides_majority_of_correct_proposals(self):
        for n, proposals, decision in (
            (4, [1, 1, 0], 1),
            (5, [1, 1, 0, 0], 0),  # a tie among the correct proposals decides 0
        ):
            objs = wire_objects(len(proposals), n=n)
            oracle = StubOracle(seed=3, dmax=0, objects_by_node=live(objs))
            for i, obj in objs.items():
                obj.propose(proposals[i])
            oracle.observe(0)
            assert {obj.core.decided() for obj in objs.values()} == {(DECIDED, decision)}

    def test_waits_for_all_correct_proposals(self):
        objs = wire_objects()
        oracle = StubOracle(seed=3, dmax=0, objects_by_node=live(objs))
        objs[0].propose(1)
        assert first_visible(oracle, objs, range(10)) == {}
        assert oracle.records == {}

    def test_a_slot_without_a_live_object_at_some_node_waits(self):
        objs = wire_objects()
        by_node = live(objs)
        oracle = StubOracle(seed=3, dmax=0, objects_by_node=by_node)
        for obj in objs.values():
            obj.propose(1)
        del by_node[2][0]
        oracle.observe(0)
        assert oracle.records == {}
        assert objs[0].core.decided() is None
        by_node[2][0] = objs[2]
        oracle.observe(1)
        assert set(oracle.records) == {0}

    def test_reveal_delays_bounded_by_dmax(self):
        """Triggered in round 2, a node's reads see the decision from round
        2 + delay on, with delay its derived_int draw in [0, dmax], but never
        before round 3: the trigger round's reads precede the trigger."""
        dmax = 6
        for seed in (4, 8):
            objs = wire_objects()
            oracle = StubOracle(seed=seed, dmax=dmax, objects_by_node=live(objs))
            for obj in objs.values():
                obj.propose(1)
            visible = first_visible(oracle, objs, range(2, 2 + dmax + 1))
            delays = {
                i: derived_int(seed, "stub-delay", 0, 2, i, bound=dmax + 1) for i in objs
            }
            assert visible == {i: max(2 + d, 3) for i, d in delays.items()}
            assert all(0 <= d <= dmax for d in delays.values())

    def test_decision_not_served_to_recycled_core(self):
        objs = wire_objects()
        by_node = live(objs)
        oracle = StubOracle(seed=5, dmax=6, objects_by_node=by_node)
        for obj in objs.values():
            obj.propose(1)
        oracle.observe(0)
        assert oracle.records[0].pending[1][0] > 1  # node 1's write is still to come
        # recycling drops node 1's object; the slot's next object gets a new core
        objs[1] = by_node[1][0] = RecyclableObject(4, 1, 1, 0, DelayStubCore())
        objs[1].propose(0)
        first_visible(oracle, objs, range(1, 8))
        assert objs[1].core.decided() is None
        assert objs[0].core.decided() == (DECIDED, 1)

    def test_a_planted_cache_on_a_bound_core_is_never_overwritten(self):
        objs = wire_objects()
        oracle = StubOracle(seed=3, dmax=0, objects_by_node=live(objs))
        for obj in objs.values():
            obj.propose(1)
        objs[0].core.decided_cache = 7
        objs[1].core.decided_cache = 0
        oracle.observe(0)
        assert objs[0].core.decided() == (CORE_FAULT, None)
        assert objs[1].core.decided() == (DECIDED, 0)
        assert objs[2].core.decided() == (DECIDED, 1)

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
                copies = [node.objects.live.get(slot) for node in engine.nodes.values()]
                if all(obj is None or obj.is_fresh() for obj in copies):
                    assert slot not in engine.stub_oracle.records
                    assert engine.slot_gen[slot] == gens[slot] + 1
                    ended += 1
                else:
                    assert slot in engine.stub_oracle.records
        assert ended > 10

    def test_corrupted_cache_reports_fault(self):
        core = DelayStubCore()
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
            cores = {i: mmr_core_factory(4, 1, seed=1)(0) for i in range(3)}
            for c in cores.values():
                c.propose(value)
            decided_round = run_mmr_network(cores)
            assert decided_round is not None
            assert {c.decided() for c in cores.values()} == {(DECIDED, value)}

    def test_mixed_inputs_agree(self):
        for seed in range(6):
            cores = {i: mmr_core_factory(4, 1, seed=seed)(2) for i in range(3)}
            votes = {0: 1, 1: 0, 2: 1}
            for i, c in cores.items():
                c.propose(votes[i])
            assert run_mmr_network(cores) is not None
            assert len({c.decided() for c in cores.values()}) == 1

    def test_byzantine_echoes_tolerated(self):
        def byz(r, receiver):
            return ("MMR", 1 + r // 2, (receiver % 2,), receiver % 2)

        cores = {i: mmr_core_factory(4, 1, seed=9)(1) for i in range(3)}
        for c in cores.values():
            c.propose(1)
        assert run_mmr_network(cores, byz=byz) is not None
        assert {c.decided() for c in cores.values()} == {(DECIDED, 1)}

    def test_corrupted_state_eventually_faults_not_hangs(self):
        core = mmr_core_factory(4, 1, seed=2)(3)
        core.propose(1)
        core.round = 500  # desynchronized past recovery: nobody else is there
        for r in range(200):
            core.step({})
            if core.decided() is not None:
                break
        assert core.decided() == (CORE_FAULT, None)

    def test_out_of_domain_state_flags_fault(self):
        core = mmr_core_factory(4, 1, seed=2)(3)
        core.propose(1)
        core.est = 7
        core.step({})
        assert core.decided() == (CORE_FAULT, None)

    def test_three_backers_make_a_candidate_and_two_only_endorse(self):
        core = mmr_core_factory(4, 1, seed=0)(0)
        core.propose(0)
        core.step({j: ("MMR", 1, (1,), None) for j in (1, 2)})
        assert core.my_ests == (0, 1)
        assert core.bin_values == ()
        core.step({3: ("MMR", 1, (1,), None)})
        assert core.bin_values == (1,)

    @pytest.mark.parametrize("aux_voters, round_after", [(2, 1), (3, 2)])
    def test_three_backed_aux_votes_end_the_round_and_two_do_not(self, aux_voters, round_after):
        core = mmr_core_factory(4, 1, seed=0)(0)
        core.propose(1)
        core.step({j: ("MMR", 1, (1,), 1 if j < aux_voters else None) for j in range(3)})
        assert core.bin_values == ((1,) if round_after == 1 else ())
        assert core.round == round_after

    def test_a_mixed_aux_view_adopts_the_coin_and_advances_undecided(self):
        core = mmr_core_factory(4, 1, seed=2)(0)
        coin = core.coin(1)
        core.propose(1 - coin)
        core.step({j: ("MMR", 1, (0, 1), j % 2) for j in range(3)})
        assert core.round == 2
        assert core.est == coin
        assert core.decided() is None


def byzantine_core_message(rng):
    """A core message a Byzantine sender may send: well-formed, equivocating or malformed."""
    return rng.choice((
        ("MMR", rng.randrange(1, 6), rng.choice(((0,), (1,), (0, 1), ())),
         rng.choice((0, 1, None))),
        ("MMR", rng.choice((0, -1, 10**7, 1.5, "1", True, None)), (0, 1), 1),
        ("MMR", 1, [0, 1], 0),
        ("MMR", rng.randrange(1, 4), (7, None, "x"), 5),
        ("MMR", 2),
        ("XYZ", 1, (1,), 1),
        "MMR",
        None,
        17,
        [("MMR", 1, (1,), 1)],
    ))


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("seed", range(4))
def test_a_read_result_stays_until_recycled(core, seed):
    """decided() is constant once non-None, so each object's read is too.

    Objects start from seeded garbled states. Every round each one gets the
    correct copies' last core messages (some dropped) plus messages from the
    Byzantine sender, drawn separately for every receiver, and arbitrary
    flag merges. After an object's first non-None read, every later read
    returns the same value and leaves the node's own delivery flag set.
    """
    params = make_params(4, 1, log_size=3, index_num=8, seed=seed)
    engine = RoundEngine(TrialConfig(params=params, core=core))
    rng = seeded_rng(seed, "test-read-stays")
    for i, node in engine.nodes.items():
        _garble_objects(node, seeded_rng(seed, "test-garble", i), params)
    first = {}  # (node, slot) -> (round, result) of the first non-None read
    later_reads = 0

    def read(i, slot, obj, r):
        nonlocal later_reads
        value = obj.observe_result()
        if (i, slot) in first:
            expected = first[i, slot][1]
            assert (type(value), value) == (type(expected), expected)
            assert obj.delivered[i]
            later_reads += 1
        elif value is not None:
            first[i, slot] = (r, value)

    last = {i: [None] * params.index_num for i in engine.correct_ids}
    for r in range(150):
        sent = {i: [None] * params.index_num for i in engine.correct_ids}
        for i, node in engine.nodes.items():
            for slot in range(params.index_num):
                obj = node.objects.get(slot)
                if obj.proposed is None and rng.random() < 0.1:
                    obj.propose(rng.getrandbits(1))
                inbox = {j: last[j][slot] for j in engine.correct_ids
                         if last[j][slot] is not None and rng.random() < 0.9}
                for b in engine.byz_ids:
                    if rng.random() < 0.8:
                        inbox[b] = byzantine_core_message(rng)
                obj.merge_flags({rng.randrange(params.n): bool(rng.getrandbits(1))})
                read(i, slot, obj, r)
                sent[i][slot] = obj.pulse_step(inbox).core
                read(i, slot, obj, r)
        last = sent
        engine.stub_oracle.observe(r)
    results = [value for _, value in first.values()]
    assert later_reads > 1000
    assert any(r > 0 for r, _ in first.values())  # some objects decide while stepped
    assert CORE_ERROR in results and {0, 1} <= set(results)


class ReferenceMmrCore(MmrLiteCore):
    """MmrLiteCore's step before it was made lean, kept as the reference.

    It absorbs each message through `_absorb`, keeps the backers and votes
    of every round it ever saw, sorts the peers' rounds at every step and
    rebuilds its endorsement and candidate sets each time.
    """

    def _absorb(self, sender, msg):
        if not isinstance(msg, tuple) or len(msg) != 4 or msg[0] != "MMR":
            return
        _, rnd, ests, aux = msg
        if not isinstance(rnd, int) or not (1 <= rnd <= 10**6):
            return
        self.peer_rounds[sender] = max(self.peer_rounds.get(sender, 0), rnd)
        if isinstance(ests, tuple):
            for v in ests:
                if v in (0, 1):
                    self.est_seen.setdefault((rnd, v), set()).add(sender)
        if aux in (0, 1):
            self.aux_seen.setdefault(rnd, {})[sender] = aux

    def _catch_up(self):
        ahead = sorted(r for r in self.peer_rounds.values() if r > self.round)
        if len(ahead) >= self.t + 1:
            target = ahead[-(self.t + 1)]
            if target > self.round:
                self.round = target
                self.est = self.coin(target)
                self.my_ests = (self.est,)
                self.bin_values = ()
                self.aux_value = None
                return True
        return False

    def step(self, inbox):
        if self.proposed is None:
            return None
        if not self._check_state():
            return None
        for sender, msg in inbox.items():
            self._absorb(sender, msg)
        progressed = self._catch_up()

        ests = set(self.my_ests)
        for v in (0, 1):
            if len(self.est_seen.get((self.round, v), ())) >= self.t + 1:
                ests.add(v)
        if ests != set(self.my_ests):
            self.my_ests = tuple(sorted(ests))
            progressed = True
        candidates = set(self.bin_values)
        for v in (0, 1):
            if len(self.est_seen.get((self.round, v), ())) >= self.n - self.t:
                candidates.add(v)
        if candidates != set(self.bin_values):
            self.bin_values = tuple(sorted(candidates))
            progressed = True
        if self.bin_values and self.aux_value is None:
            self.aux_value = self.bin_values[0]
            progressed = True

        if self.aux_value is not None:
            arrived = self.aux_seen.get(self.round, {})
            backed = {s: v for s, v in arrived.items() if v in self.bin_values}
            if len(backed) >= self.n - self.t:
                view = set(backed.values())
                c = self.coin(self.round)
                if len(view) == 1:
                    b = view.pop()
                    if b == c and self.decided_cache is None:
                        self.decided_cache = b
                    self.est = b
                else:
                    self.est = c
                self.round += 1
                self.my_ests = (self.est,)
                self.bin_values = ()
                self.aux_value = None
                progressed = True

        if self.decided_cache is None:
            self.stalled_for = 0 if progressed else self.stalled_for + 1
        self._check_state()
        return ("MMR", self.round, self.my_ests, self.aux_value)


def typed(x):
    """x with the type of every part spelled out, so that 1, 1.0 and True differ."""
    if isinstance(x, dict):
        return "dict", frozenset((typed(k), typed(v)) for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return type(x).__name__, frozenset(typed(v) for v in x)
    if isinstance(x, (tuple, list)):
        return type(x).__name__, tuple(typed(v) for v in x)
    return type(x).__name__, repr(x)


def core_fields(core):
    """Every field but the coin; the backers and votes only at rounds >= round,
    since a lower round is never read again."""
    fields = {f.name: getattr(core, f.name) for f in dataclasses.fields(core) if f.name != "coin"}
    r = core.round
    fields["est_seen"] = {k: v for k, v in core.est_seen.items() if k[0] >= r}
    fields["aux_seen"] = {k: v for k, v in core.aux_seen.items() if k >= r}
    return typed(fields)


def seeded_core_state(rng, n, t):
    """A state as inject leaves it (proposed, decided_cache, round, est), or a
    proposed core further on, often with peers ahead of it."""
    state = {"stalled_for": rng.choice((0, 0, 0, 60))}
    if rng.random() < 0.5:
        state["propose"] = rng.choice((0, 1, True, 5))
    else:
        state["proposed"] = rng.choice((None, 0, 1, rng.randrange(8)))
        state["est"] = rng.choice((0, 1, None, 2))
    state["decided_cache"] = rng.choice((None, None, None, 0, 1, rng.randrange(2, 9)))
    rnd = state["round"] = rng.choice((1, 1, 2, rng.randrange(1, 50), 10**6, 10**6 + 1, 0))
    if rng.random() < 0.5:
        state["peer_rounds"] = {s: max(1, rnd + rng.randrange(-2, 5))
                                for s in rng.sample(range(n), rng.randrange(n + 1))}
    if rng.random() < 0.3 and rnd >= 1:
        state["est_seen"] = {(rnd, v): set(rng.sample(range(n), rng.randrange(1, n)))
                             for v in (0, 1) if rng.random() < 0.5}
    return state


def build_core(cls, n, t, seed, state, coin_log):
    factory_coin = mmr_core_factory(n, t, seed)(3).coin

    def coin(mmr_round):
        coin_log.append(mmr_round)
        return factory_coin(mmr_round)

    core = cls(n=n, t=t, coin=coin)
    for name, value in copy.deepcopy(state).items():
        if name == "propose":
            core.propose(value)
        else:
            setattr(core, name, value)
    return core


def random_core_message(rng, rnd, fav):
    """A well-formed message near round rnd, often backing fav, or a malformed one."""
    if rng.random() < 0.4:
        return ("MMR", rnd, (fav,), fav)
    if rng.random() < 0.6:
        return (
            "MMR",
            rng.choice((rnd, rnd, rnd + 1, rnd - 1, rnd + rng.randrange(2, 6), True, 0, 10**6 + 1)),
            rng.choice(((0,), (1,), (0, 1), (1, 0), (), (True,), (2,), [1], (1.0,), (0, 0))),
            rng.choice((None, 0, 1, True, 0.0, 2, -1, "1", [1], {0: 1})),
        )
    return rng.choice((
        None, 17, "MMR", ("MMR",), ("MMR", rnd, (1,)), ("MMR", rnd, (1,), 1, 0),
        ("XYZ", rnd, (1,), 1), ["MMR", rnd, (1,), 1], ("MMR", 1.0, (1,), 1),
        ("MMR", "1", (0,), 0), ("MMR", -3, (0,), 0),
    ))


@pytest.mark.parametrize("n, t", [(4, 1), (7, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_lean_step_matches_the_reference(n, t, seed):
    """From equal seeded states and on equal random inboxes, the lean step
    returns what the reference returns, leaves every field equal, types
    included, and draws the coin at the same rounds."""
    rng = seeded_rng(seed, "test-lean-step", n)
    seen = {"advance": 0, "catch_up": 0, "decide": 0, "fault": 0}
    for _ in range(60):
        state = seeded_core_state(rng, n, t)
        lean_coins, ref_coins = [], []
        lean = build_core(MmrLiteCore, n, t, seed, state, lean_coins)
        ref = build_core(ReferenceMmrCore, n, t, seed, state, ref_coins)
        assert core_fields(lean) == core_fields(ref)
        for _ in range(40):
            before, drawn = ref.round, len(ref_coins)
            senders = rng.sample(range(n + 2), rng.randrange(n + 2))
            fav = rng.getrandbits(1)
            inbox = {s: random_core_message(rng, ref.round, fav) for s in senders}
            out = lean.step(inbox)
            assert typed(out) == typed(ref.step(inbox))
            assert core_fields(lean) == core_fields(ref)
            assert lean_coins == ref_coins
            assert all(k[0] >= lean.round for k in lean.est_seen)
            assert all(k >= lean.round for k in lean.aux_seen)
            # a catch-up draws the coin of the round it jumps to, an advance the one it ends
            draws = ref_coins[drawn:]
            seen["catch_up"] += bool(draws) and draws[0] > before
            seen["advance"] += before in draws
        seen["decide"] += ref.decided_cache in (0, 1) and state["decided_cache"] is None
        seen["fault"] += ref.faulted
    assert all(count > 0 for count in seen.values()), seen
