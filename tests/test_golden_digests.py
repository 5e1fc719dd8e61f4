"""Fixed trace bytes: Trace.digest() pinned over a grid of small trials.

C11 checks that a rerun reproduces its own trace; this module checks that the
trace itself does not change, and that the streamed encoding of every pinned
trace equals `one_shot_bytes`, the whole JSON tree dumped in one call. A change that alters traces on purpose records
the new table with

    PYTHONPATH=src python tests/test_golden_digests.py --record

and says why the traces changed.
"""

import gc
import hashlib
import json
import sys
import weakref
from pathlib import Path

import pytest

from corsim import TrialConfig, harness, make_params
from corsim import node as corsim_node
from corsim.cores import CORE_FAULT
from corsim.harness import RoundEngine, Trace
from corsim.mvc import EigConsensus
from corsim.recyclable import CORE_ERROR
from corsim.sig_index import read_kind
from corsim.transport import CoPayload, Envelope, EstPayload, SigPayload

TABLE = Path(__file__).with_name("golden_digests.json")
ROUNDS = 120


def grid() -> list[dict]:
    cases = [
        dict(n=4, t=1, adversary=adversary, inject=inject, core=core, recycling=True)
        for adversary in ("silent", "random", "equivocate", "worst_sig", "worst_eig")
        for inject in ("none", "full", "targeted")
        for core in ("stub", "mmr-lite")
    ]
    cases.append(dict(n=4, t=1, adversary="random", inject="full", core="stub",
                      recycling=False))
    cases.append(dict(n=7, t=2, adversary="worst_eig", inject="full", core="stub",
                      recycling=True))
    # a two-against-one index split is what makes worst_sig force the coin branch
    cases.append(dict(n=4, t=1, adversary="worst_sig", inject="none", core="stub",
                      recycling=True, indices=(5, 5, 2)))
    # the per-delivery traffic lines are part of the trace bytes
    cases.append(dict(n=4, t=1, adversary="equivocate", inject="full", core="stub",
                      recycling=True, log_traffic=True))
    # two Byzantine senders: the per-sender draw and derivation order is pinned
    for adversary in ("random", "equivocate", "worst_sig"):
        cases.append(dict(n=7, t=2, adversary=adversary, inject="full", core="stub",
                          recycling=True))
    for k, case in enumerate(cases):
        case["seed"] = 300 + k
    # a wide window over 16 slots: long recycling sweeps, sparse in-use slots
    wide = [
        dict(n=4, t=1, adversary=adversary, inject=inject, core=core, recycling=True,
             log_size=6, index_num=16, rounds=400)
        for adversary, inject in (("silent", "none"), ("random", "full"),
                                  ("equivocate", "targeted"))
        for core in ("stub", "mmr-lite")
    ]
    for k, case in enumerate(wide):
        case["seed"] = 400 + k
    # n=10, t=3: correct receivers that get the same arrivals (worst_eig,
    # equivocate) and a Byzantine payload per receiver (random)
    large = [
        dict(n=10, t=3, adversary=adversary, inject=inject, core="stub", recycling=True,
             rounds=60)
        for adversary, inject in (("worst_eig", "targeted"), ("equivocate", "full"),
                                  ("random", "full"))
    ]
    for k, case in enumerate(large):
        case["seed"] = 500 + k
    return cases + wide + large


def case_id(case: dict) -> str:
    recycling = "" if case["recycling"] else "-norecycle"
    split = "-split" if "indices" in case else ""
    traffic = "-traffic" if case.get("log_traffic") else ""
    wide = "-wide" if "index_num" in case else ""
    return (f"n{case['n']}-{case['adversary']}-{case['inject']}-{case['core']}"
            f"{recycling}{split}{traffic}{wide}-s{case['seed']}")


def build(case: dict) -> RoundEngine:
    config = TrialConfig(
        params=make_params(case["n"], case["t"], case.get("log_size", 3),
                           case.get("index_num", 8), seed=case["seed"]),
        rounds=case.get("rounds", ROUNDS),
        adversary=case["adversary"],
        inject=case["inject"],
        core=case["core"],
        recycling=case["recycling"],
        log_traffic=case.get("log_traffic", False),
    )
    engine = RoundEngine(config)
    for i, index in enumerate(case.get("indices", ())):
        engine.nodes[i].sig.index = index
    return engine


def run(case: dict) -> Trace:
    return build(case).run()


def digest(case: dict) -> str:
    return run(case).digest()


def one_shot_bytes(trace: Trace) -> bytes:
    """The reference encoding: the whole trace as one tree, then one json.dumps."""

    def key(k: tuple) -> str:
        return f"{k[0]}:{k[1]}"

    tree = {
        "meta": trace.meta,
        "correct_ids": list(trace.correct_ids),
        "byz_ids": list(trace.byz_ids),
        "reveal_order": list(trace.reveal_order),
        "corruption": trace.corruption,
        "traffic": trace.traffic,
        "rounds": [
            {
                "round": r.round,
                "phase": r.phase,
                "coin": r.coin,
                "idx": list(r.idx),
                "mvc": [repr(v) for v in r.mvc],
                "sample": None if r.sample is None else list(r.sample),
                "wd": list(r.wd),
                "save": None if r.save is None else [repr(v) for v in r.save],
                "inc": None if r.inc is None else list(r.inc),
                "quorum1": None if r.branch is None else [int(b == "ones") for b in r.branch],
                "quorum0": None if r.branch is None else [int(b == "zeros") for b in r.branch],
                "recycled": [list(x) for x in r.recycled],
                "active": list(r.active),
                "non_fresh": list(r.non_fresh),
                "digest": r.digest,
            }
            for r in trace.rounds
        ],
        "retrievals": {
            key(k): {str(i): [rd, val] for i, (rd, val) in sorted(v.items())}
            for k, v in sorted(trace.retrievals.items())
        },
        "proposals": {
            key(k): {str(i): [rd, val] for i, (rd, val) in sorted(v.items())}
            for k, v in sorted(trace.proposals.items())
        },
        "evictions": {
            key(k): {str(i): rd for i, rd in sorted(v.items())}
            for k, v in sorted(trace.evictions.items())
        },
    }
    return json.dumps(tree, sort_keys=True, separators=(",", ":")).encode()


def assert_encodes_as_one_shot(trace: Trace) -> None:
    raw = trace.to_bytes()
    assert raw == one_shot_bytes(trace)
    assert trace.digest() == hashlib.sha256(raw).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("case", grid(), ids=case_id)
def test_trace_digest_unchanged(case, golden):
    """The pinned digest, and a trial that leaves nothing for the cycle collector.

    An engine is built and run with the collector paused, which is safe only
    while reference counting alone frees all a trial allocates: the finished
    engine must be freed as its last reference goes, and `gc.collect()` must
    find no cyclic garbage. The collection before the trial clears what
    importing corsim left (each `@dataclass(slots=True)` replaces its class).
    """
    gc.collect()
    engine = build(case)
    freed = weakref.ref(engine)
    trace = engine.run()
    del engine
    assert freed() is None
    assert gc.collect() == 0
    assert trace.digest() == golden[case_id(case)]
    assert_encodes_as_one_shot(trace)


@pytest.mark.parametrize("case", grid(), ids=case_id)
def test_live_objects_are_exactly_the_non_fresh_ones(case):
    """After every round each correct node holds an object only where it must.

    The sweeps visit only live slots, and the freshness sweep drops every live
    object it finds fresh, so the live slots are the non-fresh set the trace
    counts. A live slot outside the unread set is skipped by the node's reads
    and by the freshness test, so its read must be in the trace's retrievals
    for its current incarnation, with the value its core still answers.
    """
    engine = build(case)
    for i in engine.correct_ids:
        array = engine.nodes[i].objects
        assert array.unread == array.live.keys()
    read_seen = 0
    for r in range(engine.config.rounds):
        engine._round(r)
        non_fresh = engine.trace.rounds[-1].non_fresh
        for pos, i in enumerate(engine.correct_ids):
            array = engine.nodes[i].objects
            assert not any(obj.is_fresh() for obj in array.live.values()), f"round {r}"
            for slot in array.live.keys() - array.unread:
                key = (slot, engine.slot_gen[slot])
                read = engine.trace.retrievals.get(key, {}).get(i)
                assert read is not None, f"round {r} node {i} {key}"
                kind, value = array.live[slot].core.decided()
                value = CORE_ERROR if kind == CORE_FAULT else value
                assert read[1] == repr(value), f"round {r} node {i} {key}"
                read_seen += 1
            assert non_fresh[pos] == len(array.live), f"round {r} node {i}"
    assert read_seen


@pytest.mark.parametrize("case", grid(), ids=case_id)
def test_slots_outside_unread_are_decided_and_delivered(case):
    """The read and freshness sweeps visit only an array's unread slots, so
    after every round each of those must be live, and each live slot outside
    them must hold a core that has decided and whose own delivery flag is
    set: a decision never changes, so neither sweep could change such a
    slot, which is what lets both skip it."""
    engine = build(case)
    reads = 0
    for r in range(engine.config.rounds):
        engine._round(r)
        for i in engine.correct_ids:
            array = engine.nodes[i].objects
            assert array.unread <= array.live.keys(), f"round {r} node {i}"
            for slot in array.live.keys() - array.unread:
                obj = array.live[slot]
                assert obj.core.decided() is not None, f"round {r} node {i} slot {slot}"
                assert obj.delivered[i], f"round {r} node {i} slot {slot}"
                reads += 1
    assert reads


@pytest.mark.parametrize("case", grid(), ids=case_id)
def test_built_broadcasts_pass_their_own_checks(case, monkeypatch):
    """Receivers skip the checks of the co fields in a round's shared part
    read at their own level (see `corsim.mvc`), so every such field must
    come out of those checks unchanged."""
    exchange = harness.exchange
    checked = []

    def checking(r, outboxes, node_ids, correct_ids):
        mail = exchange(r, outboxes, node_ids, correct_ids)
        co = EigConsensus(case["n"], case["t"])
        for env in mail[0].shared.values():
            if env.co is not None:
                assert isinstance(env.co, CoPayload)
                kept = co._checked(env.co, env.co.level)
                assert kept == env.co.entries, f"round {r} sender {env.sender}"
                assert all(a is b for a, b in zip(kept, env.co.entries))
                checked.append(env.co.level)
        return mail

    monkeypatch.setattr(harness, "exchange", checking)
    build(case).run()
    assert set(checked) == set(range(case["t"] + 1))


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_shared_mail_is_read_once_per_round(n, t, monkeypatch):
    """The round engine reads each correct receiver's mail once, and
    worst_sig's predictions and the nodes take that reading, so every
    round, its κ−3 and κ−2 among them, reads each distinct shared part once
    and each correct receiver's own part once."""
    reads = []
    read = corsim_node._read

    def counting(part, *args):
        reads.append(id(part))
        return read(part, *args)

    monkeypatch.setattr(corsim_node, "_read", counting)
    params = make_params(n, t, 3, 8, seed=1)
    engine = RoundEngine(TrialConfig(params=params, rounds=3 * params.kappa,
                                     adversary="worst_sig", inject="full"))
    distinct = set()
    for r in range(engine.config.rounds):
        if r == 2 * params.kappa - 3:
            # a planted shared sender gives node 0 a shared part of its own
            engine.pending[0].plant(1, "garbage")
        mail = [engine.pending[i] for i in engine.correct_ids]
        parts = {id(m.shared) for m in mail}
        reads.clear()
        engine._round(r)
        assert sorted(reads) == sorted([*parts, *(id(m.own) for m in mail)]), f"round {r}"
        distinct.add(len(parts))
    assert distinct == {1, 2}


@pytest.mark.parametrize("case", grid(), ids=case_id)
def test_the_shared_reading_is_left_as_read(case):
    """Every reader of a round, the adversary and the nodes, gets the
    round's one reading of each receiver's mail and must not mutate it:
    after the round both halves still equal a fresh read of their parts,
    and the receivers of one shared part hold one shared reading."""
    engine = build(case)
    p = engine.params
    views = []
    byz_outboxes = engine.adversary.byz_outboxes

    def capturing(view):
        views.append(view)
        return byz_outboxes(view)

    engine.adversary.byz_outboxes = capturing
    for r in range(engine.config.rounds):
        engine._round(r)
        view = views.pop()
        kind = read_kind(view.phase, p.kappa)
        assert sorted(view.readings) == engine.correct_ids, f"round {r}"
        by_part = {}
        for i in engine.correct_ids:
            shared, own = view.readings[i]
            mail = view.mail[i]
            assert by_part.setdefault(id(mail.shared), shared) is shared, f"round {r}"
            fresh = corsim_node._read(mail.shared, p.index_num, kind, {})
            assert shared == fresh, f"round {r}"
            assert own == corsim_node._read(mail.own, p.index_num, kind, dict(fresh[1])), \
                f"round {r}"


MESSAGES = (EstPayload, CoPayload, SigPayload, Envelope)


def refuse_rebind(self, name, value):
    try:
        getattr(self, name)
    except AttributeError:  # not yet set: construction
        object.__setattr__(self, name, value)
    else:
        raise AttributeError(f"{type(self).__name__}.{name} rebound")


@pytest.mark.parametrize("case", grid(), ids=case_id)
def test_messages_are_never_rebound(case, golden, monkeypatch):
    """Messages are shared by reference (one envelope to every receiver, one
    co payload among senders) and are not frozen, so no code may rebind a
    field once a message is built."""
    for cls in MESSAGES:
        monkeypatch.setattr(cls, "__setattr__", refuse_rebind)
    sig = SigPayload(kind="bit", value=0)
    with pytest.raises(AttributeError, match="SigPayload.value rebound"):
        sig.value = 1
    co = CoPayload(level=0, entries=())
    with pytest.raises(AttributeError, match="CoPayload.entries rebound"):
        co.entries = ((), 1)
    assert run(case).digest() == golden[case_id(case)]


@pytest.mark.parametrize("core", ["stub", "mmr-lite"])
def test_a_decided_core_planted_before_round_0_is_read_once(core):
    """Every object starts unread, so planted state cannot skip the first read."""
    engine = build(dict(n=4, t=1, adversary="silent", inject="none", core=core,
                        recycling=True, seed=7))
    node = engine.nodes[0]
    planted = 7  # in the window of index 0, which holds slots 5, 6, 7 and 0
    assert node.sig.index == 0
    node.objects.get(planted).core.decided_cache = 1
    step = node.step
    reads = []

    def spy(*args):
        outbox, report = step(*args)
        reads.append([value for slot, value in report.retrievals if slot == planted])
        return outbox, report

    node.step = spy
    for r in range(4):
        engine._round(r)
    assert planted in node.objects.live and planted not in node.objects.unread
    assert reads == [[1], [], [], []]
    assert engine.trace.retrievals[(planted, 0)][0] == (0, "1")


def test_table_covers_grid_exactly(golden):
    assert set(golden) == {case_id(case) for case in grid()}


def test_split_case_takes_coin_branch():
    """The pinned split case reaches the paper's probability-1/2 coin path.

    A node took the coin branch at a cycle end when it saw neither a ones
    nor a zeros quorum.
    """
    (case,) = [case for case in grid() if "indices" in case]
    coin = [
        rec.round
        for rec in run(case).rounds
        if rec.branch is not None and "coin" in rec.branch
    ]
    assert coin


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    table = {case_id(case): digest(case) for case in grid()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
