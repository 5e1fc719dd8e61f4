"""Envelope serialization and lock-step delivery."""

import hashlib
import random
from dataclasses import field, make_dataclass

import pytest

from corsim.transport import (
    CoPayload,
    Envelope,
    EstPayload,
    SigPayload,
    TransportError,
    exchange,
    serialize_envelope,
    traffic_digest,
)
from corsim.env import make_params
from corsim import harness
from corsim.harness import RoundEngine, TrialConfig


def broadcast(sender, env, ids):
    return {j: env for j in ids}


NOT_BROADCAST = "correct node 1 did not broadcast"
# what correct node 1 sends in place of its broadcast, given every node's
# broadcast, and the error it raises; None is no outbox at all
NOT_BROADCASTS = {
    "missing": (lambda boxes: None, "missing outbox for correct node 1"),
    "skips a correct receiver": (lambda boxes: {j: boxes[1][j] for j in (0, 1, 3)},
                                 NOT_BROADCAST),
    "skips a Byzantine receiver": (lambda boxes: {j: boxes[1][j] for j in (0, 1, 2)},
                                   NOT_BROADCAST),
    "extra receiver": (lambda boxes: dict.fromkeys(range(5), boxes[1][1]), NOT_BROADCAST),
    "per-receiver envelopes": (
        lambda boxes: {j: Envelope(sender=1, sig=SigPayload(kind="index", value=j))
                       for j in range(4)},
        NOT_BROADCAST,
    ),
    "equal but distinct envelopes": (lambda boxes: {j: Envelope(sender=1) for j in range(4)},
                                     NOT_BROADCAST),
    "another sender's envelope": (lambda boxes: dict(boxes[0]),
                                  "node 1 attempted to send as 0"),
}


class TestExchange:
    ids = [0, 1, 2, 3]

    def test_broadcast_reaches_every_inbox(self):
        env = Envelope(sender=1, sig=SigPayload(kind="index", value=7))
        outboxes = {i: {} for i in self.ids}
        outboxes[1] = broadcast(1, env, self.ids)
        mail = exchange(0, outboxes, self.ids, correct_ids=[1])
        for j in self.ids:
            assert mail[j].inbox[1] == env

    def test_equivocation_differs_only_at_byz_sender(self):
        a = Envelope(sender=3, sig=SigPayload(kind="index", value=1))
        b = Envelope(sender=3, sig=SigPayload(kind="index", value=2))
        honest = Envelope(sender=0, sig=SigPayload(kind="index", value=9))
        outboxes = {
            0: broadcast(0, honest, self.ids),
            1: broadcast(1, Envelope(sender=1), self.ids),
            2: broadcast(2, Envelope(sender=2), self.ids),
            3: {1: a, 2: b},
        }
        mail = exchange(0, outboxes, self.ids, correct_ids=[0, 1, 2])
        assert mail[1].inbox[3] == a
        assert mail[2].inbox[3] == b
        assert mail[1].inbox[0] == mail[2].inbox[0]

    def test_impersonation_rejected(self):
        forged = Envelope(sender=1, sig=SigPayload(kind="index", value=0))
        outboxes = {i: broadcast(i, Envelope(sender=i), self.ids) for i in (0, 1)}
        outboxes[2] = broadcast(2, forged, self.ids)
        with pytest.raises(TransportError, match="node 2 attempted to send as 1"):
            exchange(0, outboxes, self.ids, correct_ids=[0, 1, 2])

    @pytest.mark.parametrize("shape", list(NOT_BROADCASTS))
    def test_a_correct_box_that_is_not_a_broadcast_is_fatal(self, shape):
        outboxes = {i: broadcast(i, Envelope(sender=i), self.ids) for i in self.ids}
        build, message = NOT_BROADCASTS[shape]
        box = build(outboxes)
        if box is None:
            del outboxes[1]
        else:
            outboxes[1] = box
        with pytest.raises(TransportError, match=message):
            exchange(0, outboxes, self.ids, correct_ids=[0, 1, 2])

    def test_exact_delivery_no_loss_no_duplication(self):
        # node 0 broadcasts; the Byzantine senders send one envelope per receiver
        outboxes = {
            i: {j: Envelope(sender=i, sig=SigPayload(kind="index", value=i * 10 + j))
                for j in self.ids}
            for i in self.ids
        }
        outboxes[0] = broadcast(0, Envelope(sender=0, sig=SigPayload(kind="index", value=0)),
                                self.ids)
        mail = exchange(5, outboxes, self.ids, correct_ids=[0])
        for j in self.ids:
            assert sorted(mail[j].inbox) == self.ids
            assert mail[j].inbox[0].sig.value == 0
            for i in (1, 2, 3):
                assert mail[j].inbox[i].sig.value == i * 10 + j

    def test_a_byzantine_node_may_omit_destinations(self):
        outboxes = {i: broadcast(i, Envelope(sender=i), self.ids) for i in self.ids}
        del outboxes[3][0]
        outboxes[2] = {1: Envelope(sender=2)}
        mail = exchange(3, outboxes, self.ids, correct_ids=[0, 1])
        assert 3 not in mail[0].inbox and 3 in mail[1].inbox
        assert [j for j in self.ids if 2 in mail[j].inbox] == [1]

    def test_a_broadcast_shaped_byzantine_box_is_delivered_per_receiver(self):
        outboxes = {i: broadcast(i, Envelope(sender=i), self.ids) for i in self.ids}
        mail = exchange(0, outboxes, self.ids, correct_ids=[0, 1, 2])
        assert all(mail[j].shared is mail[0].shared for j in self.ids)
        assert mail[0].shared == {i: outboxes[i][0] for i in (0, 1, 2)}
        for j in self.ids:
            assert mail[j].own == {3: outboxes[3][j]}
            assert all(mail[j].inbox[i] is outboxes[i][j] for i in self.ids)
        # one object to every node and to one more: the extra delivery goes nowhere
        outboxes[3] = dict.fromkeys(self.ids + [4], Envelope(sender=3))
        mail = exchange(0, outboxes, self.ids, correct_ids=[0, 1, 2])
        assert all(mail[j].own == {3: outboxes[3][j]} for j in self.ids)
        # and every envelope keeps the sender-stamp check
        outboxes[3] = dict.fromkeys(self.ids, Envelope(sender=0))
        with pytest.raises(TransportError, match="node 3 attempted to send as 0"):
            exchange(0, outboxes, self.ids, correct_ids=[0, 1, 2])

    def test_equal_byzantine_envelopes_each_reach_their_own_receiver(self):
        # equal envelopes whose reprs differ: identity, not equality, is delivered
        box = {j: Envelope(sender=3, est=EstPayload(slot=0, core=None, delivered=(True, 1)[j % 2]))
               for j in self.ids}
        outboxes = {i: broadcast(i, Envelope(sender=i), self.ids) for i in self.ids}
        outboxes[3] = box
        mail = exchange(0, outboxes, self.ids, correct_ids=[0, 1, 2])
        assert all(mail[j].inbox[3] is box[j] for j in self.ids)
        assert list(mail[0].shared) == [0, 1, 2]
        assert all(mail[j].own == {3: box[j]} for j in self.ids)

    def test_plant_replaces_one_receivers_arrival(self):
        outboxes = {i: dict.fromkeys(self.ids, Envelope(sender=i)) for i in self.ids}
        mail = exchange(0, outboxes, self.ids, correct_ids=self.ids)
        shared = mail[0].shared
        mail[2].plant(1, "garbage")
        assert mail[2].inbox == {0: outboxes[0][2], 2: outboxes[2][2], 3: outboxes[3][2],
                                 1: "garbage"}
        assert mail[0].shared is shared and mail[0].inbox[1] is outboxes[1][0]


class TestSerialization:
    def test_tagged_little_endian_layout(self):
        sig = SigPayload(kind="bit", value=0)
        raw = serialize_envelope(Envelope(sender=2, sig=sig))
        assert raw[0] == 2
        assert raw[1] == 3  # sig tag
        length = int.from_bytes(raw[2:6], "little")
        assert raw[6 : 6 + length] == repr(sig).encode()

    def test_absent_fields_absent_from_wire(self):
        raw = serialize_envelope(Envelope(sender=0))
        assert raw == b"\x00"

    def test_wire_bytes_pinned(self):
        """Sender byte, then tag, u32 little-endian length and UTF-8 repr per field."""
        env = Envelope(
            sender=3,
            est=EstPayload(slot=5, core=("MMR", 2, (0, 1), None), delivered=1),
            co=CoPayload(level=1, entries=(((0,), None), ((2,), 1))),
            sig=SigPayload(kind="propose", value='a "b" \'c\' \u00e9'),
        )
        assert serialize_envelope(env) == (
            b"\x03"
            b"\x01\x3e\x00\x00\x00"
            b"EstPayload(slot=5, core=('MMR', 2, (0, 1), None), delivered=1)"
            b"\x02\x35\x00\x00\x00"
            b"CoPayload(level=1, entries=(((0,), None), ((2,), 1)))"
            b"\x03\x32\x00\x00\x00"
            b"SigPayload(kind='propose', value='a \"b\" \\'c\\' \xc3\xa9')"
        )
        env = Envelope(sender=0, est=EstPayload(slot=5, core=None, delivered=True))
        assert serialize_envelope(env) == (
            b"\x00\x01\x2d\x00\x00\x00EstPayload(slot=5, core=None, delivered=True)"
        )

    def test_digest_stable_and_order_insensitive_input(self):
        env = Envelope(sender=0, sig=SigPayload(kind="index", value=3))
        out1 = {0: {1: env, 0: env}, 1: {}}
        out2 = {0: {0: env, 1: env}, 1: {}}
        assert traffic_digest(out1, {}) == traffic_digest(out2, {})
        assert traffic_digest(out2, {0: env}) == traffic_digest(out2, {})


# the message classes as frozen dataclasses, the form whose reprs, equality
# and hashes the slotted classes must reproduce
REFERENCE = {
    "EstPayload": make_dataclass(
        "EstPayload", [("slot", int), ("core", object), ("delivered", bool)], frozen=True
    ),
    "CoPayload": make_dataclass("CoPayload", [("level", int), ("entries", tuple)], frozen=True),
    "SigPayload": make_dataclass("SigPayload", [("kind", str), ("value", object)], frozen=True),
    "Envelope": make_dataclass(
        "Envelope",
        [
            ("sender", int),
            ("est", object, field(default=None)),
            ("co", object, field(default=None)),
            ("sig", object, field(default=None)),
        ],
        frozen=True,
    ),
}
CURRENT = {cls.__name__: cls for cls in (EstPayload, CoPayload, SigPayload, Envelope)}

UNHASHABLE = [1, 2]
EST = [
    ("EstPayload", 2, None, True),
    ("EstPayload", 2, None, 1),
    ("EstPayload", 0, ("MMR", 3, (0, 1), None), False),
    ("EstPayload", 7, ("MMR", 1, (1,), 1), 0),
    ("EstPayload", 1, UNHASHABLE, True),
]
CO = [
    ("CoPayload", 0, (((), None),)),
    ("CoPayload", 1, (((0,), 1), ((2,), True))),
    ("CoPayload", 1, (((0,), 1.0), ((2,), 1))),
    ("CoPayload", 1, (((0,), UNHASHABLE),)),
    ("CoPayload", 2, "garbage"),
]
SIG = [
    ("SigPayload", "index", 7),
    ("SigPayload", "index", True),
    ("SigPayload", "index", 1.0),
    ("SigPayload", "bit", 'quote " and \' \u00fc'),
    ("SigPayload", "propose", {1: 2}),
]
CORPUS = EST + CO + SIG + [
    ("Envelope", 0, None, None, None),
    ("Envelope", 1, EST[0], CO[0], SIG[0]),
    ("Envelope", 1, EST[1], CO[0], SIG[1]),
    ("Envelope", 2, None, CO[1], None),
    ("Envelope", 3, EST[4], None, SIG[3]),
    ("Envelope", 3, None, None, SIG[4]),
]


def build(classes, spec):
    """A message from (class name, *fields); an envelope's payloads are specs too."""
    name, *fields = spec
    if name == "Envelope":
        fields = [fields[0]] + [None if f is None else build(classes, f) for f in fields[1:]]
    return classes[name](*fields)


@pytest.mark.parametrize("spec", CORPUS, ids=repr)
def test_messages_match_frozen_dataclasses(spec):
    new, ref = build(CURRENT, spec), build(REFERENCE, spec)
    assert repr(new) == repr(ref)
    for other in CORPUS:
        assert (new == build(CURRENT, other)) == (ref == build(REFERENCE, other))
    try:
        expected = hash(ref)
    except TypeError:
        with pytest.raises(TypeError):
            hash(new)
    else:
        assert hash(new) == expected


def reference_digest(outboxes):
    """The per-delivery loop: one serialization for every (sender, receiver) pair."""
    h = hashlib.sha256()
    for i in sorted(outboxes):
        for j in sorted(outboxes[i]):
            h.update(i.to_bytes(2, "little"))
            h.update(j.to_bytes(2, "little"))
            h.update(serialize_envelope(outboxes[i][j]))
    return h.hexdigest()[:16]


def legacy_serialize(env, bodies):
    """The serializer the joined one replaced: one bytearray, appended field by field."""
    out = bytearray([env.sender & 0xFF])
    for tag, payload in ((1, env.est), (2, env.co), (3, env.sig)):
        if payload is not None:
            body = bodies.get(id(payload))
            if body is None:
                body = bodies[id(payload)] = repr(payload).encode("utf-8")
            out.append(tag)
            out += len(body).to_bytes(4, "little")
            out += body
    return bytes(out)


def legacy_digest(outboxes, deliveries=None):
    """The per-delivery loop the broadcast joins replaced: two hash updates per delivery."""
    h = hashlib.sha256()
    wire, bodies = {}, {}
    for i in sorted(outboxes):
        box = outboxes[i]
        for j in sorted(box):
            env = box[j]
            data = wire.get(id(env))
            if data is None:
                data = wire[id(env)] = legacy_serialize(env, bodies)
            h.update(i.to_bytes(2, "little") + j.to_bytes(2, "little"))
            h.update(data)
            if deliveries is not None:
                deliveries.append((i, j, data))
    return h.hexdigest()[:16]


BOX_SHAPES = ("broadcast", "skip", "reorder", "extend", "equivocate", "empty",
              "other sender's envelope", "equal twins")


def outbox_corpus(count=300, seed=22):
    """Seeded round traffic: (outboxes, shape of each box), covering every shape.

    Payload objects are drawn from a small pool, so several senders share
    some; est flags are True, False, 1 or 0, so equal payloads can differ
    in repr. One set in six has senders and receivers that are not 0..n-1.
    """
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        n = rng.randrange(1, 7)
        ids = list(range(n))
        if rng.random() < 1 / 6:
            ids = sorted(rng.sample(range(1, 12), n))
        pool = [
            CoPayload(level=1, entries=(((0,), rng.choice((0, 1, True))),)),
            EstPayload(slot=rng.randrange(8), core=None, delivered=rng.choice((True, 1))),
            SigPayload(kind="bit", value=rng.choice((0, False))),
        ]

        def envelope(sender):
            return Envelope(
                sender=sender,
                est=rng.choice((None, pool[1], EstPayload(
                    slot=rng.randrange(8), core=rng.choice((None, ("MMR", 1, (0,), None))),
                    delivered=rng.choice((True, False, 1, 0))))),
                co=rng.choice((None, pool[0])),
                sig=rng.choice((None, pool[2], SigPayload(kind="index", value=rng.randrange(8)))),
            )

        outboxes, shapes = {}, {}
        for i in ids:
            shape = rng.choice(BOX_SHAPES)
            env = envelope(i)
            if shape == "broadcast":
                box = dict.fromkeys(ids, env)
            elif shape == "skip":
                box = dict.fromkeys(rng.sample(ids, rng.randrange(n)), env)
            elif shape == "reorder":
                box = dict.fromkeys(rng.sample(ids, n), env)
            elif shape == "extend":
                box = dict.fromkeys(ids + [ids[-1] + 1], env)
            elif shape == "equivocate":
                box = {j: envelope(i) for j in ids}
            elif shape == "empty":
                box = {}
            elif shape == "other sender's envelope":
                taken = [b for b in outboxes.values() if b]
                box = dict.fromkeys(ids, next(iter(taken[0].values())) if taken else env)
            else:
                twins = [Envelope(sender=i, est=EstPayload(slot=0, core=None, delivered=flag))
                         for flag in (True, 1)]
                box = {j: twins[k % 2] for k, j in enumerate(ids)}
            outboxes[i], shapes[i] = box, shape
        corpus.append((outboxes, shapes))
    return corpus


def broadcasts(outboxes):
    """Every sender whose box sends one envelope object to receivers 0..n-1
    and to no other, n being the number of boxes: what a shared part may hold."""
    n = len(outboxes)
    if sorted(outboxes) != list(range(n)):
        return {}
    return {
        i: box[0] for i, box in outboxes.items()
        if len(box) == n and box.get(0) is not None and all(box.get(j) is box[0] for j in range(n))
    }


def test_digest_equals_the_per_delivery_loop_on_a_corpus():
    """Whichever broadcasts are marked shared, the digest and the deliveries
    are the per-delivery loop's."""
    corpus = outbox_corpus()
    seen = set()
    for outboxes, shapes in corpus:
        every = broadcasts(outboxes)
        for shared in (every, dict(list(every.items())[::2]), {}):
            deliveries, expected = [], []
            assert (traffic_digest(outboxes, shared, deliveries)
                    == legacy_digest(outboxes, expected))
            assert deliveries == expected
            assert traffic_digest(outboxes, shared) == legacy_digest(outboxes)
        n = len(outboxes)
        seen.update((shape, sorted(outboxes) == list(range(n))) for shape in shapes.values())
    assert seen == {(shape, zero_based) for shape in BOX_SHAPES for zero_based in (True, False)}
    assert any(broadcasts(outboxes) for outboxes, _ in corpus)


class TestDigestSharedObjects:
    ids = [0, 1, 2, 3, 4, 5, 6]

    def mixed_outboxes(self):
        shared = Envelope(
            sender=0,
            est=EstPayload(slot=2, core=None, delivered=True),
            co=CoPayload(level=1, entries=(((1,), 0), ((2,), 1))),
            sig=SigPayload(kind="bit", value=1),
        )
        # equal envelopes whose payload reprs differ: identity, not equality,
        # decides what is repr'd once
        yes = Envelope(sender=3, est=EstPayload(slot=0, core=None, delivered=True))
        one = Envelope(sender=3, est=EstPayload(slot=0, core=None, delivered=1))
        assert yes == one and serialize_envelope(yes) != serialize_envelope(one)
        # payload objects shared by envelopes from different senders: one
        # consensus level, and two equal est payloads whose reprs differ
        level = CoPayload(level=2, entries=(((0, 1), 1), ((1, 0), True)))
        est_yes = EstPayload(slot=1, core=None, delivered=True)
        est_one = EstPayload(slot=1, core=None, delivered=1)
        return {
            0: dict.fromkeys(self.ids, shared),
            1: dict.fromkeys(self.ids, Envelope(sender=1)),
            2: {j: Envelope(sender=2, sig=SigPayload(kind="index", value=j)) for j in self.ids},
            3: {0: yes, 1: one, 2: yes},
            4: dict.fromkeys(self.ids, Envelope(sender=4, est=est_yes, co=level)),
            5: dict.fromkeys(self.ids, Envelope(sender=5, est=est_one, co=level)),
            6: {j: Envelope(sender=6, est=(est_yes, est_one)[j % 2], co=level) for j in self.ids},
        }

    def test_equals_per_delivery_loop(self):
        outboxes = self.mixed_outboxes()
        shared = broadcasts(outboxes)
        assert list(shared) == [0, 1, 4, 5]
        assert traffic_digest(outboxes, shared) == reference_digest(outboxes)
        assert traffic_digest(outboxes, {}) == reference_digest(outboxes)

    def test_deliveries_carry_each_pair_serialized(self):
        outboxes = self.mixed_outboxes()
        deliveries = []
        traffic_digest(outboxes, broadcasts(outboxes), deliveries)
        assert deliveries == [
            (i, j, serialize_envelope(outboxes[i][j]))
            for i in sorted(outboxes)
            for j in sorted(outboxes[i])
        ]


def test_correct_nodes_broadcast_one_envelope_object(monkeypatch):
    sent = []

    def recording(r, outboxes, node_ids, correct_ids):
        sent.append(outboxes)
        return exchange(r, outboxes, node_ids, correct_ids)

    monkeypatch.setattr(harness, "exchange", recording)
    p = make_params(4, 1, 3, 8, seed=21)
    engine = RoundEngine(TrialConfig(params=p, rounds=10, adversary="equivocate"))
    # round-0 mail has an empty shared part; a planted set flag from node 3
    # builds slot 5's object at node 0, inside window(0) = {5, 6, 7, 0}
    assert all(m.shared == {} and m.own == {} for m in engine.pending.values())
    engine.pending[0].plant(3, Envelope(sender=3, est=EstPayload(slot=5, core=None, delivered=True)))
    for r in range(p.kappa):
        engine._round(r)
        if r == 0:
            assert engine.nodes[0].objects.live[5].delivered[3] is True
            assert all(5 not in engine.nodes[i].objects.live for i in (1, 2))
        outboxes = sent[-1]
        for i in engine.correct_ids:
            env = outboxes[i][i]
            assert sorted(outboxes[i]) == engine.node_ids
            assert all(outboxes[i][j] is env for j in engine.node_ids)
            assert all(engine.pending[j].inbox[i] is env for j in engine.node_ids)
        # Byzantine senders still equivocate: one envelope object per receiver
        for b in engine.byz_ids:
            box = outboxes[b]
            assert len({id(e) for e in box.values()}) == len(box) == len(engine.correct_ids)
            assert len(set(box.values())) == 2
            assert all(engine.pending[j].inbox[b] is box[j] for j in box)
        # the correct broadcasts are one shared part, the same dict for every receiver
        shared = engine.pending[0].shared
        assert list(shared) == engine.correct_ids
        assert all(engine.pending[j].shared is shared for j in engine.node_ids)
        assert all(list(engine.pending[j].own) == engine.byz_ids for j in engine.correct_ids)

