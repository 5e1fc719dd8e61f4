"""Envelope serialization and lock-step delivery."""

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


def broadcast(sender, env, ids):
    return {j: env for j in ids}


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
            1: {},
            2: {},
            3: {1: a, 2: b},
        }
        mail = exchange(0, outboxes, self.ids, correct_ids=[0, 1, 2])
        assert mail[1].inbox[3] == a
        assert mail[2].inbox[3] == b
        assert mail[1].inbox[0] == mail[2].inbox[0]

    def test_impersonation_rejected(self):
        forged = Envelope(sender=1, sig=SigPayload(kind="index", value=0))
        outboxes = {0: {}, 1: {}, 2: {1: forged}, 3: {}}
        with pytest.raises(TransportError):
            exchange(0, outboxes, self.ids, correct_ids=[0, 1, 2])

    def test_missing_correct_outbox_is_fatal(self):
        with pytest.raises(TransportError):
            exchange(0, {0: {}}, self.ids, correct_ids=[0, 1])

    def test_exact_delivery_no_loss_no_duplication(self):
        outboxes = {
            i: {j: Envelope(sender=i, sig=SigPayload(kind="index", value=i * 10 + j))
                for j in self.ids}
            for i in self.ids
        }
        mail = exchange(5, outboxes, self.ids, correct_ids=self.ids)
        for j in self.ids:
            assert sorted(mail[j].inbox) == self.ids
            for i in self.ids:
                assert mail[j].inbox[i].sig.value == i * 10 + j


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

    def test_digest_stable_and_order_insensitive_input(self):
        env = Envelope(sender=0, sig=SigPayload(kind="index", value=3))
        out1 = {0: {1: env, 0: env}}
        out2 = {0: {0: env, 1: env}}
        assert traffic_digest(out1) == traffic_digest(out2)
