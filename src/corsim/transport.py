"""Lock-step reliable message exchange and the per-round envelope.

Every sub-protocol rides one envelope per (sender, round): an est field for
the recyclable object layer, a co field for the synchronous consensus
recomputation, and a sig field for the shared index. A correct sender only
broadcasts, so its outbox maps every receiver to one shared envelope object;
a Byzantine sender may equivocate with a distinct envelope per receiver.
Delivery is exact and authenticated: no sender can alter its sender id.

Messages are shared by reference: one envelope reaches every receiver, and
one co payload can ride the envelopes of several senders (see `corsim.mvc`).
So no field of an envelope or payload is rebound after construction. The
classes are not frozen all the same, because a frozen dataclass sets each
field through `object.__setattr__`, about 0.5 us more per message;
`test_messages_are_never_rebound` holds every golden trial to the rule.
Each payload writes its own repr: the generated repr's bytes for every
acyclic value, without its recursion guard (no payload contains itself).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class EstPayload:
    """Recyclable-object piggyback: slot number, core message, sender's delivery flag."""

    slot: int
    core: object
    delivered: bool

    def __repr__(self) -> str:
        return f"EstPayload(slot={self.slot!r}, core={self.core!r}, delivered={self.delivered!r})"


# not slotted: `corsim.mvc` registers built broadcasts weakly, and a slotted
# class takes weak references only with `weakref_slot` (Python 3.11+)
@dataclass(unsafe_hash=True)
class CoPayload:
    """One consensus-core message: tree level plus (label, value) entries."""

    level: int
    entries: tuple

    def __repr__(self) -> str:
        return f"CoPayload(level={self.level!r}, entries={self.entries!r})"


@dataclass(slots=True, unsafe_hash=True)
class SigPayload:
    """Index-protocol message, tagged by phase kind: 'index', 'propose' or 'bit'."""

    kind: str
    value: object

    def __repr__(self) -> str:
        return f"SigPayload(kind={self.kind!r}, value={self.value!r})"


@dataclass(slots=True, unsafe_hash=True)
class Envelope:
    sender: int
    est: EstPayload | None = None
    co: CoPayload | None = None
    sig: SigPayload | None = None


@dataclass(slots=True)
class RoundMail:
    """Per-receiver mail for one round: sender id -> envelope."""

    inbox: dict[int, Envelope]


class TransportError(Exception):
    """Simulator bug: the round's outboxes violate the exchange contract."""


def exchange(
    round_index: int,
    outboxes: dict[int, dict[int, Envelope]],
    node_ids: list[int],
    correct_ids: list[int],
) -> dict[int, RoundMail]:
    """Deliver outboxes exactly: inbox[j][i] = outbox[i][j].

    No loss, duplication, reorder or forgery. A correct node's outbox that
    is missing, or that skips a correct receiver, is a fatal simulator bug;
    a Byzantine node may omit destinations.
    """
    for i in correct_ids:
        box = outboxes.get(i)
        if box is None:
            raise TransportError(f"round {round_index}: missing outbox for correct node {i}")
        for j in correct_ids:
            if j not in box:
                raise TransportError(f"round {round_index}: envelope {i}->{j} missing")
    mail = {j: RoundMail(inbox={}) for j in node_ids}
    for i in node_ids:
        for j, env in outboxes.get(i, {}).items():
            if env.sender != i:
                raise TransportError(
                    f"round {round_index}: node {i} attempted to send as {env.sender}"
                )
            box = mail.get(j)
            if box is not None:
                box.inbox[i] = env
    return mail


def serialize_envelope(env: Envelope, bodies: dict[int, bytes] | None = None) -> bytes:
    """Canonical byte form, used only for trace logging.

    Layout: sender byte, then for each present field a tag byte (1=est,
    2=co, 3=sig) followed by a little-endian u32 length and the payload repr.
    `bodies` maps id(payload) to its encoded repr; it is read and filled,
    so a payload shared by several envelopes is repr'd once. Pass one only
    while every payload it holds stays alive.
    """
    if bodies is None:
        bodies = {}
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


def traffic_digest(
    outboxes: dict[int, dict[int, Envelope]],
    deliveries: list[tuple[int, int, bytes]] | None = None,
) -> str:
    """Stable digest of one round's full message traffic.

    Hashes sender, receiver and serialized envelope for every delivery, in
    sender-then-receiver order. Each distinct envelope object is serialized
    once, so a broadcast costs one serialization, not n, and each distinct
    payload object is repr'd once, so a consensus payload that several
    correct senders share (see `corsim.mvc`) costs one repr. Both memos are
    keyed by identity, not equality: equal payloads can have different
    reprs (``delivered=True`` and ``delivered=1``). They live for one call
    only, because ids are reused once an object is collected.

    When ``deliveries`` is a list, every (sender, receiver, bytes) is
    appended to it in the same order.
    """
    h = hashlib.sha256()
    wire: dict[int, bytes] = {}
    bodies: dict[int, bytes] = {}
    for i in sorted(outboxes):
        box = outboxes[i]
        for j in sorted(box):
            env = box[j]
            data = wire.get(id(env))
            if data is None:
                data = wire[id(env)] = serialize_envelope(env, bodies)
            h.update(i.to_bytes(2, "little") + j.to_bytes(2, "little"))
            h.update(data)
            if deliveries is not None:
                deliveries.append((i, j, data))
    return h.hexdigest()[:16]
