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

A broadcast costs O(1) Python work per round, not one unit per receiver.
`exchange` checks each correct box once: it must send one envelope object
to every node and to no other, and that envelope joins the round's shared
part, one dict that every receiver's `RoundMail` holds. That part is the
one mark of a correct broadcast: `traffic_digest` hashes a sender in it as
one join, it is read once per round for every reader (see `corsim.node`),
and EIG takes its co fields unchecked (see `corsim.mvc`).
Only a receiver's own arrivals, Byzantine or planted, are kept per
receiver.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat


@dataclass(slots=True, unsafe_hash=True)
class EstPayload:
    """Recyclable-object piggyback: slot number, core message, sender's delivery flag."""

    slot: int
    core: object
    delivered: bool

    def __repr__(self) -> str:
        return f"EstPayload(slot={self.slot!r}, core={self.core!r}, delivered={self.delivered!r})"


@dataclass(slots=True, unsafe_hash=True)
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
    """One receiver's mail for one round: the round's shared part plus its own arrivals.

    `shared` maps each sender of a correct broadcast (see `exchange`) to
    its envelope, and every receiver's mail holds that one dict, which is
    never mutated. `own` maps every other sender to what this receiver got
    from it: a Byzantine sender's envelope, or a value planted with
    `plant`. The two parts name disjoint senders.
    """

    shared: dict[int, Envelope]
    own: dict[int, object]

    @property
    def inbox(self) -> dict[int, object]:
        """A new dict of every arrival, sender id -> envelope: the shared part, then the own."""
        return {**self.shared, **self.own}

    def plant(self, sender: int, value: object) -> None:
        """Deliver value from sender to this receiver in place of what it sent.

        A shared arrival is replaced through a copy of the shared part that
        leaves the sender out, so no other receiver's mail changes.
        """
        if sender in self.shared:
            self.shared = {i: env for i, env in self.shared.items() if i != sender}
        self.own[sender] = value


class TransportError(Exception):
    """Simulator bug: the round's outboxes violate the exchange contract."""


def exchange(
    round_index: int,
    outboxes: dict[int, dict[int, Envelope]],
    node_ids: list[int],
    correct_ids: list[int],
) -> dict[int, RoundMail]:
    """Deliver outboxes exactly: inbox[j][i] = outbox[i][j].

    No loss, duplication, reorder or forgery. A correct node only
    broadcasts: its box must send one envelope object, stamped with its
    sender, to every node and to no other, and that envelope joins the
    round's shared part, which every receiver's mail holds. Any other
    correct box is a fatal simulator bug. A Byzantine box is delivered to
    its receivers' own parts, and may omit destinations.
    """
    shared: dict[int, Envelope] = {}
    for i in correct_ids:
        box = outboxes.get(i)
        if box is None:
            raise TransportError(f"round {round_index}: missing outbox for correct node {i}")
        # identity, not equality: equal envelopes can serialize differently
        env = box.get(i)
        if env is not None and len(box) == len(node_ids):
            for j in node_ids:
                if box.get(j) is not env:
                    break
            else:
                if env.sender != i:
                    raise TransportError(
                        f"round {round_index}: node {i} attempted to send as {env.sender}"
                    )
                shared[i] = env
                continue
        raise TransportError(f"round {round_index}: correct node {i} did not broadcast")
    own: dict[int, dict[int, object]] = {j: {} for j in node_ids}
    for i in node_ids:
        box = outboxes.get(i)
        if not box or i in shared:
            continue
        for j, env in box.items():
            if env.sender != i:
                raise TransportError(
                    f"round {round_index}: node {i} attempted to send as {env.sender}"
                )
            inbox = own.get(j)
            if inbox is not None:
                inbox[i] = env
    return {j: RoundMail(shared, own[j]) for j in node_ids}


# field header: tag byte (1=est, 2=co, 3=sig), then the body's length as a u32
_FIELD = struct.Struct("<BI")
_PAIR = struct.Struct("<HH")  # delivery header: sender and receiver as u16
_SENDER_BYTE = tuple(bytes((b,)) for b in range(256))


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
    parts = [_SENDER_BYTE[env.sender & 0xFF]]
    tag = 0
    for payload in (env.est, env.co, env.sig):
        tag += 1
        if payload is not None:
            key = id(payload)
            body = bodies.get(key)
            if body is None:
                body = bodies[key] = repr(payload).encode("utf-8")
            parts += (_FIELD.pack(tag, len(body)), body)
    return b"".join(parts)


@lru_cache(maxsize=1)
def _broadcast_headers(n: int) -> tuple[tuple[bytes, ...], ...]:
    """Per sender i < n, the (i, j) delivery headers for receivers j = 0..n-1.

    Each row ends with b"", so an envelope's bytes joined by a row give
    header then envelope for every receiver in order.
    """
    return tuple(tuple(_PAIR.pack(i, j) for j in range(n)) + (b"",) for i in range(n))


def traffic_digest(
    outboxes: dict[int, dict[int, Envelope]],
    shared: dict[int, Envelope],
    deliveries: list[tuple[int, int, bytes]] | None = None,
) -> str:
    """Stable digest of one round's full message traffic.

    Hashes sender, receiver and serialized envelope for every delivery, in
    sender-then-receiver order, as one hash update per sender. `shared` is
    the round's shared part from `exchange`, with node ids 0..n-1 for n
    boxes: a sender in it sends its one envelope to receivers 0..n-1, so
    its bytes are one join of the envelope's bytes with the sender's
    precomputed delivery headers. Every other box is walked one delivery
    at a time. Each distinct payload object is repr'd once, so a consensus
    payload that several correct senders share (see `corsim.mvc`) costs one
    repr. That memo is keyed by identity, not equality: equal payloads can
    have different reprs (``delivered=True`` and ``delivered=1``). It lives
    for one call only, because ids are reused once an object is collected.

    When ``deliveries`` is a list, every (sender, receiver, bytes) is
    appended to it in the same order.
    """
    h = hashlib.sha256()
    bodies: dict[int, bytes] = {}
    n = len(outboxes)
    rows = _broadcast_headers(n)
    for i in sorted(outboxes):
        env = shared.get(i)
        if env is not None:
            data = serialize_envelope(env, bodies)
            h.update(data.join(rows[i]))
            if deliveries is not None:
                deliveries += zip(repeat(i), range(n), repeat(data))
            continue
        box = outboxes[i]
        if not box:
            continue
        sender = i.to_bytes(2, "little")
        parts = []
        for j in sorted(box):
            data = serialize_envelope(box[j], bodies)
            parts += (sender + j.to_bytes(2, "little"), data)
            if deliveries is not None:
                deliveries.append((i, j, data))
        h.update(b"".join(parts))
    return h.hexdigest()[:16]
