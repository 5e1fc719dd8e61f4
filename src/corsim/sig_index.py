"""Simultaneous increment-or-get index over the last four phases of the cycle.

Phase kappa-4 broadcasts the local index; kappa-3 votes for any value seen
from n-t distinct senders; kappa-2 adopts a majority-backed vote (save) and
reports with one bit whether n-t non-empty votes arrived; kappa-1 writes the
index: with an n-t quorum of 1-bits it becomes (save+inc) mod bound, with a
quorum of 0-bits it becomes 0, and otherwise the shared coin multiplies
(save+inc) so that disagreeing nodes land on a common value with
probability at least 1/2 per cycle. inc is 1 exactly when the multivalued
consensus decided 1, which is how agreed recycling evidence turns into one
index increment.

The quorum rules are the module-level functions below; SigIndex.pulse and
the worst_sig adversary's predictions both call them. `SIG_KINDS` is the
one phase -> kind table: each sending phase sends one kind (`send_kind`),
and each phase that reads the index messages reads the kind the phase
before sent (`read_kind`), through its tally: the senders per value among
the arrivals of that kind. A node tallies the
round's shared arrivals once and adds its own (see `corsim.node`). Every
inbox holds at most one payload per sender, and 2(n-t) > n because
n >= 3t+1, so at most one value can reach an n-t quorum: the vote, and the
branch a write takes, never depend on the order in which values are counted.
"""

from __future__ import annotations

from collections.abc import Iterable

from .env import Params
from .transport import SigPayload


# the kinds that phases kappa-4, kappa-3 and kappa-2 send, in that order
SIG_KINDS = ("index", "propose", "bit")


def send_kind(phase: int, kappa: int) -> str | None:
    """The kind of payload the phase's pulse sends, or None if it sends none."""
    step = phase - (kappa - 4)
    return SIG_KINDS[step] if 0 <= step < len(SIG_KINDS) else None


def read_kind(phase: int, kappa: int) -> str | None:
    """The kind of payload the phase's pulse tallies, the one the phase before sent."""
    return send_kind(phase - 1, kappa)


def tally(
    payloads: Iterable[object], kind: str, counts: dict[object, int] | None = None
) -> dict[object, int]:
    """Senders per value among the payloads of one kind, added to counts when given.

    Anything but a `SigPayload` of that kind is skipped, and so is a value
    that cannot be a dict key, as EIG drops unhashable values.
    """
    if counts is None:
        counts = {}
    for payload in payloads:
        if isinstance(payload, SigPayload) and payload.kind == kind:
            value = payload.value
            try:
                counts[value] = counts.get(value, 0) + 1
            except TypeError:
                continue
    return counts


def index_vote(counts: dict[object, int], quorum: int) -> object:
    """Phase kappa-3: the non-None index reported by >= quorum senders, else None."""
    for value, count in counts.items():
        if value is not None and count >= quorum:
            return value
    return None


def vote_bit(counts: dict[object, int], quorum: int) -> int:
    """Phase kappa-2: 1 when >= quorum senders cast a non-None vote."""
    return 1 if sum(c for v, c in counts.items() if v is not None) >= quorum else 0


class SigIndex:
    def __init__(self, params: Params):
        self.params = params
        # read raw; an out-of-range corrupted value is normalized at the next write
        self.index = 0
        self.save: object = None
        self.inc = 0
        # which branch the last write took: "ones", "zeros" or "coin"
        self.last_quorum: str | None = None

    def pulse(
        self,
        phase: int,
        counts: dict[object, int],
        mvc_result: object,
        coin_bit: int,
    ) -> SigPayload | None:
        """One phase; counts is the tally of the kind `read_kind(phase)` names."""
        p = self.params
        k = p.kappa
        if phase == k - 4:
            return SigPayload(kind=send_kind(phase, k), value=self.index)

        if phase == k - 3:
            return SigPayload(kind=send_kind(phase, k), value=index_vote(counts, p.quorum))

        if phase == k - 2:
            # a strict majority is unique, so the first one found is the one
            self.save = 0
            for value, count in counts.items():
                if value is not None and 2 * count > p.n:
                    self.save = value
                    break
            return SigPayload(kind=send_kind(phase, k), value=vote_bit(counts, p.quorum))

        if phase == k - 1:
            self.inc = 1 if mvc_result == 1 else 0
            save = self.save if isinstance(self.save, int) else 0
            if counts.get(1, 0) >= p.quorum:
                self.index = (save + self.inc) % p.index_num
                self.last_quorum = "ones"
            elif counts.get(0, 0) >= p.quorum:
                self.index = 0
                self.last_quorum = "zeros"
            else:
                self.index = (coin_bit * (save + self.inc)) % p.index_num
                self.last_quorum = "coin"
            return None

        return None
