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
the worst_sig adversary's predictions both call them. Every inbox holds at
most one payload per sender, and 2(n-t) > n because n >= 3t+1, so at most
one value can reach an n-t quorum: the vote, and the branch a write takes,
never depend on the order in which values are counted.
"""

from __future__ import annotations

from typing import Callable

from .env import Params
from .transport import SigPayload


def tally(msgs: dict[int, SigPayload | None], kind: str) -> dict[object, int]:
    """Senders per value among the payloads of one kind."""
    counts: dict[object, int] = {}
    for payload in msgs.values():
        if isinstance(payload, SigPayload) and payload.kind == kind:
            counts[payload.value] = counts.get(payload.value, 0) + 1
    return counts


def index_vote(msgs: dict[int, SigPayload | None], quorum: int) -> object:
    """Phase kappa-3: the non-None index reported by >= quorum senders, else None."""
    for value, count in tally(msgs, "index").items():
        if value is not None and count >= quorum:
            return value
    return None


def vote_bit(msgs: dict[int, SigPayload | None], quorum: int) -> int:
    """Phase kappa-2: 1 when >= quorum senders cast a non-None vote."""
    counts = tally(msgs, "propose")
    return 1 if sum(c for v, c in counts.items() if v is not None) >= quorum else 0


class SigIndex:
    def __init__(self, params: Params, node_id: int):
        self.params = params
        self.node_id = node_id
        # read raw; an out-of-range corrupted value is normalized at the next write
        self.index = 0
        self.propose_val: object = None
        self.save: object = None
        self.bit = 0
        self.inc = 0
        # which branch the last write took: "ones", "zeros" or "coin"
        self.last_quorum: str | None = None

    def pulse(
        self,
        phase: int,
        msgs: dict[int, SigPayload | None],
        mvc_result: Callable[[], object],
        coin_bit: int,
    ) -> SigPayload | None:
        p = self.params
        k = p.kappa
        if phase == k - 4:
            return SigPayload(kind="index", value=self.index)

        if phase == k - 3:
            self.propose_val = index_vote(msgs, p.quorum)
            return SigPayload(kind="propose", value=self.propose_val)

        if phase == k - 2:
            self.bit = vote_bit(msgs, p.quorum)
            # a strict majority is unique, so the first one found is the one
            self.save = 0
            for value, count in tally(msgs, "propose").items():
                if value is not None and 2 * count > p.n:
                    self.save = value
                    break
            return SigPayload(kind="bit", value=self.bit)

        if phase == k - 1:
            counts = tally(msgs, "bit")
            self.inc = 1 if mvc_result() == 1 else 0
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
