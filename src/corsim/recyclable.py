"""Recyclable consensus objects: a delivery-indication layer over a pluggable core.

Each object tracks an n-slot vector of delivery flags. observe_result() is
the only read: the local flag flips true when it returns a decision (or the
internal-fault symbol) and is forced back to false whenever it says
undecided. Remote flags mirror the last flag received from each peer, merged
by the node through merge_flags(). was_delivered() reports 1 once n-t flags
are set, which is the evidence the recycling stack agrees on.

An object lives for one incarnation: its array builds it with a new core on
the slot's first touch and drops it when the slot is recycled, so the value
this node read from it goes with it. That value, read_value, is written only
by the array's read (`ObjectArray.read`), which also takes the slot out of the
array's unread set, so no planted state can skip the read.
"""

from __future__ import annotations

from .cores import CORE_FAULT, AsyncCore
from .transport import EstPayload


class _ErrorSymbol:
    """Completed-but-void result of an incarnation hit by a transient fault."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "CORE_ERROR"


CORE_ERROR = _ErrorSymbol()


class RecyclableObject:
    # the value this node's read returned; None until then (see the module docstring)
    read_value: object = None

    def __init__(self, n: int, t: int, node_id: int, slot: int, core: AsyncCore):
        self.n = n
        self.t = t
        self.node_id = node_id
        self.slot = slot
        self.core = core
        self.delivered: list[bool] = [False] * n

    @property
    def proposed(self) -> object:
        """This incarnation's proposal, as held by its core."""
        return self.core.proposed

    def propose(self, value: int) -> None:
        """Record a proposal; a second propose in the same incarnation is a no-op."""
        self.core.propose(value)

    def observe_result(self) -> object:
        """Decided value, CORE_ERROR, or None while the core is still running.

        The local delivery flag follows the answer: set on any non-None
        return, cleared on None, so a corrupted flag cannot outlive one call.
        """
        outcome = self.core.decided()
        if outcome is None:
            self.delivered[self.node_id] = False
            return None
        kind, value = outcome
        self.delivered[self.node_id] = True
        return CORE_ERROR if kind == CORE_FAULT else value

    def was_delivered(self) -> int:
        return 1 if sum(self.delivered) >= self.n - self.t else 0

    def is_fresh(self) -> bool:
        return not any(self.delivered) and self.core.is_initial()

    def has_local_state(self) -> bool:
        """Whether this incarnation was actually in use at this node.

        Remote delivery flags alone are gossip (a Byzantine sender can set
        them at will); they are wiped when the object is recycled but do not
        make the object count as in-use.
        """
        return self.delivered[self.node_id] or not self.core.is_initial()

    def merge_flags(self, flags: dict[int, bool]) -> None:
        """Adopt the delivery flag last received from each peer (never from self)."""
        delivered, node_id, n = self.delivered, self.node_id, self.n
        for sender, flag in flags.items():
            if sender != node_id and 0 <= sender < n:
                delivered[sender] = bool(flag)

    def pulse_step(self, core_inbox: dict[int, object]) -> EstPayload:
        """One synchronous step of the active object.

        Applies the consistency test, advances the core on the slot's arriving
        core messages (keyed by sender), and returns this node's est field for
        the round. Arriving delivery flags are merged by the node, not here.
        """
        self.observe_result()
        core_out = self.core.step(core_inbox)
        return EstPayload(slot=self.slot, core=core_out, delivered=self.delivered[self.node_id])
