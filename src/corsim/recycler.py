"""Per-pulse window maintenance over the recyclable object array.

Every round, each non-fresh slot outside the log_size+1 window anchored at
the shared index is reset. The array tracks a superset of its non-fresh
slots: it starts as every slot, so whatever a transient fault planted before
the first sweep is swept; a slot joins it whenever its object may leave the
fresh state (a proposal or a set delivery flag), and leaves it only when a
sweep finds it fresh or recycles it. The sweeps visit only tracked slots,
which keeps them self-cleaning: out-of-window garbage is purged even when
the index never moves.

The array also keeps the settled slots: those whose current incarnation this
node has already read a result from. The set starts empty, a slot joins it
only when the node's own read reports a value, and it leaves when its object
is recycled, so no planted state can put a slot in it. A core's decision
never changes once made, so a settled slot needs no further read, and its own
delivery flag stays set until it is recycled, so it is non-fresh without a
test.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .recyclable import RecyclableObject


def window(ind: int, index_num: int, log_size: int) -> frozenset[int]:
    """Slots kept alive for index value ind: the anchor and log_size predecessors."""
    return _window(ind % index_num, index_num, log_size)


@lru_cache(maxsize=1024)
def _window(anchor: int, index_num: int, log_size: int) -> frozenset[int]:
    return frozenset(y % index_num for y in range(anchor - log_size, anchor + 1))


class ObjectArray:
    def __init__(self, n: int, t: int, node_id: int, index_num: int, log_size: int,
                 core_factory: Callable[[int], object]):
        self.index_num = index_num
        self.log_size = log_size
        # a superset of the non-fresh slots; the objects add to it
        self.tracked: set[int] = set(range(index_num))
        # the tracked slots whose incarnation this node has read; the node
        # adds to it and each object's recycle() takes its slot out
        self.settled: set[int] = set()
        self.slots = [
            RecyclableObject(n, t, node_id, slot, core_factory, self.tracked, self.settled)
            for slot in range(index_num)
        ]

    def recycler_pulse(self, ind: int) -> list[int]:
        """Recycle every non-fresh slot outside window(ind).

        Reported are the slots whose incarnation was in use at this node;
        flag-only gossip is wiped silently (recycling it is a no-op
        observationally, and Byzantine flags must not fabricate events).
        """
        outside = self.tracked - window(ind, self.index_num, self.log_size)
        recycled = []
        for slot in sorted(outside):
            obj = self.slots[slot]
            if not obj.is_fresh():
                if obj.has_local_state():
                    recycled.append(slot)
                obj.recycle()
        self.tracked -= outside
        return recycled

    def non_fresh_slots(self) -> list[int]:
        """The non-fresh slots in ascending order; the fresh ones stop being tracked.

        Settled slots are non-fresh by construction, so only the rest are tested.
        """
        unsettled = self.tracked - self.settled
        self.tracked -= {slot for slot in unsettled if self.slots[slot].is_fresh()}
        return sorted(self.tracked)
