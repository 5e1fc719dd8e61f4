"""Per-pulse window maintenance over the recyclable object array.

Every round, each slot outside the log_size+1 window anchored at the shared
index is reset. Running the sweep unconditionally makes it self-cleaning:
out-of-window garbage left by a transient fault is purged even when the
index never moves.
"""

from __future__ import annotations

from typing import Callable

from .recyclable import RecyclableObject


def window(ind: int, index_num: int, log_size: int) -> frozenset[int]:
    """Slots kept alive for index value ind: the anchor and log_size predecessors."""
    z = index_num + ind
    return frozenset(y % index_num for y in range(z - log_size, z + 1))


class ObjectArray:
    def __init__(self, n: int, t: int, node_id: int, index_num: int, log_size: int,
                 core_factory: Callable[[int], object]):
        self.index_num = index_num
        self.log_size = log_size
        self.slots = [
            RecyclableObject(n, t, node_id, slot, core_factory)
            for slot in range(index_num)
        ]

    def recycler_pulse(self, ind: int) -> list[int]:
        """Recycle every slot outside window(ind).

        Reported are the slots whose incarnation was in use at this node;
        flag-only gossip is wiped silently (recycling it is a no-op
        observationally, and Byzantine flags must not fabricate events).
        """
        keep = window(ind, self.index_num, self.log_size)
        recycled = []
        for slot, obj in enumerate(self.slots):
            if slot not in keep and not obj.is_fresh():
                if obj.has_local_state():
                    recycled.append(slot)
                obj.recycle()
        return recycled

    def non_fresh_slots(self) -> list[int]:
        return [slot for slot, obj in enumerate(self.slots) if not obj.is_fresh()]
