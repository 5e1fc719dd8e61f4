"""Per-pulse window maintenance over the recyclable object array.

Every round, each non-fresh slot outside the log_size+1 window anchored at
the shared index is reset. The array holds only live objects: a slot's
object is built on first touch (a proposal, a set delivery flag, the active
slot, a transient fault), and a slot without one is fresh. Recycling drops
the object, and the freshness sweep drops every live object it finds fresh,
so after each round the live slots are exactly the non-fresh ones. Memory
follows the window, not index_num: out-of-window garbage is purged even when
the index never moves.

The array also keeps its unread slots, the live ones whose object holds no
read value. `read` is the one place a read is recorded: it reads the unread
objects the node keeps, sets the read value of each that returns one and
takes its slot out of the set. An object that holds a read value stays
non-fresh without a test: a core's decision never changes once made, so its
own delivery flag stays set until the object is recycled, and recycling
drops the value with the object. So the read and freshness sweeps visit only
unread slots, and a steady round costs what is still unread, not the
window's size.
"""

from __future__ import annotations

from collections.abc import KeysView
from functools import lru_cache
from typing import Callable, Iterable

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
        self.n = n
        self.t = t
        self.node_id = node_id
        self.index_num = index_num
        self.log_size = log_size
        self._core_factory = core_factory
        # slot -> its live object; an absent slot is fresh
        self.live: dict[int, RecyclableObject] = {}
        # the live slots whose object holds no read value
        self.unread: set[int] = set()

    def get(self, slot: int) -> RecyclableObject:
        """The slot's object, built fresh on first touch."""
        obj = self.live.get(slot)
        if obj is None:
            core = self._core_factory(slot)
            obj = self.live[slot] = RecyclableObject(self.n, self.t, self.node_id, slot, core)
            self.unread.add(slot)
        return obj

    def recycler_pulse(self, ind: int) -> list[int]:
        """Recycle every live slot outside window(ind).

        Reported are the slots whose incarnation was in use at this node;
        flag-only gossip is wiped silently (recycling it is a no-op
        observationally, and Byzantine flags must not fabricate events).
        """
        keep = window(ind, self.index_num, self.log_size)
        if keep.issuperset(self.live):  # the common case: no live slot left the window
            return []
        recycled = []
        for slot in sorted(self.live.keys() - keep):
            self.unread.discard(slot)
            if self.live.pop(slot).has_local_state():
                recycled.append(slot)
        return recycled

    def read(self, keep: Iterable[int]) -> list[tuple[int, object]]:
        """Read each unread object in keep, in slot order: the (slot, value) pairs read.

        An object whose read returns a value keeps it as its read value and
        leaves the unread set; one still undecided stays unread. This is the
        only writer of read values.
        """
        live, unread = self.live, self.unread
        retrievals = []
        for slot in sorted(unread.intersection(keep)):
            obj = live[slot]
            value = obj.observe_result()
            if value is not None:
                obj.read_value = value
                unread.discard(slot)
                retrievals.append((slot, value))
        return retrievals

    def non_fresh_slots(self) -> KeysView[int]:
        """A view of the non-fresh slots, valid until the array next changes.

        The fresh ones are dropped. An object that holds a read value is
        non-fresh by construction, so only the unread ones are tested.
        """
        live, unread = self.live, self.unread
        fresh = [slot for slot in unread if live[slot].is_fresh()]
        for slot in fresh:
            del live[slot]
        unread.difference_update(fresh)
        return live.keys()
