"""Self-stabilizing synchronous multivalued consensus by cyclic recomputation.

A non-self-stabilizing synchronous consensus core is re-run once per
schedule cycle: at phase 0 the previous run's decision is captured into a
floating output, and proposing fresh inputs restarts the core;
phases 1..t+1 each run one processing step. Consumers read the floating
output at any time and therefore see, during cycle m, the decision over the
inputs sampled at phase 0 of cycle m-1.

The core here is exponential information gathering (EIG): t+1 all-to-all
exchanges relay values along chains of distinct nodes (level k holds what
chains of k nodes reported), and the decision folds the leaf level, level
t+1, into the root by strict majority with default 0. With n > 3t this
decides after exactly t+1 exchanges and tolerates any Byzantine behaviour.
Each exchange reads only the level received last, so a node keeps that one
level and nothing else.

Every correct node broadcasts, so the receivers of one round mostly get
the same payload objects, and the work is shared through a memo that is
EIG's alone and lives for one round of one engine (its kinds of key differ
in length, so they never collide):

- the co fields of the round's shared part (see `corsim.transport`) build
  one base level and its next broadcast per (level, shared part); every
  receiver without own co arrivals stores that level dict and returns that
  payload object;
- a receiver's own co arrivals, Byzantine or planted, add their checked
  pairs to a copy of the base level, once per (base level, own arrivals),
  so only receivers that a Byzantine sender told different stories build
  their own;
- each distinct leaf level is resolved once per cycle.

The base level takes a shared sender's co field at the level the receiver
expects without the checks, because a correct co field passes them
unchanged: `propose` builds a level-0 payload of the node's 0/1 sample, and
`process` builds each label from a checked label of one level lower with
one more distinct id in 0..n-1 appended (every inbox key is a node id,
which the exchange binds), and each value passed the hashability check one
level lower. A shared field at any other level (read by a receiver whose
`exchanges_done` is garbled) is dropped, as the checks would drop it. Only
the own arrivals get the full check.
`test_built_broadcasts_pass_their_own_checks` holds every golden trial to
this rule.

This sharing rests on one rule: neither a stored level nor a payload is
ever mutated in place. `propose` and `process` assign a new dict, and so
must anything that plants a tree (`adversary._fill_tree`,
`adversary._garble_tree`); no field of a payload is rebound once it is
built (see `corsim.transport`). A planted level may be shared like a built
one: targeted injection plants one all-ones level in every correct node,
so round 0 resolves it once.
The resolve runs bottom-up: `permutations` lists the labels of each level
in lexicographic order, so the children of every label are one consecutive
run of the level below, and each run folds into its parent's value.

Note the processing window is {1..t+1}: t+1 exchanges are the known lower
bound for synchronous agreement with t faults, and the propose step of
phase 0 only initiates the first exchange.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .transport import CoPayload


class EigConsensus:
    """One EIG run, restarted by each propose (the co instance of the recomputation wrapper)."""

    def __init__(self, n: int, t: int):
        self.n = n
        self.t = t
        self.tree: dict[tuple, object] = {}  # the level stored last
        self.exchanges_done = 0
        self.started = False

    def propose(self, value: object) -> CoPayload:
        """Start a run: record the root value and broadcast it (first exchange)."""
        self.started = True
        self.exchanges_done = 0
        self.tree = {(): value}
        return CoPayload(level=0, entries=(((), value),))

    def _checked(self, payload: CoPayload, level: int) -> tuple:
        """The (label, value) entries of a payload that some sender may relay.

        Entries that are malformed, name an id twice or an id outside
        0..n-1, or carry an unhashable value are dropped; none of this
        depends on who sent the payload. The received entry objects are kept.
        """
        if not isinstance(payload, CoPayload):
            return ()
        if payload.level != level or not isinstance(payload.entries, tuple):
            return ()
        n = self.n
        kept = []
        for item in payload.entries:
            if not (isinstance(item, tuple) and len(item) == 2):
                continue
            label, value = item
            if not isinstance(label, tuple) or len(label) != level:
                continue
            # ints first, so the set below never meets an unhashable id
            # (True is an int and equals 1)
            if not all(isinstance(x, int) and 0 <= x < n for x in label):
                continue
            if len(set(label)) != level:
                continue
            try:
                hash(value)
            except TypeError:
                continue
            kept.append(item)
        return tuple(kept)

    def _pairs(self, sender: int, entries: tuple) -> list:
        """The (label + (sender,), value) pairs a receiver stores from one arrival's entries.

        Entries whose label names the sender are dropped; the pairs keep the
        received label objects, which are relayed as sent.
        """
        return [(label + (sender,), value) for label, value in entries if sender not in label]

    def process(
        self, shared: dict[int, CoPayload], own: dict[int, object], memo: dict
    ) -> CoPayload | None:
        """Absorb the previous exchange; return the next level's broadcast.

        `shared` holds the co fields of the receiver's shared part, which
        are correct broadcasts, and `own` the rest of its arrivals. The
        level just received replaces the stored one. A shared field at the
        expected level k-1 is taken unchecked; at any other level it is
        dropped, as the checks would drop it. Own arrivals get the full
        check. Malformed arrivals are dropped, which leaves their entries
        absent; the resolve treats absent as the default value. `memo` maps (level, id(shared)) to
        `shared`, the level its senders' pairs build and the next broadcast
        (None after the last exchange), so every receiver of that shared
        part at that level stores one level dict and returns one payload
        object. It maps that key plus the own arrivals, ((sender,
        id(payload)), ...) in inbox order, to those payloads, a copy of the
        shared level with their checked pairs added and its broadcast, so
        only receivers that a Byzantine sender told different stories build
        their own. Holding the dicts and payloads keeps their ids from being
        reused while the memo lives. Share one memo only among the receivers
        of one round of one engine.
        """
        if not self.started:
            return None
        k = self.exchanges_done + 1
        key = (k - 1, id(shared))
        hit = memo.get(key)
        if hit is None:
            level: dict[tuple, object] = {}
            for sender, payload in shared.items():
                if payload.level == k - 1:
                    level.update(self._pairs(sender, payload.entries))
            hit = memo[key] = (shared, level, self._next(k, level))
        if own:
            key += (tuple([(sender, id(payload)) for sender, payload in own.items()]),)
            base, hit = hit[1], memo.get(key)
            if hit is None:
                level = dict(base)
                for sender, payload in own.items():
                    level.update(self._pairs(sender, self._checked(payload, k - 1)))
                hit = memo[key] = (tuple(own.values()), level, self._next(k, level))
        _, self.tree, out = hit
        self.exchanges_done = k
        return out

    def _next(self, k: int, level: dict) -> CoPayload | None:
        """The broadcast of level k, None after the last exchange."""
        return CoPayload(level=k, entries=tuple(sorted(level.items()))) if k <= self.t else None

    def result(self, memo: dict) -> object:
        """Root resolve after t+1 exchanges; None before completion.

        Each label's value is the strict majority of its children's values,
        or 0 without one; an absent or None leaf reads as 0. A group whose
        first value holds the majority, as every unanimous group does, costs
        one count. `memo` maps (id(tree),) to the stored level and its
        resolve, so nodes sharing a level resolve it once.
        """
        if not self.started or self.exchanges_done < self.t + 1:
            return None
        key = (id(self.tree),)
        hit = memo.get(key)
        if hit is None:
            n = self.n
            values = [
                0 if value is None else value
                for value in map(self.tree.get, _labels(n, self.t + 1))
            ]
            for k in range(self.t, -1, -1):
                width = n - k  # children of a label of length k
                values = [
                    _majority(values[i : i + width]) for i in range(0, len(values), width)
                ]
            hit = memo[key] = (self.tree, values[0])
        return hit[1]


# A trial asks only for (n, t+1), from `result` and targeted injection, so
# one entry serves it and the next trial's size drops the last one's labels.
@lru_cache(maxsize=1)
def _labels(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Every label of length k, in lexicographic order."""
    return tuple(permutations(range(n), k))


def _majority(values: list) -> object:
    """The strict-majority value, as its first occurrence, else 0."""
    first = values[0]
    if 2 * values.count(first) > len(values):
        return first  # the common case: a unanimous group
    for value in dict.fromkeys(values):
        if 2 * values.count(value) > len(values):
            return value
    return 0


class MvcController:
    """Floating output plus the embedded co instance (the per-node state)."""

    def __init__(self, n: int, t: int):
        self.n = n
        self.t = t
        self.co = EigConsensus(n, t)
        # floating output; None means no completed cycle yet (read as 0)
        self.current_result: object = None

    def pulse(
        self, phase: int, shared: dict[int, CoPayload], own: dict[int, object],
        sample: object, memo: dict,
    ) -> dict[int, CoPayload]:
        """One phase; `sample` is the phase-0 input, and one payload goes to every node.

        `shared` and `own` are the co fields of the shared part and of the
        own arrivals (see `EigConsensus.process`).
        """
        if phase == 0:
            self.current_result = self.co.result(memo)
            payload = self.co.propose(sample)
        elif 1 <= phase <= self.t + 1:
            payload = self.co.process(shared, own, memo)
        else:
            return {}
        return {} if payload is None else dict.fromkeys(range(self.n), payload)
