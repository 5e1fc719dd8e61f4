"""Self-stabilizing synchronous multivalued consensus by cyclic recomputation.

A non-self-stabilizing synchronous consensus core is re-run once per
schedule cycle: at phase 0 the previous run's decision is captured into a
floating output, the core is restarted, and fresh inputs are proposed;
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

Every correct node broadcasts one payload object, so each arrival is
validated once per (payload, sender, level) per round, not once per
receiver: what a receiver stores from an arrival depends on nothing else.
The round engine owns that memo and starts a fresh one every round. The
resolve runs bottom-up: `permutations` lists the labels of each level in
lexicographic order, so the children of every label are one consecutive
run of the level below, and each run folds into its parent's value.

Note the processing window is {1..t+1}: t+1 exchanges are the known lower
bound for synchronous agreement with t faults, and the propose step of
phase 0 only initiates the first exchange.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

from .transport import CoPayload


class EigConsensus:
    """One restartable EIG run (the co instance of the recomputation wrapper)."""

    def __init__(self, n: int, t: int, node_id: int):
        self.n = n
        self.t = t
        self.node_id = node_id
        self.tree: dict[tuple, object] = {}  # the level stored last
        self.exchanges_done = 0
        self.started = False

    def restart(self) -> None:
        self.tree = {}
        self.exchanges_done = 0
        self.started = False

    def propose(self, value: object) -> CoPayload:
        """Record the root value and broadcast it (first exchange)."""
        self.started = True
        self.tree = {(): value}
        return CoPayload(level=0, entries=(((), value),))

    def _validate(self, sender: int, payload: CoPayload, level: int) -> tuple:
        """The (label + (sender,), value) pairs a receiver stores from one arrival.

        Entries that are malformed, name an id twice, name the sender or an
        id outside 0..n-1, or carry an unhashable value are dropped. The
        pairs keep the received label objects, which are relayed as sent.
        """
        if not isinstance(payload, CoPayload):
            return ()
        if payload.level != level or not isinstance(payload.entries, tuple):
            return ()
        # equal to a label of this length: distinct ids in 0..n-1 (but 1.0 == 1)
        labels = _label_set(self.n, level)
        pairs = []
        for item in payload.entries:
            if not (isinstance(item, tuple) and len(item) == 2):
                continue
            label, value = item
            if not isinstance(label, tuple) or len(label) != level:
                continue
            # ints first: a label holding an unhashable id cannot be looked up
            if not all(isinstance(x, int) for x in label):
                continue
            if sender in label or label not in labels:
                continue
            try:
                hash(value)
            except TypeError:
                continue
            pairs.append((label + (sender,), value))
        return tuple(pairs)

    def process(self, msgs: dict[int, CoPayload | None], memo: dict) -> CoPayload | None:
        """Absorb the previous exchange; return the next level's broadcast.

        The level just received replaces the stored one. Malformed arrivals
        are dropped, which leaves their entries absent; the resolve treats
        absent as the default value. `memo` maps (id(payload), sender,
        level) to the payload and its validated pairs, so receivers sharing
        it validate each arrival once; holding the payload keeps its id from
        being reused while the memo lives. Share one memo only among the
        receivers of one round of one engine.
        """
        if not self.started:
            return None
        k = self.exchanges_done + 1
        level: dict[tuple, object] = {}
        for sender, payload in msgs.items():
            if payload is None:
                continue
            key = (id(payload), sender, k - 1)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = (payload, self._validate(sender, payload, k - 1))
            level.update(hit[1])
        self.tree = level
        self.exchanges_done = k
        if k > self.t:
            return None
        return CoPayload(level=k, entries=tuple(sorted(level.items())))

    def result(self) -> object:
        """Root resolve after t+1 exchanges; None before completion.

        Each label's value is the strict majority of its children's values,
        or 0 without one; an absent or None leaf reads as 0.
        """
        if not self.started or self.exchanges_done < self.t + 1:
            return None
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
        return values[0]


@cache
def _labels(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Every label of length k, in lexicographic order."""
    return tuple(permutations(range(n), k))


@cache
def _label_set(n: int, k: int) -> frozenset[tuple[int, ...]]:
    return frozenset(_labels(n, k))


def _majority(values: list) -> object:
    """The strict-majority value, as its first occurrence, else 0."""
    for value in dict.fromkeys(values):
        if 2 * values.count(value) > len(values):
            return value
    return 0


class MvcController:
    """Floating output plus the embedded co instance (the per-node state)."""

    def __init__(self, n: int, t: int, node_id: int):
        self.n = n
        self.t = t
        self.node_id = node_id
        self.co = EigConsensus(n, t, node_id)
        # floating output; None means no completed cycle yet (read as 0)
        self.current_result: object = None

    def pulse(
        self,
        phase: int,
        co_msgs: dict[int, CoPayload | None],
        sample: object,
        memo: dict,
    ) -> dict[int, CoPayload]:
        """One phase; `sample` is the phase-0 input, and one payload goes to every node."""
        if phase == 0:
            self.current_result = self.co.result()
            self.co.restart()
            payload = self.co.propose(sample)
        elif 1 <= phase <= self.t + 1:
            payload = self.co.process(co_msgs, memo)
        else:
            return {}
        return {} if payload is None else dict.fromkeys(range(self.n), payload)
