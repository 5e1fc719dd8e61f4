"""Pluggable asynchronous binary-consensus cores for the recyclable object layer.

Two implementations back the same contract:

* DelayStubCore -- safe by construction. A per-trial referee owned by the
  simulator, StubOracle, fixes the decision value (majority of the correct
  proposals) and writes it into each node's core after a seeded delay in
  [0, dmax], drawn with derived_int. It models asynchrony honestly
  (different nodes learn the decision in different rounds) without
  re-implementing a Byzantine consensus protocol.

* MmrLiteCore -- a simplified coin-based binary consensus (est/aux rounds
  driven by a shared coin) for end-to-end realism. It self-checks its state
  and reports an internal error instead of violating the contract when a
  transient fault leaves it unrecoverable, so completion holds from any
  starting state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from .env import derived_int

# Decision kinds returned by AsyncCore.decided()
DECIDED = "decided"
CORE_FAULT = "fault"


class AsyncCore(Protocol):
    """Contract every core must honour.

    decided() returns None while undecided, (DECIDED, v) once a value is
    fixed, or (CORE_FAULT, None) when internal self-checks fail after a
    transient fault. Once it returns a non-None answer, every later call
    returns the same answer, whatever the core is stepped with, until the
    object is recycled: the node reads each incarnation's result once and
    relies on this. Completion must eventually hold from any state.
    proposed holds the incarnation's proposal (None until propose).
    """

    proposed: int | None

    def propose(self, value: int) -> None: ...

    def step(self, inbox: dict[int, object]) -> object | None: ...

    def decided(self) -> tuple[str, object] | None: ...

    def is_initial(self) -> bool: ...


def _majority_bit(values: list[object]) -> int:
    """Decision rule of the stub: strict majority of 1-proposals, ties to 0."""
    ones = sum(1 for v in values if v == 1)
    return 1 if 2 * ones > len(values) else 0


@dataclass
class _SlotRecord:
    value: int
    # node id -> (reveal round, the core bound at trigger time), until written
    pending: dict[int, tuple[int, "DelayStubCore"]]


class StubOracle:
    """Per-trial referee that writes each DelayStubCore decision into its core.

    A slot's record triggers once every correct node's object at that slot
    carries a proposal. The trigger binds each node's core of that moment and
    fixes the decision value, the majority of the proposals, and each node's
    reveal round, a seeded delay in [0, dmax] after the trigger. The round
    engine calls forget(slot) when the slot's incarnation ends, that is when
    every correct node's object at the slot is back to its initial state.
    """

    def __init__(self, seed: int, dmax: int, objects_by_node: dict[int, dict]):
        self.seed = seed
        self.dmax = dmax
        # each correct node's live objects by slot, in node order; the dicts
        # are read, never replaced, so they follow the nodes
        self.objects_by_node = objects_by_node
        self.records: dict[int, _SlotRecord] = {}

    def observe(self, round_index: int) -> None:
        """End-of-round sweep: trigger newly proposed slots, then write what is due.

        The objects are the ones bound at construction, read as they stand
        now; a slot can trigger only if it is live at the first correct node.
        Each decision whose reveal round is at most round_index + 1 is then
        written into its bound core, unless that core already holds a value:
        a read in round R follows observe(R - 1), so it sees the decision
        from the reveal round on, and never in the trigger round. A core
        built later for the slot is never bound and never written. Under
        mmr-lite the referee is bound to no objects and nothing is swept.
        """
        objects_by_node = self.objects_by_node
        if not objects_by_node:
            return
        for slot in next(iter(objects_by_node.values())):
            if slot in self.records:
                continue
            objs = [live.get(slot) for live in objects_by_node.values()]
            if all(obj is not None and obj.proposed is not None for obj in objs):
                self.records[slot] = _SlotRecord(
                    value=_majority_bit([obj.proposed for obj in objs]),
                    pending={
                        i: (round_index + derived_int(
                            self.seed, "stub-delay", slot, round_index, i, bound=self.dmax + 1,
                        ), obj.core)
                        for i, obj in zip(objects_by_node, objs)
                    },
                )
        for rec in self.records.values():
            due = [i for i, (reveal, _) in rec.pending.items() if reveal <= round_index + 1]
            for i in due:
                core = rec.pending.pop(i)[1]
                if core.decided_cache is None:
                    core.decided_cache = rec.value

    def forget(self, slot: int) -> None:
        """Drop the slot's record once its incarnation has ended."""
        self.records.pop(slot, None)


class DelayStubCore:
    """Referee-backed core: BC-validity/agreement/completion by construction.

    It knows nothing of its referee: StubOracle.observe writes the decision
    into decided_cache when it is due, and decided() reads it.
    """

    def __init__(self):
        self.proposed: int | None = None
        self.decided_cache: object = None

    def propose(self, value: int) -> None:
        if self.proposed is None:
            self.proposed = value

    def step(self, inbox: dict[int, object]) -> object | None:
        return None

    def decided(self) -> tuple[str, object] | None:
        if self.decided_cache is None:
            return None
        if self.decided_cache not in (0, 1):
            # state corrupted past recognition: completed-but-void
            return (CORE_FAULT, None)
        return (DECIDED, self.decided_cache)

    def is_initial(self) -> bool:
        return self.proposed is None and self.decided_cache is None


# MMR-lite internals

_STALL_LIMIT = 64


@dataclass
class MmrLiteCore:
    """Coin-based binary consensus driven by one combined message per round.

    The payload ("MMR", round, endorsed-values, aux-vote-or-None) carries the
    binary-value broadcast and the auxiliary vote together so that laggards
    keep receiving endorsements. A value joins a node's endorsement set with
    t+1 backers and its candidate set with n-t backers; once n-t auxiliary
    votes land inside the candidate set the shared coin either confirms the
    single surviving value (decide) or seeds the next round's estimate.

    A node stuck longer than the stall limit (possible only from a corrupted
    mixed state) flags an internal fault so the object stays recyclable.

    A step reads only the current round, which never decreases, so the
    backers and votes of a lower round are never stored, and a round's are
    dropped when the round ends or is skipped: a steady step costs one pass
    over its inbox and two backer counts, and it builds a new endorsement or
    candidate tuple only when a value joins. Catching up is tested only when
    more than t peers are ahead.
    """

    n: int
    t: int
    coin: Callable[[int], int]  # mmr round -> shared bit
    proposed: int | None = None
    est: int | None = None
    round: int = 1
    my_ests: tuple = ()
    bin_values: tuple = ()
    aux_value: int | None = None
    est_seen: dict = field(default_factory=dict)  # (round >= self.round, value) -> set of senders
    aux_seen: dict = field(default_factory=dict)  # round >= self.round -> {sender: value}
    peer_rounds: dict = field(default_factory=dict)  # sender -> highest round seen
    decided_cache: object = None
    stalled_for: int = 0
    faulted: bool = False

    def propose(self, value: int) -> None:
        if self.proposed is None:
            self.proposed = value
            self.est = value if value in (0, 1) else 0
            self.my_ests = (self.est,)

    def _check_state(self) -> bool:
        if self.faulted:
            return False
        if self.est is not None and self.est not in (0, 1):
            self.faulted = True
        if not isinstance(self.round, int) or self.round < 1 or self.round > 10**6:
            self.faulted = True
        if self.stalled_for > _STALL_LIMIT:
            self.faulted = True
        return not self.faulted

    def _catch_up(self) -> None:
        """Adopt the highest round that t+1 peers have reached, once more than t
        are past this one (only reachable from a corrupted start); the rounds
        skipped are dropped."""
        target = sorted(r for r in self.peer_rounds.values() if r > self.round)[-(self.t + 1)]
        self.round = target
        self.est = self.coin(target)
        self.my_ests = (self.est,)
        self.bin_values = ()
        self.aux_value = None
        self.est_seen = {k: s for k, s in self.est_seen.items() if k[0] >= target}
        self.aux_seen = {r: v for r, v in self.aux_seen.items() if r >= target}

    def step(self, inbox: dict[int, object]) -> object | None:
        if self.proposed is None:
            return None
        if not self._check_state():
            return None
        # one pass over the inbox; a round below the current one is never read
        # again, so only its sender's highest round is kept
        now = self.round
        est_seen, aux_seen, peer_rounds = self.est_seen, self.aux_seen, self.peer_rounds
        for sender, msg in inbox.items():
            if not isinstance(msg, tuple) or len(msg) != 4 or msg[0] != "MMR":
                continue
            _, rnd, ests, aux = msg
            if not isinstance(rnd, int) or not (1 <= rnd <= 10**6):
                continue
            if rnd > peer_rounds.get(sender, 0):
                peer_rounds[sender] = rnd
            if rnd < now:
                continue
            if isinstance(ests, tuple):
                for v in ests:
                    if v in (0, 1):
                        backers = est_seen.get((rnd, v))
                        if backers is None:
                            est_seen[rnd, v] = {sender}
                        else:
                            backers.add(sender)
            if aux in (0, 1):
                votes = aux_seen.get(rnd)
                if votes is None:
                    aux_seen[rnd] = {sender: aux}
                else:
                    votes[sender] = aux
        n, t = self.n, self.t
        progressed = False
        ahead = 0
        for r in peer_rounds.values():
            if r > now:
                ahead += 1
        if ahead > t:
            self._catch_up()
            progressed = True
            est_seen, aux_seen = self.est_seen, self.aux_seen

        # endorse with t+1 backers, admit as candidate with n-t backers
        rnd = self.round
        backers = est_seen.get((rnd, 0))
        zeros = 0 if backers is None else len(backers)
        backers = est_seen.get((rnd, 1))
        ones = 0 if backers is None else len(backers)
        my_ests = self.my_ests
        if (zeros > t and 0 not in my_ests) or (ones > t and 1 not in my_ests):
            ests = set(my_ests)
            if zeros > t:
                ests.add(0)
            if ones > t:
                ests.add(1)
            self.my_ests = tuple(sorted(ests))
            progressed = True
        bin_values = self.bin_values
        if (zeros >= n - t and 0 not in bin_values) or (ones >= n - t and 1 not in bin_values):
            candidates = set(bin_values)
            if zeros >= n - t:
                candidates.add(0)
            if ones >= n - t:
                candidates.add(1)
            bin_values = self.bin_values = tuple(sorted(candidates))
            progressed = True
        if bin_values and self.aux_value is None:
            self.aux_value = bin_values[0]
            progressed = True

        if self.aux_value is not None:
            arrived = aux_seen.get(rnd, {})
            # a backed vote is one inside the candidate set
            if len(arrived) >= n - t:
                backed = [v for v in arrived.values() if v in bin_values]
                if len(backed) >= n - t:
                    view = set(backed)
                    c = self.coin(rnd)
                    if len(view) == 1:
                        b = view.pop()
                        if b == c and self.decided_cache is None:
                            self.decided_cache = b
                        self.est = b
                    else:
                        self.est = c
                    # the finished round is never read again
                    est_seen.pop((rnd, 0), None)
                    est_seen.pop((rnd, 1), None)
                    aux_seen.pop(rnd, None)
                    self.round += 1
                    self.my_ests = (self.est,)
                    self.bin_values = ()
                    self.aux_value = None
                    progressed = True

        if self.decided_cache is None:
            self.stalled_for = 0 if progressed else self.stalled_for + 1
        self._check_state()
        return ("MMR", self.round, self.my_ests, self.aux_value)

    def decided(self) -> tuple[str, object] | None:
        if self.decided_cache is not None:
            if self.decided_cache not in (0, 1):
                return (CORE_FAULT, None)
            return (DECIDED, self.decided_cache)
        if self.faulted:
            return (CORE_FAULT, None)
        return None

    def is_initial(self) -> bool:
        return (
            self.proposed is None
            and self.decided_cache is None
            and self.round == 1
            and not self.est_seen
            and not self.aux_seen
            and not self.faulted
        )


def mmr_core_factory(n: int, t: int, seed: int) -> Callable[[int], MmrLiteCore]:
    """The trial's core factory; a core depends on its slot alone, so one serves every node."""

    def make(slot: int) -> MmrLiteCore:
        def coin(mmr_round: int) -> int:
            return derived_int(seed, "mmr-coin", slot, mmr_round, bound=2)

        return MmrLiteCore(n=n, t=t, coin=coin)

    return make
