"""Byzantine node strategies and transient-fault injection.

The adversary fixes all Byzantine outboxes for a round before the round's
coin is revealed; it sees everything else (the mail each node receives
this round and live correct-node state). Per-receiver equivocation is
allowed everywhere, but sender ids are stamped by the transport and cannot
be forged.

A policy is a per-round builder: given the round's view it returns a
function (sender, receiver) -> (est, co, sig), and POLICIES finds it by
name. Work shared by several pairs is done once, when the builder runs.
worst_sig predicts each node's index rules from the tally of the node's
own reading, the one the round engine reads once (`corsim.node.read_round`)
and hands the node too, so a prediction is what the node computes by
construction.

Transient faults strike once, before round 0: every targeted mutable field
is replaced while containers stay structurally valid (vector lengths, tag
kinds). Program code, parameters and the clock are never touched. The
corruption plan is a plain dict, recorded in the trace as it was applied.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .env import Params, derived_int, seeded_rng
from .mvc import _labels
from .node import CorrectNode, Reading
from .sig_index import SIG_KINDS, index_vote, send_kind, vote_bit
from .transport import CoPayload, Envelope, EstPayload, RoundMail, SigPayload

Fields = Callable[[int, int], tuple]  # (sender, receiver) -> (est, co, sig)


@dataclass(slots=True)
class AdversaryView:
    """What the adversary may observe when fixing a round's Byzantine traffic.

    `mail` is what each node receives this round, keyed by receiver, and
    `readings` each correct receiver's (shared, own) reading of it, which
    its step takes too (see `corsim.node.read_round`); no policy may mutate
    one. The current round's coin is deliberately absent.
    """

    round: int
    phase: int
    params: Params
    correct_nodes: dict[int, CorrectNode]
    mail: dict[int, RoundMail]
    readings: dict[int, tuple[Reading, Reading]]


class Adversary:
    def __init__(self, policy: str, params: Params, byz_ids: list[int]):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.policy = policy
        self.byz_ids = sorted(byz_ids)
        self.rng = seeded_rng(params.seed, "adversary", policy)

    def byz_outboxes(self, view: AdversaryView) -> dict[int, dict[int, Envelope]]:
        """Envelopes for every (Byzantine sender, receiver) pair this round."""
        fields = POLICIES[self.policy](self, view)
        receivers = sorted(view.correct_nodes)
        return {
            b: {j: Envelope(b, *fields(b, j)) for j in receivers} for b in self.byz_ids
        }

    # per-round policy builders

    def _silent(self, view: AdversaryView) -> Fields:
        return lambda b, j: (None, None, None)

    def _random(self, view: AdversaryView) -> Fields:
        """Fresh random fields for every pair, drawn in pair order."""
        p = view.params
        return lambda b, j: self._random_fields(p)

    def _random_fields(self, p: Params) -> tuple:
        rng = self.rng
        est = None
        if rng.random() < 0.7:
            est = EstPayload(
                slot=rng.randrange(p.index_num),
                core=None,
                delivered=bool(rng.getrandbits(1)),
            )
        co = None
        if rng.random() < 0.7:
            level = rng.randrange(p.t + 2)
            co = CoPayload(level=level, entries=self._random_entries(p.n, level))
        sig = None
        if rng.random() < 0.8:
            kind = rng.choice(SIG_KINDS)
            if kind == "index":
                value: object = rng.randrange(2 * p.index_num)
            elif kind == "propose":
                value = rng.choice((None, rng.randrange(p.index_num)))
            else:
                value = rng.getrandbits(1)
            sig = SigPayload(kind=kind, value=value)
        return est, co, sig

    def _random_entries(self, n: int, level: int) -> tuple:
        rng = self.rng
        if level == 0:
            return (((), rng.choice((0, 1, None))),)
        entries = []
        ids = list(range(n))
        for _ in range(rng.randrange(1, n + 1)):
            rng.shuffle(ids)
            label = tuple(ids[:level])
            entries.append((label, rng.choice((0, 1, None))))
        return tuple(entries)

    def _equivocate(self, view: AdversaryView) -> Fields:
        """Two-faced values: one story for low node ids, another for the rest."""
        p = view.params
        k = p.kappa
        kind = send_kind(view.phase, k) or "bit"
        stories = {}  # sender -> [story of the high half, story of the low half]
        for b in self.byz_ids:
            low = derived_int(p.seed, "equiv-a", view.round, b, bound=p.index_num)
            shift = 1 + derived_int(p.seed, "equiv-b", view.round, b, bound=p.index_num - 1)
            high = (low + shift) % p.index_num
            stories[b] = [
                (
                    EstPayload(slot=0, core=None, delivered=half),
                    CoPayload(level=0, entries=(((), 0 if half else 1),)),
                    SigPayload(kind=kind, value=value & 1 if kind == "bit" else value),
                )
                for half, value in ((False, high), (True, low))
            ]
        half_line = p.n // 2
        return lambda b, j: stories[b][j < half_line]

    def _worst_sig(self, view: AdversaryView) -> Fields:
        """Keep correct tallies just below their thresholds whenever possible.

        The adversary simulates what each correct node is about to receive
        (it knows all fixed traffic) and picks the value that denies the
        next phase's quorum, splitting receivers when that helps.
        """
        p = view.params
        k = p.kappa
        phase = view.phase
        nodes = view.correct_nodes
        kind = send_kind(phase, k)

        def sig(value_for: Callable[[int], object]) -> Fields:
            return lambda b, j: (None, None, SigPayload(kind=kind, value=value_for(j)))

        if phase == k - 4:
            values = [nodes[i].sig.index for i in sorted(nodes)]
            counts = _counts(values)
            top, top_count = counts[0]
            if top_count >= p.quorum:
                # quorum unavoidable: send noise and fight at later phases
                return sig(lambda j: top + 1 + j)
            if top_count == p.quorum - 1:
                # plant partial quorums: enough receivers adopt the leader to
                # split saves two phases later, the rest see nothing
                boosted = sorted(nodes)[: p.quorum - 1]
                return sig(lambda j: top if j in boosted else top + 1 + j)
            runner = counts[1][0] if len(counts) > 1 else top + 1
            return sig(lambda j: runner)
        if phase == k - 3:
            proposals = predict(view, index_vote)
            non_empty = [v for v in proposals if v is not None]
            if not non_empty:
                return sig(lambda j: None)
            # push half the receivers over the majority line, starve the rest
            return sig(lambda j: non_empty[0] if j % 2 == 0 else None)
        if phase == k - 2:
            bits = predict(view, vote_bit)
            ones = sum(bits)
            zeros = len(bits) - ones
            if ones >= p.quorum or zeros >= p.quorum:
                # one draw per (sender, receiver) pair, in pair order
                return sig(lambda j: self.rng.getrandbits(1))
            return sig(lambda j: 0 if ones >= zeros else 1)
        return self._silent(view)

    def _worst_eig(self, view: AdversaryView) -> Fields:
        """Split the information-gathering tree: opposite stories per receiver half."""
        p = view.params
        level = view.phase
        if level > p.t + 1:
            return self._silent(view)
        stories = {}
        for b in self.byz_ids:
            # labels are distinct-id tuples of the phase's length without b
            chains = (tuple((i + d) % p.n for d in range(level)) for i in range(p.n))
            labels = [()] if level == 0 else [label for label in chains if b not in label]
            stories[b] = [
                CoPayload(level=level, entries=tuple((label, value) for label in labels))
                for value in (1, 0)
            ]
        return lambda b, j: (None, stories[b][j % 2], None)


POLICIES: dict[str, Callable[[Adversary, AdversaryView], Fields]] = {
    "silent": Adversary._silent,
    "random": Adversary._random,
    "equivocate": Adversary._equivocate,
    "worst_sig": Adversary._worst_sig,
    "worst_eig": Adversary._worst_eig,
}


def predict(view: AdversaryView, rule: Callable[[dict, int], object]) -> list:
    """What an index-phase rule yields at each correct node this round.

    Node i's tally is the one its own reading carries, which counts every
    arrival, and node i's step takes that reading, so the rule applied to
    it is what node i computes by construction.
    """
    p = view.params
    return [rule(view.readings[i][1][1], p.quorum) for i in sorted(view.correct_nodes)]


def _counts(values: list) -> list[tuple[object, int]]:
    counts: dict[object, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))


# transient-fault injection

INJECT_MODES = ("none", "full", "targeted")


def plan_corruption(mode: str, params: Params, correct_ids: list[int]) -> dict:
    """The one-shot corruption plan: per correct node, the fields to overwrite.

    The targeted `clear_delivered` key applies nothing, since no object exists
    before round 0, and neither do the full plan's `propose_val` and `bit`,
    since the index phases send those values as they compute them and keep
    neither; the keys and their draws stay because the plan is recorded in
    the trace.
    """
    if mode not in INJECT_MODES:
        raise ValueError(f"unknown injection mode {mode!r}")
    if mode == "none":
        return {}
    rng = seeded_rng(params.seed, "inject")
    nodes: dict = {}
    if mode == "targeted":
        distinct = rng.sample(range(params.index_num), k=min(len(correct_ids), params.index_num))
        for pos, i in enumerate(sorted(correct_ids)):
            nodes[i] = {
                "index": distinct[pos % len(distinct)],
                "current_result": 1,
                "eig_all_ones": True,
                "clear_delivered": True,
            }
    else:
        for i in sorted(correct_ids):
            nodes[i] = {
                "index": rng.randrange(-(2**31), 2**31),
                "propose_val": rng.choice((None, rng.randrange(2**16))),
                "save": rng.choice((None, rng.randrange(2**16))),
                "bit": rng.getrandbits(1),
                "inc": rng.getrandbits(1),
                "current_result": rng.choice((None, rng.randrange(-4, 8))),
                "eig_garbage": rng.getrandbits(32),
                "objects_garbage": rng.getrandbits(32),
                "mail_garbage": rng.getrandbits(32),
            }
    return {"nodes": nodes}


def inject(
    nodes: dict[int, CorrectNode],
    round0_mail: dict[int, RoundMail],
    plan: dict,
    params: Params,
) -> None:
    """Apply the corruption plan to node state and round-0 channel contents.

    It runs before the first round, while no object has been read, so the
    node reads every object it leaves decided. It plants object state
    through `objects.get`, which puts each slot it builds in the array's
    unread set, so the sweeps see every object it touches. Any corruption
    applied later to an object that was already read must put its slot back
    in `objects.unread`, or the node never reads what it changes. It
    builds the all-ones level once per call and plants that one dict in
    every node whose plan sets `eig_all_ones`, as a round shares a level
    it builds (see `corsim.mvc`): nothing may mutate a planted level in
    place, and a change to one node's level must assign it a new dict.
    """
    all_ones = None
    for i, fields in plan.get("nodes", {}).items():
        node = nodes[i]
        for name in ("index", "save", "inc"):
            if name in fields:
                setattr(node.sig, name, fields[name])
        if "current_result" in fields:
            node.mvc.current_result = fields["current_result"]
        if fields.get("eig_all_ones"):
            if all_ones is None:
                all_ones = dict.fromkeys(_labels(params.n, params.t + 1), 1)
            _fill_tree(node, all_ones, params)
        if "eig_garbage" in fields:
            rng = seeded_rng(params.seed, "inject-eig", i, fields["eig_garbage"])
            _garble_tree(node, rng, params)
        if "objects_garbage" in fields:
            rng = seeded_rng(params.seed, "inject-objs", i, fields["objects_garbage"])
            _garble_objects(node, rng, params)
        if "mail_garbage" in fields:
            rng = seeded_rng(params.seed, "inject-mail", i, fields["mail_garbage"])
            _garble_mail(round0_mail, i, rng, params)


def _fill_tree(node: CorrectNode, level: dict[tuple, object], params: Params) -> None:
    """Plant a completed run's stored level, every leaf label of length t+1.

    The dict is stored, not copied, and other nodes may hold the same one,
    like a level a round builds, so nothing may mutate it in place.
    """
    co = node.mvc.co
    co.started = True
    co.exchanges_done = params.t + 1
    co.tree = level


def _garble_tree(node: CorrectNode, rng: random.Random, params: Params) -> None:
    co = node.mvc.co
    co.started = bool(rng.getrandbits(1))
    co.exchanges_done = rng.randrange(0, params.t + 3)
    tree = {}
    for _ in range(rng.randrange(0, 12)):
        length = rng.randrange(0, params.t + 2)
        ids = list(range(params.n))
        rng.shuffle(ids)
        tree[tuple(ids[:length])] = rng.choice((0, 1, None, rng.randrange(16)))
    co.tree = tree


def _garble_objects(node: CorrectNode, rng: random.Random, params: Params) -> None:
    """Garble about half of the slots, each with one draw in slot order to pick it."""
    for slot in range(params.index_num):
        if rng.random() < 0.5:
            continue
        obj = node.objects.get(slot)
        obj.delivered = [bool(rng.getrandbits(1)) for _ in range(params.n)]
        core = obj.core
        core.proposed = rng.choice((None, 0, 1, rng.randrange(8)))
        core.decided_cache = rng.choice((None, 0, 1, rng.randrange(2, 9)))
        if hasattr(core, "round"):
            core.round = rng.choice((1, 2, rng.randrange(1, 50)))
        if hasattr(core, "est"):
            core.est = rng.choice((0, 1, None))


def _garble_mail(
    round0_mail: dict[int, RoundMail], receiver: int, rng: random.Random, params: Params
) -> None:
    """Arbitrary round-0 channel contents; sender ids stay channel-bound."""
    for sender in range(params.n):
        if sender == receiver or rng.random() < 0.5:
            continue
        est = EstPayload(
            slot=rng.randrange(params.index_num),
            core=None,
            delivered=bool(rng.getrandbits(1)),
        )
        sig = SigPayload(
            kind=rng.choice(SIG_KINDS),
            value=rng.choice((None, rng.randrange(params.index_num), rng.getrandbits(1))),
        )
        co = CoPayload(level=0, entries=(((), rng.choice((0, 1, None))),))
        round0_mail[receiver].plant(sender, Envelope(sender=sender, est=est, co=co, sig=sig))
