"""Byzantine node strategies and transient-fault injection.

The adversary fixes all Byzantine outboxes for a round before the round's
coin is revealed; it sees everything else (full prior traffic and live
correct-node state). Per-receiver equivocation is allowed everywhere, but
sender ids are stamped by the transport and cannot be forged.

Transient faults strike once, before round 0: every targeted mutable field
is replaced while containers stay structurally valid (vector lengths, tag
kinds). Program code, parameters and the clock are never touched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .env import Params, derived_int, seeded_rng
from .sig_index import index_vote, vote_bit
from .transport import CoPayload, Envelope, EstPayload, RoundMail, SigPayload

if TYPE_CHECKING:
    from .node import CorrectNode

POLICIES = ("silent", "random", "equivocate", "worst_sig", "worst_eig")


@dataclass
class AdversaryStrategy:
    byz_set: frozenset[int]
    policy: str
    seed: int

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")


@dataclass
class AdversaryView:
    """What the adversary may observe when fixing a round's Byzantine traffic.

    The current round's coin is deliberately absent.
    """

    round: int
    phase: int
    params: Params
    correct_nodes: dict[int, "CorrectNode"]
    last_outboxes: dict[int, dict[int, Envelope]]


class Adversary:
    def __init__(self, strategy: AdversaryStrategy, params: Params):
        self.strategy = strategy
        self.params = params
        self.rng = seeded_rng(strategy.seed, "adversary", strategy.policy)

    def byz_outboxes(self, view: AdversaryView) -> dict[int, dict[int, Envelope]]:
        """Envelopes for every (Byzantine sender, receiver) pair this round."""
        out: dict[int, dict[int, Envelope]] = {}
        receivers = sorted(view.correct_nodes)
        fields_for = self._round_fields(view)
        for b in sorted(self.strategy.byz_set):
            per_dest: dict[int, Envelope] = {}
            for j in receivers:
                est, co, sig = fields_for(b, j)
                per_dest[j] = Envelope(sender=b, est=est, co=co, sig=sig)
            out[b] = per_dest
        return out

    # per-policy field builders

    def _round_fields(self, view: AdversaryView) -> Callable[[int, int], tuple]:
        """The round's (sender, receiver) -> (est, co, sig) builder for the policy."""
        policy = self.strategy.policy
        if policy == "random":
            return lambda b, j: self._random_fields(view, j)
        if policy == "equivocate":
            return lambda b, j: self._equivocate_fields(view, b, j)
        if policy == "worst_sig":
            sig_for = self._worst_sig_fields(view)
            return lambda b, j: (None, None, sig_for(j))
        if policy == "worst_eig":
            return lambda b, j: (None, self._worst_eig_field(view, b, j), None)
        return lambda b, j: (None, None, None)

    def _random_fields(self, view: AdversaryView, j: int):
        rng = self.rng
        est = None
        if rng.random() < 0.7:
            est = EstPayload(
                slot=rng.randrange(view.params.index_num),
                core=None,
                delivered=bool(rng.getrandbits(1)),
            )
        co = None
        if rng.random() < 0.7:
            level = rng.randrange(view.params.t + 2)
            co = CoPayload(level=level, entries=self._random_entries(level))
        sig = None
        if rng.random() < 0.8:
            kind = rng.choice(("index", "propose", "bit"))
            if kind == "index":
                value: object = rng.randrange(2 * view.params.index_states)
            elif kind == "propose":
                value = rng.choice((None, rng.randrange(view.params.index_states)))
            else:
                value = rng.getrandbits(1)
            sig = SigPayload(kind=kind, value=value)
        return est, co, sig

    def _random_entries(self, level: int) -> tuple:
        rng = self.rng
        n = self.params.n
        if level == 0:
            return (((), rng.choice((0, 1, None))),)
        entries = []
        ids = list(range(n))
        for _ in range(rng.randrange(1, n + 1)):
            rng.shuffle(ids)
            label = tuple(ids[:level])
            entries.append((label, rng.choice((0, 1, None))))
        return tuple(entries)

    def _equivocate_fields(self, view: AdversaryView, b: int, j: int):
        """Two-faced values: one story for low node ids, another for the rest."""
        p = view.params
        half = j < self.params.n // 2
        a_val = derived_int(self.strategy.seed, "equiv-a", view.round, b, bound=p.index_states)
        shift = 1 + derived_int(self.strategy.seed, "equiv-b", view.round, b, bound=p.index_states - 1)
        value = a_val if half else (a_val + shift) % p.index_states
        sig = SigPayload(kind=self._phase_kind(view.phase), value=self._coerce(view.phase, value))
        bit = 0 if half else 1
        co = CoPayload(level=0, entries=(((), bit),))
        est = EstPayload(slot=0, core=None, delivered=half)
        return est, co, sig

    def _phase_kind(self, phase: int) -> str:
        k = self.params.kappa
        if phase == k - 4:
            return "index"
        if phase == k - 3:
            return "propose"
        return "bit"

    def _coerce(self, phase: int, value: int) -> object:
        if self._phase_kind(phase) == "bit":
            return value & 1
        return value

    def _worst_sig_fields(self, view: AdversaryView) -> Callable[[int], SigPayload | None]:
        """Keep correct tallies just below their thresholds whenever possible.

        The adversary simulates what each correct node is about to receive
        (it knows all fixed traffic) and picks the value that denies the
        next phase's quorum, splitting receivers when that helps. The
        simulation is the same for every pair, so it runs once per round;
        the returned function gives receiver j's value.
        """
        p = view.params
        k = p.kappa
        phase = view.phase
        nodes = view.correct_nodes
        if phase == k - 4:
            values = [nodes[i].sig.index for i in sorted(nodes)]
            counts = _counts(values)
            top, top_count = counts[0]
            if top_count >= p.quorum:
                # quorum unavoidable: send noise and fight at later phases
                return lambda j: SigPayload(kind="index", value=top + 1 + j)
            if top_count == p.quorum - 1:
                # plant partial quorums: enough receivers adopt the leader to
                # split saves two phases later, the rest see nothing
                boosted = sorted(nodes)[: p.quorum - 1]
                return lambda j: SigPayload(
                    kind="index", value=top if j in boosted else top + 1 + j
                )
            runner = counts[1][0] if len(counts) > 1 else top + 1
            return lambda j: SigPayload(kind="index", value=runner)
        if phase == k - 3:
            proposals = predict(view, index_vote)
            non_empty = [v for v in proposals if v is not None]
            if not non_empty:
                return lambda j: SigPayload(kind="propose", value=None)
            # push half the receivers over the majority line, starve the rest
            return lambda j: SigPayload(
                kind="propose", value=non_empty[0] if j % 2 == 0 else None
            )
        if phase == k - 2:
            bits = predict(view, vote_bit)
            ones = sum(bits)
            zeros = len(bits) - ones
            if ones >= p.quorum or zeros >= p.quorum:
                # one draw per (sender, receiver) pair, in pair order
                return lambda j: SigPayload(kind="bit", value=self.rng.getrandbits(1))
            return lambda j: SigPayload(kind="bit", value=0 if ones >= zeros else 1)
        return lambda j: None

    def _worst_eig_field(self, view: AdversaryView, b: int, j: int) -> CoPayload | None:
        """Split the information-gathering tree: opposite stories per receiver half."""
        t = self.params.t
        phase = view.phase
        if phase == 0:
            return CoPayload(level=0, entries=(((), 1 if j % 2 == 0 else 0),))
        if 1 <= phase <= t + 1:
            level = phase
            n = self.params.n
            value = 1 if j % 2 == 0 else 0
            ids = [x for x in range(n) if x != b]
            if level == 1:
                entries = [((i,), value) for i in ids]
            else:
                # labels must be distinct-id tuples of the right length without b
                entries = []
                for i in ids:
                    label = tuple((i + d) % n for d in range(level))
                    if b not in label and len(set(label)) == len(label):
                        entries.append((label, value))
            return CoPayload(level=level, entries=tuple(entries))
        return None


def predict(view: AdversaryView, rule: Callable[[dict, int], object]) -> list:
    """What an index-phase rule yields at each correct node this round.

    Receiver i's sig inbox is what every sender sent it last round, so from
    round 1 on (round 0 delivers the injected channel contents) the rule
    applied to that inbox is exactly what node i computes.
    """
    outcomes = []
    for i in sorted(view.correct_nodes):
        inbox = {sender: box[i].sig for sender, box in view.last_outboxes.items() if i in box}
        outcomes.append(rule(inbox, view.params.quorum))
    return outcomes


def _counts(values: list) -> list[tuple[object, int]]:
    counts: dict[object, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))


# transient-fault injection

INJECT_MODES = ("none", "full", "targeted")


@dataclass
class TransientFault:
    """One-shot corruption applied before round 0."""

    mode: str
    seed: int
    plan: dict = field(default_factory=dict)


def plan_corruption(mode: str, params: Params, correct_ids: list[int], seed: int) -> TransientFault:
    if mode not in INJECT_MODES:
        raise ValueError(f"unknown injection mode {mode!r}")
    fault = TransientFault(mode=mode, seed=seed)
    if mode == "none":
        return fault
    rng = seeded_rng(seed, "inject")
    plan: dict = {"nodes": {}}
    if mode == "targeted":
        distinct = rng.sample(range(params.index_states), k=min(len(correct_ids), params.index_states))
        for pos, i in enumerate(sorted(correct_ids)):
            plan["nodes"][i] = {
                "index": distinct[pos % len(distinct)],
                "current_result": 1,
                "eig_all_ones": True,
                "clear_delivered": True,
            }
    else:
        for i in sorted(correct_ids):
            plan["nodes"][i] = {
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
    fault.plan = plan
    return fault


def inject(
    nodes: dict[int, "CorrectNode"],
    round0_mail: dict[int, RoundMail],
    fault: TransientFault,
    params: Params,
) -> None:
    """Apply the corruption plan to node state and round-0 channel contents."""
    if fault.mode == "none":
        return
    for i, fields in fault.plan.get("nodes", {}).items():
        node = nodes[i]
        if "index" in fields:
            node.sig.index = fields["index"]
        if "propose_val" in fields:
            node.sig.propose_val = fields["propose_val"]
        if "save" in fields:
            node.sig.save = fields["save"]
        if "bit" in fields:
            node.sig.bit = fields["bit"]
        if "inc" in fields:
            node.sig.inc = fields["inc"]
        if "current_result" in fields:
            node.mvc.current_result = fields["current_result"]
        if fields.get("eig_all_ones"):
            _fill_tree(node, value=1, params=params)
        if fields.get("clear_delivered"):
            for obj in node.objects.slots:
                obj.delivered = [False] * params.n
        if "eig_garbage" in fields:
            rng = seeded_rng(fault.seed, "inject-eig", i, fields["eig_garbage"])
            _garble_tree(node, rng, params)
        if "objects_garbage" in fields:
            rng = seeded_rng(fault.seed, "inject-objs", i, fields["objects_garbage"])
            _garble_objects(node, rng, params)
        if "mail_garbage" in fields:
            rng = seeded_rng(fault.seed, "inject-mail", i, fields["mail_garbage"])
            _garble_mail(round0_mail, i, rng, params)


def _fill_tree(node: "CorrectNode", value: int, params: Params) -> None:
    co = node.mvc.co
    co.started = True
    co.exchanges_done = params.t + 1
    co.tree = {(): value}
    _fill_labels(co.tree, (), value, params.n, params.t + 1)


def _fill_labels(tree: dict, label: tuple, value: int, n: int, depth: int) -> None:
    if len(label) == depth:
        return
    for j in range(n):
        if j not in label:
            tree[label + (j,)] = value
            _fill_labels(tree, label + (j,), value, n, depth)


def _garble_tree(node: "CorrectNode", rng: random.Random, params: Params) -> None:
    co = node.mvc.co
    co.started = bool(rng.getrandbits(1))
    co.exchanges_done = rng.randrange(0, params.t + 3)
    co.tree = {}
    for _ in range(rng.randrange(0, 12)):
        length = rng.randrange(0, params.t + 2)
        ids = list(range(params.n))
        rng.shuffle(ids)
        co.tree[tuple(ids[:length])] = rng.choice((0, 1, None, rng.randrange(16)))


def _garble_objects(node: "CorrectNode", rng: random.Random, params: Params) -> None:
    for obj in node.objects.slots:
        if rng.random() < 0.5:
            continue
        obj.delivered = [bool(rng.getrandbits(1)) for _ in range(params.n)]
        obj.proposed = rng.choice((None, 0, 1, rng.randrange(8)))
        core = obj.core
        if hasattr(core, "decided_cache"):
            core.decided_cache = rng.choice((None, 0, 1, rng.randrange(2, 9)))
        if hasattr(core, "proposed"):
            core.proposed = obj.proposed
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
            kind=rng.choice(("index", "propose", "bit")),
            value=rng.choice((None, rng.randrange(params.index_states), rng.getrandbits(1))),
        )
        co = CoPayload(level=0, entries=(((), rng.choice((0, 1, None))),))
        round0_mail[receiver].inbox[sender] = Envelope(
            sender=sender, est=est, co=co, sig=sig
        )
