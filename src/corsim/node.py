"""Per-node composition of the protocol stack for one simulated round.

A correct node's step: walk the arriving envelopes once, splitting off their
co and sig fields and merging each est's delivery flag into the slot the est
names (the only place flags are merged), run the consensus recomputation
pulse, run the index pulse, sweep the recycler window, propose to and step
the active object, and read results. Fresh proposals bind to the slot the
index points at during phase 0. A flag that is not set builds no object:
merging it into a fresh one changes nothing.

One loop reads every live in-window object, the active one, the window's
anchor, among them (their results must reach every correct node before the
window slides past them), but only the active object sends traffic. With
recycling off it reads only the fixed slot. A slot without a live object is
fresh, and reading a fresh object changes nothing. An object that already
holds a read value is skipped too: a core's decision never changes once
made, so a second read would return the same value and leave the same flag
set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .env import Params
from .mvc import MvcController
from .recycler import ObjectArray, window
from .sig_index import SigIndex
from .transport import CoPayload, Envelope, EstPayload, SigPayload


@dataclass(slots=True)
class StepReport:
    """What one node did in one round, for the trace."""

    sample: object = None  # phase-0 consensus input, None on other phases
    recycled: tuple[int, ...] = ()
    proposed_value: object = None  # set when a fresh proposal was made
    retrievals: tuple = ()  # (slot, value) pairs newly read this round


class CorrectNode:
    def __init__(
        self,
        params: Params,
        node_id: int,
        core_factory: Callable[[int], object],
        proposer: Callable[[int, int], int],
    ):
        self.params = params
        self.node_id = node_id
        self.mvc = MvcController(params.n, params.t)
        self.sig = SigIndex(params)
        self.objects = ObjectArray(
            params.n, params.t, node_id, params.index_num, params.log_size, core_factory
        )
        self._proposer = proposer
        # when set, recycling is disabled and this slot stays active forever
        self.fixed_slot: int | None = None

    def active_slot(self) -> int:
        if self.fixed_slot is not None:
            return self.fixed_slot
        return self.sig.index % self.params.index_num

    def step(
        self,
        phase: int,
        inbox: dict[int, Envelope],
        coin_bit: int,
        memo: dict,
    ) -> tuple[dict[int, Envelope], StepReport]:
        params = self.params
        objects = self.objects
        report = StepReport()

        # split off co and sig; merge each slot-tagged delivery flag and keep
        # the core message for the slot the est names
        co_by_sender: dict[int, CoPayload | None] = {}
        sig_by_sender: dict[int, SigPayload | None] = {}
        core_for_slot: dict[int, dict[int, object]] = {}
        for sender, env in inbox.items():
            if not isinstance(env, Envelope):
                continue  # not an envelope: read as an absent sender
            co_by_sender[sender] = env.co
            sig_by_sender[sender] = env.sig
            est = env.est
            if not isinstance(est, EstPayload) or not isinstance(est.slot, int):
                continue
            slot = est.slot % params.index_num
            obj = objects.get(slot) if est.delivered else objects.live.get(slot)
            if obj is not None:
                obj.merge_flag(sender, est.delivered)
            if est.core is not None:
                core_for_slot.setdefault(slot, {})[sender] = est.core

        # consensus recomputation; inputs are sampled before any index write
        if phase == 0:
            report.sample = self.was_delivered_active()
        co_out = self.mvc.pulse(phase, co_by_sender, report.sample, memo)

        # index pulse, then the recycler sweep on the possibly-updated index
        sig_out = self.sig.pulse(phase, sig_by_sender, self.mvc.current_result, coin_bit)

        if self.fixed_slot is None:
            report.recycled = tuple(objects.recycler_pulse(self.sig.index))

        active = objects.get(self.active_slot())

        if phase == 0 and active.proposed is None:
            value = self._proposer(active.slot, self.node_id)
            active.propose(value)
            report.proposed_value = value

        est_out = active.pulse_step(core_for_slot.get(active.slot, {}))

        if self.fixed_slot is None:
            keep = window(self.sig.index, params.index_num, params.log_size)
            reads = sorted(keep.intersection(objects.live))
        else:
            reads = [active.slot]
        retrievals = []
        for slot in reads:
            obj = objects.live[slot]
            if obj.read_value is None:
                obj.read_value = obj.observe_result()
                if obj.read_value is not None:
                    retrievals.append((slot, obj.read_value))
        report.retrievals = tuple(retrievals)

        # a correct node broadcasts: one envelope object serves every receiver
        env = Envelope(
            sender=self.node_id,
            est=est_out,
            co=co_out.get(self.node_id),
            sig=sig_out,
        )
        outbox = dict.fromkeys(range(params.n), env)
        return outbox, report

    # state views used by the trace and the checks

    def was_delivered_active(self) -> int:
        """The active object's report; a slot without a live object is fresh."""
        obj = self.objects.live.get(self.active_slot())
        return 0 if obj is None else obj.was_delivered()
