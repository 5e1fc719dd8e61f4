"""Per-node composition of the protocol stack for one simulated round.

A correct node's step: split arriving envelopes into their est, co and sig
fields, merge slot-tagged delivery flags into the object array, run the
consensus recomputation pulse, run the index pulse, sweep the recycler
window, propose to and step the active object, and read results. Fresh
proposals bind to the slot the index points at during phase 0.

Non-active in-window objects are still read every round (their results must
reach every correct node before the window slides past them), but only the
active object sends traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .env import Params
from .mvc import MvcController
from .recycler import ObjectArray, window
from .sig_index import SigIndex
from .transport import CoPayload, Envelope, EstPayload, SigPayload


@dataclass
class StepReport:
    """What one node did in one round, for the trace."""

    sample: object = None  # phase-0 consensus input, None on other phases
    recycled: tuple[int, ...] = ()
    active_slot: int = 0
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
        self.mvc = MvcController(params.n, params.t, node_id)
        self.sig = SigIndex(params, node_id)
        self.objects = ObjectArray(
            params.n, params.t, node_id, params.index_num, params.log_size, core_factory
        )
        self._proposer = proposer
        self._already_read: dict[int, bool] = {}
        # when set, recycling is disabled and this slot stays active forever
        self.fixed_slot: int | None = None

    def active_slot(self) -> int:
        if self.fixed_slot is not None:
            return self.fixed_slot
        return self.sig.index % self.params.index_num

    def step(
        self,
        round_index: int,
        phase: int,
        inbox: dict[int, Envelope],
        coin_bit: int,
    ) -> tuple[dict[int, Envelope], StepReport]:
        params = self.params
        report = StepReport()

        est_by_sender: dict[int, EstPayload] = {}
        co_by_sender: dict[int, CoPayload | None] = {}
        sig_by_sender: dict[int, SigPayload | None] = {}
        for sender, env in inbox.items():
            if env.est is not None:
                est_by_sender[sender] = env.est
            co_by_sender[sender] = env.co
            sig_by_sender[sender] = env.sig

        # merge slot-tagged delivery flags and route core messages
        est_for_slot: dict[int, dict[int, EstPayload]] = {}
        for sender, payload in est_by_sender.items():
            if not isinstance(payload.slot, int):
                continue
            slot = payload.slot % params.index_num
            self.objects.slots[slot].merge_flag(sender, payload.delivered)
            est_for_slot.setdefault(slot, {})[sender] = payload

        # consensus recomputation; inputs are sampled before any index write
        def input_fn() -> int:
            value = self.objects.slots[self.active_slot()].was_delivered()
            report.sample = value
            return value

        co_out = self.mvc.pulse(phase, co_by_sender, input_fn)

        # index pulse, then the recycler sweep on the possibly-updated index
        sig_out = self.sig.pulse(phase, sig_by_sender, self.mvc.result, coin_bit)

        if self.fixed_slot is None:
            recycled = self.objects.recycler_pulse(self.sig.index)
            for slot in recycled:
                self._already_read.pop(slot, None)
            report.recycled = tuple(recycled)

        active = self.objects.slots[self.active_slot()]
        report.active_slot = active.slot

        if phase == 0 and active.proposed is None:
            value = self._proposer(active.slot, self.node_id)
            active.propose(value)
            report.proposed_value = value

        est_out = active.pulse_step(est_for_slot.get(active.slot, {}))
        retrievals = []
        value = active.result()
        if value is not None and not self._already_read.get(active.slot):
            self._already_read[active.slot] = True
            retrievals.append((active.slot, value))

        # background reads of the other in-window objects
        if self.fixed_slot is None:
            keep = window(self.sig.index, params.index_num, params.log_size)
            for slot in sorted(keep):
                obj = self.objects.slots[slot]
                if obj is active or obj.is_fresh():
                    continue
                value = obj.observe_result()
                if value is not None and not self._already_read.get(slot):
                    self._already_read[slot] = True
                    retrievals.append((slot, value))
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
        return self.objects.slots[self.active_slot()].was_delivered()
