"""Per-node composition of the protocol stack for one simulated round.

A correct node's step: read the arriving envelopes into their co fields,
the tally of their sig fields and, per slot, the delivery flags and core
messages their est fields carry, merge the flags into this node's objects
(the only place flags are merged), run the consensus recomputation pulse,
run the index pulse, sweep the recycler window, propose to and step the
active object, and read results. Fresh proposals bind to the slot the index points at
during phase 0. A flag that is not set builds no object: merging it into a
fresh one changes nothing.

`read_round` is the one mail reader. The round engine calls it once per
round, before the adversary fixes its traffic, and worst_sig's predictions
and the nodes' steps take what it read: each distinct shared part (see
`corsim.transport`) is read once, and every receiver of it gets that one
reading; each receiver's own arrivals are read once, into new dicts. No
reader may mutate a reading. Flag merges write this node's objects, so
they run at each receiver, one part after the other. The consensus pulse
takes the shared and the own co fields apart (see `corsim.mvc`).

One loop, `ObjectArray.read`, reads every live in-window object that holds
no read value yet, the active one, the window's anchor, among them (their
results must reach every correct node before the window slides past them),
but only the active object sends traffic. With recycling off it reads only
the fixed slot. A slot without a live object is fresh, and reading a fresh
object changes nothing. An object that already holds a read value is not
visited: a core's decision never changes once made, so a second read would
return the same value and leave the same flag set.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

from .env import Params
from .mvc import MvcController
from .recycler import ObjectArray, window
from .sig_index import SigIndex, read_kind, tally
from .transport import Envelope, EstPayload, RoundMail


@dataclass(slots=True)
class StepReport:
    """What one node did in one round, for the trace."""

    sample: object = None  # phase-0 consensus input, None on other phases
    recycled: tuple[int, ...] = ()
    proposed_value: object = None  # set when a fresh proposal was made
    retrievals: tuple = ()  # (slot, value) pairs newly read this round


# What a node reads from one part of its mail: (co, counts, flags, cores),
# that is sender -> co field, the tally of the sig fields of the kind its
# phase reads (see `corsim.sig_index`), slot -> sender -> delivery flag, and
# slot -> sender -> core message. An absent co field is left out: the
# consensus core takes a sender without one as a sender whose field is None.
Reading = tuple[dict, dict, dict, dict]


def _read(part: Mapping[int, object], index_num: int, kind: str | None, counts: dict) -> Reading:
    """The reading of part's arrivals, their sig fields of `kind` tallied into counts.

    A value that is not an `Envelope` is an absent sender, and no sig field
    is tallied when kind is None. Every other dict of the reading is new.
    """
    co, flags, cores, sigs = {}, {}, {}, []
    for sender, env in part.items():
        if not isinstance(env, Envelope):
            continue
        if env.co is not None:
            co[sender] = env.co
        if env.sig is not None:
            sigs.append(env.sig)
        est = env.est
        if not isinstance(est, EstPayload) or not isinstance(est.slot, int):
            continue
        slot = est.slot % index_num
        flags.setdefault(slot, {})[sender] = bool(est.delivered)
        if est.core is not None:
            cores.setdefault(slot, {})[sender] = est.core
    if sigs and kind is not None:
        tally(sigs, kind, counts)
    return co, counts, flags, cores


def read_round(
    mail: dict[int, RoundMail], receivers: list[int], phase: int, params: Params
) -> dict[int, tuple[Reading, Reading]]:
    """Each receiver's readings this round: (shared reading, own reading).

    Each distinct shared part is read once, keyed by its id, which is safe
    because `mail` holds every part for the whole call, and its receivers
    get that one reading. Each own part is read once, and its tally starts
    from a copy of the shared one, so it counts every arrival.
    """
    kind = read_kind(phase, params.kappa)
    index_num = params.index_num
    shared_readings: dict[int, Reading] = {}
    readings = {}
    for i in receivers:
        part = mail[i].shared
        shared = shared_readings.get(id(part))
        if shared is None:
            shared = shared_readings[id(part)] = _read(part, index_num, kind, {})
        readings[i] = shared, _read(mail[i].own, index_num, kind, dict(shared[1]))
    return readings


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
        reading: tuple[Reading, Reading],
        coin_bit: int,
        memo: dict,
    ) -> tuple[dict[int, Envelope], StepReport]:
        params = self.params
        objects = self.objects
        report = StepReport()

        shared, own = reading
        # the parts name disjoint senders, so their flags merge in turn; a set
        # flag builds its slot's object, and merging the unset ones of a slot
        # without one changes nothing
        for reading in (shared, own):
            for slot, flags in reading[2].items():
                obj = objects.live.get(slot)
                if obj is None and True in flags.values():
                    obj = objects.get(slot)
                if obj is not None:
                    obj.merge_flags(flags)

        # consensus recomputation; inputs are sampled before any index write
        if phase == 0:
            report.sample = self.was_delivered_active()
        co_out = self.mvc.pulse(phase, shared[0], own[0], report.sample, memo)

        # index pulse, then the recycler sweep on the possibly-updated index
        sig_out = self.sig.pulse(phase, own[1], self.mvc.current_result, coin_bit)

        if self.fixed_slot is None:
            report.recycled = tuple(objects.recycler_pulse(self.sig.index))

        active = objects.get(self.active_slot())

        if phase == 0 and active.proposed is None:
            value = self._proposer(active.slot, self.node_id)
            active.propose(value)
            report.proposed_value = value

        cores = shared[3].get(active.slot, {})
        if active.slot in own[3]:
            cores = {**cores, **own[3][active.slot]}
        est_out = active.pulse_step(cores)

        if self.fixed_slot is None:
            keep = window(self.sig.index, params.index_num, params.log_size)
        else:
            keep = (active.slot,)
        report.retrievals = tuple(objects.read(keep))

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
