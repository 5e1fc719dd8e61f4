"""Scenario runner: the lock-step round engine, traces, metrics and legality checks.

Each simulated round runs, in order: the adversary fixes all Byzantine
outboxes, the round's coin is revealed, every correct node computes its
step, and the transport delivers everything for the next round. A one-shot
state corruption may be applied before round 0.

The trace records enough per-round state to re-check every protocol
property offline: indices, floating consensus outputs, phase-0 input
samples, delivery indications, recycle events and a digest of the round's
traffic. Identical configurations produce byte-identical traces.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import statistics
from dataclasses import dataclass, field, replace

from .adversary import INJECT_MODES, POLICIES, Adversary, AdversaryView, inject, plan_corruption
from .cores import StubOracle, mmr_core_factory, stub_core_factory
from .env import CoinOracle, Params, clock_read, derived_int, params_validate
from .node import CorrectNode
from .transport import (
    Envelope,
    RoundMail,
    TransportError,
    exchange,
    traffic_digest,
)

REVEAL_ORDER = ("byz_outboxes", "coin_reveal", "node_compute")

CORES = ("stub", "mmr-lite")


class ConfigError(Exception):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class TrialConfig:
    params: Params
    rounds: int = 250
    adversary: str = "silent"
    inject: str = "none"
    core: str = "stub"
    dmax: int = 3
    recycling: bool = True
    log_traffic: bool = False  # full per-line message log in the trace

    def check(self) -> None:
        report = params_validate(self.params)
        problems = list(report.violations)
        if self.adversary not in POLICIES:
            problems.append(f"adversary must be one of {tuple(POLICIES)}")
        if self.inject not in INJECT_MODES:
            problems.append(f"inject must be one of {INJECT_MODES}")
        if self.core not in CORES:
            problems.append(f"core must be one of {CORES}")
        if self.rounds < 1:
            problems.append("rounds >= 1")
        if self.dmax < 0:
            problems.append("dmax >= 0")
        if problems:
            raise ConfigError(problems)

    def meta(self) -> dict:
        return {
            "seed": self.params.seed,
            "n": self.params.n,
            "t": self.params.t,
            "kappa": self.params.kappa,
            "index_states": self.params.index_num,
            "index_num": self.params.index_num,
            "log_size": self.params.log_size,
            "rounds": self.rounds,
            "adversary": self.adversary,
            "inject": self.inject,
            "core": self.core,
            "dmax": self.dmax,
            "recycling": self.recycling,
        }


@dataclass
class RoundRecord:
    round: int
    phase: int
    coin: int
    idx: tuple
    mvc: tuple
    sample: tuple | None
    wd: tuple
    save: tuple | None
    inc: tuple | None
    quorum1: tuple | None
    quorum0: tuple | None
    recycled: tuple
    active: tuple
    non_fresh: tuple
    digest: str


@dataclass
class Trace:
    meta: dict
    correct_ids: tuple
    byz_ids: tuple
    reveal_order: tuple = REVEAL_ORDER
    rounds: list[RoundRecord] = field(default_factory=list)
    # (slot, gen) -> node -> (round, repr of value read)
    retrievals: dict = field(default_factory=dict)
    # (slot, gen) -> node -> (round, proposed value)
    proposals: dict = field(default_factory=dict)
    # (slot, gen) -> node -> round of first recycle of that incarnation
    evictions: dict = field(default_factory=dict)
    corruption: dict = field(default_factory=dict)
    # optional: "round sender receiver hex-envelope" lines, one per delivery
    traffic: list = field(default_factory=list)

    def to_jsonable(self) -> dict:
        def key(k: tuple) -> str:
            return f"{k[0]}:{k[1]}"

        return {
            "meta": self.meta,
            "correct_ids": list(self.correct_ids),
            "byz_ids": list(self.byz_ids),
            "reveal_order": list(self.reveal_order),
            "corruption": self.corruption,
            "traffic": self.traffic,
            "rounds": [
                {
                    "round": r.round,
                    "phase": r.phase,
                    "coin": r.coin,
                    "idx": list(r.idx),
                    "mvc": [repr(v) for v in r.mvc],
                    "sample": None if r.sample is None else list(r.sample),
                    "wd": list(r.wd),
                    "save": None if r.save is None else [repr(v) for v in r.save],
                    "inc": None if r.inc is None else list(r.inc),
                    "quorum1": None if r.quorum1 is None else list(r.quorum1),
                    "quorum0": None if r.quorum0 is None else list(r.quorum0),
                    "recycled": [list(x) for x in r.recycled],
                    "active": list(r.active),
                    "non_fresh": list(r.non_fresh),
                    "digest": r.digest,
                }
                for r in self.rounds
            ],
            "retrievals": {
                key(k): {str(i): [rd, val] for i, (rd, val) in sorted(v.items())}
                for k, v in sorted(self.retrievals.items())
            },
            "proposals": {
                key(k): {str(i): [rd, val] for i, (rd, val) in sorted(v.items())}
                for k, v in sorted(self.proposals.items())
            },
            "evictions": {
                key(k): {str(i): rd for i, rd in sorted(v.items())}
                for k, v in sorted(self.evictions.items())
            },
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":")).encode()

    def digest(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()


@dataclass
class Metrics:
    stabilized: bool
    stabilization_round: int | None
    cycles_to_index_agreement: int | None
    cor_violations: dict
    instances_completed: int

    def csv_row(self, config: TrialConfig) -> dict:
        """One CSV row; its keys, in order, are the CSV header (None is written empty)."""
        return {
            **config.meta(),
            "stabilized": int(self.stabilized),
            "stabilization_round": self.stabilization_round,
            "cycles_to_index_agreement": self.cycles_to_index_agreement,
            **{f"viol_{name}": self.cor_violations[name] for name in VIOLATION_KINDS},
            "instances_completed": self.instances_completed,
        }


VIOLATION_KINDS = (
    "index_agreement",
    "cor_agreement",
    "closure",
    "cor_validity1",
    "cor_validity2",
)


class RoundEngine:
    """Owns all per-trial state and advances it one lock-step round at a time."""

    def __init__(self, config: TrialConfig):
        config.check()
        self.config = config
        p = config.params
        self.params = p
        self.node_ids = list(range(p.n))
        self.byz_ids = list(range(p.n - p.t, p.n))
        self.correct_ids = self.node_ids[: p.n - p.t]

        self.coin = CoinOracle(p.seed)
        self.stub_oracle = StubOracle(p.seed, self.correct_ids, config.dmax)
        self.slot_gen = {s: 0 for s in range(p.index_num)}
        # slots not fresh at some correct node after the last round
        self.slots_in_use: set[int] = set()

        def proposer(slot: int, node_id: int) -> int:
            return derived_int(
                p.seed, "proposal", slot, self.slot_gen[slot], node_id, bound=2
            )

        self.nodes: dict[int, CorrectNode] = {}
        for i in self.correct_ids:
            if config.core == "stub":
                factory = stub_core_factory(self.stub_oracle, i)
            else:
                factory = mmr_core_factory(p.n, p.t, i, p.seed)
            node = CorrectNode(p, i, factory, proposer)
            if not config.recycling:
                node.fixed_slot = 0
            self.nodes[i] = node

        self.adversary = Adversary(config.adversary, p, self.byz_ids)
        self.trace = Trace(
            meta=config.meta(),
            correct_ids=tuple(self.correct_ids),
            byz_ids=tuple(self.byz_ids),
        )
        self.pending: dict[int, RoundMail] = {i: RoundMail(inbox={}) for i in self.node_ids}
        self.last_outboxes: dict[int, dict[int, Envelope]] = {}

        plan = plan_corruption(config.inject, p, self.correct_ids)
        inject(self.nodes, self.pending, plan, p)
        self.trace.corruption = {"mode": config.inject, "plan": _jsonable_plan(plan)}

    def run(self) -> Trace:
        for r in range(self.config.rounds):
            self._round(r)
        return self.trace

    def _round(self, r: int) -> None:
        p = self.params
        phase = clock_read(r, p.kappa)

        byz_out = self.adversary.byz_outboxes(
            AdversaryView(
                round=r,
                phase=phase,
                params=p,
                correct_nodes=self.nodes,
                last_outboxes=self.last_outboxes,
            )
        )
        coin_bit = self.coin.draw(r)
        self.stub_oracle.begin_round(r)

        outboxes: dict[int, dict[int, Envelope]] = {}
        reports = {}
        for i in self.correct_ids:
            outbox, report = self.nodes[i].step(r, phase, self.pending[i].inbox, coin_bit)
            outboxes[i] = outbox
            reports[i] = report
        for b, box in byz_out.items():
            outboxes[b] = box

        self.pending = exchange(r, outboxes, self.node_ids, self.correct_ids)
        # reliable delivery, re-checked every round: each correct sender's
        # envelope reaches every correct receiver exactly once
        for j in self.correct_ids:
            for i in self.correct_ids:
                if i not in self.pending[j].inbox:
                    raise TransportError(
                        f"round {r}: envelope {i}->{j} missing after exchange"
                    )
        self.last_outboxes = outboxes
        deliveries = [] if self.config.log_traffic else None
        digest = traffic_digest(outboxes, deliveries)
        if deliveries is not None:
            self.trace.traffic.extend(
                f"{r} {i} {j} {data.hex()}" for i, j, data in deliveries
            )
        self.stub_oracle.observe(
            r, {i: self.nodes[i].objects.slots for i in self.correct_ids}
        )
        # the round's one freshness sweep, for the trace and the generation sweep
        non_fresh = [self.nodes[i].objects.non_fresh_slots() for i in self.correct_ids]
        self._record(r, phase, coin_bit, reports, digest, non_fresh)
        self._end_incarnations(set().union(*non_fresh))

    def _record(
        self, r: int, phase: int, coin_bit: int, reports: dict, digest: str,
        non_fresh: list[list[int]],
    ) -> None:
        p = self.params
        nodes = self.nodes
        ids = self.correct_ids

        for i in ids:
            rep = reports[i]
            for slot in rep.recycled:
                key = (slot, self.slot_gen[slot])
                self.trace.evictions.setdefault(key, {}).setdefault(i, r)
            if rep.proposed_value is not None:
                key = (rep.active_slot, self.slot_gen[rep.active_slot])
                self.trace.proposals.setdefault(key, {}).setdefault(
                    i, (r, rep.proposed_value)
                )
            for slot, value in rep.retrievals:
                key = (slot, self.slot_gen[slot])
                self.trace.retrievals.setdefault(key, {}).setdefault(i, (r, repr(value)))

        at_cycle_end = phase == p.kappa - 1
        record = RoundRecord(
            round=r,
            phase=phase,
            coin=coin_bit,
            idx=tuple(nodes[i].sig.index for i in ids),
            mvc=tuple(nodes[i].mvc.current_result for i in ids),
            sample=(
                tuple(reports[i].sample for i in ids) if phase == 0 else None
            ),
            wd=tuple(nodes[i].was_delivered_active() for i in ids),
            save=tuple(nodes[i].sig.save for i in ids) if at_cycle_end else None,
            inc=tuple(nodes[i].sig.inc for i in ids) if at_cycle_end else None,
            quorum1=(
                tuple(int(nodes[i].sig.last_quorum == "ones") for i in ids)
                if at_cycle_end else None
            ),
            quorum0=(
                tuple(int(nodes[i].sig.last_quorum == "zeros") for i in ids)
                if at_cycle_end else None
            ),
            recycled=tuple(reports[i].recycled for i in ids),
            active=tuple(reports[i].active_slot for i in ids),
            non_fresh=tuple(map(len, non_fresh)),
            digest=digest,
        )
        self.trace.rounds.append(record)

    def _end_incarnations(self, in_use: set[int]) -> None:
        """Generation sweep: a slot's incarnation ends when every correct copy is fresh."""
        for slot in self.slots_in_use - in_use:
            self.slot_gen[slot] += 1
            self.stub_oracle.forget(slot)
        self.slots_in_use = in_use


def _jsonable_plan(plan: dict) -> dict:
    return json.loads(json.dumps(plan, default=repr))


def run_trial(config: TrialConfig) -> tuple[Trace, Metrics]:
    """Execute one seeded trial and derive its metrics from the trace."""
    engine = RoundEngine(config)
    trace = engine.run()
    metrics = compute_metrics(trace, config.params)
    return trace, metrics


# legality checking


def legality_violations(trace: Trace, params: Params) -> dict[str, list[int]]:
    """Rounds at which each legality predicate fails, over the whole trace.

    One sweep. Every round is checked for agreement. Every cycle-end round r
    also checks its index write against round r-1 (closure) and against the
    phase-0 delivery sample taken 2*kappa-1 rounds earlier: an increment
    needs a 1 in that sample (validity 1), and an all-ones sample needs an
    increment (validity 2).
    """
    kappa = params.kappa
    bound = params.index_num
    rows = trace.rounds
    viol: dict[str, list[int]] = {name: [] for name in VIOLATION_KINDS}

    for rec in rows:
        r, idx = rec.round, rec.idx
        agreed = len(set(idx)) == 1
        if not agreed:
            viol["index_agreement"].append(r)
        if len(set(rec.recycled)) > 1:
            viol["cor_agreement"].append(r)
        if rec.phase != kappa - 1 or r == 0:
            continue

        prev = rows[r - 1].idx
        prev_agreed = len(set(prev)) == 1
        incremented = agreed and prev_agreed and idx[0] == (prev[0] + 1) % bound
        sample_round = r - (2 * kappa - 1)
        sample = rows[sample_round].sample if sample_round >= 0 else None

        if prev_agreed:
            if idx != tuple((prev[0] + inc) % bound for inc in rec.inc):
                viol["closure"].append(r)
            if incremented and all(x == 1 for x in rec.inc) and 1 not in (sample or ()):
                viol["cor_validity1"].append(r)
        if sample is not None and all(s == 1 for s in sample) and not incremented:
            viol["cor_validity2"].append(r)
    return viol


def assumption1_violations(trace: Trace, from_round: int = 0) -> list[tuple]:
    """Instances whose result left some correct node's window unread.

    An instance counts once at least one correct node has read its result;
    eviction without a local read then breaks the bounded-retrieval promise.
    Evictions before from_round are ignored (state planted by the injector
    can be evicted unread during recovery).
    """
    bad = []
    for key, evs in trace.evictions.items():
        reads = trace.retrievals.get(key, {})
        if not reads:
            continue
        for node, ev_round in evs.items():
            if ev_round >= from_round and node not in reads:
                bad.append((key, node, ev_round))
    return bad


def instances_completed(trace: Trace) -> int:
    correct = set(trace.correct_ids)
    return sum(
        1 for reads in trace.retrievals.values() if correct.issubset(reads.keys())
    )


def compute_metrics(trace: Trace, params: Params) -> Metrics:
    """Stabilization and post-stabilization counts from one legality sweep.

    r* is the round after the last breach of any predicate. The trial is
    stabilized when at least one full clean cycle follows r*; its counts then
    cover rounds from r* on, so they are zero. Otherwise they cover the final
    max(10*kappa, rounds/4) rounds.
    """
    kappa = params.kappa
    total = len(trace.rounds)
    viol = legality_violations(trace, params)
    r_star = 1 + max((rounds[-1] for rounds in viol.values() if rounds), default=-1)
    stabilized = r_star <= total - kappa
    start = r_star if stabilized else max(0, total - max(10 * kappa, total // 4))
    # the first cycle whose end lies after the last index disagreement
    idx_bad = viol["index_agreement"]
    cycle = (idx_bad[-1] + 1 if idx_bad else 0) // kappa
    return Metrics(
        stabilized=stabilized,
        stabilization_round=r_star if stabilized else None,
        cycles_to_index_agreement=cycle if (cycle + 1) * kappa <= total else None,
        cor_violations={
            name: sum(1 for r in rounds if r >= start) for name, rounds in viol.items()
        },
        instances_completed=instances_completed(trace),
    )


# ensemble execution and CSV emission


def run_ensemble(config: TrialConfig, trials: int) -> list[tuple[TrialConfig, Metrics, Trace]]:
    """Run seed, seed+1, ... seed+trials-1; each trial is seed-isolated."""
    if trials < 1:
        raise ConfigError([f"trials >= 1 (got trials={trials})"])
    results = []
    for k in range(trials):
        trial = replace(config, params=replace(config.params, seed=config.params.seed + k))
        trace, metrics = run_trial(trial)
        results.append((trial, metrics, trace))
    return results


def emit(
    results: list[tuple[TrialConfig, Metrics, Trace]],
    out_path: str | None,
    strict: bool = False,
    trace_dir: str | None = None,
) -> tuple[str, int]:
    """Write one CSV row per trial plus a text summary; return (summary, exit code)."""
    rows = [metrics.csv_row(trial) for trial, metrics, _ in results]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(buf.getvalue())
    if trace_dir:
        for trial, _, trace in results:
            path = os.path.join(trace_dir, f"trace_{trial.params.seed}.json")
            with open(path, "wb") as fh:
                fh.write(trace.to_bytes())

    metrics = [m for _, m, _ in results]
    stab_rounds = [m.stabilization_round for m in metrics if m.stabilized]
    totals = {name: sum(m.cor_violations[name] for m in metrics) for name in VIOLATION_KINDS}
    unstable = len(metrics) - len(stab_rounds)
    lines = [
        f"trials: {len(metrics)}",
        f"stabilized: {len(stab_rounds)}/{len(metrics)}",
        f"median stabilization round: "
        f"{statistics.median(stab_rounds) if stab_rounds else 'n/a'}",
        f"instances completed (total): {sum(m.instances_completed for m in metrics)}",
        "violation totals (post-stabilization): "
        + ", ".join(f"{k}={v}" for k, v in totals.items()),
    ]
    exit_code = 1 if strict and (unstable or any(totals.values())) else 0
    return "\n".join(lines), exit_code
