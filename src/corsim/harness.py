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
            "n": self.params.n,
            "t": self.params.t,
            "kappa": self.params.kappa,
            "index_states": self.params.index_states,
            "index_num": self.params.index_num,
            "log_size": self.params.log_size,
            "seed": self.params.seed,
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
        row = dict(config.meta())
        row["stabilized"] = int(self.stabilized)
        row["stabilization_round"] = (
            "" if self.stabilization_round is None else self.stabilization_round
        )
        row["cycles_to_index_agreement"] = (
            "" if self.cycles_to_index_agreement is None else self.cycles_to_index_agreement
        )
        for name in VIOLATION_KINDS:
            row[f"viol_{name}"] = self.cor_violations.get(name, 0)
        row["instances_completed"] = self.instances_completed
        return row


VIOLATION_KINDS = (
    "index_agreement",
    "cor_agreement",
    "closure",
    "cor_validity1",
    "cor_validity2",
)

CSV_COLUMNS = (
    "seed",
    "n",
    "t",
    "kappa",
    "index_states",
    "index_num",
    "log_size",
    "rounds",
    "adversary",
    "inject",
    "core",
    "dmax",
    "recycling",
    "stabilized",
    "stabilization_round",
    "cycles_to_index_agreement",
    *(f"viol_{name}" for name in VIOLATION_KINDS),
    "instances_completed",
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
    """Rounds at which each legality predicate fails, over the whole trace."""
    kappa = params.kappa
    bound = params.index_states
    rows = trace.rounds
    viol: dict[str, list[int]] = {name: [] for name in VIOLATION_KINDS}

    for rec in rows:
        if len(set(rec.idx)) > 1:
            viol["index_agreement"].append(rec.round)
        if len(set(rec.recycled)) > 1:
            viol["cor_agreement"].append(rec.round)

    for rec in rows:
        if rec.phase != kappa - 1 or rec.round == 0:
            continue
        prev = rows[rec.round - 1].idx
        if len(set(prev)) != 1:
            continue
        v = prev[0]
        expected = tuple((v + rec.inc[k]) % bound for k in range(len(rec.idx)))
        if rec.idx != expected:
            viol["closure"].append(rec.round)

        # an increment must trace back to a delivery report sampled 2 cycles back
        if len(set(rec.idx)) == 1 and rec.idx[0] == (v + 1) % bound and all(
            x == 1 for x in rec.inc
        ):
            sample_round = rec.round - (2 * kappa - 1)
            if sample_round < 0:
                viol["cor_validity1"].append(rec.round)
            else:
                samples = rows[sample_round].sample or ()
                if not any(s == 1 for s in samples):
                    viol["cor_validity1"].append(rec.round)

    for rec in rows:
        if rec.phase != 0 or rec.sample is None:
            continue
        if not all(s == 1 for s in rec.sample):
            continue
        due = rec.round + 2 * kappa - 1
        if due >= len(rows):
            continue
        before, after = rows[due - 1].idx, rows[due].idx
        incremented = (
            len(set(before)) == 1
            and len(set(after)) == 1
            and after[0] == (before[0] + 1) % bound
        )
        if not incremented:
            viol["cor_validity2"].append(due)
    return viol


@dataclass
class StabilizationReport:
    violations: dict
    stabilization_round: int | None
    cycles_to_index_agreement: int | None

    @property
    def stabilized(self) -> bool:
        return self.stabilization_round is not None


def measure_stabilization(trace: Trace, params: Params) -> StabilizationReport:
    """First round after which every legality predicate holds through end-of-run.

    Reported only when at least one full clean cycle was observed; otherwise
    the trace counts as not stabilized.
    """
    viol = legality_violations(trace, params)
    total_rounds = len(trace.rounds)
    last_bad = max((rounds[-1] for rounds in viol.values() if rounds), default=-1)
    r_star = last_bad + 1
    stabilization = r_star if r_star <= total_rounds - params.kappa else None

    idx_bad = viol["index_agreement"]
    idx_anchor = (idx_bad[-1] + 1) if idx_bad else 0
    first_cycle_end = (idx_anchor // params.kappa) * params.kappa + params.kappa - 1
    if first_cycle_end < idx_anchor:
        first_cycle_end += params.kappa
    cycles = first_cycle_end // params.kappa if first_cycle_end < total_rounds else None
    return StabilizationReport(
        violations=viol,
        stabilization_round=stabilization,
        cycles_to_index_agreement=cycles,
    )


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
    report = measure_stabilization(trace, params)
    total_rounds = len(trace.rounds)
    if report.stabilized:
        counts = {name: 0 for name in VIOLATION_KINDS}
    else:
        # persistent illegality: count breaches in the final quarter of the run
        tail = max(0, total_rounds - max(params.kappa * 10, total_rounds // 4))
        counts = {
            name: sum(1 for r in rounds if r >= tail)
            for name, rounds in report.violations.items()
        }
    return Metrics(
        stabilized=report.stabilized,
        stabilization_round=report.stabilization_round,
        cycles_to_index_agreement=report.cycles_to_index_agreement,
        cor_violations=counts,
        instances_completed=instances_completed(trace),
    )


# ensemble execution and CSV emission


def run_ensemble(config: TrialConfig, trials: int) -> list[tuple[TrialConfig, Metrics, Trace]]:
    """Run seed, seed+1, ... seed+trials-1; each trial is seed-isolated."""
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
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for trial, metrics, _ in results:
        writer.writerow(metrics.csv_row(trial))
    csv_text = buf.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(csv_text)
    if trace_dir:
        for trial, _, trace in results:
            path = os.path.join(trace_dir, f"trace_{trial.params.seed}.json")
            with open(path, "wb") as fh:
                fh.write(trace.to_bytes())

    stab_rounds = [
        m.stabilization_round for _, m, _ in results if m.stabilization_round is not None
    ]
    totals = {name: 0 for name in VIOLATION_KINDS}
    for _, m, _ in results:
        for name in VIOLATION_KINDS:
            totals[name] += m.cor_violations.get(name, 0)
    unstable = sum(1 for _, m, _ in results if not m.stabilized)
    lines = [
        f"trials: {len(results)}",
        f"stabilized: {len(results) - unstable}/{len(results)}",
        f"median stabilization round: "
        f"{statistics.median(stab_rounds) if stab_rounds else 'n/a'}",
        f"instances completed (total): "
        f"{sum(m.instances_completed for _, m, _ in results)}",
        "violation totals (post-stabilization): "
        + ", ".join(f"{k}={v}" for k, v in totals.items()),
    ]
    summary = "\n".join(lines)
    exit_code = 0
    if strict and (unstable or any(v for v in totals.values())):
        exit_code = 1
    return summary, exit_code
