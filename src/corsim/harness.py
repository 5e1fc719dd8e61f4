"""Scenario runner: the lock-step round engine, traces, metrics and legality checks.

Each simulated round runs, in order: each correct node's mail is read, the
adversary fixes all Byzantine outboxes, the coin is revealed, every correct
node computes its step, and the transport delivers everything for the next
round. A one-shot state corruption may be applied before round 0.

The trace records enough per-round state to re-check every protocol
property offline: indices, floating consensus outputs, phase-0 input
samples, delivery indications, recycle events and a digest of the round's
traffic. Identical configurations produce byte-identical traces.

A trace's memory follows its records, not a JSON tree of them. `Trace.digest`
hashes the JSON text one piece at a time, and `Trace.to_bytes` holds only the
output bytes plus one chunk of `TRACE_CHUNK_ROWS` rows being encoded. A round
keeps the previous round's tuple for each field of ints that did not change.
A 30,000-round traced `corsim run` (n=4, mmr-lite, log_size 30, index_num 64)
peaks at 41.6 MB of RSS, against about 101 MB when the whole tree was built
first (2-CPU Linux host, Python 3.11). `corsim run` writes each trial's trace
file as the trial ends (`stream_ensemble`), so it holds one trace at a time.

An engine is built and run with CPython's cyclic garbage collector paused
(`collector_paused`). EIG leaves thousands of live label and pair tuples
each round, which the collector would walk again and again, yet a trial
builds no reference cycle, so reference counting alone frees all it
allocates. On n10-eig-split the collector took about 7% of engine time. If
a cycle appears, `test_trace_digest_unchanged` in tests/test_golden_digests.py
fails: it asserts that `gc.collect()` finds nothing after each golden trial.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import os
from collections import defaultdict
from collections.abc import Callable, Iterator, KeysView
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .adversary import INJECT_MODES, POLICIES, Adversary, AdversaryView, inject, plan_corruption
from .cores import DelayStubCore, StubOracle, mmr_core_factory
from .env import CoinOracle, Params, clock_read, derived_int, params_validate
from .node import CorrectNode, read_round
from .transport import Envelope, RoundMail, exchange, traffic_digest

REVEAL_ORDER = ("byz_outboxes", "coin_reveal", "node_compute")

CORES = ("stub", "mmr-lite")

# Size limits, checked before a trial allocates anything. Each correct node's
# EIG stores (n)_(t+1) leaf labels per cycle: (17)_5 = 742,560 is admitted,
# and no t >= 5 is, since (16)_6 = 5,765,760 is the smallest such count.
# `targeted` inject plants one completed level per trial, which every correct
# node shares, not one per node.
EIG_LEAF_LIMIT = 1_000_000
# Objects are built on first touch, but `full` inject builds and garbles about
# half of each node's index_num slots (about 1 KB each under mmr-lite).
OBJECT_LIMIT = 262_144
# Each round builds an outbox entry per (correct sender, node) pair, and a
# trace's delivery headers hold node ids as u16; n^2 <= 2^20 bounds both.
DELIVERY_LIMIT = 1 << 20


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block, or each call of the decorated function, with the cyclic
    garbage collector off.

    The collector is enabled again on exit, even when the block raises, only
    if it was enabled on entry, so nested pauses and callers that turned it
    off themselves keep their state.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _eig_leaves_above(n: int, t: int, limit: int) -> bool:
    """Whether (n)_(t+1) = n(n-1)...(n-t) exceeds limit; stops once it does."""
    leaves = 1
    for factor in range(n, n - t - 1, -1):
        leaves *= factor
        if leaves > limit:
            return True
    return False


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
        problems = params_validate(self.params)
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
        p = self.params
        if not problems and _eig_leaves_above(p.n, p.t, EIG_LEAF_LIMIT):
            problems.append(
                f"(n)_(t+1) = ({p.n})_{p.t + 1} EIG leaf labels per node exceed the "
                f"limit of {EIG_LEAF_LIMIT:,}"
            )
        objects = p.index_num * (p.n - p.t)
        if not problems and objects > OBJECT_LIMIT:
            problems.append(
                f"index_num x (n-t) = {p.index_num:,} x {p.n - p.t} = {objects:,} "
                f"recyclable objects exceed the limit of {OBJECT_LIMIT:,}"
            )
        if not problems and p.n * p.n > DELIVERY_LIMIT:
            problems.append(
                f"n^2 = {p.n * p.n:,} deliveries per round exceed the limit of "
                f"{DELIVERY_LIMIT:,}"
            )
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


@dataclass(slots=True)
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
    branch: tuple | None  # each node's last_quorum at a cycle end
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

    def to_bytes(self) -> bytes:
        # getvalue() hands over the buffer without a copy
        buf = io.BytesIO()
        for piece in self._pieces():
            buf.write(piece.encode())
        return buf.getvalue()

    def digest(self) -> str:
        h = hashlib.sha256()
        for piece in self._pieces():
            h.update(piece.encode())
        return h.hexdigest()

    def _pieces(self) -> Iterator[str]:
        """The trace's JSON text, in order, as consecutive pieces.

        The text is what `json.dumps(tree, sort_keys=True, separators=(",", ":"))`
        gives for the whole trace. The top-level keys come in sorted order;
        `rounds` and `traffic` come a chunk of rows at a time, so no JSON tree
        of the whole trace is ever built.
        """
        whole = {
            "meta": self.meta,
            "correct_ids": self.correct_ids,
            "byz_ids": self.byz_ids,
            "reveal_order": self.reveal_order,
            "corruption": self.corruption,
            "retrievals": _by_instance(self.retrievals),
            "proposals": _by_instance(self.proposals),
            "evictions": _by_instance(self.evictions),
        }
        streamed = {"rounds": (self.rounds, _round_json), "traffic": (self.traffic, None)}
        sep = "{"
        for key in sorted(whole.keys() | streamed.keys()):
            yield f"{sep}{_ENCODER.encode(key)}:"
            sep = ","
            if key in streamed:
                yield from _array_pieces(*streamed[key])
            else:
                yield _ENCODER.encode(whole[key])
        yield "}"


# Trace JSON: sorted keys, no whitespace, ASCII. Arrays of rows are encoded
# TRACE_CHUNK_ROWS rows at a time, which bounds what serialization allocates
# beyond the records themselves.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
TRACE_CHUNK_ROWS = 256


def _array_pieces(rows: list, row_json: Callable | None) -> Iterator[str]:
    """A JSON array of rows, encoded a chunk of rows at a time."""
    yield "["
    for start in range(0, len(rows), TRACE_CHUNK_ROWS):
        chunk = rows[start:start + TRACE_CHUNK_ROWS]
        if row_json is not None:
            chunk = [row_json(row) for row in chunk]
        # the chunk's array without its brackets
        yield ("," if start else "") + _ENCODER.encode(chunk)[1:-1]
    yield "]"


def _round_json(r: RoundRecord) -> dict:
    """The JSON shape of one round; tuples encode as arrays."""
    return {
        "round": r.round,
        "phase": r.phase,
        "coin": r.coin,
        "idx": r.idx,
        "mvc": [repr(v) for v in r.mvc],
        "sample": r.sample,
        "wd": r.wd,
        "save": None if r.save is None else [repr(v) for v in r.save],
        "inc": r.inc,
        "quorum1": None if r.branch is None else [int(b == "ones") for b in r.branch],
        "quorum0": None if r.branch is None else [int(b == "zeros") for b in r.branch],
        "recycled": r.recycled,
        "active": r.active,
        "non_fresh": r.non_fresh,
        "digest": r.digest,
    }


def _by_instance(table: dict) -> dict:
    """(slot, gen) -> node -> entry, keyed "slot:gen" -> "node" for JSON."""
    return {
        f"{slot}:{gen}": {str(i): entry for i, entry in per_node.items()}
        for (slot, gen), per_node in table.items()
    }


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

    @collector_paused()
    def __init__(self, config: TrialConfig):
        config.check()
        self.config = config
        p = config.params
        self.params = p
        self.node_ids = list(range(p.n))
        self.byz_ids = list(range(p.n - p.t, p.n))
        self.correct_ids = self.node_ids[: p.n - p.t]

        self.coin = CoinOracle(p.seed)
        self.slot_gen: defaultdict[int, int] = defaultdict(int)
        # slots not fresh at some correct node after the last round
        self.slots_in_use: set[int] = set()

        # the proposer holds slot_gen, not the engine: with no reference
        # cycle, a finished engine is freed at once instead of at the next
        # full garbage collection
        slot_gen = self.slot_gen

        def proposer(slot: int, node_id: int) -> int:
            return derived_int(p.seed, "proposal", slot, slot_gen[slot], node_id, bound=2)

        if config.core == "stub":
            factory = lambda slot: DelayStubCore()
        else:
            factory = mmr_core_factory(p.n, p.t, p.seed)
        self.nodes: dict[int, CorrectNode] = {}
        for i in self.correct_ids:
            node = CorrectNode(p, i, factory, proposer)
            if not config.recycling:
                node.fixed_slot = 0
            self.nodes[i] = node
        # the stub oracle is bound once to each node's live objects, since no
        # live-object dict is ever replaced; mmr-lite objects have no oracle
        live = {i: node.objects.live for i, node in self.nodes.items()}
        self.stub_oracle = StubOracle(p.seed, config.dmax, live if config.core == "stub" else {})

        self.adversary = Adversary(config.adversary, p, self.byz_ids)
        self.trace = Trace(
            meta=config.meta(),
            correct_ids=tuple(self.correct_ids),
            byz_ids=tuple(self.byz_ids),
        )
        # round-0 mail has one empty shared part; inject plants in the own parts
        shared: dict = {}
        self.pending: dict[int, RoundMail] = {i: RoundMail(shared, {}) for i in self.node_ids}

        plan = plan_corruption(config.inject, p, self.correct_ids)
        inject(self.nodes, self.pending, plan, p)
        self.trace.corruption = {"mode": config.inject, "plan": _jsonable_plan(plan)}

    @collector_paused()
    def run(self) -> Trace:
        for r in range(self.config.rounds):
            self._round(r)
        return self.trace

    def _round(self, r: int) -> None:
        p = self.params
        phase = clock_read(r, p.kappa)

        # each correct receiver's mail, read once, after any plant: the
        # adversary's predictions and the node's step take the same reading
        readings = read_round(self.pending, self.correct_ids, phase, p)
        byz_out = self.adversary.byz_outboxes(
            AdversaryView(
                round=r,
                phase=phase,
                params=p,
                correct_nodes=self.nodes,
                mail=self.pending,
                readings=readings,
            )
        )
        coin_bit = self.coin.draw(r)

        memo: dict = {}  # EIG's levels and resolves, shared by every receiver
        outboxes: dict[int, dict[int, Envelope]] = {}
        reports = {}
        for i in self.correct_ids:
            outbox, report = self.nodes[i].step(phase, readings[i], coin_bit, memo)
            outboxes[i] = outbox
            reports[i] = report
        for b, box in byz_out.items():
            outboxes[b] = box

        self.pending = exchange(r, outboxes, self.node_ids, self.correct_ids)
        deliveries = [] if self.config.log_traffic else None
        # every receiver's mail holds the round's one shared part
        digest = traffic_digest(outboxes, self.pending[0].shared, deliveries)
        if deliveries is not None:
            self.trace.traffic.extend(
                f"{r} {i} {j} {data.hex()}" for i, j, data in deliveries
            )
        self.stub_oracle.observe(r)
        # the round's one freshness sweep, for the trace and the generation sweep
        non_fresh = [self.nodes[i].objects.non_fresh_slots() for i in self.correct_ids]
        self._record(r, phase, coin_bit, reports, digest, non_fresh)
        self._end_incarnations(set().union(*non_fresh))

    def _record(
        self, r: int, phase: int, coin_bit: int, reports: dict, digest: str,
        non_fresh: list[KeysView[int]],
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
                slot = nodes[i].active_slot()
                key = (slot, self.slot_gen[slot])
                self.trace.proposals.setdefault(key, {}).setdefault(
                    i, (r, rep.proposed_value)
                )
            for slot, value in rep.retrievals:
                key = (slot, self.slot_gen[slot])
                self.trace.retrievals.setdefault(key, {}).setdefault(i, (r, repr(value)))

        # A field that holds only ints takes the previous round's tuple when
        # the new one equals it: equal tuples of ints encode alike and a tuple
        # is never mutated, so a steady run keeps one copy. mvc and save never
        # do: they hold arbitrary values whose repr enters the trace, and
        # True == 1 while repr(True) != repr(1).
        idx = tuple([nodes[i].sig.index for i in ids])
        wd = tuple([nodes[i].was_delivered_active() for i in ids])
        recycled = tuple([reports[i].recycled for i in ids])
        active = tuple([nodes[i].active_slot() for i in ids])
        counts = tuple(map(len, non_fresh))
        rows = self.trace.rounds
        if rows:
            prev = rows[-1]
            if idx == prev.idx:
                idx = prev.idx
            if wd == prev.wd:
                wd = prev.wd
            if recycled == prev.recycled:
                recycled = prev.recycled
            if active == prev.active:
                active = prev.active
            if counts == prev.non_fresh:
                counts = prev.non_fresh

        at_cycle_end = phase == p.kappa - 1
        record = RoundRecord(
            round=r,
            phase=phase,
            coin=coin_bit,
            idx=idx,
            mvc=tuple([nodes[i].mvc.current_result for i in ids]),
            sample=(
                tuple([reports[i].sample for i in ids]) if phase == 0 else None
            ),
            wd=wd,
            save=tuple([nodes[i].sig.save for i in ids]) if at_cycle_end else None,
            inc=tuple([nodes[i].sig.inc for i in ids]) if at_cycle_end else None,
            branch=tuple([nodes[i].sig.last_quorum for i in ids]) if at_cycle_end else None,
            recycled=recycled,
            active=active,
            non_fresh=counts,
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


def trial_configs(config: TrialConfig, trials: int) -> list[TrialConfig]:
    """The configs of seed, seed+1, ... seed+trials-1; each trial is seed-isolated."""
    if trials < 1:
        raise ConfigError([f"trials >= 1 (got trials={trials})"])
    return [
        replace(config, params=replace(config.params, seed=config.params.seed + k))
        for k in range(trials)
    ]


def run_ensemble(config: TrialConfig, trials: int) -> list[tuple[TrialConfig, Metrics, Trace]]:
    """Run every trial of the ensemble and keep each one's trace."""
    results = []
    for trial in trial_configs(config, trials):
        trace, metrics = run_trial(trial)
        results.append((trial, metrics, trace))
    return results


def stream_ensemble(
    config: TrialConfig, trials: int, trace_dir: str | None = None
) -> list[tuple[TrialConfig, Metrics]]:
    """Run every trial, writing its trace file as it ends; keep only the metrics.

    Memory holds one trial's trace at a time, not the whole ensemble's.
    """
    results = []
    for trial in trial_configs(config, trials):
        trace, metrics = run_trial(trial)
        if trace_dir:
            write_trace(trace, trial, trace_dir)
        results.append((trial, metrics))
    return results


def write_trace(trace: Trace, trial: TrialConfig, trace_dir: str) -> None:
    path = os.path.join(trace_dir, f"trace_{trial.params.seed}.json")
    with open(path, "wb") as fh:
        fh.write(trace.to_bytes())


def _median(values: list[int]) -> float:
    """The middle value, or the mean of the two middle ones for an even count."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def emit(
    results: list[tuple[TrialConfig, Metrics, Trace]],
    out_path: str | None,
    strict: bool = False,
    trace_dir: str | None = None,
) -> tuple[str, int]:
    """Write one CSV row per trial, then each trace when trace_dir is set; see `summarize`."""
    outcome = summarize([(trial, metrics) for trial, metrics, _ in results], out_path, strict)
    if trace_dir:
        for trial, _, trace in results:
            write_trace(trace, trial, trace_dir)
    return outcome


def summarize(
    results: list[tuple[TrialConfig, Metrics]],
    out_path: str | None,
    strict: bool = False,
) -> tuple[str, int]:
    """Write one CSV row per trial plus a text summary; return (summary, exit code)."""
    if out_path:
        rows = [metrics.csv_row(trial) for trial, metrics in results]
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    metrics = [m for _, m in results]
    stab_rounds = [m.stabilization_round for m in metrics if m.stabilized]
    totals = {name: sum(m.cor_violations[name] for m in metrics) for name in VIOLATION_KINDS}
    unstable = len(metrics) - len(stab_rounds)
    completed = sum(m.instances_completed for m in metrics)
    lines = [
        f"trials: {len(metrics)}",
        f"stabilized: {len(stab_rounds)}/{len(metrics)}",
        f"median stabilization round: "
        f"{_median(stab_rounds) if stab_rounds else 'n/a'}",
        f"instances completed (total): {completed}",
        "violation totals (post-stabilization): "
        + ", ".join(f"{k}={v}" for k, v in totals.items()),
    ]
    failures = []
    if unstable:
        failures.append(f"{unstable} trial(s) did not stabilize")
    if any(totals.values()):
        failures.append("post-stabilization violations")
    if not completed:
        # every predicate holds trivially when no object ever decides
        failures.append("no instance completed, so recycling was never exercised")
    exit_code = 0
    if strict and failures:
        lines.append("strict check failed: " + "; ".join(failures))
        exit_code = 1
    return "\n".join(lines), exit_code
