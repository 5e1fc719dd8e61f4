"""Per-layer tracing of corsim from outside the package.

Spans wrap coarse calls and accumulate self time, the span's duration minus
the time its child spans cover. Counters wrap hot fine-grained calls and only
count, so that their cost stays small. Every wrapper replaces a name where
corsim looks it up at call time: a method on its class, or a global of the
module that makes the call (``corsim.harness.exchange``, not
``corsim.transport.exchange``). ``corsim.env.derived_int`` is not wrapped:
env defines it but never calls it, so no call goes through that name.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from workloads import use_checkout_src

use_checkout_src()

import corsim.harness as harness  # noqa: E402  (after src/ is on the path)
from corsim.cores import CORE_FAULT  # noqa: E402


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


# Every metric a traced run reports; BENCHMARK.json lists the same ones.
PER_LAYER = (
    Metric("adversary.outboxes_s", "s", "lower"),
    Metric("adversary.envelopes", "count", "lower"),
    Metric("node.step_self_s", "s", "lower"),
    Metric("node.envelopes_built", "count", "lower"),
    Metric("mvc.pulse_s", "s", "lower"),
    Metric("mvc.process_s", "s", "lower"),
    Metric("mvc.resolve_s", "s", "lower"),
    Metric("mvc.entries_sent", "count", "lower"),
    Metric("mvc.tree_size_max", "count", "lower"),
    Metric("sig_index.pulse_s", "s", "lower"),
    Metric("sig_index.branch_ones", "count", "higher"),
    Metric("sig_index.branch_zeros", "count", "lower"),
    Metric("sig_index.branch_coin", "count", "lower"),
    Metric("recycler.pulse_s", "s", "lower"),
    Metric("recycler.non_fresh_s", "s", "lower"),
    Metric("recycler.slots_recycled", "count", "higher"),
    Metric("recycler.window_calls", "count", "lower"),
    Metric("recyclable.pulse_step_s", "s", "lower"),
    Metric("recyclable.is_fresh_calls", "count", "lower"),
    Metric("recyclable.observe_result_calls", "count", "lower"),
    Metric("cores.step_s", "s", "lower"),
    Metric("cores.oracle_observe_s", "s", "lower"),
    Metric("cores.faults", "count", "lower"),
    Metric("env.derived_int_calls", "count", "lower"),
    Metric("env.coin_draws", "count", "lower"),
    Metric("transport.exchange_s", "s", "lower"),
    Metric("transport.digest_s", "s", "lower"),
    Metric("transport.envelopes_delivered", "count", "lower"),
    Metric("transport.serialized_bytes", "bytes", "lower"),
    Metric("harness.run_s", "s", "lower"),
    Metric("harness.round_self_s", "s", "lower"),
    Metric("harness.legality_s", "s", "lower"),
    Metric("harness.serialize_s", "s", "lower"),
    Metric("harness.emit_s", "s", "lower"),
    Metric("harness.trace_bytes", "bytes", "lower"),
    Metric("harness.rounds", "count", "higher"),
    Metric("harness.instances_completed", "count", "higher"),
    Metric("tracing.rounds_per_s_traced", "1/s", "higher"),
    Metric("tracing.rounds_per_s_untraced", "1/s", "higher"),
)


class Tracer:
    """Span self times, span totals, counts, and hits per wrapped name."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        # time covered by child spans, one entry per open span plus the root
        self._stack = [0.0]


def _span(tracer: Tracer, target: str, name: str, fn, after):
    stack, self_s, total_s, hits = tracer._stack, tracer.self_s, tracer.total_s, tracer.hits

    def wrapper(*args, **kwargs):
        hits[target] += 1
        stack.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            inner = stack.pop()
            stack[-1] += elapsed
            self_s[name] += elapsed - inner
            total_s[name] += elapsed
        if after is not None:
            after(tracer.counts, args, result)
        return result

    return wrapper


def _counter(tracer: Tracer, target: str, name: str, fn, after):
    hits, counts = tracer.hits, tracer.counts

    if after is None:
        def wrapper(*args, **kwargs):
            hits[target] += 1
            counts[name] += 1
            return fn(*args, **kwargs)
    else:
        def wrapper(*args, **kwargs):
            hits[target] += 1
            result = fn(*args, **kwargs)
            after(counts, args, result)
            return result

    return wrapper


def _always(workload) -> bool:
    return True


def _stub(workload) -> bool:
    return workload.core == "stub"


def _mmr(workload) -> bool:
    return workload.core == "mmr-lite"


def _equivocate(workload) -> bool:
    return workload.adversary == "equivocate"


def _add(name: str, measure: Callable) -> Callable:
    def after(counts, args, result) -> None:
        counts[name] += measure(args, result)

    return after


def _tree_size(counts, args, result) -> None:
    counts["mvc.tree_size_max"] = max(counts["mvc.tree_size_max"], len(args[0].tree))


def _index_branch(counts, args, result) -> None:
    sig, phase = args[0], args[1]
    if phase == sig.params.kappa - 1:
        counts[f"sig_index.branch_{sig.last_quorum}"] += 1


def _fault(counts, args, result) -> None:
    if result is not None and result[0] == CORE_FAULT:
        counts["cores.faults"] += 1


@dataclass(frozen=True)
class Hook:
    target: str  # "module:Class.method" or "module:function"
    metric: str  # span metric (self time) or counter metric
    span: bool
    required: Callable = _always  # workloads on which the name must be hit
    after: Callable | None = None  # counts taken from the call's arguments and result


HOOKS = (
    Hook("corsim.harness:RoundEngine.run", "harness.round_self_s", True,
         after=_add("harness.rounds", lambda a, r: len(r.rounds))),
    Hook("corsim.adversary:Adversary.byz_outboxes", "adversary.outboxes_s", True,
         after=_add("adversary.envelopes", lambda a, r: sum(map(len, r.values())))),
    Hook("corsim.node:CorrectNode.step", "node.step_self_s", True,
         after=_add("node.envelopes_built", lambda a, r: len(r[0]))),
    Hook("corsim.mvc:MvcController.pulse", "mvc.pulse_s", True,
         after=_add("mvc.entries_sent",
                    lambda a, r: sum(len(p.entries) for p in r.values()))),
    Hook("corsim.mvc:EigConsensus.process", "mvc.process_s", True, after=_tree_size),
    Hook("corsim.mvc:EigConsensus.result", "mvc.resolve_s", True),
    Hook("corsim.sig_index:SigIndex.pulse", "sig_index.pulse_s", True, after=_index_branch),
    Hook("corsim.recycler:ObjectArray.recycler_pulse", "recycler.pulse_s", True,
         after=_add("recycler.slots_recycled", lambda a, r: len(r))),
    Hook("corsim.recycler:ObjectArray.non_fresh_slots", "recycler.non_fresh_s", True),
    Hook("corsim.recycler:window", "recycler.window_calls", False),
    Hook("corsim.node:window", "recycler.window_calls", False),
    Hook("corsim.recyclable:RecyclableObject.pulse_step", "recyclable.pulse_step_s", True),
    Hook("corsim.recyclable:RecyclableObject.is_fresh", "recyclable.is_fresh_calls", False),
    Hook("corsim.recyclable:RecyclableObject.observe_result",
         "recyclable.observe_result_calls", False),
    Hook("corsim.cores:DelayStubCore.step", "cores.step_s", True, required=_stub),
    Hook("corsim.cores:MmrLiteCore.step", "cores.step_s", True, required=_mmr),
    Hook("corsim.cores:DelayStubCore.decided", "cores.faults", False, required=_stub,
         after=_fault),
    Hook("corsim.cores:MmrLiteCore.decided", "cores.faults", False, required=_mmr,
         after=_fault),
    Hook("corsim.cores:StubOracle.observe", "cores.oracle_observe_s", True),
    Hook("corsim.cores:derived_int", "env.derived_int_calls", False),
    Hook("corsim.adversary:derived_int", "env.derived_int_calls", False,
         required=_equivocate),
    Hook("corsim.harness:derived_int", "env.derived_int_calls", False),
    Hook("corsim.env:CoinOracle.draw", "env.coin_draws", False),
    Hook("corsim.harness:exchange", "transport.exchange_s", True,
         after=_add("transport.envelopes_delivered",
                    lambda a, r: sum(len(m.inbox) for m in r.values()))),
    Hook("corsim.harness:traffic_digest", "transport.digest_s", True),
    Hook("corsim.transport:serialize_envelope", "transport.serialized_bytes", False,
         after=_add("transport.serialized_bytes", lambda a, r: len(r))),
    Hook("corsim.harness:legality_violations", "harness.legality_s", True),
    Hook("corsim.harness:Trace.to_bytes", "harness.serialize_s", True),
    Hook("corsim.harness:emit", "harness.emit_s", True),
)


def _owner(target: str):
    """The object that holds the wrapped name, and the name itself.

    Raises AttributeError when the name is not defined on that object, so a
    rename in corsim stops the traced run instead of silently adding a new
    attribute that nothing calls.
    """
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if attr not in vars(owner):
        raise AttributeError(f"{target} is not defined; update the benchmark's hooks")
    return owner, attr


@contextmanager
def traced(tracer: Tracer, hooks=HOOKS):
    """Install every hook for the duration of the block, then restore the originals."""
    installed = []
    try:
        for hook in hooks:
            owner, attr = _owner(hook.target)
            original = vars(owner)[attr]
            make = _span if hook.span else _counter
            # a counter without an after-hook counts its calls under hook.metric
            setattr(owner, attr, make(tracer, hook.target, hook.metric, original, hook.after))
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


class TrialTimer:
    """Seconds of every trial that `run_ensemble` runs, and of its engine run.

    It wraps `harness.run_trial`, where `run_ensemble` looks it up, and
    `RoundEngine.run`, and takes four timestamps per trial, so the end-to-end
    runs keep it on. `take` returns what was timed since the last call.
    """

    def __init__(self) -> None:
        self.trials: list[float] = []
        self.runs: list[tuple[int, float]] = []  # (trial seed, seconds)

    def take(self) -> tuple[list[float], list[tuple[int, float]]]:
        taken = self.trials, self.runs
        self.trials, self.runs = [], []
        return taken

    @contextmanager
    def installed(self):
        original_trial = harness.run_trial
        original_run = vars(harness.RoundEngine)["run"]

        def run_trial(config):
            start = perf_counter()
            result = original_trial(config)
            self.trials.append(perf_counter() - start)
            return result

        def run(engine):
            start = perf_counter()
            trace = original_run(engine)
            self.runs.append((engine.params.seed, perf_counter() - start))
            return trace

        harness.run_trial = run_trial
        harness.RoundEngine.run = run
        try:
            yield self
        finally:
            harness.run_trial = original_trial
            harness.RoundEngine.run = original_run


def missing_hits(hits: dict[str, int], workload, hooks=HOOKS) -> list[str]:
    """Wrapped names the workload is meant to exercise but never called."""
    return [h.target for h in hooks if h.required(workload) and not hits.get(h.target)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self times of every span metric, the engine's total time, and all counts."""
    values: dict[str, float] = {}
    for hook in HOOKS:
        if hook.span:
            values[hook.metric] = tracer.self_s[hook.metric]
        else:
            values.setdefault(hook.metric, 0)
    values["harness.run_s"] = tracer.total_s["harness.round_self_s"]
    for name, count in tracer.counts.items():
        values[name] = count
    for branch in ("ones", "zeros", "coin"):
        values.setdefault(f"sig_index.branch_{branch}", 0)
    return values
