"""corsim benchmark: one workload per process, closed loop, one thread.

    python3 bench/run.py --workload n4-worstsig-recovery --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 40        # every workload, one table

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the traced per-layer measurement. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. README.md next to
this file explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from workloads import BENCH_DIR, DEFAULT_SEED, ROOT, SRC, WORKLOADS, use_checkout_src

use_checkout_src()

import corsim.harness as harness  # noqa: E402  (after src/ is on the path)
import layers  # noqa: E402
import pace  # noqa: E402

DIGESTS = BENCH_DIR / "digests.json"
RECORDED_TRIALS = 32  # trials per workload whose digests are recorded at DEFAULT_SEED
SETUP_REPEATS = 15

# Per-layer times spent after RoundEngine.run returns, so not shares of it.
OUTSIDE_RUN = {"harness.legality_s", "harness.serialize_s", "harness.emit_s"}

# (name, unit) of every end-to-end metric; BENCHMARK.json lists the same ones.
END_TO_END = (
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("trial_s", "s"),
    ("ensemble_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Set up in a fresh interpreter: import corsim, then build one ensemble's engines.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from corsim.harness import RoundEngine
imported = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from workloads import WORKLOADS
w = WORKLOADS[sys.argv[3]]
configs = [w.config(int(sys.argv[4]) + k) for k in range(w.ensemble)]
start = time.perf_counter()
for config in configs:
    RoundEngine(config)
print(imported + time.perf_counter() - start)
"""


def first_decile(samples: list[float]) -> float:
    """The 10th percentile of repeats of the same work.

    Every sample times the same seeds, so the same simulated work. On a shared
    host, neighbours slow whole stretches of a run by 20-60%, so medians move
    with the host's load; the fast tail of identical repeats moves with the code.
    """
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[0]


def recorded_digests(workload: str, seed: int) -> dict[int, str]:
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return {}
    table = json.loads(DIGESTS.read_text()).get(workload, [])
    return {DEFAULT_SEED + k: digest for k, digest in enumerate(table)}


def trial_problems(trace, metrics, params, expected: str | None) -> tuple[str, list[str]]:
    """The trace digest and every reason the trial counts as failed.

    Post-stabilization violations are recounted from `legality_violations`,
    independently of how `compute_metrics` derived r*.
    """
    problems = []
    r_star = metrics.stabilization_round
    if r_star is None:
        problems.append("not stabilized")
    else:
        late = {kind: count for kind, rounds in harness.legality_violations(trace, params).items()
                if (count := sum(r >= r_star for r in rounds))}
        if late:
            problems.append(f"post-stabilization violations {late}")
    unread = harness.assumption1_violations(trace, r_star or 0)
    if unread:
        problems.append(f"{len(unread)} assumption-1 violations after r*")
    digest = trace.digest()
    if expected is not None and digest != expected:
        problems.append(f"digest differs from the expected {expected}")
    return digest, problems


class Tally:
    """Attempted and failed trials, with one printed line per trial."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, seed: int, digest: str, problems: list[str], detail: str):
        self.attempted += 1
        self.failed += bool(problems)
        outcome = "FAIL " + "; ".join(problems) if problems else "ok"
        print(f"{label} seed={seed} digest={digest} {detail} {outcome}")


def run_trial_timed(workload, seed: int, expected: str | None, tally: Tally):
    """Construct, run and score one trial; return (digest, run_s)."""
    config = workload.config(seed)
    try:
        engine = harness.RoundEngine(config)
        start = perf_counter()
        trace = engine.run()
        run_s = perf_counter() - start
        metrics = harness.compute_metrics(trace, config.params)
        digest, problems = trial_problems(trace, metrics, config.params, expected)
    except Exception:
        traceback.print_exc()
        tally.record("trial", seed, "-", ["raised"], "")
        return None
    detail = f"r*={metrics.stabilization_round} instances={metrics.instances_completed}"
    tally.record("trial", seed, digest, problems, detail)
    return digest, run_s


def run_ensemble_emit(workload, first_seed: int, count: int, out_dir: str, tally: Tally):
    """The `corsim run --trace --out` path; returns (seconds, results), or None if it raised."""
    start = perf_counter()
    try:
        results = harness.run_ensemble(workload.config(first_seed), count)
        harness.emit(results, os.path.join(out_dir, "runs.csv"), trace_dir=out_dir)
    except Exception:
        traceback.print_exc()
        for seed in range(first_seed, first_seed + count):
            tally.record("ensemble", seed, "-", ["raised"], "")
        return None
    return perf_counter() - start, results


def check_emitted(results, out_dir: str, digests: dict[int, str], tally: Tally) -> int:
    """Score an ensemble's trials against the expected digests and the files emit wrote.

    Returns the bytes of trace files written.
    """
    written = 0
    for trial, metrics, trace in results:
        seed = trial.params.seed
        digest, problems = trial_problems(trace, metrics, trial.params, digests.get(seed))
        raw = Path(out_dir, f"trace_{seed}.json").read_bytes()
        written += len(raw)
        if hashlib.sha256(raw).hexdigest() != digest:
            problems.append("emitted trace file differs from the in-memory trace")
        tally.record("ensemble", seed, digest, problems, "")
    return written


def measure_setup(workload, seed: int) -> float:
    """One set-up in a fresh interpreter: import corsim, construct one ensemble's engines."""
    done = subprocess.run(
        [sys.executable, "-I", "-B", "-c", SETUP_PROBE,
         str(SRC), str(BENCH_DIR), workload.name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def untraced_run(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics: repeat one window of seeds until `seconds` have passed.

    The window's trials first run one by one, untimed: that sets the digest
    each later trial of the seed must reproduce, and warms up. Each timed
    repeat then runs the window as one ensemble. The seeds are the same in
    every repeat, so the work and the verdict do not depend on how fast the
    host or the code is. Every timed sample is a whole ensemble or set-up,
    normalized by the host's pace measured on both sides of it (pace.py);
    the trials and engine runs inside an ensemble share its pace. Each metric
    is a median of normalized samples.
    """
    seeds = workload.seeds(seed)
    expected = recorded_digests(workload.name, seed)
    tally = Tally()
    for s in seeds:
        timed = run_trial_timed(workload, s, expected.get(s), tally)
        if timed is not None:
            expected.setdefault(s, timed[0])
    timer = layers.TrialTimer()
    pacer = pace.Pacer()
    setup, runs, trials, ensembles, raw_ensembles = [], defaultdict(list), [], [], []
    attempts = 0
    start = perf_counter()
    repeat_s = 0.0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-emit-") as out_dir, \
            timer.installed():
        # stop before a repeat that would end after `seconds`
        while not attempts or perf_counter() - start + repeat_s <= seconds:
            attempts += 1
            # spread the set-ups over the run, so that they meet its quiet stretches too
            while len(setup) < SETUP_REPEATS * min(1.0, (perf_counter() - start) / seconds):
                setup.append(pacer.paced(measure_setup(workload, seed)))
            began = perf_counter()
            done = run_ensemble_emit(workload, seeds[0], len(seeds), out_dir, tally)
            trial_times, run_times = timer.take()
            if done is not None:
                elapsed, results = done
                ensemble_s = pacer.paced(elapsed)
                scale = ensemble_s / elapsed
                ensembles.append(ensemble_s)
                raw_ensembles.append(elapsed)
                trials.extend(t * scale for t in trial_times)
                for s, run_s in run_times:
                    runs[s].append(run_s * scale)
                check_emitted(results, out_dir, expected, tally)
                del results
            repeat_s = perf_counter() - began
    while len(setup) < SETUP_REPEATS:
        setup.append(pacer.paced(measure_setup(workload, seed)))
    unmeasured = [s for s in seeds if not runs[s]] + ([] if ensembles else ["ensemble"])
    if unmeasured:
        raise SystemExit(f"raised on every repeat, so nothing was measured: {unmeasured}")
    engine_s = sum(statistics.median(runs[s]) for s in seeds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "rounds_per_s": len(seeds) * workload.rounds / engine_s,
        "trial_s": statistics.median(trials),
        "ensemble_s": statistics.median(ensembles),
        "peak_rss_mb": peak_kib / 1024,
    }
    print(f"samples: setup={len(setup)}, trials={len(trials)}, ensembles={len(ensembles)} "
          f"(repeats of seeds {seeds[0]}..{seeds[-1]})")
    print(f"ensemble wall-clock median before normalizing: "
          f"{statistics.median(raw_ensembles):.6g} s")
    print(f"failed_share {tally.failed / max(tally.attempted, 1):.4f} "
          f"({tally.failed} of {tally.attempted} trials)")
    metrics = {}
    for name, unit in END_TO_END:
        print(f"{name} {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def traced_run(workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics over a fixed window of trials, repeated for `seconds`.

    Each repeat runs the window untraced, then traced through run_ensemble and
    emit. Traced digests must equal untraced ones and exact counts must equal
    those of the first repeat. Times are first deciles over repeats.
    """
    expected = recorded_digests(workload.name, seed)
    tally = Tally()
    seeds = workload.seeds(seed)
    repeats, hits = [], Counter()
    first_counts = None
    attempts = 0
    start = perf_counter()
    repeat_s = 0.0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-emit-") as out_dir:
        while attempts < 2 or perf_counter() - start + repeat_s <= seconds:
            attempts += 1
            began = perf_counter()
            untraced, untraced_run_s = {}, 0.0
            for s in seeds:
                timed = run_trial_timed(workload, s, expected.get(s), tally)
                if timed is not None:
                    untraced[s] = timed[0]
                    expected.setdefault(s, timed[0])
                    untraced_run_s += timed[1]
            tracer = layers.Tracer()
            with layers.traced(tracer):
                done = run_ensemble_emit(workload, seed, len(seeds), out_dir, tally)
            hits.update(tracer.hits)
            repeat_s = perf_counter() - began
            if done is None:
                continue
            results = done[1]
            values = layers.layer_metrics(tracer)
            values["harness.trace_bytes"] = check_emitted(results, out_dir, untraced, tally)
            values["harness.instances_completed"] = sum(m.instances_completed for _, m, _ in results)
            values["untraced_run_s"] = untraced_run_s
            counts = {k: v for k, v in values.items() if isinstance(v, int)}
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                changed = sorted(k for k in counts if counts[k] != first_counts.get(k))
                print(f"FAIL exact counts changed between repeats: {changed}")
                tally.failed += len(seeds)
            repeats.append(values)
    missing = layers.missing_hits(hits, workload)
    if missing:
        raise SystemExit(f"wrapped names never called on {workload.name}: {missing}")
    if not repeats:
        raise SystemExit("every traced ensemble raised; nothing was measured")

    def fast(name: str) -> float:
        return first_decile([r[name] for r in repeats])

    window_rounds = len(seeds) * workload.rounds
    rates = {
        name: window_rounds / fast(key) if fast(key) else 0.0
        for name, key in (("tracing.rounds_per_s_traced", "harness.run_s"),
                          ("tracing.rounds_per_s_untraced", "untraced_run_s"))
    }
    run_s = fast("harness.run_s")
    print(f"repeats: {len(repeats)} of {len(seeds)} trials (seeds {seeds[0]}..{seeds[-1]})")
    metrics = {}
    for m in layers.PER_LAYER:
        if m.name in first_counts:
            value = first_counts[m.name]
        else:
            value = rates[m.name] if m.name in rates else fast(m.name)
        share = ""
        if m.name in OUTSIDE_RUN:
            share = " (outside RoundEngine.run)"
        elif m.unit == "s" and m.name != "harness.run_s":
            share = f" ({value / run_s:6.1%} of run)"
        print(f"{m.name} {value:.6g} {m.unit}{share}")
        metrics[m.name] = {"value": value, "unit": m.unit}
    overhead = metrics["tracing.rounds_per_s_untraced"]["value"] / metrics[
        "tracing.rounds_per_s_traced"]["value"]
    print(f"tracing overhead: traced runs take {overhead:.2f}x the untraced time")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def record_digests() -> None:
    """Write digests.json: the first RECORDED_TRIALS trace digests of each workload."""
    table = {}
    for name, workload in WORKLOADS.items():
        table[name] = [
            harness.RoundEngine(workload.config(DEFAULT_SEED + k)).run().digest()
            for k in range(RECORDED_TRIALS)
        ]
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process and print one table."""
    failed = False
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            print(f"{name}: exit {done.returncode}\n{done.stderr}")
            failed = True
            continue
        result = json.loads(lines[-1])
        failed |= not result["correct"]
        share = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} failed_share={share:.4f} "
              f"({result['failed']} of {result['attempted']} trials)")
        for metric, value in result["metrics"].items():
            print(f"  {metric:34} {value['value']:>14.6g} {value['unit']}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"rewrite {DIGESTS.name} from the current sources and exit")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(workload, args.seed, args.seconds)
    else:
        result = untraced_run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
