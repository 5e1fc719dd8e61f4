"""What a round of broadcasts costs at n=31, t=1: rounds per second and trace digests.

    python3 scripts/broadcast_scale.py
    python3 scripts/broadcast_scale.py --side before=/path/to/parent/src --side after=src

Each measurement runs in a fresh interpreter that imports corsim from the
given `src` directory (default: the one next to this script), so one side's
caches and peak RSS never reach the other's. Each repeat measures every
side, and odd repeats take the sides in reverse order. A measurement builds
one engine at n=31, t=1 (stub core, log_size 3, index_num 8, seed 1) for
each case below, runs it for 200 rounds and reports the engine's rounds per
second, its peak RSS and the trace digest:

- `silent` adversary, no injection: every arrival but one per receiver is a
  correct broadcast;
- `random` adversary, `full` injection: Byzantine fields and planted
  round-0 mail reach every receiver;
- `worst_sig` adversary, `full` injection: its predictions at the index
  phases and the nodes take the round's one reading of each receiver's mail.

One JSON object goes to standard output: every run, then per side and case
the median rounds per second and the set of digests seen. The digests of
the two sides must match; the host's pace varies between runs, so compare
medians over several alternating repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CASES = (("silent", "none"), ("random", "full"), ("worst_sig", "full"))
N, T, ROUNDS = 31, 1, 200

CHILD = """
import json, resource, sys, time
from corsim import TrialConfig, make_params
from corsim.harness import RoundEngine
n, t, rounds = map(int, sys.argv[1:4])
adversary, inject = sys.argv[4:6]
config = TrialConfig(params=make_params(n, t, 3, 8, seed=1), rounds=rounds,
                     adversary=adversary, inject=inject, core="stub")
engine = RoundEngine(config)
start = time.perf_counter()
trace = engine.run()
run_s = time.perf_counter() - start
print(json.dumps({
    "run_s": round(run_s, 4),
    "rounds_per_s": round(rounds / run_s, 1),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "trace_digest": trace.digest(),
}))
"""


def child(src: str, adversary: str, inject: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    args = [str(N), str(T), str(ROUNDS), adversary, inject]
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", metavar="NAME=SRC",
                        help="a labelled src directory to measure (repeatable)")
    parser.add_argument("--repeats", type=int, default=4)
    args = parser.parse_args()
    sides = dict(s.split("=", 1) for s in args.side or [f"this={SRC}"])
    runs = []
    for repeat in range(args.repeats):
        order = list(sides.items())
        if repeat % 2:
            order.reverse()
        for name, src in order:
            src = str(Path(src).resolve())
            for adversary, inject in CASES:
                result = child(src, adversary, inject)
                runs.append({"side": name, "repeat": repeat, "adversary": adversary,
                             "inject": inject, **result})
    summary = {}
    for name in sides:
        for adversary, inject in CASES:
            mine = [r for r in runs
                    if (r["side"], r["adversary"], r["inject"]) == (name, adversary, inject)]
            summary.setdefault(name, {})[f"{adversary}-{inject}"] = {
                "median_rounds_per_s": statistics.median(r["rounds_per_s"] for r in mine),
                "digests": sorted({r["trace_digest"] for r in mine}),
            }
    print(json.dumps({"host_python": sys.version.split()[0], "n": N, "t": T, "rounds": ROUNDS,
                      "runs": runs, "summary": summary}, indent=1))


if __name__ == "__main__":
    main()
