"""What targeted injection costs at scale: construction, round 0 and peak RSS.

    python3 scripts/targeted_scale.py
    python3 scripts/targeted_scale.py --side before=/path/to/parent/src --side after=src

Each measurement runs in a fresh interpreter that imports corsim from the
given `src` directory (default: the one next to this script), so peak RSS
belongs to that measurement alone. Each repeat measures every side, and
odd repeats take the sides in reverse order. Two kinds of measurement:

- an engine at n, t (worst_eig, targeted, stub core, log_size 3, index_num 8,
  seed 1): seconds to construct the `RoundEngine`, seconds to run round 0
  (phase 0, where every node resolves its planted level) and the trace
  digest of that one round;
- `corsim run --n 13 --t 4 --adversary worst-eig --inject targeted
  --rounds 60 --trials 1 --strict` in-process: wall seconds, exit code and
  the summary.

One JSON object goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENGINE_CASES = ((13, 4), (16, 4))
CLI_ARGS = [
    "run", "--n", "13", "--t", "4", "--adversary", "worst-eig", "--inject", "targeted",
    "--rounds", "60", "--trials", "1", "--strict",
]

ENGINE_CHILD = """
import json, resource, sys, time
from corsim import TrialConfig, make_params
from corsim.harness import RoundEngine
n, t = int(sys.argv[1]), int(sys.argv[2])
config = TrialConfig(params=make_params(n, t, 3, 8, seed=1), rounds=1,
                     adversary="worst_eig", inject="targeted", core="stub")
start = time.perf_counter()
engine = RoundEngine(config)
built = time.perf_counter()
trace = engine.run()
done = time.perf_counter()
print(json.dumps({
    "construct_s": round(built - start, 3),
    "round0_s": round(done - built, 3),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "trace_digest": trace.digest(),
}))
"""

CLI_CHILD = """
import contextlib, io, json, os, resource, sys, tempfile, time
from corsim.cli import main
with tempfile.TemporaryDirectory() as tmp:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(sys.argv[1:] + ["--out", os.path.join(tmp, "runs.csv")])
    wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": round(wall, 3),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "exit": code,
    "summary": out.getvalue().strip().splitlines(),
}))
"""


def child(src: str, code: str, args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", metavar="NAME=SRC",
                        help="a labelled src directory to measure (repeatable)")
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args()
    sides = dict(s.split("=", 1) for s in args.side or [f"this={SRC}"])
    runs = []
    for repeat in range(args.repeats):
        order = list(sides.items())
        if repeat % 2:
            order.reverse()
        for name, src in order:
            src = str(Path(src).resolve())
            for n, t in ENGINE_CASES:
                result = child(src, ENGINE_CHILD, [str(n), str(t)])
                runs.append({"side": name, "repeat": repeat, "n": n, "t": t, **result})
            result = child(src, CLI_CHILD, CLI_ARGS)
            runs.append({"side": name, "repeat": repeat, "cli": "corsim " + " ".join(CLI_ARGS),
                         **result})
    print(json.dumps({"host_python": sys.version.split()[0], "runs": runs}, indent=1))


if __name__ == "__main__":
    main()
