"""Trace digests over one fixed grid of 270 trial configs.

    python3 scripts/digest_grid.py                # one "name digest" line per config
    python3 scripts/digest_grid.py --slice        # only the configs tier-1 pins
    python3 scripts/digest_grid.py --against REV  # compare with git revision REV

The grid is n/t 4/1, 7/2 and 10/3 x the five policies x the three inject
modes x (stub with dmax 0, stub with dmax 10, mmr-lite) x recycling on and
off, with log_size 3, index_num 8 and seed 1000 plus the config's position.
Under `random`, log_traffic is on, so the traffic lines enter the digest. A
trial runs 150 rounds, or 60 at n=10. The slice takes two configs of every
(n/t, policy) pair; `tests/grid_digests.txt` holds its digests.

With --against, REV's `src` is extracted with `git archive` into a temporary
directory. Each side runs the grid in its own interpreter, which imports
corsim from that side's `src`. The script exits 1 at the first config whose
digests differ, naming it, and 0 when every config is equal.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = ((4, 1), (7, 2), (10, 3))
POLICIES = ("silent", "random", "equivocate", "worst_sig", "worst_eig")
INJECTS = ("none", "full", "targeted")
CORES = (("stub", 0), ("stub", 10), ("mmr-lite", 3))  # (core, dmax); mmr-lite reads no dmax


def grid() -> list[tuple[str, dict]]:
    """Every config as (name, settings), in a fixed order."""
    configs = []
    for n, t in SIZES:
        for policy in POLICIES:
            for inject in INJECTS:
                for core, dmax in CORES:
                    for recycling in (True, False):
                        variant = f"stub-d{dmax}" if core == "stub" else core
                        name = (f"n{n}t{t}-{policy}-{inject}-{variant}-"
                                + ("recycle" if recycling else "fixed"))
                        configs.append((name, dict(
                            n=n, t=t, adversary=policy, inject=inject, core=core,
                            dmax=dmax, recycling=recycling, log_traffic=policy == "random",
                            seed=1000 + len(configs), rounds=60 if n == 10 else 150,
                        )))
    return configs


def grid_slice() -> list[tuple[str, dict]]:
    """30 configs: one from each run of 9, so two from each (n/t, policy) block of 18."""
    configs = grid()
    return [configs[9 * i + i % 9] for i in range(len(configs) // 9)]


def digest(settings: dict) -> str:
    """The trace digest of one config, with corsim imported from sys.path."""
    from corsim import TrialConfig, make_params
    from corsim.harness import RoundEngine

    s = dict(settings)
    params = make_params(s.pop("n"), s.pop("t"), 3, 8, seed=s.pop("seed"))
    return RoundEngine(TrialConfig(params=params, **s)).run().digest()


def run_side(src: Path, only_slice: bool) -> subprocess.Popen:
    argv = [sys.executable, __file__, "--src", str(src)] + (["--slice"] if only_slice else [])
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)


def compare(rev: str, only_slice: bool) -> int:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src"], check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        sides = [run_side(Path(tmp) / "src", only_slice), run_side(ROOT / "src", only_slice)]
        outputs = [side.communicate()[0] for side in sides]
    if any(side.returncode for side in sides):
        print("a side failed", file=sys.stderr)
        return 2
    theirs, ours = (out.splitlines() for out in outputs)
    for their_line, our_line in zip(theirs, ours):
        if their_line != our_line:
            print(f"differs from {rev}: {our_line.split()[0]}")
            return 1
    print(f"all {len(ours)} configs equal to {rev}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    parser.add_argument("--slice", action="store_true", help="only the configs tier-1 pins")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory to import corsim from")
    args = parser.parse_args()
    if args.against:
        return compare(args.against, args.slice)
    sys.path.insert(0, str(args.src))
    for name, settings in grid_slice() if args.slice else grid():
        print(name, digest(settings), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
