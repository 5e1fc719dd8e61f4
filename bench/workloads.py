"""Workload definitions and the import path of the corsim checkout under test.

Each workload is one corsim configuration plus the sizes the benchmark runs it
at. Why each one exists is in README.md next to this file.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The seed whose trace digests are recorded in digests.json.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    t: int
    log_size: int
    index_num: int
    core: str
    adversary: str
    inject: str
    rounds: int  # simulated rounds per trial
    # trials per run_ensemble + emit call; a run repeats the seeds seed..seed+ensemble-1
    ensemble: int

    def seeds(self, seed: int) -> range:
        """The window of trial seeds that a run repeats: one ensemble's worth."""
        return range(seed, seed + self.ensemble)

    def config(self, seed: int):
        from corsim import TrialConfig, make_params

        return TrialConfig(
            params=make_params(self.n, self.t, self.log_size, self.index_num, seed=seed),
            rounds=self.rounds,
            adversary=self.adversary,
            inject=self.inject,
            core=self.core,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("n4-worstsig-recovery", n=4, t=1, log_size=3, index_num=8,
                 core="stub", adversary="worst_sig", inject="full",
                 rounds=250, ensemble=8),
        Workload("n10-eig-split", n=10, t=3, log_size=3, index_num=8,
                 core="stub", adversary="worst_eig", inject="targeted",
                 rounds=60, ensemble=1),
        Workload("n4-mmr-wide-window", n=4, t=1, log_size=30, index_num=64,
                 core="mmr-lite", adversary="silent", inject="none",
                 rounds=3000, ensemble=1),
    )
}


def use_checkout_src() -> None:
    """Put the checkout's src/ first on sys.path; refuse to run without it.

    The benchmark must measure the corsim of the checkout it sits in, never
    an installed copy.
    """
    if not (SRC / "corsim" / "__init__.py").is_file():
        raise SystemExit(f"corsim sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import corsim

    if Path(corsim.__file__).resolve().parent != SRC / "corsim":
        raise SystemExit(f"imported corsim from {corsim.__file__}, not from {SRC}")
