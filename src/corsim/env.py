"""Environment services: global round clock, shared coin oracle, protocol parameters.

The clock and the random common coin are modelled as already-stabilized
oracles; the simulator composes the protocol stack on top of them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


def _digest64(*parts: object) -> int:
    """Deterministic 64-bit integer from a tuple of hashable parts."""
    raw = repr(parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "little")


def derived_int(seed: int, tag: str, *parts: object, bound: int) -> int:
    """Seeded deterministic integer in [0, bound), keyed by a stream tag."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return _digest64(seed, tag, *parts) % bound


def seeded_rng(seed: int, tag: str, *parts: object) -> random.Random:
    """Independent deterministic RNG stream, stable across processes."""
    return random.Random(_digest64(seed, tag, *parts))


def clock_read(round_index: int, kappa: int) -> int:
    """Phase of the global schedule cycle for a given round.

    Every node observes the same value in the same round.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    return round_index % kappa


class CoinOracle:
    """Per-trial coin source. Holds no mutable state beyond the seed."""

    def __init__(self, seed: int):
        self.seed = seed

    def draw(self, round_index: int) -> int:
        """The round's coin bit: common to all nodes, replayable from the seed.

        Unpredictability is realized by the harness ordering (Byzantine
        outboxes are fixed before the coin of the round is revealed), not by
        this method.
        """
        return _digest64(self.seed, "rcc", round_index) & 1


@dataclass(frozen=True)
class Params:
    """Global protocol parameters for one trial.

    index_num is both the object-array length and the bound on index values
    (the counter wraps mod index_num), so that window slides stay aligned
    with index increments. Traces and CSV rows also report it as
    index_states.
    """

    n: int
    t: int
    kappa: int
    index_num: int
    log_size: int
    seed: int = 0

    @property
    def quorum(self) -> int:
        """Distinct-sender threshold n - t used by the index phases."""
        return self.n - self.t


def derive_kappa(t: int, log_size: int) -> int:
    """Default schedule cycle length: max(t+2, log_size), floored at 5.

    The index protocol occupies the last four phases of the cycle and the
    consensus recomputation occupies phases 0..t+1, so validation rejects
    cycles shorter than 5 or shorter than t+2; the default meets both.
    """
    return max(t + 2, log_size, 5)


def make_params(
    n: int,
    t: int,
    log_size: int,
    index_num: int,
    kappa: int | None = None,
    seed: int = 0,
) -> Params:
    """Build Params with the default kappa derivation."""
    return Params(
        n=n,
        t=t,
        kappa=kappa if kappa is not None else derive_kappa(t, log_size),
        index_num=index_num,
        log_size=log_size,
        seed=seed,
    )


def params_validate(p: Params) -> list[str]:
    """Every violated Params invariant; violations are returned, not raised."""
    bad: list[str] = []

    if p.n < 1:
        bad.append(f"n >= 1 (got n={p.n})")
    if p.t < 0:
        bad.append(f"t >= 0 (got t={p.t})")
    if p.n < 3 * p.t + 1:
        bad.append(f"n >= 3t+1 (got n={p.n}, t={p.t})")
    if p.kappa < 5:
        bad.append(f"kappa >= 5 (got kappa={p.kappa})")
    if p.kappa < p.t + 2:
        # phases 0..t+1 carry one consensus recomputation; they must fit in a cycle
        bad.append(f"kappa >= t+2 (got kappa={p.kappa}, t={p.t})")
    if p.index_num < 2:
        bad.append(f"index_num >= 2 (got index_num={p.index_num})")
    if not (0 <= p.log_size <= p.index_num - 2):
        bad.append(
            f"0 <= log_size <= index_num-2 (got log_size={p.log_size}, index_num={p.index_num})"
        )
    return bad
