"""The host's pace, measured with a fixed reference loop beside every timed sample.

On a shared host the same interpreter work runs at different speeds from one
second to the next, and whole stretches of minutes run 1.3-2x slower. CPU time
slows with wall time, so the time is lost to a slower CPU, not to preemption.
Right after each timed sample, `reference_pace` runs a fixed loop of
interpreter work for half as long as the sample took and returns its seconds
per iteration. A `Pacer` averages that pace with the one measured just before
the sample, and `normalize` scales the sample by how far the average was from
the nominal pace. The result reads in seconds at the nominal pace and moves
with the code under test, not with the host's load.
"""

from __future__ import annotations

import gc
import hashlib
from time import perf_counter

# Seconds per reference iteration at the nominal pace: the fast tail measured
# on the 2-CPU shared host that the figures in README.md come from. It only
# scales the normalized values; comparisons between runs do not depend on it.
NOMINAL_ITERATION_S = 0.35e-3

# Reference seconds measured after each sample, per second of the sample.
REFERENCE_SHARE = 0.5

# The shortest reference measurement, so that a very short sample still gets
# a pace averaged over many iterations.
MIN_REFERENCE_S = 0.02


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight


def reference_iteration() -> int:
    """Work of the kinds corsim spends its time on: calls, attribute reads,
    small tuples as dict keys, and sha256 of short byte strings."""
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(400):
        item = _Item(i % 97, (i * 7) % 13)
        key = (item.key, item.weight)
        counts[key] = counts.get(key, 0) + 1
        if i % 8 == 0:
            acc += hashlib.sha256(b"%d" % i).digest()[0]
    return acc + len(sorted(counts.items()))


def reference_pace(seconds: float) -> float:
    """Seconds per reference iteration, measured for at least `seconds`.

    The collector is off meanwhile, so that the pace does not depend on how
    many objects the benchmark holds; the loop's garbage is freed by reference
    counting alone.
    """
    seconds = max(seconds, MIN_REFERENCE_S)
    enabled = gc.isenabled()
    gc.disable()
    try:
        iterations = 0
        start = perf_counter()
        while True:
            reference_iteration()
            iterations += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                return elapsed / iterations
    finally:
        if enabled:
            gc.enable()


def normalize(sample_s: float, pace_s: float) -> float:
    """A sample's seconds at the nominal pace, given the pace measured beside it."""
    return sample_s * NOMINAL_ITERATION_S / pace_s


class Pacer:
    """Normalizes a run's timed samples by the pace on both sides of each.

    Samples and reference measurements alternate, so each reference stands
    right after one sample and right before the next. Averaging the two
    cancels, to first order, a pace that drifts steadily during the sample.
    """

    def __init__(self) -> None:
        self.before = reference_pace(MIN_REFERENCE_S)

    def paced(self, sample_s: float) -> float:
        after = reference_pace(sample_s * REFERENCE_SHARE)
        pace_s = (self.before + after) / 2
        self.before = after
        return normalize(sample_s, pace_s)
