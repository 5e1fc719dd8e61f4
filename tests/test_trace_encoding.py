"""Trace encoding: streamed bytes equal the one-shot JSON encoding, in bounded memory.

`Trace.to_bytes()` and `Trace.digest()` encode the trace a piece at a time.
Every trace here must encode to the bytes of `one_shot_bytes`
(test_golden_digests.py), the reference that builds the whole JSON tree and
dumps it in one call.
"""

import json
import tracemalloc
from dataclasses import replace

import pytest
from test_golden_digests import assert_encodes_as_one_shot
from test_harness import config

from corsim.harness import TRACE_CHUNK_ROWS, RoundEngine, RoundRecord, Trace, run_trial

INT_FIELDS = ("idx", "wd", "recycled", "active", "non_fresh")


def test_trace_without_rounds_encodes_as_one_shot():
    assert_encodes_as_one_shot(Trace(meta={}, correct_ids=(), byz_ids=()))


@pytest.fixture(scope="module")
def traffic_trace() -> Trace:
    """More than two chunks of rounds, with the per-delivery traffic lines."""
    logged = config(seed=5, rounds=2 * TRACE_CHUNK_ROWS + 1, adversary="equivocate",
                    inject="full")
    trace, _ = run_trial(replace(logged, log_traffic=True))
    return trace


@pytest.mark.parametrize("rows", [
    0, 1, TRACE_CHUNK_ROWS - 1, TRACE_CHUNK_ROWS, TRACE_CHUNK_ROWS + 1,
    2 * TRACE_CHUNK_ROWS, 2 * TRACE_CHUNK_ROWS + 1,
])
def test_chunk_boundaries_encode_as_one_shot(traffic_trace, rows):
    """Rounds and traffic lines each cut at, and one row either side of, a chunk end."""
    trace = replace(traffic_trace, rounds=traffic_trace.rounds[:rows],
                    traffic=traffic_trace.traffic[:rows])
    assert len(trace.rounds) == len(trace.traffic) == rows
    assert_encodes_as_one_shot(trace)


def test_logged_traffic_encodes_as_one_shot(traffic_trace):
    assert len(traffic_trace.traffic) > 2 * TRACE_CHUNK_ROWS
    assert_encodes_as_one_shot(traffic_trace)


def test_reprs_with_quotes_backslash_and_non_ascii_encode_as_one_shot():
    values = ("it's", 'say "hi"', "back\\slash", "é", b"\xe9", None, True, 1, 0.5)
    record = RoundRecord(
        round=0, phase=4, coin=1, idx=(0,) * len(values), mvc=values, sample=None,
        wd=(1,) * len(values), save=values[::-1], inc=(0,) * len(values),
        branch=("ones", "zeros", "coin") * 3,
        recycled=((),) * len(values), active=(0,) * len(values),
        non_fresh=(0,) * len(values), digest="0" * 16,
    )
    trace = Trace(meta={"note": "é\\\""}, correct_ids=tuple(range(len(values))),
                  byz_ids=(), rounds=[record, replace(record, round=1, save=None)],
                  retrievals={(3, 0): {1: (0, repr("é"))}})
    assert_encodes_as_one_shot(trace)
    assert json.loads(trace.to_bytes())["rounds"][0]["mvc"][3] == repr("é")


# memory


@pytest.fixture(scope="module")
def long_trace() -> Trace:
    """3000 rounds of steady-state recycling over 64 slots."""
    return RoundEngine(config(rounds=3000, core="mmr-lite", log_size=30, index_num=64)).run()


def test_to_bytes_allocates_at_most_three_times_its_output(long_trace):
    tracemalloc.start()
    try:
        raw = long_trace.to_bytes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # encoding the whole JSON tree at once peaked at about 10x
    assert peak <= 3 * len(raw)


def test_equal_int_fields_of_consecutive_rounds_are_one_object(long_trace):
    shared = 0
    for prev, rec in zip(long_trace.rounds, long_trace.rounds[1:]):
        for name in INT_FIELDS:
            a, b = getattr(prev, name), getattr(rec, name)
            if a == b:
                assert a is b, (rec.round, name)
                shared += 1
    assert shared > len(long_trace.rounds)


def test_a_result_true_then_1_is_written_true_then_1():
    """True == 1, so results are never shared between rounds: their reprs differ."""
    engine = RoundEngine(config(rounds=12))
    record = engine._record
    planted = {5: True, 6: 1}

    def planting(r, *args):
        if r in planted:
            engine.nodes[0].mvc.current_result = planted[r]
        record(r, *args)

    engine._record = planting
    trace = engine.run()
    rounds = json.loads(trace.to_bytes())["rounds"]
    assert [rounds[r]["mvc"][0] for r in planted] == ["True", "1"]
    assert_encodes_as_one_shot(trace)
