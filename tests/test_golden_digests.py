"""Fixed trace bytes: Trace.digest() pinned over a grid of small trials.

C11 checks that a rerun reproduces its own trace; this module checks that the
trace itself does not change. A change that alters traces on purpose records
the new table with

    PYTHONPATH=src python tests/test_golden_digests.py --record

and says why the traces changed.
"""

import json
import sys
from pathlib import Path

import pytest

from corsim import TrialConfig, make_params
from corsim.harness import RoundEngine, Trace

TABLE = Path(__file__).with_name("golden_digests.json")
ROUNDS = 120


def grid() -> list[dict]:
    cases = [
        dict(n=4, t=1, adversary=adversary, inject=inject, core=core, recycling=True)
        for adversary in ("silent", "random", "equivocate", "worst_sig", "worst_eig")
        for inject in ("none", "full", "targeted")
        for core in ("stub", "mmr-lite")
    ]
    cases.append(dict(n=4, t=1, adversary="random", inject="full", core="stub",
                      recycling=False))
    cases.append(dict(n=7, t=2, adversary="worst_eig", inject="full", core="stub",
                      recycling=True))
    # a two-against-one index split is what makes worst_sig force the coin branch
    cases.append(dict(n=4, t=1, adversary="worst_sig", inject="none", core="stub",
                      recycling=True, indices=(5, 5, 2)))
    # the per-delivery traffic lines are part of the trace bytes
    cases.append(dict(n=4, t=1, adversary="equivocate", inject="full", core="stub",
                      recycling=True, log_traffic=True))
    # two Byzantine senders: the per-sender draw and derivation order is pinned
    for adversary in ("random", "equivocate", "worst_sig"):
        cases.append(dict(n=7, t=2, adversary=adversary, inject="full", core="stub",
                          recycling=True))
    for k, case in enumerate(cases):
        case["seed"] = 300 + k
    return cases


def case_id(case: dict) -> str:
    recycling = "" if case["recycling"] else "-norecycle"
    split = "-split" if "indices" in case else ""
    traffic = "-traffic" if case.get("log_traffic") else ""
    return (f"n{case['n']}-{case['adversary']}-{case['inject']}-{case['core']}"
            f"{recycling}{split}{traffic}-s{case['seed']}")


def run(case: dict) -> Trace:
    config = TrialConfig(
        params=make_params(case["n"], case["t"], 3, 8, seed=case["seed"]),
        rounds=ROUNDS,
        adversary=case["adversary"],
        inject=case["inject"],
        core=case["core"],
        recycling=case["recycling"],
        log_traffic=case.get("log_traffic", False),
    )
    engine = RoundEngine(config)
    for i, index in enumerate(case.get("indices", ())):
        engine.nodes[i].sig.index = index
    return engine.run()


def digest(case: dict) -> str:
    return run(case).digest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("case", grid(), ids=case_id)
def test_trace_digest_unchanged(case, golden):
    assert digest(case) == golden[case_id(case)]


def test_table_covers_grid_exactly(golden):
    assert set(golden) == {case_id(case) for case in grid()}


def test_split_case_takes_coin_branch():
    """The pinned split case reaches the paper's probability-1/2 coin path.

    A node took the coin branch at a cycle end when it saw neither a ones
    nor a zeros quorum.
    """
    (case,) = [case for case in grid() if "indices" in case]
    coin = [
        rec.round
        for rec in run(case).rounds
        if rec.quorum1 is not None
        and any(q1 == q0 == 0 for q1, q0 in zip(rec.quorum1, rec.quorum0))
    ]
    assert coin


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    table = {case_id(case): digest(case) for case in grid()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
