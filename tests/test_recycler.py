"""Window algebra, the per-pulse recycling sweep, and memory that follows the window."""

import tracemalloc

import pytest

from corsim.cli import main
from corsim.cores import DelayStubCore
from corsim.env import make_params
from corsim.harness import CORES, RoundEngine, TrialConfig
from corsim.recycler import ObjectArray, _window, window


def brute_window(ind, index_num, log_size):
    """Independent oracle: slot x is kept iff it is ind or up to log_size behind."""
    return frozenset((ind - k) % index_num for k in range(log_size + 1))


class TestWindow:
    def test_example_mid_range(self):
        assert window(5, 8, 3) == {2, 3, 4, 5}

    def test_singleton(self):
        assert window(0, 8, 0) == {0}

    def test_wraparound(self):
        assert window(1, 8, 3) == {6, 7, 0, 1}

    def test_corrupted_index_hits_a_bounded_cache(self):
        _window.cache_clear()
        for ind in (-(2**31), -1, 2**31 - 1, 2**31 + 5, 12, 4):
            assert window(ind, 8, 3) == brute_window(ind, 8, 3)
        assert _window.cache_info().currsize <= 8

    def test_matches_brute_force_everywhere(self):
        for index_num in range(2, 17):
            for log_size in range(0, index_num - 1):
                for ind in range(index_num):
                    assert window(ind, index_num, log_size) == brute_window(
                        ind, index_num, log_size
                    )

    def test_unit_slide_swaps_exactly_one_slot(self):
        for index_num in range(2, 17):
            for log_size in range(0, index_num - 1):
                for ind in range(index_num):
                    old = window(ind, index_num, log_size)
                    new = window((ind + 1) % index_num, index_num, log_size)
                    leaving = old - new
                    entering = new - old
                    assert len(leaving) == 1 and len(entering) == 1
                    assert leaving == {(ind - log_size) % index_num}


def make_array(n=4, t=1, node_id=0, index_num=8, log_size=3):
    return ObjectArray(n, t, node_id, index_num, log_size, lambda s: DelayStubCore())


class TestRecyclerPulse:
    def test_slide_recycles_exactly_the_leaving_slot(self):
        arr = make_array()
        for slot in (2, 3, 4, 5):
            arr.get(slot).propose(1)
        assert arr.recycler_pulse(5) == []
        arr.get(6).propose(1)  # the new anchor after the slide
        assert arr.recycler_pulse(6) == [2]

    def test_unchanged_index_recycles_nothing(self):
        arr = make_array()
        for slot in (2, 3, 4, 5):
            arr.get(slot).propose(1)
        assert arr.recycler_pulse(5) == []
        assert arr.recycler_pulse(5) == []

    def test_out_of_window_garbage_purged(self):
        arr = make_array()
        arr.get(0).propose(1)  # transient garbage far from the window
        assert arr.recycler_pulse(5) == [0]
        assert 0 not in arr.live
        assert arr.get(0).is_fresh()

    def test_live_slots_are_the_touched_ones_until_a_sweep_finds_them_fresh(self):
        arr = make_array()
        assert arr.live == {}
        arr.get(3).propose(1)
        arr.get(5)  # touched, but still fresh
        assert set(arr.live) == {3, 5}
        assert sorted(arr.non_fresh_slots()) == [3]
        assert set(arr.live) == {3}

    def test_a_slot_dropped_fresh_is_live_again_when_it_leaves_its_initial_state(self):
        arr = make_array()
        assert arr.recycler_pulse(5) == []
        assert arr.live == {}
        arr.get(0).propose(1)
        arr.get(1).merge_flags({2: True})
        arr.get(7).merge_flags({2: False})
        assert set(arr.live) == {0, 1, 7}
        assert arr.recycler_pulse(5) == [0]
        assert arr.live == {}
        arr.get(4)
        assert sorted(arr.non_fresh_slots()) == []
        arr.get(4).merge_flags({1: True})
        assert sorted(arr.non_fresh_slots()) == [4]

    def test_flag_gossip_wiped_but_not_reported(self):
        arr = make_array()
        arr.get(0).delivered[3] = True
        assert arr.recycler_pulse(5) == []
        assert 0 not in arr.live


def test_out_of_range_index_recycles_by_modular_window():
    # window(12, 8, 3) = {1, 2, 3, 4}: slot 0 is out, slot 1 is kept
    arr = make_array()
    arr.get(0).propose(1)
    assert arr.recycler_pulse(12) == [0]
    arr2 = make_array()
    arr2.get(1).propose(1)
    assert arr2.recycler_pulse(12) == []


WIDE = 65_536  # 196,608 objects at 3 correct nodes, within the object limit


@pytest.mark.parametrize("core", CORES)
def test_live_objects_never_outgrow_the_window(core):
    params = make_params(4, 1, log_size=3, index_num=WIDE, seed=1)
    engine = RoundEngine(TrialConfig(params=params, rounds=2 * params.kappa, core=core))
    for r in range(engine.config.rounds):
        engine._round(r)
        for node in engine.nodes.values():
            assert len(node.objects.live) <= params.log_size + 1, f"round {r}"


def test_a_wide_array_run_allocates_little(tmp_path, capsys):
    """Building every slot's object up front traced about 99 MB here."""
    tracemalloc.start()
    code = main(["run", "--index-num", str(WIDE), "--rounds", "1",
                 "--out", str(tmp_path / "x.csv")])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert code == 0
    assert peak < 5_000_000
