"""EIG consensus core and the floating-output recomputation wrapper."""

import random
from collections import Counter
from itertools import permutations
from types import SimpleNamespace

import pytest

from corsim import TrialConfig, make_params, mvc
from corsim.adversary import _fill_tree, _garble_tree
from corsim.env import clock_read
from corsim.harness import RoundEngine
from corsim.mvc import EigConsensus, MvcController
from corsim.transport import CoPayload, Envelope

from drivers import BOT, run_eig_t0, run_eig_t1


ALL3 = [{0: x, 1: y, 2: z} for x in (0, 1, BOT) for y in (0, 1, BOT) for z in (0, 1, BOT)]


class TestEigUnanimous:
    def test_unanimous_one_decides_one(self):
        # derived by exhaustive simulation over Byzantine round-2 messages
        for a in ({0: 0, 1: 1, 2: BOT}, {0: 1, 1: 1, 2: 1}, {0: BOT, 1: BOT, 2: BOT}):
            for m in ({0: 0, 1: 0, 2: 0}, {0: 1, 1: BOT, 2: 0}):
                outcome, _ = run_eig_t1(
                    (1, 1, 1), byz_round1=a, byz_round2_by_receiver={0: m, 1: m, 2: m}
                )
                assert set(outcome.values()) == {1}

    def test_unanimous_zero_decides_zero(self):
        for a in ALL3[::7]:
            for m in ALL3[::5]:
                outcome, _ = run_eig_t1(
                    (0, 0, 0), byz_round1=a, byz_round2_by_receiver={0: m, 1: m, 2: m}
                )
                assert set(outcome.values()) == {0}

    def test_degenerate_t0_tie_breaks_to_zero(self):
        outcome = run_eig_t0((1, 0, 1, 0))
        assert set(outcome.values()) == {0}

    def test_degenerate_t0_majority(self):
        outcome = run_eig_t0((1, 1, 1, 0))
        assert set(outcome.values()) == {1}


class TestEigMechanics:
    def test_not_decided_before_final_exchange(self):
        node = EigConsensus(4, 1)
        node.propose(1)
        assert node.result({}) is None
        node.process({}, {}, {})
        assert node.result({}) is None
        node.process({}, {}, {})
        assert node.result({}) is not None

    def test_propose_starts_a_clean_run_from_any_state(self):
        for started in (False, True):
            for exchanges_done in (0, 1, 2, 3, -1):
                node = EigConsensus(4, 1)
                node.started = started
                node.exchanges_done = exchanges_done
                node.tree = {(0, 1): 5, (2,): None, (): 0}
                sent = node.propose(1)
                assert (node.started, node.exchanges_done, node.tree) == (True, 0, {(): 1})
                assert node.result({}) is None
                assert sent == CoPayload(level=0, entries=(((), 1),))

    def test_malformed_payloads_dropped(self):
        node = EigConsensus(4, 1)
        node.propose(1)
        node.process(
            {},
            {
                1: CoPayload(level=5, entries=(((), 1),)),  # wrong level
                2: CoPayload(level=0, entries=("garbage",)),  # bad entry shape
                3: CoPayload(level=0, entries=(((0, 0), 1),)),  # bad label
            },
            {},
        )
        assert all(len(label) != 1 for label in node.tree)

    def test_equivocating_relays_resolve_identically(self):
        """The Byzantine subtree resolves from relayed values common to all
        correct nodes, so even split round-1 values cannot split decisions."""
        a = {0: 1, 1: 0, 2: 1}
        for m1 in ALL3[::4]:
            for m2 in ALL3[::6]:
                outcome, _ = run_eig_t1(
                    (1, 1, 0),
                    byz_round1=a,
                    byz_round2_by_receiver={0: m1, 1: m2, 2: m1},
                )
                assert len(set(outcome.values())) == 1


def drive_controllers_cycle(controllers, inputs, kappa):
    """Run one full schedule cycle of the wrapper over a faultless 4-node net."""
    n = len(controllers)
    pending = {i: {} for i in range(n)}
    for phase in range(kappa):
        outs = {}
        for i, ctl in controllers.items():
            outs[i] = ctl.pulse(phase, pending[i], {}, inputs[i], {})
        pending = {
            i: {j: outs[j][i] for j in controllers if i in outs[j]}
            for i in controllers
        }


class TestMvcController:
    def test_capture_restart_propose_at_phase_zero(self):
        ctl = MvcController(4, 1)
        ctl.current_result = "stale"
        out = ctl.pulse(0, {}, {}, 1, {})
        assert ctl.current_result is None  # fresh co had no decision yet
        assert set(out) == {0, 1, 2, 3}

    def test_one_payload_object_addressed_to_every_node(self):
        ctl = MvcController(4, 1)
        for phase in (0, 1):  # t=1: phase 2 stores the leaves and sends nothing
            out = ctl.pulse(phase, {}, {}, 1, {})
            assert list(out) == [0, 1, 2, 3]
            assert len({id(payload) for payload in out.values()}) == 1
            assert isinstance(out[0], CoPayload) and out[0].level == phase

    def test_processing_window_closes_after_t_plus_1(self):
        ctl = MvcController(4, 1)
        ctl.pulse(0, {}, {}, 1, {})
        assert ctl.pulse(1, {}, {}, None, {}) != {}
        assert ctl.pulse(3, {}, {}, None, {}) == {}  # t=1: window is {1, 2}
        assert ctl.pulse(4, {}, {}, None, {}) == {}  # phase t+2 and later: silent

    def test_unanimous_inputs_become_next_cycle_result(self):
        controllers = {i: MvcController(4, 0) for i in range(4)}
        drive_controllers_cycle(controllers, [1, 1, 1, 1], kappa=5)
        assert all(c.current_result is None for c in controllers.values())
        drive_controllers_cycle(controllers, [0, 0, 0, 0], kappa=5)
        assert all(c.current_result == 1 for c in controllers.values())  # one-cycle latency
        drive_controllers_cycle(controllers, [0, 0, 0, 0], kappa=5)
        assert all(c.current_result == 0 for c in controllers.values())

    def test_corrupted_floating_output_replaced_at_phase_zero(self):
        controllers = {i: MvcController(4, 0) for i in range(4)}
        drive_controllers_cycle(controllers, [1, 1, 1, 1], kappa=5)
        controllers[2].current_result = 77
        drive_controllers_cycle(controllers, [1, 1, 1, 1], kappa=5)
        assert controllers[2].current_result == 1

    def test_mixed_inputs_agree(self):
        controllers = {i: MvcController(4, 0) for i in range(4)}
        drive_controllers_cycle(controllers, [1, 0, 1, 0], kappa=5)
        drive_controllers_cycle(controllers, [0, 0, 0, 0], kappa=5)
        values = {c.current_result for c in controllers.values()}
        assert len(values) == 1
        assert values.pop() in (0, 1)


# Reference implementations: the per-receiver store, the recursive Counter
# resolve, and the flat tree of every level with its whole-tree sort, which
# the memoized validator, the bottom-up resolve and the one stored level
# replaced.


def reference_store(tree: dict, n: int, sender: int, payload, expect_level: int) -> None:
    if not isinstance(payload, CoPayload):
        return
    if payload.level != expect_level or not isinstance(payload.entries, tuple):
        return
    for item in payload.entries:
        if not (isinstance(item, tuple) and len(item) == 2):
            continue
        label, value = item
        if not isinstance(label, tuple) or len(label) != expect_level:
            continue
        if sender in label or len(set(label)) != len(label):
            continue
        if any(not isinstance(x, int) or not (0 <= x < n) for x in label):
            continue
        try:
            hash(value)
        except TypeError:
            continue
        tree[label + (sender,)] = value


def reference_resolve(co: EigConsensus, label: tuple = ()) -> object:
    if len(label) == co.t + 1:
        value = co.tree.get(label)
        return 0 if value is None else value
    children = [reference_resolve(co, label + (j,)) for j in range(co.n) if j not in label]
    value, count = Counter(children).most_common(1)[0]
    return value if 2 * count > len(children) else 0


def reference_fill_tree(co: EigConsensus, value: object) -> None:
    co.started = True
    co.exchanges_done = co.t + 1
    co.tree = {
        label: value
        for k in range(co.t + 2)
        for label in permutations(range(co.n), k)
    }


def leaf_level(n: int, t: int, value: object) -> dict:
    """A completed run's stored level: every label of length t+1 set to value."""
    return dict.fromkeys(permutations(range(n), t + 1), value)


def reference_propose(co: EigConsensus, value: object) -> CoPayload:
    co.started = True
    co.tree[()] = value
    return CoPayload(level=0, entries=(((), value),))


def reference_process(co: EigConsensus, msgs: dict) -> CoPayload | None:
    if not co.started:
        return None
    k = co.exchanges_done + 1
    for sender, payload in msgs.items():
        if payload is not None:
            co.tree.update(co._pairs(sender, co._checked(payload, k - 1)))
    co.exchanges_done = k
    if k > co.t:
        return None
    entries = tuple(
        (label, value) for label, value in sorted(co.tree.items()) if len(label) == k
    )
    return CoPayload(level=k, entries=entries)


def reference_result(co: EigConsensus) -> object:
    if not co.started or co.exchanges_done < co.t + 1:
        return None
    return reference_resolve(co)


def stored(co: EigConsensus, sender: int, payload, level: int) -> dict:
    """The tree a started instance expecting `level` builds from one arrival."""
    co.started = True
    co.exchanges_done = level
    co.tree = {}
    co.process({}, {sender: payload}, {})
    return co.tree


def same_tree(got: dict, want: dict) -> bool:
    """Equal keys and values, down to the key and value objects' types and ids."""
    return repr(list(got.items())) == repr(list(want.items())) and all(
        a is b for a, b in zip(got.values(), want.values())
    )


N = 4
UNHASHABLE = [1]
MALFORMED = [
    # (sender, payload, expected level)
    (1, ("not", "a", "payload"), 0),
    (1, {"level": 0, "entries": (((), 1),)}, 0),
    (1, CoPayload(level=2, entries=(((0, 2), 1),)), 1),  # wrong level
    (1, CoPayload(level=1, entries=[((0,), 1)]), 1),  # entries not a tuple
    (1, CoPayload(level=1, entries=(
        "garbage", ((0,),), ((0,), 1, 2), [(0,), 1], None,  # not pairs
        ([0], 1), ("0", 1), (0, 1), (None, 1),  # labels not tuples
        ((2,), "kept"),
    )), 1),
    (0, CoPayload(level=1, entries=(
        ((1.0,), "float"), ((True,), "bool"), ((-1,), "neg"), ((N,), "n"),
        ((False,), "false"), ((2.5,), "frac"), (("1",), "str"), ((None,), "none"),
    )), 1),
    (3, CoPayload(level=2, entries=(
        ((0, 0), "dup"), ((1, True), "dup-bool"), ((2, 2.0), "dup-float"),
        ((3, 0), "sender"), ((0, 3), "sender"), ((True, 2), "bool-kept"),
        ((1, 2), "overwrites"), ((0, 1.0), "float"),
    )), 2),
    (1, CoPayload(level=1, entries=(((True,), "sender-as-bool"), ((1.0,), "sender-as-float"),
                                    ((0,), "kept"))), 1),
    (2, CoPayload(level=1, entries=(
        ((0,), UNHASHABLE), ((1,), {}), ((3,), (1, [2])), ((0,), frozenset({1})),
    )), 1),
    (2, CoPayload(level=0, entries=(((), "root"), ((), "again"), ((0,), "long"))), 0),
]
# labels holding an unhashable id; the reference store raises on them
UNHASHABLE_IDS = [
    (1, CoPayload(level=1, entries=((([0],), 1),)), 1),
    (3, CoPayload(level=2, entries=(((0, {}), 1), (([2], 1), 0), ((0, [1]), 0))), 2),
]


class TestValidation:
    @pytest.mark.parametrize("case", range(len(MALFORMED)))
    def test_stores_exactly_what_the_reference_stores(self, case):
        sender, payload, level = MALFORMED[case]
        want: dict = {}
        reference_store(want, N, sender, payload, level)
        got = stored(EigConsensus(N, 1), sender, payload, level)
        assert same_tree(got, want)

    @pytest.mark.parametrize("case", range(len(UNHASHABLE_IDS)))
    def test_unhashable_label_ids_dropped(self, case):
        sender, payload, level = UNHASHABLE_IDS[case]
        assert stored(EigConsensus(N, 1), sender, payload, level) == {}

    def test_corpus_keeps_some_entries(self):
        """The corpus is not all rejections, so the key objects are compared."""
        trees = []
        for sender, payload, level in MALFORMED:
            tree: dict = {}
            reference_store(tree, N, sender, payload, level)
            trees.append(tree)
        assert [repr(tree) for tree in trees[4:]] == [
            "{(2, 1): 'kept'}",
            "{(True, 0): 'bool'}",
            "{(True, 2, 3): 'overwrites'}",
            "{(0, 1): 'kept'}",
            "{(0, 2): frozenset({1})}",
            "{(2,): 'again'}",
        ]

    def test_random_entries_store_what_the_reference_stores(self):
        rng = random.Random(8)
        ids = (0, 1, 2, 3, N, -1, 1.0, True, False, 2.0, "a", None)
        values = (0, 1, True, 1.0, "x", None, (), UNHASHABLE)
        for _ in range(300):
            level = rng.randrange(0, 4)
            sender = rng.randrange(N)
            entries = tuple(
                (tuple(rng.choice(ids) for _ in range(rng.choice((level, level, level - 1)))),
                 rng.choice(values))
                for _ in range(rng.randrange(0, 12))
            )
            payload = CoPayload(level=level, entries=entries)
            want: dict = {}
            reference_store(want, N, sender, payload, level)
            assert same_tree(stored(EigConsensus(N, 1), sender, payload, level), want)

    def test_shared_memo_equals_private_memos(self):
        """One memo across receivers of one shared part: receivers expecting
        different levels, or hearing the same payload object from other
        senders, store levels of their own, and receivers with the same own
        arrivals at the same level store one. A shared co field read at a
        level other than its own is checked in full."""
        level1 = CoPayload(level=1, entries=(((1,), "a"), ((2,), "b"), ((0,), "c")))
        level0 = CoPayload(level=0, entries=(((), "root"),))
        shared = {3: level1}
        inboxes = (
            (1, {1: level1, 2: level1, 0: level0}),
            (0, {1: level1, 2: level1, 0: level0}),
            (1, {2: level1, 1: level1}),
            (1, {1: level1, 2: level1, 0: level0}),
            (1, {}),
        )

        def trees(memo_for):
            out = []
            for done, msgs in inboxes:
                co = EigConsensus(N, 1)
                co.started = True
                co.exchanges_done = done
                co.process(shared, msgs, memo_for())
                out.append(co.tree)
            return out

        memo: dict = {}
        private, got = trees(dict), trees(lambda: memo)
        assert all(map(same_tree, got, private))
        assert got[0] is got[3] and len({id(tree) for tree in got}) == 4
        from_shared = {(1, 3): "a", (2, 3): "b", (0, 3): "c"}
        assert private[0] == {**from_shared, (2, 1): "b", (0, 1): "c", (1, 2): "a", (0, 2): "c"}
        assert private[1] == {(0,): "root"}
        assert private[4] == from_shared

    def test_validation_once_per_arrival_per_round(self, monkeypatch):
        """n=10, t=3 under worst_eig: 7 correct broadcasts plus 3 Byzantine
        senders with two stories each, where every receiver validating every
        arrival made 7 x 10 = 70."""
        calls = []
        pairs = EigConsensus._pairs

        def counting(self, sender, entries):
            calls.append(sender)
            return pairs(self, sender, entries)

        monkeypatch.setattr(EigConsensus, "_pairs", counting)
        params = make_params(10, 3, 3, 8, seed=1)
        engine = RoundEngine(TrialConfig(
            params=params, rounds=12, adversary="worst_eig", inject="targeted", core="stub",
        ))
        per_round = {}
        for r in range(12):
            calls.clear()
            engine._round(r)
            per_round[r] = len(calls)
        processing = [r for r in per_round if 1 <= clock_read(r, params.kappa) <= params.t + 1]
        assert processing
        assert {per_round[r] for r in processing} == {13}
        assert all(per_round[r] == 0 for r in per_round if r not in processing)


RESOLVE_CASES = [(1, 0), (4, 0), (4, 1), (7, 2)]


class TestResolve:
    @pytest.mark.parametrize("n,t", RESOLVE_CASES)
    def test_random_trees_match_reference(self, n, t):
        rng = random.Random(n * 10 + t)
        missing = object()
        palette = (0, 1, True, 1.0, "x", None, missing)
        leaves = list(permutations(range(n), t + 1))
        for _ in range(60):
            # few distinct values per tree, so majorities form at every level
            choices = rng.sample(palette, rng.randrange(1, 4))
            co = EigConsensus(n, t)
            co.started = True
            co.exchanges_done = t + 1
            for label in leaves:
                value = rng.choice(choices)
                if value is not missing:
                    co.tree[label] = value
            assert repr(co.result({})) == repr(reference_resolve(co))

    @pytest.mark.parametrize("n,t", RESOLVE_CASES)
    def test_injected_trees_match_reference(self, n, t):
        params = make_params(n, t, 3, 8, seed=0)
        for value in (0, 1, True):
            node = SimpleNamespace(mvc=MvcController(n, t))
            _fill_tree(node, leaf_level(n, t, value), params)
            assert repr(node.mvc.co.result({})) == repr(reference_resolve(node.mvc.co)) == repr(value)
        for seed in range(40):
            node = SimpleNamespace(mvc=MvcController(n, t))
            _garble_tree(node, random.Random(seed), params)
            co = node.mvc.co
            co.started, co.exchanges_done = True, t + 1
            assert repr(co.result({})) == repr(reference_resolve(co))

    def test_majority_matches_first_occurrence_reference(self):
        """Same object as a plain first-occurrence strict majority: equal
        values of different types (True, 1, 1.0) count together, a nan
        counts only its own object, and ties fall back to 0."""
        rng = random.Random(14)
        nan = float("nan")
        palette = (True, 1, 1.0, 0, False, 0.0, None, nan, "x", (1,))
        paths = Counter()
        for _ in range(3000):
            width = rng.randrange(1, 10)
            choices = rng.sample(palette, rng.randrange(1, 5))
            values = [
                float("nan") if rng.random() < 0.05 else rng.choice(choices)
                for _ in range(width)
            ]
            want = reference_majority(values)
            assert mvc._majority(values) is want, values
            held = [2 * votes(values, value) > width for value in values]
            paths["first" if held[0] else "later" if any(held) else "none"] += 1
        assert min(paths[path] for path in ("first", "later", "none")) > 100

    def test_majority_hand_cases(self):
        a, b = float("nan"), float("nan")
        true, fone = True, 1.0
        pair, same_pair = (1,), tuple([1])
        cases = [
            ([a, a, b], a),
            ([a, b, a], a),
            ([a, b, b], b),
            ([a, b, 0], 0),
            ([true, 1, fone], true),
            ([fone, true, 0], fone),
            ([0, fone, true, 1], fone),
            ([0, "x", 0, "x"], 0),
            (["x", 0, "x", 0], 0),
            ([None, None, 1], None),
            ([same_pair, pair, None], same_pair),
        ]
        for values, want in cases:
            assert mvc._majority(values) is want, values


def votes(values: list, value: object) -> int:
    """How many entries match value, by identity or == (as list.count counts)."""
    return sum(1 for other in values if other is value or other == value)


def reference_majority(values: list) -> object:
    """The first value, in list order, held by more than half the list; 0 without one."""
    for value in values:
        if 2 * votes(values, value) > len(values):
            return value
    return 0


IDS = (0, 1, 2, 3, N, -1, 1.0, True, False, 2.0, "a", None)
VALUES = (0, 1, True, 1.0, "x", None, (), UNHASHABLE)


def random_arrivals(rng: random.Random, level: int, relayed: tuple) -> dict:
    """Arrivals for a receiver expecting `level`: relays of its own last
    broadcast mixed with random entries, some silent or mis-levelled senders."""
    msgs: dict = {}
    for sender in rng.sample(range(N), rng.randrange(N + 1)):
        roll = rng.random()
        if roll < 0.1:
            msgs[sender] = None
            continue
        entries = [entry for entry in relayed if rng.random() < 0.7]
        entries += [
            (tuple(rng.choice(IDS) for _ in range(rng.choice((level, level, level - 1)))),
             rng.choice(VALUES))
            for _ in range(rng.randrange(0, 6))
        ]
        rng.shuffle(entries)
        msgs[sender] = CoPayload(level=level if roll < 0.9 else level + 1, entries=tuple(entries))
    return msgs


def same_payload(got, want) -> bool:
    """Equal entries, down to each label id and value object's identity."""
    if got is None or want is None:
        return got is want
    return got.level == want.level and same_pairs(got.entries, want.entries)


def run_against_flat_reference(rng: random.Random, co: EigConsensus, ref: EigConsensus,
                               sent: CoPayload) -> None:
    """Drive a proposed instance and its flat-tree reference through every
    exchange on the same arrivals, comparing each broadcast and the result."""
    for k in range(1, co.t + 2):
        msgs = random_arrivals(rng, k - 1, sent.entries)
        got = co.process({}, msgs, {})
        want = reference_process(ref, msgs)
        assert same_payload(got, want)
        assert all(len(label) == k for label in co.tree)
        assert co.tree == {label: v for label, v in ref.tree.items() if len(label) == k}
        sent = got if got is not None else sent
    assert repr(co.result({})) == repr(reference_result(ref))


class TestOneLevel:
    def test_random_arrivals_match_flat_tree_reference(self):
        rng = random.Random(8)
        for _ in range(300):
            t = rng.randrange(3)
            co, ref = EigConsensus(N, t), EigConsensus(N, t)
            value = rng.choice(VALUES[:-1])
            sent = co.propose(value)
            assert same_payload(sent, reference_propose(ref, value))
            assert co.tree == {(): value}
            run_against_flat_reference(rng, co, ref, sent)

    @pytest.mark.parametrize("n,t", [(4, 0), (4, 1), (7, 2)])
    def test_injected_starts_match_flat_tree_reference(self, n, t):
        """Phase 0 as the engine runs it after an injected fault: capture
        the result, propose, then run every exchange. The reference restarts
        by hand before its propose, which writes into the tree it is given."""
        params = make_params(n, t, 3, 8, seed=0)
        rng = random.Random(n * 10 + t)
        starts = [("fill", value) for value in (0, 1, True)]
        starts += [("garble", seed) for seed in range(40)]
        for kind, arg in starts:
            ctl = MvcController(n, t)
            ref = EigConsensus(n, t)
            if kind == "fill":
                _fill_tree(SimpleNamespace(mvc=ctl), leaf_level(n, t, arg), params)
                reference_fill_tree(ref, arg)
                assert all(len(label) == t + 1 for label in ctl.co.tree)
            else:
                _garble_tree(SimpleNamespace(mvc=ctl), random.Random(arg), params)
                _garble_tree(SimpleNamespace(mvc=SimpleNamespace(co=ref)), random.Random(arg), params)
            sample = rng.choice((0, 1))
            out = ctl.pulse(0, {}, {}, sample, {})
            assert repr(ctl.current_result) == repr(reference_result(ref))
            ref.tree = {}
            ref.exchanges_done = 0
            assert same_payload(out[0], reference_propose(ref, sample))
            run_against_flat_reference(rng, ctl.co, ref, out[0])


def same_pairs(got, want) -> bool:
    """Equal (label, value) pairs by repr, with each value and each label id
    the same object: labels built per receiver are equal but not identical."""
    got, want = list(got), list(want)
    return repr(got) == repr(want) and all(
        a[1] is b[1] and all(x is y for x, y in zip(a[0], b[0])) for a, b in zip(got, want)
    )


def engine(n: int, t: int, adversary: str, inject: str, rounds: int, seed: int = 1):
    return RoundEngine(TrialConfig(
        params=make_params(n, t, 3, 8, seed=seed), rounds=rounds, adversary=adversary,
        inject=inject, core="stub",
    ))


SHARING_CASES = [("worst_eig", "targeted"), ("equivocate", "full"), ("random", "full")]


class TestSharedLevels:
    """Receivers with the same arrivals share one level, resolve and broadcast."""

    @pytest.mark.parametrize("n,t", [(7, 2), (10, 3)])
    @pytest.mark.parametrize("adversary,inject", SHARING_CASES)
    def test_shared_memo_equals_private_memo_per_receiver(self, monkeypatch, n, t,
                                                          adversary, inject):
        """Each pulse also runs on a copy of the node with a memo of its own
        that trusts no sender, which is the per-receiver behaviour with
        every arrival checked; tree, broadcast and floating output must
        come out the same."""
        pulse = MvcController.pulse
        shared_rounds = []

        def checking(self, phase, shared, own, sample, memo):
            alone = MvcController(self.n, self.t)
            alone.current_result = self.current_result
            co, ref = self.co, alone.co
            ref.tree, ref.exchanges_done, ref.started = co.tree, co.exchanges_done, co.started
            want = pulse(alone, phase, {}, {**shared, **own}, sample, {})
            got = pulse(self, phase, shared, own, sample, memo)
            assert same_pairs(co.tree.items(), ref.tree.items())
            assert (co.exchanges_done, co.started) == (ref.exchanges_done, ref.started)
            assert list(got) == list(want)
            if got:
                assert got[0].level == want[0].level
                assert same_pairs(got[0].entries, want[0].entries)
            assert repr(self.current_result) == repr(alone.current_result)
            assert self.current_result is alone.current_result
            return got

        monkeypatch.setattr(MvcController, "pulse", checking)
        eng = engine(n, t, adversary, inject, rounds=3 * 5)
        for r in range(eng.config.rounds):
            eng._round(r)
            trees = {id(eng.nodes[i].mvc.co.tree) for i in eng.correct_ids}
            shared_rounds.append(len(trees) < len(eng.correct_ids))
        # worst_eig and equivocate tell two stories, so receivers share
        # levels; random sends each receiver its own payload, so every
        # receiver builds its own level in every round
        assert any(shared_rounds) == (adversary != "random")

    def test_counts_per_round(self, monkeypatch):
        """n=10, t=3, worst_eig/targeted: the two receiver halves hear two
        stories, so each processing round builds 2 levels; the checks run
        once per Byzantine arrival of each story, 3 x 2, since the
        receivers that hear one story share its level, and phase 0 resolves
        each distinct leaf level once: the one level targeted injection
        plants in every node at round 0."""
        checks, resolves = [], []
        checked, labels = EigConsensus._checked, mvc._labels

        def counting_checked(self, payload, level):
            checks.append(level)
            return checked(self, payload, level)

        def counting_labels(n, k):
            resolves.append(k)
            return labels(n, k)

        monkeypatch.setattr(EigConsensus, "_checked", counting_checked)
        monkeypatch.setattr(mvc, "_labels", counting_labels)
        eng = engine(10, 3, "worst_eig", "targeted", rounds=12)
        t, kappa = eng.params.t, eng.params.kappa
        for r in range(eng.config.rounds):
            phase = clock_read(r, kappa)
            leaves = {
                id(eng.nodes[i].mvc.co.tree) for i in eng.correct_ids
                if eng.nodes[i].mvc.co.started and eng.nodes[i].mvc.co.exchanges_done > t
            }
            checks.clear()
            resolves.clear()
            eng._round(r)
            trees = {id(eng.nodes[i].mvc.co.tree) for i in eng.correct_ids}
            if phase == 0:
                assert (len(checks), len(resolves)) == (0, len(leaves)), f"round {r}"
                assert len(leaves) == (1 if r == 0 else 2)  # targeted plants 1 level
            elif phase <= t + 1:
                assert len(checks) == 6, f"round {r}"
                assert resolves == []
                assert len(trees) == 2, f"round {r}"
            else:
                assert checks == resolves == []

    def test_planting_one_node_leaves_the_others_alone(self):
        """A plant replaces one node's level; the nodes that shared it keep
        theirs, and their next results equal an unplanted run's."""
        planted, control = (engine(10, 3, "worst_eig", "targeted", rounds=12) for _ in range(2))
        t, kappa = planted.params.t, planted.params.kappa
        last = kappa + t + 1  # the second cycle's last processing round
        assert clock_read(last + 1, kappa) == 0
        for r in range(last + 1):
            planted._round(r)
            control._round(r)
        nodes = planted.nodes
        target = planted.correct_ids[0]
        sharers = [i for i in planted.correct_ids
                   if i != target and nodes[i].mvc.co.tree is nodes[target].mvc.co.tree]
        assert sharers
        before = {i: (nodes[i].mvc.co.tree, dict(nodes[i].mvc.co.tree)) for i in nodes}
        _fill_tree(nodes[target], leaf_level(10, 3, 7), planted.params)
        for i in planted.correct_ids:
            if i != target:
                tree, copy = before[i]
                assert nodes[i].mvc.co.tree is tree and tree == copy
        planted._round(last + 1)  # phase 0: every node resolves its level
        control._round(last + 1)
        assert nodes[target].mvc.current_result == 7
        for i in planted.correct_ids:
            if i != target:
                got, want = nodes[i].mvc, control.nodes[i].mvc
                assert repr(got.current_result) == repr(want.current_result)
                assert repr(got.co.tree) == repr(want.co.tree)


def replaying(eng: RoundEngine, co_for) -> RoundEngine:
    """Every Byzantine sender sends co_for(view), one object, to every receiver."""

    def byz_outboxes(view):
        co = co_for(view)
        return {b: {j: Envelope(b, co=co) for j in sorted(view.correct_nodes)}
                for b in eng.byz_ids}

    eng.adversary.byz_outboxes = byz_outboxes
    return eng


def malformed_twice(eng: RoundEngine) -> RoundEngine:
    """One malformed level-1 object, sent at phases 1 and 2: checked at its
    own level first, then at the wrong level."""
    bad = CoPayload(level=1, entries=(
        ((0,), 1), ((9,), 1), ((-1,), 0), ((1, 2), 1), ((3,), [1]),
    ))
    return replaying(eng, lambda view: bad if view.phase in (1, 2) else None)


def stale_correct(eng: RoundEngine) -> RoundEngine:
    """The payload a correct node broadcast the round before, every round."""
    c = eng.correct_ids[0]

    def co_for(view):
        env = view.mail[c].inbox.get(c)
        return None if env is None else env.co

    return replaying(eng, co_for)


KAPPA = make_params(7, 2, 3, 8).kappa
BYZ = {5, 6}  # the Byzantine ids at n=7, t=2


def from_byz(labels: set) -> set:
    """The labels whose last relay was a Byzantine sender."""
    return {label for label in labels if label and label[-1] in BYZ}


class TestCarriedChecks:
    """Receivers take the co fields of their shared part unchecked; every
    tree must equal a run with a private memo per receiver that trusts no
    sender."""

    def run(self, replay, garble: int | None = None) -> list:
        """Every node's tree (by repr, and its labels) and floating output
        after every round of three cycles. With `garble`, one receiver is
        set back one exchange at that round, so it expects the level before
        the one its fresh arrivals were built for."""
        rounds = 3 * KAPPA
        eng = replay(engine(7, 2, "silent", "none", rounds))
        assert set(eng.byz_ids) == BYZ
        history = []
        for r in range(rounds):
            if r == garble:
                eng.nodes[eng.correct_ids[-1]].mvc.co.exchanges_done -= 1
            eng._round(r)
            history.append([
                (repr(list(eng.nodes[i].mvc.co.tree.items())),
                 repr(eng.nodes[i].mvc.current_result), set(eng.nodes[i].mvc.co.tree))
                for i in eng.correct_ids
            ])
        return history

    def reference(self, monkeypatch, replay, garble: int | None = None) -> list:
        pulse = MvcController.pulse
        with monkeypatch.context() as m:
            m.setattr(MvcController, "pulse",
                      lambda self, phase, shared, own, sample, memo:
                      pulse(self, phase, {}, {**shared, **own}, sample, {}))
            return self.run(replay, garble)

    def test_resent_malformed_payload_dropped_both_times(self, monkeypatch):
        got = self.run(malformed_twice)
        assert got == self.reference(monkeypatch, malformed_twice)
        for r, nodes in enumerate(got):
            phase = clock_read(r, KAPPA)
            for _, _, labels in nodes:
                if phase == 2:  # level 1: only the well-formed entry is kept
                    assert from_byz(labels) == {(0, b) for b in BYZ}, f"round {r}"
                elif phase == 3:  # level 2: the object is one level behind
                    assert from_byz(labels) == set(), f"round {r}"
                if 1 <= phase <= 3:
                    assert labels <= set(mvc._labels(7, phase)), f"round {r}"

    def test_resent_correct_payload_from_previous_round(self, monkeypatch):
        """Always one level behind, so it adds nothing."""
        got = self.run(stale_correct)
        assert got == self.reference(monkeypatch, stale_correct)
        for r, nodes in enumerate(got):
            assert all(from_byz(labels) == set() for _, _, labels in nodes), f"round {r}"

    def test_receiver_one_exchange_behind_checks_in_full(self, monkeypatch):
        """A receiver set back one exchange expects the level of the stale
        copy, not the level the fresh broadcasts were built for: it keeps
        the stale copy's entries and drops the rest."""
        garble = KAPPA + 2  # phase 2: the fresh broadcasts are level 1
        got = self.run(stale_correct, garble)
        assert got == self.reference(monkeypatch, stale_correct, garble)
        behind, ahead = got[garble][-1][2], got[garble][0][2]
        assert behind == {(b,) for b in BYZ}
        assert ahead == set(permutations(range(5), 2))  # correct relays only


def test_an_arrival_planted_over_a_broadcast_is_checked_in_full():
    """A planted arrival leaves the receiver's shared part, so its entries
    are checked: the label of the wrong length is dropped, which a trusted
    arrival would have stored."""
    planted = CoPayload(level=0, entries=(((), 1), ((0,), 1)))
    co = EigConsensus(7, 2)
    co.propose(0)
    co.process({1: planted}, {}, {})
    assert co.tree == {(1,): 1, (0, 1): 1}

    eng = engine(7, 2, "silent", "none", rounds=2)
    eng._round(0)  # phase 0: every correct node broadcasts its level-0 payload
    eng.pending[0].plant(1, Envelope(sender=1, co=planted))
    assert 1 not in eng.pending[0].shared
    eng._round(1)
    tree = eng.nodes[0].mvc.co.tree
    assert tree[(1,)] == 1 and (0, 1) not in tree
    assert set(tree) == {(i,) for i in eng.correct_ids}


def test_label_cache_keeps_only_the_last_trial_size():
    """A trial asks for the labels of (n, t+1) alone, so the cache holds one
    entry, and a trial at another size drops the previous size's labels."""
    for n, t in ((10, 3), (7, 2)):
        RoundEngine(TrialConfig(
            params=make_params(n, t, 3, 8, seed=1), rounds=2 * (t + 5),
            adversary="worst_eig", inject="targeted",
        )).run()
    info = mvc._labels.cache_info()
    assert info.currsize == 1
    mvc._labels(7, 3)  # the one entry is (7, 3)
    assert mvc._labels.cache_info().hits == info.hits + 1
