"""Hand-rolled lock-step drivers for unit-level protocol tests.

These drive protocol objects directly with scripted message flows (including
scripted Byzantine payloads), independent of the round engine, so expected
values can be verified by hand simulation.
"""

from corsim.mvc import EigConsensus
from corsim.sig_index import SigIndex, read_kind, tally
from corsim.transport import CoPayload, SigPayload

BOT = None


def run_eig_t1(proposals, byz_round1, byz_round2_by_receiver):
    """One EIG run at n=4, t=1 with correct nodes 0..2 and scripted node 3.

    byz_round1: per-receiver level-0 value {i: v}.
    byz_round2_by_receiver: per-receiver level-1 claims {i: {j: v}} about
    what each correct j said. Every node takes the correct nodes'
    payloads as its shared co fields, unchecked, and node 3's as its own.
    Returns ({node: decision}, decided_early: bool).
    """
    n, t = 4, 1
    nodes = {i: EigConsensus(n, t) for i in range(3)}
    out0 = {i: nodes[i].propose(proposals[i]) for i in nodes}

    out1 = {
        i: nodes[i].process(out0, {3: CoPayload(level=0, entries=(((), byz_round1[i]),))}, {})
        for i in nodes
    }
    decided_early = any(nodes[i].result({}) is not None for i in nodes)

    for i in nodes:
        claims = byz_round2_by_receiver[i]
        entries = tuple(((j,), claims[j]) for j in sorted(claims))
        nodes[i].process(out1, {3: CoPayload(level=1, entries=entries)}, {})
    return {i: nodes[i].result({}) for i in nodes}, decided_early


def run_eig_t0(proposals):
    """Degenerate t=0 run at n=4: one exchange, majority-with-default resolve."""
    n, t = 4, 0
    nodes = {i: EigConsensus(n, t) for i in range(4)}
    out0 = {i: nodes[i].propose(proposals[i]) for i in nodes}
    for i in nodes:
        nodes[i].process(out0, {}, {})
    return {i: nodes[i].result({}) for i in nodes}


def enumerate_eig_byzantine_t1(proposals, domain=(0, 1, BOT)):
    """Per-strategy decision sets over every Byzantine behaviour in the domain.

    A strategy fixes the per-receiver level-0 values a and the per-receiver
    level-1 claim vectors m_i. A correct node's decision depends only on
    (proposals, a, its own m_i): the level-1 claims sent to other nodes never
    reach it, and the relayed a-values arrive through correct relays
    regardless. Running every (a, common m) execution and pooling decisions
    over (node, m) pairs per a therefore covers every mixed per-receiver
    strategy exactly.

    Yields (a, decision set over all nodes and m choices, timely) where
    timely means nobody decided before, and everybody decided at, the
    (t+1)-th exchange.
    """
    vector_space = [
        {0: x, 1: y, 2: z} for x in domain for y in domain for z in domain
    ]
    for a in vector_space:
        decisions = set()
        timely = True
        for m in vector_space:
            outcome, early = run_eig_t1(
                proposals, byz_round1=a, byz_round2_by_receiver={0: m, 1: m, 2: m}
            )
            if early or any(v is None for v in outcome.values()):
                timely = False
            decisions.update(outcome.values())
        yield a, decisions, timely


def run_sig_cycle(params, indices, byz_script, mvc_results, coin_bit,
                  saves=None, sent=None):
    """Drive the four index phases for the correct nodes of one cycle.

    byz_script maps phase offset ('k-4'..'k-2') to per-receiver SigPayloads
    (or None for silence). Returns the SigIndex instances after the k-1 step.
    When sent is a dict, it maps each phase to what each node sent.
    """
    p = params
    correct = list(range(len(indices)))
    sigs = {i: SigIndex(p) for i in correct}
    for i in correct:
        sigs[i].index = indices[i]
        if saves:
            sigs[i].save = saves[i]

    k = p.kappa
    pending = {i: {} for i in correct}
    for phase, tag in ((k - 4, "k-4"), (k - 3, "k-3"), (k - 2, "k-2"), (k - 1, None)):
        outs = {
            i: sigs[i].pulse(phase, tally(pending[i].values(), read_kind(phase, k)),
                             mvc_results[i], coin_bit)
            for i in correct
        }
        if sent is not None:
            sent[phase] = outs
        pending = {
            i: {j: outs[j] for j in correct if outs[j] is not None} for i in correct
        }
        if tag is not None and tag in byz_script:
            for i in correct:
                payload = byz_script[tag].get(i)
                if payload is not None:
                    pending[i][len(indices)] = payload
    return sigs


def sig_script(kind, per_receiver):
    """Per-receiver Byzantine payloads of one kind; omit a receiver for silence."""
    return {i: SigPayload(kind=kind, value=v) for i, v in per_receiver.items()}
