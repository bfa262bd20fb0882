"""The bitmask instance against the set-based reference (``tests/reference/bracha.py``).

Both are fed the same deliveries -- random proposals, random delivery orders,
duplicates, replays of earlier deliveries, messages of other instances, values
other than 0 and 1, and senders outside the member set -- and must broadcast
the same messages in the same order and decide the same value.  A cluster run
draws every scheduling choice from one seeded ``random.Random``; while the two
implementations agree, their schedules are the same, so the first divergence
shows as a difference of the logs.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference.bracha import ReferenceInstance

from repro.consensus.bracha import BinaryConsensusInstance, common_coin
from repro.consensus.interfaces import Aux, BVal, Finish, member_bits

OUTSIDERS = ("BB-0", "V-1", "")
KINDS = (BVal, Aux, Finish)


def names(n):
    return tuple(f"N{index}" for index in range(n))


def build(implementation, node_id, members, broadcast):
    f = (len(members) - 1) // 3
    if implementation == "bitmask":
        return BinaryConsensusInstance(
            "x", node_id, member_bits(members), f, broadcast=broadcast, coin=common_coin
        )
    return ReferenceInstance("x", members, f, broadcast=broadcast, coin=common_coin)


def message(kind, instance, round_number, value):
    if kind is Finish:
        return Finish(instance, value)
    return kind(instance, round_number, value)


def events(n):
    """Deliveries (mostly from members, mostly of this instance, mostly of
    round 1, few FINISHes: ``n - f`` of one value halt the instance),
    proposals, and replays of earlier deliveries (an index into them)."""
    delivery = st.tuples(
        st.sampled_from(names(n) * 3 + OUTSIDERS),
        st.builds(
            message,
            st.sampled_from((BVal, Aux) * 4 + (Finish,)),
            st.sampled_from(("x",) * 9 + ("y",)),
            st.sampled_from((1, 1, 1, 2, 2, 3)),
            st.sampled_from((0, 1) * 4 + (2,)),
        ),
    )
    event = st.one_of(
        delivery,
        st.sampled_from(("propose-0", "propose-1")),
        st.integers(min_value=0, max_value=10_000),
    )
    return st.lists(event, min_size=60, max_size=240)


def feed(implementation, n, sequence):
    sent = []
    instance = build(implementation, "N0", names(n), sent.append)
    delivered = []
    for item in sequence:
        if isinstance(item, str):
            instance.propose(int(item[-1]))
            continue
        if isinstance(item, int):
            if not delivered:
                continue
            item = delivered[item % len(delivered)]
        delivered.append(item)
        instance.handle(*item)
    return sent, instance.decided, instance.halted, instance.round, instance.estimate


reference_settings = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@reference_settings
@given(case=st.sampled_from((4, 7)).flatmap(lambda n: st.tuples(st.just(n), events(n))))
def test_one_instance_matches_the_reference_on_any_delivery_sequence(case):
    n, sequence = case
    assert feed("bitmask", n, sequence) == feed("reference", n, sequence)


def run_cluster(implementation, n, proposals, byzantine, seed, max_steps=20_000):
    """``n`` members, of which the last ``byzantine`` send random messages
    instead of running an instance.  Returns every broadcast as
    ``(node, message)`` in order, and each node's decision."""
    rng = random.Random(seed)
    members = names(n)
    log, pending, history = [], [], []
    honest = members[: n - byzantine]

    def broadcaster(node_id):
        def broadcast(msg):
            log.append((node_id, msg))
            pending.extend((destination, node_id, msg) for destination in honest)

        return broadcast

    nodes = {node_id: build(implementation, node_id, members, broadcaster(node_id))
             for node_id in honest}
    pending.extend(("propose", node_id, value) for node_id, value in zip(honest, proposals))
    for _ in range(max_steps):
        roll = rng.random()
        if roll < 0.05 and history:  # replay an earlier delivery
            destination, sender, msg = history[rng.randrange(len(history))]
        elif roll < 0.10 or (roll < 0.15 and byzantine):  # junk: an outsider's, a member's
            sender = rng.choice(OUTSIDERS if roll < 0.10 else members[n - byzantine:])
            destination = rng.choice(honest)
            msg = message(rng.choice(KINDS), "x", rng.randint(1, 3), rng.choice((0, 1, 2)))
        elif pending:
            destination, sender, msg = pending.pop(rng.randrange(len(pending)))
        else:
            break
        if destination == "propose":
            nodes[sender].propose(msg)
            continue
        history.append((destination, sender, msg))
        nodes[destination].handle(sender, msg)
    return log, {node_id: node.decided for node_id, node in nodes.items()}


@reference_settings
@given(
    n=st.sampled_from((4, 7)),
    proposals=st.lists(st.integers(min_value=0, max_value=1), min_size=7, max_size=7),
    byzantine=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_a_cluster_run_matches_the_reference(n, proposals, byzantine, seed):
    byzantine = min(byzantine, (n - 1) // 3)
    bitmask = run_cluster("bitmask", n, proposals, byzantine, seed)
    reference = run_cluster("reference", n, proposals, byzantine, seed)
    assert bitmask == reference
    log, decisions = bitmask
    assert log  # the run exchanged messages
    if not byzantine:
        # Without junk from members every honest node decides, and agrees.
        assert len(set(decisions.values())) == 1 and None not in decisions.values()
