"""Property-based round trip of the configuration-block codec.

``from_dict(json.loads(json.dumps(to_dict(x)))) == x`` for every block, every
fault-event type and the whole spec, over ``None``, empty and nested values.
(Fault *plans* -- the ordering rules between events -- have their own
properties in ``test_property_faultplan.py``.)
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import (
    AdmissionProfile,
    AdversaryProfile,
    AuditConfig,
    ClockSkew,
    ConsensusConfig,
    CrashNode,
    CryptoProfile,
    FaultPlan,
    LossBurst,
    NetworkProfile,
    Partition,
    RecoverNode,
    ScenarioSpec,
    ShardingProfile,
    TransportProfile,
)


def finite(lo, hi, **kwargs):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False, **kwargs)


def maybe(strategy):
    return st.none() | strategy


VC = [f"VC-{i}" for i in range(7)]
small_ints = st.integers(min_value=1, max_value=64)
times = finite(0.0, 400.0)
names = st.text(min_size=1, max_size=6)

consensus = st.builds(ConsensusConfig, batch_size=small_ints)
audits = st.builds(
    AuditConfig,
    enabled=st.booleans(),
    security_bits=st.integers(min_value=8, max_value=128),
)
admissions = st.builds(
    AdmissionProfile,
    queue_depth=maybe(small_ints),
    service_ms=finite(0.0, 50.0),
    endorse_batch_size=small_ints,
)
networks = st.builds(
    NetworkProfile,
    kind=names,
    base_latency_s=finite(0.0, 0.1),
    jitter_s=finite(0.0, 0.1),
    duplicate_rate=finite(0.0, 0.9),
    max_delay_s=maybe(finite(0.001, 10.0)),
)
adversaries = st.builds(
    AdversaryProfile,
    vc_behaviors=st.dictionaries(st.just("VC-0"), st.sampled_from(["silent", "equivocating"])),
    bb_behaviors=st.dictionaries(st.just("BB-1"), st.just("withholding")),
    trustee_behaviors=st.dictionaries(st.just("T-0"), st.just("corrupt")),
    blocked_links=st.lists(st.tuples(names, names), max_size=3).map(tuple),
)
cryptos = st.builds(
    CryptoProfile,
    backend=st.sampled_from(["schnorr", "ec", "secp256k1"]),
)
transports = st.builds(TransportProfile, backend=st.sampled_from(["memory", "wire", "tcp"]))
shardings = st.builds(
    ShardingProfile,
    num_shards=small_ints,
    workers=small_ints,
    max_inflight_shards=maybe(small_ints),
)

windows = st.tuples(times, finite(0.001, 100.0)).map(lambda w: (w[0], w[0] + w[1]))
crashes = st.builds(CrashNode, t=times, node=st.sampled_from(VC))
recoveries = st.builds(RecoverNode, t=times, node=st.sampled_from(VC))
partitions = st.builds(
    lambda window, left, right: Partition(window[0], window[1], (left, right)),
    windows,
    st.lists(st.sampled_from(VC[:3]), min_size=1, unique=True).map(tuple),
    st.lists(st.sampled_from(VC[3:]), min_size=1, unique=True).map(tuple),
)
bursts = st.builds(
    lambda window, rate: LossBurst(window[0], window[1], rate), windows, finite(0.01, 0.99)
)
skews = st.builds(ClockSkew, node=st.sampled_from(VC), drift=finite(-10.0, 10.0), t=times)
# One event of each kind at most: any such plan satisfies the ordering rules
# except a lone recovery, which is left to the single-event property.
plans = st.builds(
    lambda events, expect: FaultPlan(tuple(e for e in events if e is not None), expect),
    st.tuples(maybe(crashes), maybe(partitions), maybe(bursts), maybe(skews)),
    st.booleans(),
)

specs = st.builds(
    ScenarioSpec,
    options=st.lists(names, min_size=2, max_size=5, unique=True).map(tuple),
    num_voters=st.integers(min_value=1, max_value=50),
    num_vc=st.just(7),
    election_id=names,
    election_end=st.just(500.0),
    seed=st.integers(min_value=0, max_value=2**32),
    voter_patience=finite(0.1, 100.0),
    stagger=finite(0.0, 2.0),
    registered_ballots=maybe(st.integers(min_value=50, max_value=10**9)),
    consensus=consensus,
    audit=audits,
    admission=admissions,
    network=networks,
    adversary=adversaries,
    crypto=cryptos,
    transport=transports,
    faults=plans,
    sharding=shardings,
)

every_block = st.one_of(
    consensus, audits, admissions, networks, adversaries, cryptos, transports, shardings, plans,
    crashes, recoveries, partitions, bursts, skews,
)


def through_json(value):
    return json.loads(json.dumps(value.to_dict()))


@settings(max_examples=300, deadline=None)
@given(every_block)
def test_every_block_and_fault_event_round_trips_through_json(block):
    clone = type(block).from_dict(through_json(block))
    assert clone == block
    assert type(clone) is type(block)
    assert clone.to_dict() == block.to_dict()


@settings(max_examples=60, deadline=None)
@given(specs)
def test_a_whole_spec_round_trips_through_json(spec):
    clone = ScenarioSpec.from_dict(through_json(spec))
    assert clone == spec
    assert json.dumps(clone.to_dict()) == json.dumps(spec.to_dict())
    params = clone.to_election_parameters()
    assert params.consensus is clone.consensus
    assert params.admission is clone.admission
    assert params.audit is clone.audit
