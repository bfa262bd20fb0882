"""A finished consensus cluster is freed by reference counting alone.

The scale pipeline's O(shard) memory claim needs every shard's consensus state
(four opinion and four decision dicts per 4-collector cluster) to die when the
shard ends.  The engines, blocks and instances of a cluster reference each other
through bound callbacks, so without ``VoteSetConsensus.close`` at the end of
``ConsensusCluster.run`` they survive as cyclic garbage until some later full
collection.  These tests
run with the cyclic collector off and require nothing to be left for it.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.consensus.batching import SuperblockConsensus
from repro.consensus.bracha import BinaryConsensusInstance
from repro.consensus.cluster import ConsensusCluster
from repro.consensus.vote_set_consensus import VoteSetConsensus
from repro.shard.driver import derive_scheme
from repro.shard.partition import ShardRange
from repro.shard.shard_runner import ShardRunner

CONSENSUS_TYPES = (
    ConsensusCluster, VoteSetConsensus, SuperblockConsensus, BinaryConsensusInstance,
)


@contextmanager
def cyclic_collector_off():
    """Yields a function returning the consensus objects only ``gc`` could free."""
    gc.collect()
    gc.disable()

    def unreachable_consensus_objects():
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return [obj for obj in gc.garbage if isinstance(obj, CONSENSUS_TYPES)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    try:
        yield unreachable_consensus_objects
    finally:
        gc.enable()


@pytest.fixture()
def tracked(monkeypatch):
    """Weak references to every cluster, engine, block and Bracha instance built."""
    refs = {"cluster": [], "engine": [], "block": [], "instance": []}

    def track(cls, kind):
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            refs[kind].append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", init)

    track(ConsensusCluster, "cluster")
    track(VoteSetConsensus, "engine")
    track(SuperblockConsensus, "block")
    track(BinaryConsensusInstance, "instance")
    return refs


def assert_all_dead(refs, *, blocks=True):
    for kind, weak in refs.items():
        if kind == "block" and not blocks:
            assert not weak
            continue
        assert weak, f"no {kind} was built: the test exercised nothing"
        alive = [ref() for ref in weak if ref() is not None]
        assert not alive, f"{len(alive)} of {len(weak)} {kind} objects outlived the run"


def test_two_shards_leave_nothing_for_the_cyclic_collector(group, tracked):
    scheme = derive_scheme(group, 2, 3)
    with cyclic_collector_off() as unreachable_consensus_objects:
        for shard in (ShardRange(0, 0, 90), ShardRange(1, 90, 180)):
            result = ShardRunner(
                shard, scheme=scheme, seed=3, election_id="gc", consensus_batch_size=16,
                silent_collectors=(2,),
            ).run()
            assert result.superblocks_fast > 0
            assert_all_dead(tracked)
        assert unreachable_consensus_objects() == []


@pytest.mark.parametrize("path", ["fast", "fallback", "per-ballot"])
def test_cluster_run_releases_its_nodes(tracked, path):
    opinions = {serial: int(serial % 3 > 0) for serial in range(48)}
    per_node = None
    if path == "fallback":
        flipped = {serial: 1 - bit for serial, bit in opinions.items()}
        per_node = [opinions, opinions, flipped, flipped]
    with cyclic_collector_off() as unreachable_consensus_objects:
        cluster = ConsensusCluster(
            num_nodes=4,
            batch_size=1 if path == "per-ballot" else 16,
            silent=() if path == "fallback" else (3,),
        )
        result = cluster.run(opinions, per_node_opinions=per_node)
        assert (result.superblocks_fast > 0) == (path == "fast")
        assert (result.superblocks_fallback > 0) == (path == "fallback")
        assert len(result.decisions[0]) == len(opinions)
        del cluster
        assert_all_dead(tracked, blocks=path != "per-ballot")
        assert unreachable_consensus_objects() == []
