"""Span tracer for the traced benchmark pass.

The tracer lives in the benchmark, not in the program: it resolves public
functions of each layer by dotted name, wraps them with span recorders and
puts the originals back afterwards.  A span is (name, start, end, parent
span); every span of a pass shares the pass identifier.  Spans stay in
memory (compact arrays) until the pass ends; :meth:`Tracer.write` then dumps
the per-name aggregates and the first ``MAX_SPANS_WRITTEN`` raw spans.

Self time of a span is its duration minus the duration of its direct child
spans.  A target that no longer resolves (renamed by a refactor) is skipped
and reported under ``trace_missing``; no untraced metric depends on a target.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

MAX_SPANS_WRITTEN = 20_000


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``where`` is ``"module:attr.path"``."""

    name: str
    where: str
    #: spans of one family that nest count once in ``outer`` totals
    #: (``cached_power`` -> ``plain_power`` -> ``__pow__`` is one exponentiation).
    family: Optional[str] = None
    #: ``probe(tracer, args, result)`` runs after a successful call.
    probe: Optional[Callable[["Tracer", tuple, Any], None]] = None
    #: count calls only (for leaves called millions of times per pass).
    count_only: bool = False


def _probe_multi_power(tracer, args, result) -> None:
    tracer.counters["crypto.group.multi_power_terms"] += len(args[1])


def _probe_batch_outcome(tracer, args, result) -> None:
    counters = tracer.counters
    counters["crypto.batch_verify.items"] += result.checked
    counters["crypto.batch_verify.equations"] += result.equations
    counters["crypto.batch_verify.bisections"] += max(0, result.equations - 1)


def _probe_signing_bytes(tracer, args, result) -> None:
    """Count outputs already produced in this pass (what an encoding cache would save)."""
    digest = hash(result)
    if digest in tracer.seen_signing_bytes:
        tracer.counters["net.codec.signing_bytes_repeats"] += 1
    else:
        tracer.seen_signing_bytes.add(digest)


#: message class name -> family counted under ``core.vote_collector.<family>_calls``
VC_MESSAGE_FAMILIES = {
    "VoteRequest": "vote_request",
    "Endorse": "endorse",
    "Endorsement": "endorse",
    "VotePending": "vote_pending",
    "Announce": "consensus",
    "VscEnvelope": "consensus",
    "VscBatch": "consensus",
    "RecoverRequest": "consensus",
    "RecoverResponse": "consensus",
}


def _probe_vc_message(tracer, args, result) -> None:
    family = VC_MESSAGE_FAMILIES.get(type(args[1].payload).__name__)
    if family is not None:
        tracer.counters[f"core.vote_collector.{family}_calls"] += 1


_POWER = "crypto.group.power"
_GROUP = "repro.crypto.group:"

TARGETS: Tuple[Target, ...] = (
    Target("core.ea.build", "repro.core.ea:ElectionAuthority.setup"),
    Target("crypto.group.power_g", _GROUP + "Group.power_g", family=_POWER),
    Target("crypto.group.power_h", _GROUP + "Group.power_h", family=_POWER),
    Target("crypto.group.cached_power", _GROUP + "Group.cached_power", family=_POWER),
    Target("crypto.group.plain_power", _GROUP + "Group.plain_power", family=_POWER),
    Target("crypto.group.pow", _GROUP + "SchnorrElement.__pow__", family=_POWER),
    Target("crypto.group.fixed_base", _GROUP + "FixedBasePrecomputation.power", family=_POWER),
    Target("crypto.group.fixed_base", _GROUP + "SchnorrFixedBase.power", family=_POWER),
    Target("crypto.group.multi_power", _GROUP + "SchnorrGroup.multi_power",
           probe=_probe_multi_power),
    Target("crypto.signatures.sign", "repro.crypto.signatures:SignatureScheme.sign"),
    Target("crypto.signatures.verify", "repro.crypto.signatures:SignatureScheme.verify"),
    Target("crypto.batch_verify.call", "repro.crypto.batch_verify:BatchVerifier.verify_signatures",
           probe=_probe_batch_outcome),
    Target("crypto.batch_verify.call", "repro.crypto.batch_verify:BatchVerifier.verify_proofs",
           probe=_probe_batch_outcome),
    Target("crypto.batch_verify.call", "repro.crypto.batch_verify:BatchVerifier.verify_openings",
           probe=_probe_batch_outcome),
    Target("crypto.zkp.prove", "repro.crypto.zkp:BallotCorrectnessProver.first_move"),
    Target("crypto.zkp.prove", "repro.crypto.zkp:BallotCorrectnessProver.respond"),
    Target("crypto.zkp.verify", "repro.crypto.zkp:BallotCorrectnessVerifier.verify"),
    Target("crypto.pedersen_vss.deal", "repro.crypto.pedersen_vss:PedersenVSS.deal"),
    Target("crypto.shamir.reconstruct", "repro.crypto.shamir:ShamirSecretSharing.reconstruct"),
    Target("crypto.shamir.reconstruct", "repro.crypto.shamir:SigningDealer.reconstruct"),
    Target("net.codec.encode", "repro.net.codec:MessageCodec.encode"),
    Target("net.codec.decode", "repro.net.codec:MessageCodec.decode"),
    Target("net.codec.signing_bytes", "repro.net.codec:MessageCodec.signing_bytes",
           probe=_probe_signing_bytes),
    Target("net.simulator.step", "repro.net.simulator:Network.step"),
    Target("core.vote_collector.on_message",
           "repro.core.vote_collector:VoteCollectorNode.on_message", probe=_probe_vc_message),
    Target("consensus.handle", "repro.consensus.bracha:BinaryConsensusInstance.handle"),
    Target("consensus.handle", "repro.consensus.batching:SuperblockConsensus.handle"),
    Target("core.bulletin_board.receive_vote_set",
           "repro.core.bulletin_board:BulletinBoardNode.receive_vote_set"),
    Target("core.bulletin_board.receive_trustee_submission",
           "repro.core.bulletin_board:BulletinBoardNode.receive_trustee_submission"),
    Target("core.bulletin_board.majority_read", "repro.core.bulletin_board:MajorityReader.read"),
    Target("core.trustee.produce_submission", "repro.core.trustee:Trustee.produce_submission"),
    Target("core.trustee.digest", "repro.core.trustee:TrusteeSubmission.digest"),
    Target("shard.shard_runner.ea_table",
           "repro.shard.shard_runner:ShardRunner.ea_commitment_table"),
    # The name bound in shard_runner's namespace: only the runner's own hashes count.
    Target("shard.shard_runner.sha256", "repro.shard.shard_runner:sha256", count_only=True),
    Target("shard.shard_runner.consensus", "repro.consensus.cluster:ConsensusCluster.run"),
    Target("shard.shard_runner.tally_add_vote", "repro.shard.streaming:StreamingTally.add_vote"),
    Target("shard.merge.prepare", "repro.shard.merge:CrossShardCommit.prepare"),
    Target("shard.merge.commit_verify", "repro.shard.merge:CrossShardCommit.commit"),
    # verify_shard_records is imported by name into the scale driver, so both bindings are wrapped.
    Target("shard.merge.commit_verify", "repro.shard.merge:verify_shard_records"),
    Target("shard.merge.commit_verify", "repro.shard.driver:verify_shard_records"),
)


#: span names whose nesting counts as one exponentiation in ``crypto.group.power_s``
POWER_FAMILY = ("power_g", "power_h", "cached_power", "plain_power", "pow", "fixed_base")

#: (metric, span name, field of Tracer.aggregate()) for the metrics read straight off a span:
#: ``incl_s`` inclusive time, ``self_s`` minus child spans, ``outer_*`` outermost in its family.
SPAN_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("core.ea.build_s", "core.ea.build", "incl_s"),
    ("crypto.group.fixed_base_calls", "crypto.group.fixed_base", "calls"),
    ("crypto.group.fixed_base_s", "crypto.group.fixed_base", "incl_s"),
    ("crypto.group.multi_power_calls", "crypto.group.multi_power", "calls"),
    ("crypto.group.multi_power_s", "crypto.group.multi_power", "incl_s"),
    ("crypto.signatures.sign_calls", "crypto.signatures.sign", "calls"),
    ("crypto.signatures.sign_s", "crypto.signatures.sign", "incl_s"),
    ("crypto.signatures.verify_calls", "crypto.signatures.verify", "calls"),
    ("crypto.signatures.verify_s", "crypto.signatures.verify", "incl_s"),
    ("crypto.zkp.prove_s", "crypto.zkp.prove", "incl_s"),
    ("crypto.zkp.verify_s", "crypto.zkp.verify", "incl_s"),
    ("crypto.pedersen_vss.deal_calls", "crypto.pedersen_vss.deal", "calls"),
    ("crypto.pedersen_vss.deal_s", "crypto.pedersen_vss.deal", "incl_s"),
    ("crypto.shamir.reconstruct_calls", "crypto.shamir.reconstruct", "outer_calls"),
    ("crypto.shamir.reconstruct_s", "crypto.shamir.reconstruct", "outer_s"),
    ("net.codec.encode_calls", "net.codec.encode", "calls"),
    ("net.codec.encode_s", "net.codec.encode", "incl_s"),
    ("net.codec.decode_calls", "net.codec.decode", "calls"),
    ("net.codec.decode_s", "net.codec.decode", "incl_s"),
    ("net.codec.signing_bytes_calls", "net.codec.signing_bytes", "calls"),
    ("net.codec.signing_bytes_s", "net.codec.signing_bytes", "incl_s"),
    ("net.simulator.events", "net.simulator.step", "calls"),
    ("net.simulator.step_self_s", "net.simulator.step", "self_s"),
    ("core.vote_collector.on_message_calls", "core.vote_collector.on_message", "calls"),
    ("core.vote_collector.on_message_self_s", "core.vote_collector.on_message", "self_s"),
    ("consensus.handle_s", "consensus.handle", "outer_s"),
    ("core.bulletin_board.receive_vote_set_s", "core.bulletin_board.receive_vote_set", "incl_s"),
    ("core.bulletin_board.receive_trustee_submission_s",
     "core.bulletin_board.receive_trustee_submission", "incl_s"),
    ("core.bulletin_board.majority_read_calls", "core.bulletin_board.majority_read", "calls"),
    ("core.bulletin_board.majority_read_s", "core.bulletin_board.majority_read", "incl_s"),
    ("core.trustee.produce_submission_s", "core.trustee.produce_submission", "incl_s"),
    ("core.trustee.digest_calls", "core.trustee.digest", "calls"),
    ("core.trustee.digest_s", "core.trustee.digest", "incl_s"),
    ("shard.shard_runner.ea_table_s", "shard.shard_runner.ea_table", "incl_s"),
    ("shard.shard_runner.consensus_s", "shard.shard_runner.consensus", "incl_s"),
    ("shard.shard_runner.tally_add_vote_s", "shard.shard_runner.tally_add_vote", "incl_s"),
    ("shard.merge.prepare_s", "shard.merge.prepare", "incl_s"),
    ("shard.merge.commit_verify_s", "shard.merge.commit_verify", "outer_s"),
)


def _resolve(where: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, function)`` for ``"module:attr.path"``."""
    module_name, _, path = where.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    function = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if not callable(function):
        raise AttributeError(f"{where} is not callable")
    return owner, attribute, function


class Tracer:
    """Records spans around :data:`TARGETS` between install() and uninstall()."""

    def __init__(self, pass_id: str, targets: Tuple[Target, ...] = TARGETS):
        self.pass_id = pass_id
        self.targets = targets
        self.missing: List[str] = []
        self.counters: Counter = Counter()
        self.seen_signing_bytes: set = set()
        self._names: List[str] = []
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_outer = array("b")
        self._stack: List[int] = []
        self._family_depth: Dict[str, int] = {}
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            try:
                owner, attribute, function = _resolve(target.where)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.where)
                continue
            wrapper = (
                self._counting(target, function)
                if target.count_only
                else self._spanning(target, function)
            )
            setattr(owner, attribute, wrapper)
            self._patched.append((owner, attribute, function))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, function = self._patched.pop()
            setattr(owner, attribute, function)

    def _counting(self, target: Target, function: Callable) -> Callable:
        counters = self.counters
        key = target.name + "_calls"

        def counted(*args, **kwargs):
            counters[key] += 1
            return function(*args, **kwargs)

        return counted

    def _index(self, table: List[str], value: str) -> int:
        if value not in table:
            table.append(value)
        return table.index(value)

    def _spanning(self, target: Target, function: Callable) -> Callable:
        name_index = self._index(self._names, target.name)
        family = target.family or target.name
        depth = self._family_depth
        depth.setdefault(family, 0)
        probe = target.probe
        names, parents = self._span_name, self._span_parent
        starts, ends, outers = self._span_start, self._span_end, self._span_outer
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_index)
            parents.append(stack[-1] if stack else -1)
            outers.append(depth[family] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            depth[family] += 1
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = clock()
                starts[index] = started
                ends[index] = ended
                depth[family] -= 1
                stack.pop()
            if probe is not None:
                probe(self, args, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------------

    @functools.cached_property
    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive, self and outermost-in-family totals.

        Read it only after :meth:`uninstall`: it is computed once.
        """
        count = len(self._span_name)
        child_time = array("d", bytes(8 * count))
        for index in range(count):
            parent = self._span_parent[index]
            if parent >= 0:
                child_time[parent] += self._span_end[index] - self._span_start[index]
        totals = [
            {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "outer_calls": 0, "outer_s": 0.0}
            for _ in self._names
        ]
        for index in range(count):
            duration = self._span_end[index] - self._span_start[index]
            row = totals[self._span_name[index]]
            row["calls"] += 1
            row["incl_s"] += duration
            row["self_s"] += duration - child_time[index]
            if self._span_outer[index]:
                row["outer_calls"] += 1
                row["outer_s"] += duration
        return dict(zip(self._names, totals, strict=True))

    def report(self, ballots: int) -> Dict[str, Any]:
        """Every traced per-layer metric, by its ``<layer>.<metric>`` name."""
        spans = self.aggregate
        counters = self.counters

        def span(name: str, field: str) -> float:
            return spans[name][field] if name in spans else 0

        metrics: Dict[str, float] = {
            metric: span(name, field) for metric, name, field in SPAN_METRICS
        }
        untabled = span("crypto.group.pow", "calls")
        tabled = span("crypto.group.fixed_base", "calls")
        multi_terms = counters["crypto.group.multi_power_terms"]
        exponentiations = untabled + tabled + multi_terms
        signing_calls = span("net.codec.signing_bytes", "calls")
        metrics.update({
            "crypto.group.power_calls": untabled + tabled,
            "crypto.group.power_s": sum(
                span(f"crypto.group.{member}", "outer_s") for member in POWER_FAMILY
            ),
            "crypto.group.multi_power_terms": multi_terms,
            "crypto.group.untabled_pow_share":
                untabled / exponentiations if exponentiations else 0.0,
            "net.codec.signing_bytes_repeat_share":
                counters["net.codec.signing_bytes_repeats"] / signing_calls
                if signing_calls else 0.0,
            "shard.shard_runner.sha256_calls_per_ballot":
                counters["shard.shard_runner.sha256_calls"] / max(1, ballots),
        })
        for key in ("items", "equations", "bisections"):
            metrics[f"crypto.batch_verify.{key}"] = counters[f"crypto.batch_verify.{key}"]
        for family in sorted(set(VC_MESSAGE_FAMILIES.values())):
            key = f"core.vote_collector.{family}_calls"
            metrics[key] = counters[key]
        return {
            "pass_id": self.pass_id,
            "span_count": len(self._span_name),
            "trace_missing": list(self.missing),
            "metrics": metrics,
        }

    def write(self, path: str, report: Dict[str, Any]) -> None:
        """Dump aggregates and the first ``MAX_SPANS_WRITTEN`` raw spans as JSON."""
        kept = min(len(self._span_name), MAX_SPANS_WRITTEN)
        document = dict(report)
        document["names"] = list(self._names)
        document["aggregate"] = self.aggregate
        document["counters"] = dict(self.counters)
        document["spans"] = {
            "name": list(self._span_name[:kept]),
            "parent": list(self._span_parent[:kept]),
            "start": list(self._span_start[:kept]),
            "end": list(self._span_end[:kept]),
        }
        document["spans_written"] = kept
        with open(path, "w") as handle:
            json.dump(document, handle)
            handle.write("\n")


#: every metric name :meth:`Tracer.report` produces (the traced per-layer metrics).
TRACED_METRICS: Tuple[str, ...] = tuple(Tracer("names").report(1)["metrics"])
