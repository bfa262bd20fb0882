"""Drive a full sharded election: plan, per-shard slices, cross-shard merge.

``ShardedElectionDriver`` is the scale pipeline behind
``MultiElectionService.run_sharded``: it derives the shard plan from the
scenario's electorate, runs one :class:`ShardRunner` slice per range, streams
each slice's commitment into the cross-shard commit, and finishes with the
two-phase commit, an independent re-verification of the published records,
and the opened global tally.  There is one driver and one slice function;
``spec.sharding.workers`` only decides where the slices run:

inline      ``workers == 1``: the slice function is mapped over the plan in
            this process, lazily, so at most one shard's working set is alive
            at a time (the O(shard) memory claim).  No process is spawned,
            nothing is serialized and neither ``concurrent.futures`` nor
            ``multiprocessing`` is imported.

pooled      ``workers > 1``: the same slice function runs on a
            :class:`~repro.perf.parallel.WarmProcessPool` whose initializer
            builds the group, its fixed-base tables and the commitment scheme
            *once per worker process* from ``(backend, num_options, seed)``,
            so that state never crosses a process boundary.  Each result
            comes back as **one** ``ShardSliceResult`` **frame** (tag 0x62),
            never as pickled group elements: gmpy2 ``mpz`` values have no
            pickle-stable identity and the curve backends carry
            backend-specific element classes.

Either way finished slices fold into :meth:`CrossShardCommit.prepare` in
*completion* order.  Every slice is a pure function of ``(seed, election_id,
shard_range, scheme)`` and group multiplication commutes, so the global commit
record, its digests and the tally are bit-identical for every worker count and
completion order.  ``sharding.max_inflight_shards`` bounds how many slices may
be pending on the pool, so the parent holds O(inflight x record) and each
worker O(shard).

The driver deliberately depends only on duck-typed spec fields (``options``,
``electorate``, ``election_id``, ``seed``, ``crypto``, ``sharding``), not on
``repro.api`` — the api layer sits on top of this module, not under it.
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Mapping, Optional, Tuple

from repro.core.tally import TallyResult
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.group import Group
from repro.crypto.registry import get_group
from repro.crypto.utils import int_to_bytes
from repro.net.codec import MessageCodec, WireFormatError, default_codec
from repro.perf.parallel import PoolTaskError, WarmProcessPool
from repro.shard.merge import CrossShardCommit, ShardCommitReport, verify_shard_records
from repro.shard.partition import ShardPlan
from repro.shard.records import GlobalCommitRecord
from repro.shard.shard_runner import ShardRunner, ShardSliceResult


class ShardExecutionError(RuntimeError):
    """A shard's slice raised; names the shard, the slice's error is ``__cause__``."""

    def __init__(self, shard_id: int, cause: BaseException):
        super().__init__(f"shard {shard_id} failed: {cause}")
        self.shard_id = shard_id


def derive_scheme(group: Group, num_options: int, seed: int) -> OptionEncodingScheme:
    """The commitment scheme every shard (and the merge) works under.

    The public key is derived from the election seed; its secret is never
    used -- openings travel as explicit (values, randomness) pairs, exactly
    like the full simulator's trustee path.  Module-level so pool workers
    derive the *identical* scheme from ``(backend, num_options, seed)``
    without pickling any group state.
    """
    public_key = group.power_g(group.hash_to_scalar(b"shard-pk", int_to_bytes(seed)))
    return OptionEncodingScheme(num_options, public_key, group)


# -- the slice -----------------------------------------------------------------

@dataclass
class _SliceState:
    """What every slice of one election shares; built once per process."""

    scheme: OptionEncodingScheme
    seed: int
    election_id: str


def _run_slice(state: _SliceState, task: dict) -> ShardSliceResult:
    """One shard's election slice (the only place a ``ShardRunner`` is built)."""
    return ShardRunner(
        task["shard"],
        scheme=state.scheme,
        seed=state.seed,
        election_id=state.election_id,
        num_collectors=task["num_collectors"],
        consensus_batch_size=task["consensus_batch_size"],
        turnout=task["turnout"],
        tampered_codes=task["tampered_codes"],
    ).run()


#: a pool worker's state: installed by the initializer, which receives only
#: picklable primitives, and shared by every slice that lands on the worker.
_WORKER: Optional[_SliceState] = None


def _init_shard_worker(backend: str, num_options: int, seed: int, election_id: str) -> None:
    """Once per worker process: group + fixed-base tables + scheme."""
    global _WORKER
    _WORKER = _SliceState(derive_scheme(get_group(backend), num_options, seed), seed, election_id)


def _run_slice_in_worker(task: dict) -> bytes:
    """:func:`_run_slice` on the worker's state, as one ``ShardSliceResult`` frame."""
    if _WORKER is None:
        raise RuntimeError("shard worker used before its initializer ran")
    return default_codec().encode(_run_slice(_WORKER, task))


def decode_slice(codec: MessageCodec, frame: bytes) -> ShardSliceResult:
    """A pooled slice's result, its elements decoded into ``codec``'s group."""
    result = codec.decode(frame)
    if not isinstance(result, ShardSliceResult):
        raise WireFormatError(f"expected a ShardSliceResult frame, got {type(result).__name__}")
    return result


def worker_initargs(spec) -> tuple:
    """The (picklable) identity a pool must be warmed with for ``spec``."""
    return (spec.crypto.backend, len(spec.options), int(spec.seed), spec.election_id)


def shard_worker_pool(spec) -> WarmProcessPool:
    """A warm pool of ``spec.sharding.workers`` workers initialized for ``spec``'s election.

    Reusable across any number of :class:`ShardedElectionDriver` runs of the
    *same* election identity (backend, options, seed, id) -- hand it to the
    driver's ``pool=`` to amortize worker warm-up.
    """
    return WarmProcessPool(
        workers=spec.sharding.workers,
        initializer=_init_shard_worker,
        initargs=worker_initargs(spec),
    )


@dataclass
class ShardedElectionOutcome:
    """Result of one sharded end-to-end run."""

    election_id: str
    options: Tuple[str, ...]
    num_ballots: int
    num_shards: int
    tally: TallyResult
    global_record: GlobalCommitRecord
    report: ShardCommitReport
    shard_stats: List[dict] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def ballots_per_s(self) -> float:
        return self.num_ballots / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def messages_sent(self) -> int:
        return sum(stat["messages_sent"] for stat in self.shard_stats)

    def as_dict(self) -> dict:
        return {
            "election_id": self.election_id,
            "num_ballots": self.num_ballots,
            "num_shards": self.num_shards,
            "tally": self.tally.as_dict(),
            "total_cast": self.global_record.total_cast,
            "verified": self.report.ok,
            "messages_sent": self.messages_sent,
            "duration_s": self.duration_s,
            "ballots_per_s": self.ballots_per_s,
        }


class ShardedElectionDriver:
    """Run an election of any size through the sharded pipeline.

    ``pool`` injects the executor of a pooled run (``spec.sharding.workers >
    1``): a :func:`shard_worker_pool` warmed for this election, which the
    driver borrows and leaves running.  Without it a pooled run starts its own
    pool and shuts it down.  ``tampered_codes`` is the fault-injection hook:
    serial -> the (wrong) code that voter submits.
    """

    def __init__(
        self,
        spec,
        num_ballots: Optional[int] = None,
        codec: Optional[MessageCodec] = None,
        on_shard: Optional[Callable[[ShardSliceResult], None]] = None,
        pool: Optional[WarmProcessPool] = None,
        tampered_codes: Optional[Mapping[int, bytes]] = None,
    ):
        self.spec = spec
        self.num_ballots = int(num_ballots if num_ballots is not None else spec.electorate)
        if self.num_ballots < 1:
            raise ValueError("a sharded election needs at least one ballot")
        self.codec = codec
        self.on_shard = on_shard
        self.sharding = spec.sharding
        self.plan = ShardPlan.split(0, self.num_ballots, self.sharding.num_shards)
        self.tampered_codes = dict(tampered_codes or {})
        if pool is not None and pool.initargs != worker_initargs(spec):
            raise ValueError(
                f"pool was warmed for {pool.initargs}, "
                f"this election needs {worker_initargs(spec)}"
            )
        self._pool = pool
        #: highest number of simultaneously in-flight shards during the last
        #: run (what the memory-bound tests assert on); 1 for an inline run.
        self.peak_inflight = 0

    def _tasks(self) -> List[dict]:
        return [
            {
                "shard": shard,
                "num_collectors": self.sharding.scale_collectors,
                "consensus_batch_size": self.sharding.scale_batch_size,
                "turnout": self.sharding.scale_turnout,
                "tampered_codes": {
                    serial: code
                    for serial, code in self.tampered_codes.items()
                    if serial in shard
                },
            }
            for shard in self.plan.ranges
        ]

    def _inline_slices(self, state: _SliceState) -> Iterator[ShardSliceResult]:
        """The slices run here, one at a time: the runner (opinion/decision
        dicts included) dies before the next starts."""
        self.peak_inflight = 1
        for task in self._tasks():
            try:
                result = _run_slice(state, task)
            except Exception as exc:
                raise ShardExecutionError(task["shard"].shard_id, exc) from exc
            yield result

    def _pooled_slices(self, codec: MessageCodec) -> Iterator[ShardSliceResult]:
        """The slices run on the pool, decoded into this process's group.

        A slice that raises is named; a killed worker is not pinned on a shard
        (:class:`~repro.perf.parallel.PoolWorkerDied` lists what was in flight).
        """
        pool = self._pool or shard_worker_pool(self.spec)
        try:
            for _, frame in pool.imap_unordered(
                _run_slice_in_worker,
                self._tasks(),
                max_inflight=self.sharding.max_inflight_shards,
            ):
                yield decode_slice(codec, frame)
        except PoolTaskError as exc:
            raise ShardExecutionError(exc.task["shard"].shard_id, exc.__cause__) from exc.__cause__
        finally:
            self.peak_inflight = pool.peak_inflight
            if pool is not self._pool:
                pool.shutdown()

    def run(self) -> ShardedElectionOutcome:
        started = time.perf_counter()
        scheme = derive_scheme(
            self.spec.crypto.build_group(), len(self.spec.options), self.spec.seed
        )
        codec = self.codec or MessageCodec(group=scheme.group)
        merge = CrossShardCommit(scheme, codec=codec)
        if self.sharding.workers == 1:
            slices = self._inline_slices(
                _SliceState(scheme, self.spec.seed, self.spec.election_id)
            )
        else:
            slices = self._pooled_slices(codec)
        shard_stats: List[dict] = []
        with closing(slices):  # an owned pool stops here even when the merge raises
            for result in slices:
                # Only the O(num_options) record + opening survive into the merge.
                merge.prepare(result.record, result.opening)
                shard_stats.append(
                    {
                        "shard_id": result.shard_id,
                        "ballots_registered": result.record.ballots_registered,
                        "ballots_cast": result.ballots_cast,
                        "messages_sent": result.messages_sent,
                        "superblocks_fast": result.superblocks_fast,
                        "superblocks_fallback": result.superblocks_fallback,
                        "duration_s": result.duration_ns / 1e9,
                    }
                )
                if self.on_shard is not None:
                    self.on_shard(result)

        # COMMIT: commit, re-verify what was published, open the tally.
        global_record = merge.commit(self.spec.election_id)
        records = tuple(merge.records_in_order())
        problems = tuple(verify_shard_records(scheme, records, global_record, codec))
        tally = merge.open_merged_tally(tuple(self.spec.options))
        report = ShardCommitReport(records, global_record, problems)
        if not report.ok:
            raise RuntimeError(f"cross-shard commit failed verification: {list(problems)}")
        return ShardedElectionOutcome(
            election_id=self.spec.election_id,
            options=tuple(self.spec.options),
            num_ballots=self.num_ballots,
            num_shards=self.plan.num_shards,
            tally=tally,
            global_record=global_record,
            report=report,
            shard_stats=shard_stats,
            duration_s=time.perf_counter() - started,
        )
