"""Chunked process-pool work scheduler for the end-of-election audit.

Auditor re-verification is embarrassingly parallel: the work is a large list
of independent checks (commitment openings, zero-knowledge proofs).  This
module provides the one scheduling primitive they share, and the one process
pool of the package.  The homomorphic tally product is not scheduled here:
it is one fold per election, done by ``OptionEncodingScheme.combine``.

* :class:`WarmProcessPool` -- the only place a ``ProcessPoolExecutor`` is
  built, warmed, bounded, failed and shut down.  Workers run a one-time
  initializer (group construction, fixed-base tables, the chunk function) and
  then serve many submissions; :meth:`WarmProcessPool.imap_unordered` streams
  results back in completion order under a bounded-inflight submission
  window.  The shard driver keeps one for a whole election (or borrows a
  shared one); :func:`parallel_chunk_map` owns one for the call;
* :func:`parallel_chunk_map` -- an order-preserving map of a chunk function
  over such a pool, with a **deterministic serial fallback** when the input
  is small (the pool's fork/pickle overhead dwarfs the work) or when
  ``workers == 1``;
* :func:`chunk_seeds` -- deterministic per-chunk RNG seeds, so randomized
  work (e.g. the small exponents of batch verification) is reproducible for
  a fixed ``(base_seed, chunk_size)`` regardless of the worker count.

Workers receive *chunks*, not single items, so pickling cost is paid once
per chunk; the chunk function itself crosses the process boundary exactly
once, via the pool initializer, not with every chunk.  Callables handed to
the process path must be picklable module-level functions or instances of
module-level classes (the usual pickle restriction).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.crypto.utils import default_random, sha256

if TYPE_CHECKING:  # annotations only; see WarmProcessPool._ensure for the runtime import
    from concurrent.futures import Future, ProcessPoolExecutor

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Inputs smaller than this run serially even when workers were requested;
#: forking and pickling a pool costs more than verifying this many items.
DEFAULT_SERIAL_THRESHOLD = 64

#: Upper bound on the chunk size the auto-chunker picks.  Independent of the
#: worker count so chunk boundaries (and therefore per-chunk RNG seeds) do
#: not move when the same job runs on different machines.
DEFAULT_MAX_CHUNK = 256


@dataclass(frozen=True)
class ParallelConfig:
    """How to schedule one parallel job.

    ``workers=1`` (the default) always runs serially in-process, which is
    also the deterministic reference the tests compare the pool against.
    ``workers=None`` asks for one worker per CPU.
    """

    workers: Optional[int] = 1
    chunk_size: Optional[int] = None
    serial_threshold: int = DEFAULT_SERIAL_THRESHOLD
    #: root of the per-chunk RNG seeds.  ``None`` (the default) draws a fresh
    #: unpredictable root per job -- REQUIRED when chunk randomness has an
    #: adversary (the batched audit: a prover who can predict the batching
    #: exponents can craft forgeries that cancel in the aggregate).  Set an
    #: explicit value only to reproduce a run, e.g. in tests and benchmarks.
    base_seed: Optional[int] = None

    def resolved_workers(self) -> int:
        if self.workers is None:
            return max(os.cpu_count() or 1, 1)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        return self.workers

    def resolved_chunk_size(self, num_items: int) -> int:
        if self.chunk_size is not None:
            if self.chunk_size < 1:
                raise ValueError("chunk size must be at least 1")
            return self.chunk_size
        if num_items <= 0:
            return 1
        return min(DEFAULT_MAX_CHUNK, max(1, num_items))

    def use_serial(self, num_items: int) -> bool:
        """Deterministic fallback: small inputs and 1-worker jobs stay serial."""
        return self.resolved_workers() == 1 or num_items < self.serial_threshold


def split_chunks(items: Sequence[ItemT], chunk_size: int) -> List[Sequence[ItemT]]:
    """Split ``items`` into consecutive chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError("chunk size must be at least 1")
    return [items[start : start + chunk_size] for start in range(0, len(items), chunk_size)]


def chunk_seeds(base_seed: Optional[int], num_chunks: int) -> List[int]:
    """Derive one 64-bit RNG seed per chunk.

    With an explicit ``base_seed``, seeds depend only on ``(base_seed, chunk
    index)``, so a job re-run with a different worker count (chunks land on
    different processes) draws the same randomness per chunk.  With
    ``base_seed=None`` a fresh unpredictable root is drawn from the system
    RNG for this job (the secure default for adversarial randomness).
    """
    if base_seed is None:
        base_seed = default_random().randbits(120)
    # Accept any int (callers may pass a full digest or a negative hash) by
    # folding it into the 128-bit field the derivation hashes.
    base_seed %= 1 << 128
    seeds = []
    for index in range(num_chunks):
        digest = sha256(
            b"d-demos-chunk-seed",
            base_seed.to_bytes(16, "big", signed=False),
            index.to_bytes(8, "big"),
        )
        seeds.append(int.from_bytes(digest[:8], "big"))
    return seeds


def parallel_chunk_map(
    chunk_fn: Callable[[Sequence[ItemT], int], ResultT],
    items: Sequence[ItemT],
    config: Optional[ParallelConfig] = None,
) -> List[ResultT]:
    """Apply ``chunk_fn(chunk, chunk_seed)`` to every chunk, in order.

    This is the workhorse behind the batched audit: the caller's function
    sees a whole chunk at once (so it can run one batched check over it) plus
    that chunk's deterministic seed.
    """
    config = config or ParallelConfig()
    items = list(items)
    if not items:
        return []
    chunk_size = config.resolved_chunk_size(len(items))
    chunks = split_chunks(items, chunk_size)
    seeds = chunk_seeds(config.base_seed, len(chunks))
    if config.use_serial(len(items)):
        return [chunk_fn(chunk, seed) for chunk, seed in zip(chunks, seeds, strict=True)]
    # The chunk function crosses the process boundary exactly once, via the
    # worker initializer; each submitted task pickles only (index, chunk, seed).
    results: List[Any] = [None] * len(chunks)
    with WarmProcessPool(
        workers=min(config.resolved_workers(), len(chunks)),
        initializer=_init_chunk_worker,
        initargs=(chunk_fn,),
    ) as pool:
        try:
            for (index, _, _), result in pool.imap_unordered(
                _call_chunk, zip(range(len(chunks)), chunks, seeds, strict=True)
            ):
                results[index] = result
        except PoolTaskError as exc:
            # What the serial path would have raised: the chunk function's own error.
            raise exc.__cause__
    return results


#: per-worker chunk function installed by :func:`_init_chunk_worker`.
_CHUNK_WORKER_FN: Optional[Callable] = None


def _init_chunk_worker(chunk_fn: Callable) -> None:
    """Pool initializer: ship the chunk function to each worker once."""
    global _CHUNK_WORKER_FN
    _CHUNK_WORKER_FN = chunk_fn


def _call_chunk(packed: Tuple[int, Sequence[ItemT], int]) -> ResultT:
    """Module-level trampoline: the pool needs a top-level function."""
    if _CHUNK_WORKER_FN is None:
        raise RuntimeError("chunk worker used before its initializer ran")
    _, chunk, seed = packed
    return _CHUNK_WORKER_FN(chunk, seed)


class PoolTaskError(RuntimeError):
    """One submitted task raised inside its worker.

    Carries the original ``task`` object so the caller can name what failed
    (the shard driver turns this into "shard N failed"); the worker-side
    exception is chained as ``__cause__``.
    """

    def __init__(self, task: Any, cause: BaseException):
        super().__init__(f"pool task failed: {cause!r}")
        self.task = task


class PoolWorkerDied(RuntimeError):
    """A worker process died (killed, ``os._exit``, out of memory) mid-drive.

    The executor cannot say which task the dead worker was running, so
    ``tasks`` lists every task that was submitted and not yet yielded -- one
    of them took the worker down, the others are innocent.
    """

    def __init__(self, tasks: Sequence[Any]):
        super().__init__(f"a pool worker died with {len(tasks)} task(s) in flight: {tasks!r}")
        self.tasks = list(tasks)


class WarmProcessPool:
    """A persistent process pool whose workers warm up exactly once.

    Spawn workers once, run ``initializer(*initargs)`` in each (group
    construction, fixed-base tables, scheme derivation -- the expensive
    per-process state), then keep submitting until :meth:`shutdown`: the shape
    pipelines that issue many rounds of work want (the shard driver,
    pool-reusing tests), and the one :func:`parallel_chunk_map` uses for a
    single round.

    The executor is created lazily on first use, so constructing a pool is
    free; ``initargs`` stays exposed as a fingerprint letting callers verify
    a shared pool was warmed for the state they expect.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple = (),
    ):
        self.workers = ParallelConfig(workers=workers).resolved_workers()
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self._executor: Optional[ProcessPoolExecutor] = None
        #: highest number of simultaneously-pending tasks observed by the
        #: most recent :meth:`imap_unordered` drive (the memory-bound probe).
        self.peak_inflight = 0

    @property
    def started(self) -> bool:
        return self._executor is not None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Imported where a pool is built: a single-process run does not pay
            # for concurrent.futures.process and multiprocessing (~30 ms, ~5 MiB).
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=self.initializer,
                initargs=self.initargs,
            )
        return self._executor

    def submit(self, fn: Callable[..., ResultT], *args: Any) -> "Future[ResultT]":
        """Submit one task; the pool (and its warm workers) persist after it."""
        return self._ensure().submit(fn, *args)

    def imap_unordered(
        self,
        fn: Callable[[ItemT], ResultT],
        tasks: Iterable[ItemT],
        max_inflight: Optional[int] = None,
    ) -> Iterator[Tuple[ItemT, ResultT]]:
        """Yield ``(task, result)`` pairs in *completion* order.

        At most ``max_inflight`` tasks (default ``2 * workers``) are pending
        at any moment -- submission is demand-driven, so peak memory for
        task payloads and un-consumed results is O(inflight), not O(tasks).
        A worker exception cancels everything still pending and raises
        :class:`PoolTaskError` naming the failed task; a worker *death* raises
        :class:`PoolWorkerDied` listing the tasks in flight and drops the
        broken executor.  Either way the pool stays usable: after a death the
        next use spawns and re-warms fresh workers.
        """
        queue = list(tasks)
        self.peak_inflight = 0
        if not queue:
            return
        if max_inflight is None:
            max_inflight = 2 * self.workers
        max_inflight = max(1, max_inflight)
        executor = self._ensure()
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        backlog = iter(queue)
        pending: Dict[Future, ItemT] = {}

        def submit_next() -> bool:
            task = next(backlog, _EXHAUSTED)
            if task is _EXHAUSTED:
                return False
            pending[executor.submit(fn, task)] = task
            self.peak_inflight = max(self.peak_inflight, len(pending))
            return True

        try:
            while len(pending) < max_inflight and submit_next():
                pass
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:
                        raise PoolTaskError(pending.pop(future), exc) from exc
                    task = pending.pop(future)
                    # Refill before yielding: the next slice starts while the
                    # caller is still folding this one into the merge.
                    while len(pending) < max_inflight and submit_next():
                        pass
                    yield task, result
        except BrokenProcessPool as exc:
            # Every pending future fails with this error, whichever the dead
            # worker ran, and ``submit`` raises it from then on.
            self.shutdown(wait_for_workers=False)
            raise PoolWorkerDied(list(pending.values())) from exc
        finally:
            # A failed or abandoned drive leaves nothing queued behind it.
            for straggler in pending:
                straggler.cancel()

    def shutdown(self, wait_for_workers: bool = True) -> None:
        """Stop the workers; the next use spawns (and re-warms) fresh ones."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait_for_workers, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WarmProcessPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


#: sentinel distinguishing "backlog exhausted" from a legitimate None task.
_EXHAUSTED = object()
