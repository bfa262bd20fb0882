"""The package's one process pool: :class:`WarmProcessPool`.

It is the only place a ``ProcessPoolExecutor`` is built, warmed, bounded,
failed and shut down.  Workers run a one-time initializer (group
construction, fixed-base tables, scheme derivation) and then serve many
submissions; :meth:`WarmProcessPool.imap_unordered` streams results back in
completion order under a bounded-inflight submission window.  The shard
driver keeps one for a whole election (or borrows a shared one).  Callables
handed to the pool must be picklable module-level functions or instances of
module-level classes (the usual pickle restriction).
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

if TYPE_CHECKING:  # annotations only; see WarmProcessPool._ensure for the runtime import
    from concurrent.futures import Future, ProcessPoolExecutor

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


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
    pool-reusing tests).  ``workers=None`` asks for one worker per CPU.

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
        if workers is None:
            workers = max(os.cpu_count() or 1, 1)
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
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
