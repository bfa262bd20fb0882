"""Tests for the warm process pool."""

import os
import time

import pytest

from repro.perf.parallel import PoolTaskError, PoolWorkerDied, WarmProcessPool


def square(value):
    """Module-level so the process-pool path can pickle it."""
    return value * value


_WARMED = None


def _warm(value):
    """Module-level pool initializer recording its argument per worker."""
    global _WARMED
    _WARMED = value


def read_warmed(task):
    """Returns what the initializer installed in this worker, plus the task."""
    return (_WARMED, task)


def slow_square(value):
    time.sleep(0.01)
    return value * value


def fail_on_seven(value):
    if value == 7:
        raise ValueError("seven is right out")
    return value


def die_on_three(value):
    """Kills its worker process outright: no exception, no cleanup."""
    if value == 3:
        os._exit(1)
    time.sleep(0.01)
    return value * value


class TestWarmProcessPool:
    def test_lazy_start_and_shutdown(self):
        pool = WarmProcessPool(workers=1)
        assert not pool.started
        assert pool.submit(square, 6).result() == 36
        assert pool.started
        pool.shutdown()
        assert not pool.started
        # usable again after shutdown: the next call re-warms fresh workers
        assert pool.submit(square, 7).result() == 49
        pool.shutdown()

    def test_initializer_runs_once_per_worker_not_per_task(self):
        """The warm state is installed by the initializer and visible to
        every task that lands on the worker afterwards."""
        with WarmProcessPool(workers=1, initializer=_warm, initargs=("hot",)) as pool:
            results = dict(pool.imap_unordered(read_warmed, range(5)))
        assert results == {task: ("hot", task) for task in range(5)}

    def test_initargs_exposed_as_fingerprint(self):
        pool = WarmProcessPool(workers=1, initializer=_warm, initargs=["a", 2])
        assert pool.initargs == ("a", 2)

    def test_imap_unordered_returns_every_pair(self):
        with WarmProcessPool(workers=2) as pool:
            pairs = dict(pool.imap_unordered(square, range(20)))
        assert pairs == {task: task * task for task in range(20)}

    def test_imap_unordered_empty(self):
        with WarmProcessPool(workers=1) as pool:
            assert list(pool.imap_unordered(square, [])) == []
            assert pool.peak_inflight == 0

    def test_max_inflight_bounds_pending_tasks(self):
        with WarmProcessPool(workers=2) as pool:
            list(pool.imap_unordered(slow_square, range(12), max_inflight=2))
            assert pool.peak_inflight == 2
            list(pool.imap_unordered(slow_square, range(12), max_inflight=1))
            assert pool.peak_inflight == 1

    def test_default_inflight_is_twice_the_workers(self):
        with WarmProcessPool(workers=2) as pool:
            list(pool.imap_unordered(slow_square, range(12)))
            assert pool.peak_inflight <= 4

    def test_worker_exception_names_the_task(self):
        with WarmProcessPool(workers=2) as pool:
            with pytest.raises(PoolTaskError) as excinfo:
                list(pool.imap_unordered(fail_on_seven, range(10), max_inflight=2))
            assert excinfo.value.task == 7
            assert isinstance(excinfo.value.__cause__, ValueError)
            # the pool survives the failure
            assert dict(pool.imap_unordered(square, [3])) == {3: 9}

    def test_killed_worker_lists_the_tasks_in_flight_and_the_pool_respawns(self):
        """Red at b416e94: the error blamed whichever future ``wait`` handed
        back first (task 5 of 6) and the next drive raised BrokenProcessPool."""
        with WarmProcessPool(workers=2, initializer=_warm, initargs=("hot",)) as pool:
            with pytest.raises(PoolWorkerDied) as excinfo:
                list(pool.imap_unordered(die_on_three, range(6), max_inflight=2))
            assert 3 in excinfo.value.tasks
            assert 1 <= len(excinfo.value.tasks) <= 2
            assert not isinstance(excinfo.value, PoolTaskError)
            assert not pool.started  # the broken executor is gone ...
            # ... and the next drive spawns and re-warms fresh workers
            results = dict(pool.imap_unordered(read_warmed, range(6)))
            assert results == {task: ("hot", task) for task in range(6)}

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            WarmProcessPool(workers=0)

    def test_resolves_default_worker_count(self):
        pool = WarmProcessPool()
        assert pool.workers == max(os.cpu_count() or 1, 1)
