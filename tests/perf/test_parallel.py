"""Tests for the chunked process-pool scheduler and the warm pool."""

import os
import time

import pytest

from repro.perf.parallel import (
    DEFAULT_MAX_CHUNK,
    ParallelConfig,
    PoolTaskError,
    PoolWorkerDied,
    WarmProcessPool,
    chunk_seeds,
    parallel_chunk_map,
    split_chunks,
)


def square(value):
    """Module-level so the process-pool path can pickle it."""
    return value * value


def chunk_squares(chunk, seed):
    return [square(value) for value in chunk]


def flat(per_chunk):
    return [result for chunk_results in per_chunk for result in chunk_results]


def chunk_sum_with_seed(chunk, seed):
    """Module-level chunk function recording the seed it was handed."""
    return (sum(chunk), seed)


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


def chunk_fail_on_seven(chunk, seed):
    return [fail_on_seven(value) for value in chunk]


def die_on_three(value):
    """Kills its worker process outright: no exception, no cleanup."""
    if value == 3:
        os._exit(1)
    time.sleep(0.01)
    return value * value


def chunk_dies_on_three(chunk, seed):
    return [die_on_three(value) for value in chunk]


class TestConfig:
    def test_one_worker_is_always_serial(self):
        config = ParallelConfig(workers=1)
        assert config.use_serial(1_000_000)

    def test_small_inputs_fall_back_to_serial(self):
        config = ParallelConfig(workers=8, serial_threshold=64)
        assert config.use_serial(63)
        assert not config.use_serial(64)

    def test_none_workers_means_all_cores(self):
        assert ParallelConfig(workers=None).resolved_workers() >= 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0).resolved_workers()

    def test_auto_chunk_size_is_bounded_and_machine_independent(self):
        config = ParallelConfig(workers=None)
        assert config.resolved_chunk_size(10_000) == DEFAULT_MAX_CHUNK
        assert config.resolved_chunk_size(10) == 10

    def test_explicit_chunk_size_wins(self):
        assert ParallelConfig(chunk_size=7).resolved_chunk_size(10_000) == 7
        with pytest.raises(ValueError):
            ParallelConfig(chunk_size=0).resolved_chunk_size(10)


class TestChunking:
    def test_split_chunks_covers_everything_in_order(self):
        chunks = split_chunks(list(range(10)), 3)
        assert [list(c) for c in chunks] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_chunk_seeds_are_deterministic_and_distinct(self):
        seeds = chunk_seeds(42, 8)
        assert seeds == chunk_seeds(42, 8)
        assert len(set(seeds)) == 8
        assert chunk_seeds(43, 8) != seeds

    def test_seeds_do_not_depend_on_worker_count(self):
        """Chunk boundaries come from chunk_size, seeds from the index, so a
        re-run with more workers sees identical (chunk, seed) pairs."""
        items = list(range(40))
        serial = parallel_chunk_map(
            chunk_sum_with_seed, items, ParallelConfig(workers=1, chunk_size=8, base_seed=3)
        )
        pooled = parallel_chunk_map(
            chunk_sum_with_seed,
            items,
            ParallelConfig(workers=2, chunk_size=8, serial_threshold=1, base_seed=3),
        )
        assert serial == pooled

    def test_default_base_seed_is_unpredictable(self):
        """Without an explicit base_seed every job draws fresh chunk seeds
        (the secure default: batching exponents must not be predictable)."""
        items = list(range(16))
        config = ParallelConfig(workers=1, chunk_size=4)
        first = parallel_chunk_map(chunk_sum_with_seed, items, config)
        second = parallel_chunk_map(chunk_sum_with_seed, items, config)
        assert [s for s, _ in first] == [s for s, _ in second]  # same chunk sums
        assert [seed for _, seed in first] != [seed for _, seed in second]


class TestChunkMap:
    def test_serial_map_preserves_order(self):
        per_chunk = parallel_chunk_map(chunk_squares, range(20), ParallelConfig(chunk_size=3))
        assert flat(per_chunk) == [v * v for v in range(20)]

    def test_empty_input(self):
        assert parallel_chunk_map(chunk_sum_with_seed, []) == []

    def test_process_pool_map_matches_serial(self):
        items = list(range(100))
        expected = parallel_chunk_map(chunk_squares, items, ParallelConfig(workers=1))
        pooled = parallel_chunk_map(
            chunk_squares, items, ParallelConfig(workers=2, serial_threshold=1, chunk_size=25)
        )
        assert flat(pooled) == flat(expected) == [v * v for v in items]


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

    def test_killed_worker_under_chunk_map_raises_the_same_error(self):
        config = ParallelConfig(workers=2, chunk_size=1, serial_threshold=1)
        with pytest.raises(PoolWorkerDied):
            parallel_chunk_map(chunk_dies_on_three, list(range(6)), config)
        # a pool is owned per call, so the next call is unaffected
        assert flat(parallel_chunk_map(chunk_squares, list(range(6)), config)) == [
            v * v for v in range(6)
        ]

    def test_chunk_error_under_the_pool_is_the_chunk_functions_own(self):
        """One failure surface: what the serial path raises, the pool raises."""
        for workers in (1, 2):
            config = ParallelConfig(workers=workers, chunk_size=2, serial_threshold=1)
            with pytest.raises(ValueError, match="seven is right out"):
                parallel_chunk_map(chunk_fail_on_seven, list(range(10)), config)

    def test_resolves_default_worker_count(self):
        pool = WarmProcessPool()
        assert pool.workers == max(os.cpu_count() or 1, 1)
