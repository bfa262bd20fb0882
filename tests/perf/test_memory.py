"""MemoryTracker: resettable per-block peaks, recorder integration."""

import tracemalloc

import pytest

from repro.perf.memory import MemorySample, MemoryTracker, current_rss_bytes
from repro.perf.phases import PhaseRecorder


def allocate(megabytes):
    return bytearray(megabytes * 1024 * 1024)


class TestMemoryTracker:
    def test_peaks_reflect_block_allocations(self):
        tracker = MemoryTracker()
        with tracker.track("big"):
            block = allocate(8)
            del block
        with tracker.track("small"):
            block = allocate(1)
            del block
        peaks = {name: sample.peak_traced_bytes for name, sample in tracker.samples.items()}
        assert peaks["big"] > 4 * peaks["small"]

    def test_later_blocks_are_not_charged_for_earlier_residue(self):
        """Peaks are relative to block entry, so surviving allocations from an
        earlier block must not inflate a later block's number."""
        tracker = MemoryTracker()
        with tracker.track("leaky"):
            survivor = allocate(8)
        with tracker.track("clean"):
            block = allocate(1)
            del block
        peaks = {name: sample.peak_traced_bytes for name, sample in tracker.samples.items()}
        assert peaks["clean"] < peaks["leaky"] / 4
        del survivor

    def test_reentering_a_name_keeps_the_maximum(self):
        tracker = MemoryTracker()
        with tracker.track("phase"):
            block = allocate(4)
            del block
        first = tracker.samples["phase"].peak_traced_bytes
        with tracker.track("phase"):
            pass
        assert tracker.samples["phase"].peak_traced_bytes == first

    def test_blocks_may_not_nest(self):
        tracker = MemoryTracker()
        with pytest.raises(RuntimeError, match="nest"):
            with tracker.track("outer"):
                with tracker.track("inner"):
                    pass
        # The failed nesting attempt must not leave the tracker stuck.
        with tracker.track("after"):
            pass
        assert "after" in tracker.samples

    def test_stops_tracing_only_if_it_started_it(self):
        assert not tracemalloc.is_tracing()
        tracker = MemoryTracker()
        with tracker.track("own"):
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()

        tracemalloc.start()
        try:
            with tracker.track("borrowed"):
                pass
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_recorder_receives_durations(self):
        recorder = PhaseRecorder()
        tracker = MemoryTracker(recorder=recorder)
        with tracker.track("timed"):
            allocate(1)
        assert recorder.timings["timed"] > 0
        assert recorder.timings["timed"] == tracker.samples["timed"].duration_s

    def test_samples_serialize_for_reports(self):
        tracker = MemoryTracker()
        with tracker.track("block"):
            pass
        sample = tracker.samples["block"]
        assert isinstance(sample, MemorySample)
        row = tracker.as_dict()["block"]
        assert row["name"] == "block"
        assert row["peak_traced_bytes"] >= 0
        assert row["duration_s"] >= 0


def test_current_rss_is_monotone_and_positive():
    first = current_rss_bytes()
    assert first > 0
    block = allocate(4)
    assert current_rss_bytes() >= first
    del block
