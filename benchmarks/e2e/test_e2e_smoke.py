"""Smoke test of the end-to-end benchmark (tier-1, a few seconds).

Runs ``run.py --smoke`` (8 voters / 2000 ballots, 2 passes per workload, gate
off, one traced pass) and checks the wiring, not the speed: every metric is
there with its unit, the correctness checks can fail, exact metrics repeat,
and ``BENCHMARK.json`` says what ``run.py`` prints.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))  # the benchmark's files import each other by plain name

import bench_metrics  # noqa: E402
import bench_pass  # noqa: E402
import run  # noqa: E402

# ``trace.py`` shares its name with a stdlib module, so it is imported by path.
_spec = importlib.util.spec_from_file_location("e2e_trace", HERE / "trace.py")
e2e_trace = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = e2e_trace
_spec.loader.exec_module(e2e_trace)


def run_py(*args: str, cwd: Path = REPO, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def smoke():
    done = run_py("--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads((HERE / "results" / "smoke_e2e.json").read_text())
    last_line = json.loads(done.stdout.strip().splitlines()[-1])
    return document, last_line, done.stdout


def test_every_metric_is_present_finite_and_has_its_unit(smoke):
    document, last_line, stdout = smoke
    rows = {row["workload"]: row for row in document["rows"]}
    assert tuple(rows) == bench_metrics.ALL_WORKLOADS
    for metric in bench_metrics.END_TO_END:
        for workload in bench_metrics.ALL_WORKLOADS:
            cell = rows[workload]["end_to_end"].get(metric.name)
            if workload not in metric.workloads:
                assert cell is None, f"{workload} must not invent {metric.name}"
                continue
            assert cell["unit"] == metric.unit
            assert math.isfinite(cell["value"])
            assert f"{workload:16s} {metric.name:28s}" in stdout
    for metric in bench_metrics.PER_LAYER:
        workload = "sharded_scale" if metric.name.startswith("shard.") else "engine_wire"
        value = rows[workload]["per_layer"][metric.name]
        assert math.isfinite(value), metric.name
    for row in rows.values():
        assert row["correct"] and row["failed"] == 0 and row["attempted"] > 0
        assert row["trace_missing"] == []
        assert row["per_layer"]["trace.overhead"] > 0
    assert last_line["correct"] is True
    for metric in bench_metrics.CONTRACT_END_TO_END:
        cell = last_line["metrics"][f"engine_wire/{metric.name}"]
        assert cell["unit"] == metric.unit and cell["value"] > 0


def test_layers_show_on_the_workloads_that_exercise_them(smoke):
    document, _, _ = smoke
    rows = {row["workload"]: row["per_layer"] for row in document["rows"]}
    assert rows["engine_baseline"]["net.codec.encode_calls"] == 0
    assert rows["engine_wire"]["net.codec.encode_calls"] > 0
    assert rows["engine_wire"]["consensus.per_ballot_instances"] > 0
    assert rows["engine_batched"]["consensus.superblocks_fast"] > 0
    assert rows["engine_batched"]["core.admission.endorse_batches"] > 0
    assert rows["sharded_scale"]["shard.shard_runner.sha256_calls_per_ballot"] > 0
    assert rows["sharded_scale"]["net.simulator.events"] == 0
    assert rows["engine_wire"]["shard.shard_runner.consensus_s"] == 0


def test_phase_timers_cover_the_wall_time_after_setup(smoke):
    document, _, _ = smoke
    for row in document["rows"]:
        if row["workload"] != "sharded_scale":
            assert abs(row["phase_sum_share"] - 1.0) < 0.02
        for entry in row["passes"]:
            assert entry["wall"]["setup_s"] > 0 and entry["wall"]["post_setup_s"] > 0


@pytest.mark.parametrize("workload", ["engine_baseline", "sharded_scale"])
def test_a_wrong_expected_tally_fails_every_ballot(workload):
    done = run_py("--smoke", "--workload", workload, "--corrupt-expected", "--trace", "0")
    assert done.returncode == 1
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0
    document = json.loads((HERE / "results" / f"smoke_{workload}_seed1_trace0.json").read_text())
    assert document["rows"][0]["end_to_end"]["failed_share"]["value"] == 1.0


@pytest.fixture(scope="module")
def two_rows():
    return [bench_pass.run_pass("engine_batched", 5, smoke=True) for _ in range(2)]


def test_exact_metrics_repeat_and_a_mismatch_is_a_failed_run(two_rows):
    first, second = copy.deepcopy(two_rows)
    assert first["exact"] == second["exact"]
    passes = [run.Pass(row, 0.0, 0.0, True) for row in (first, second)]
    assert run.summarise("engine_batched", passes, min_clean=2)["correct"]
    second["exact"]["consensus.superblocks_fast"] += 1
    summary = run.summarise("engine_batched", passes, min_clean=2)
    assert not summary["correct"] and "differ between passes" in summary["problems"][0]


def test_too_few_clean_passes_give_no_number(two_rows):
    passes = [run.Pass(row, 0.0, 0.0, clean) for row, clean in zip(two_rows, (True, False))]
    summary = run.summarise("engine_batched", passes, min_clean=2)
    assert summary["correct"] and not summary["quiet"]
    assert (summary["n_clean"], summary["n_rejected"]) == (1, 1)
    assert run.exit_code([summary]) == run.EXIT_NOT_QUIET
    assert run.exit_code([summary], strict=False) == 0  # the driver's form reports
    run.redact(summary)
    assert all(cell["value"] is None for cell in summary["end_to_end"].values())
    assert set(summary["per_layer"].values()) == {None}


def test_a_time_boxed_run_scales_its_times_to_the_baseline_speed(two_rows):
    calibrator = run.Calibrator(gate=run.GATE_TIMEBOXED, scale_to=0.08)
    assert calibrator.is_clean(0.160, 0.170)  # slow but steady: scaled, not rejected
    assert not calibrator.is_clean(0.080, 0.100)  # the machine changed under the pass
    assert calibrator.scale(0.150, 0.170) == pytest.approx(0.5)
    assert run.Calibrator().scale(0.150, 0.170) == 1.0  # the full set reports as measured
    row = two_rows[0]
    plain, halved = run.end_to_end_values(row), run.end_to_end_values(row, 0.5)
    for name in ("setup_s", "close_to_result_s", "audit_s"):
        assert halved[name] == pytest.approx(plain[name] / 2)
    for name in ("ballots_per_s", "votes_per_s"):
        assert halved[name] == pytest.approx(plain[name] * 2)
    for name in ("peak_rss_mb", "receipt_latency_ms_p50", "failed_share"):
        assert halved[name] == plain[name]
    passes = [run.Pass(r, 0.16, 0.16, True, 0.5) for r in two_rows]
    summary = run.summarise("engine_batched", passes, min_clean=2)
    assert summary["end_to_end"]["setup_s"]["value"] == pytest.approx(
        sum(r["wall"]["setup_s"] for r in two_rows) / 4
    )


def test_benchmark_json_matches_what_run_py_prints(smoke):
    document, _, _ = smoke
    committed = json.loads((REPO / "BENCHMARK.json").read_text())
    assert committed == bench_metrics.benchmark_json()
    assert [w["name"] for w in committed["workloads"]] == list(bench_metrics.ALL_WORKLOADS)
    for row in document["rows"]:
        plain = json.loads(run.contract_line([row], trace=False, prefix=False))
        traced = json.loads(run.contract_line([row], trace=True, prefix=False))
        assert list(plain["metrics"]) == [m["name"] for m in committed["end_to_end"]]
        assert list(traced["metrics"]) == [m["name"] for m in committed["per_layer"]]
        assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert "setup_s" in {m["name"] for m in committed["end_to_end"]}
    assert set(e2e_trace.TRACED_METRICS) == {
        m.name for m in bench_metrics.PER_LAYER if m.source == "traced"
    }


def test_tracer_skips_targets_that_no_longer_resolve():
    targets = (
        e2e_trace.Target("gone.module", "repro.no_such_module:f"),
        e2e_trace.Target("gone.attribute", "repro.net.codec:MessageCodec.no_such_method"),
        e2e_trace.Target("net.codec.encode", "repro.net.codec:MessageCodec.encode"),
    )
    from repro.net.codec import MessageCodec

    original = MessageCodec.__dict__["encode"]
    tracer = e2e_trace.Tracer("test", targets)
    tracer.install()
    try:
        assert MessageCodec.__dict__["encode"] is not original
    finally:
        tracer.uninstall()
    assert MessageCodec.__dict__["encode"] is original
    report = tracer.report(ballots=1)
    assert report["trace_missing"] == [targets[0].where, targets[1].where]
    assert report["metrics"]["net.codec.encode_calls"] == 0


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = run_py("--workload", "engine_wire", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
