#!/usr/bin/env python3
"""End-to-end benchmark of the D-DEMOS reproduction: four workloads, one command.

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed 1]        # the full set
    python3 benchmarks/e2e/run.py --workload engine_wire --seed 3 --seconds 30 --trace 0

This process only spawns, calibrates and aggregates.  Every *pass* runs one
workload once in a fresh interpreter (``bench_pass.py``); a fixed calibration
kernel is read before the first pass and after every pass, and a pass is
*clean* iff both readings around it are within ``GATE`` of the lower decile of
all readings of this invocation.  Timing metrics are medians over clean passes;
with too few clean passes there is no number and the exit code is 3.  Counts
and simulated-time values must be identical in every pass.  README.md has the
protocol, the numbers behind it and the glossary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
RESULTS = HERE / "results"
BASELINE = HERE / "baseline.json"
sys.path.insert(0, str(HERE))

from bench_metrics import (  # noqa: E402
    ALL_WORKLOADS,
    CONTRACT_END_TO_END,
    END_TO_END,
    MIN_TIME_DIFFERENCE_S,
    PER_LAYER,
    RUN_SECONDS,
)

#: a pass is clean iff both bracketing readings are <= GATE x calib_ref_s: the
#: full set waits for the machine's fast state.  A time-boxed run cannot wait and
#: may lie wholly inside a slow stretch, so it scales each pass's times to the
#: speed the committed baseline was taken at (baseline calib_ref_s / the mean of
#: the pass's two readings) and rejects only a pass whose two readings differ by
#: more than GATE_TIMEBOXED: the machine changed under it and the scale is unknown.
GATE = 1.05
GATE_TIMEBOXED = 1.10
#: readings taken before the reference (lower decile) is trusted
WARMUP_READINGS = 10
#: the full set: clean passes wanted per workload (attempts: twice that) and the
#: fewest that still give a number
TARGET_CLEAN = 7
MIN_CLEAN = 5
#: calib_ref_s above this multiple of the committed one prints ``machine_slow``
MACHINE_SLOW = 1.15
#: clean passes a time-boxed run needs before its row counts as quiet
MIN_CLEAN_TIMEBOXED = 2
CHILD_TIMEOUT_S = 120

EXIT_INCORRECT = 1
EXIT_HARNESS = 2
EXIT_NOT_QUIET = 3


class HarnessError(RuntimeError):
    """A pass could not be run at all (missing sources, crashed child)."""


# -- calibration --------------------------------------------------------------------

_P2048 = (1 << 2048) - 1942289
_P256 = (1 << 255) - 19


def calibration_kernel() -> float:
    """~0.1 s of this code's instruction mix: modular pow, SHA-256 chain, dict/bytearray churn."""
    started = time.perf_counter()
    x = 3
    for _ in range(4):
        x = pow(x + 2, _P256 - 2, _P2048)
    for _ in range(250):
        x = pow(x + 2, _P256 - 2, _P256)
    digest = b"calibration"
    for _ in range(60_000):
        digest = hashlib.sha256(digest).digest()
    table: Dict[int, int] = {}
    buffer = bytearray()
    for i in range(60_000):
        table[i & 4095] = i
        buffer += i.to_bytes(4, "big")
        if len(buffer) > 8192:
            del buffer[:]
    return time.perf_counter() - started


class Calibrator:
    """This invocation's calibration readings and the quiet-machine reference they give.

    With ``gate=None`` (smoke sizes) nothing is read and every pass is clean.
    With ``scale_to`` (a time-boxed run) passes are not held to this invocation's
    fastest state: their times are scaled to the machine speed ``scale_to`` names.
    """

    def __init__(self, gate: Optional[float] = GATE, scale_to: Optional[float] = None):
        self.gate = gate
        self.scale_to = scale_to
        self.readings: List[float] = []

    def read(self) -> float:
        if not self.gate:
            return 0.0
        # Best of two back-to-back runs: the first one after an idle wait pays
        # a wake-up penalty that says nothing about contention.
        reading = min(calibration_kernel(), calibration_kernel())
        self.readings.append(reading)
        return reading

    def warm_up(self) -> None:
        while self.gate and len(self.readings) < WARMUP_READINGS:
            self.read()

    @property
    def ref(self) -> Optional[float]:
        """``calib_ref_s``: the lower decile of all readings so far."""
        return statistics.quantiles(self.readings, n=10)[0] if len(self.readings) > 1 else None

    def is_clean(self, before: float, after: float) -> bool:
        if not self.gate:
            return True
        slowest_allowed = min(before, after) if self.scale_to else self.ref
        return max(before, after) <= self.gate * slowest_allowed

    def scale(self, before: float, after: float) -> float:
        """What a pass's wall times are multiplied by (1: reported as measured)."""
        return self.scale_to / ((before + after) / 2) if self.scale_to else 1.0


# -- passes -------------------------------------------------------------------------


@dataclass
class Pass:
    row: Dict[str, Any]
    calib_before: float
    calib_after: float
    clean: bool
    #: wall seconds -> reported seconds (see ``Calibrator.scale``)
    scale: float = 1.0


def run_child(
    workload: str,
    seed: int,
    *,
    smoke: bool = False,
    trace_path: Optional[Path] = None,
    corrupt_expected: bool = False,
) -> Dict[str, Any]:
    """One pass in a fresh interpreter (hash seed fixed, GC on, one thread)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "bench_pass.py"), "--workload", workload,
               "--seed", str(seed), "--spawned-at", repr(time.perf_counter())]
    if smoke:
        command.append("--smoke")
    if corrupt_expected:
        command.append("--corrupt-expected")
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload}: pass exceeded {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise HarnessError(f"{workload}: pass failed\n{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def gated_pass(calibrator: Calibrator, before: float, workload: str, seed: int, **child) -> Pass:
    """One pass and the calibration reading after it."""
    row = run_child(workload, seed, **child)
    after = calibrator.read()
    return Pass(row, before, after, calibrator.is_clean(before, after),
                calibrator.scale(before, after))


@dataclass(frozen=True)
class Plan:
    """How many clean passes a workload's row needs and how many passes it gets."""

    min_clean: int
    #: passes repeat until ``target_clean`` are clean or ``max_attempts`` have run ...
    target_clean: int = 0
    max_attempts: int = 0
    #: ... or, time-boxed (the driver's ``--seconds``), while the next one fits
    window_s: Optional[float] = None


FULL = Plan(MIN_CLEAN, TARGET_CLEAN, max_attempts=2 * TARGET_CLEAN)
SMOKE = Plan(2, 2, max_attempts=2)


def measure(
    workloads: Sequence[str],
    seed: int,
    calibrator: Calibrator,
    plan: Plan,
    *,
    smoke: bool = False,
    corrupt_expected: bool = False,
) -> Dict[str, List[Pass]]:
    """Untraced passes, round-robin over ``workloads``."""
    passes: Dict[str, List[Pass]] = {name: [] for name in workloads}
    started = time.perf_counter()
    before = calibrator.read()

    def wants_more(name: str) -> bool:
        done = passes[name]
        if plan.window_s is None:
            clean = sum(1 for p in done if p.clean)
            return clean < plan.target_clean and len(done) < plan.max_attempts
        if not done:
            return True
        typical = statistics.median(p.row["wall"]["total_s"] for p in done)
        return time.perf_counter() - started + typical <= plan.window_s

    while True:
        pending = [name for name in workloads if wants_more(name)]
        if not pending:
            return passes
        for name in pending:
            done = gated_pass(calibrator, before, name, seed, smoke=smoke,
                              corrupt_expected=corrupt_expected)
            passes[name].append(done)
            before = done.calib_after


def traced_pass(
    workload: str, seed: int, calibrator: Calibrator, *, smoke: bool, attempts: int
) -> Pass:
    """One extra pass under the tracer; repeated while it is not clean."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace_{workload}.json"
    before = calibrator.read()
    for _ in range(attempts):
        done = gated_pass(calibrator, before, workload, seed, smoke=smoke, trace_path=path)
        if done.clean:
            break
        before = done.calib_after
    return done


# -- aggregation --------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def end_to_end_values(row: Dict[str, Any], scale: float = 1.0) -> Dict[str, float]:
    """The end-to-end metrics one pass supports (see bench_metrics.END_TO_END).

    Wall times are multiplied by ``scale``; simulated times, counts and memory are not.
    """
    wall, exact = row["wall"], row["exact"]
    values = {
        "setup_s": wall["setup_s"] * scale,
        "ballots_per_s": exact["ballots_counted"] / (wall["post_setup_s"] * scale),
        "peak_rss_mb": row["peak_rss_mb"],
        "failed_share": row["failed"] / row["attempted"],
    }
    phases = wall.get("phases")
    if phases is not None:
        values.update(
            votes_per_s=exact["receipts"] / (phases["voting"] * scale),
            close_to_result_s=scale * sum(
                phases.get(name, 0.0) for name in ("consensus", "tally", "merge")
            ),
            audit_s=phases.get("audit", 0.0) * scale,
            receipt_latency_ms_p50=exact["receipt_latency_ms_p50"],
            receipt_latency_ms_p90=exact["receipt_latency_ms_p90"],
        )
    return values


def untraced_layer_values(row: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics every untraced pass carries: phase timers, auditor stages, counts."""
    wall = row["wall"]
    values: Dict[str, float] = dict(row["measured"])
    values.update(
        (key, value) for key, value in row["exact"].items()
        if "." in key and isinstance(value, (int, float))
    )
    for phase, seconds in wall.get("phases", {}).items():
        values[f"api.engine.{phase}_wall_s"] = seconds
    for stage, seconds in wall.get("auditor", {}).items():
        values[f"core.auditor.{stage}_s"] = seconds
    if "shard_run_s" in wall:
        values["shard.shard_runner.run_s"] = wall["shard_run_s"]
    return values


def summarise(
    workload: str, passes: Sequence[Pass], *, min_clean: int, traced: Optional[Pass] = None
) -> Dict[str, Any]:
    """One result row: medians over the clean passes, exactness and correctness checks."""
    clean = [p for p in passes if p.clean]
    quiet = len(clean) >= min_clean
    # A row that is not quiet is marked ``"quiet": false``.  The full set and the
    # checks withhold its numbers (``redact``); a time-boxed run has to report
    # (see ``main``) and does so from the half of its passes whose two readings
    # agree best.
    used = clean if quiet else sorted(
        passes, key=lambda p: abs(p.calib_before - p.calib_after)
    )[: max(1, (len(passes) + 1) // 2)]
    rows = [p.row for p in passes]
    problems = [problem for row in rows for problem in row["problems"]]
    first_exact = rows[0]["exact"]
    if any(row["exact"] != first_exact for row in rows[1:]):
        problems.append("counts or simulated-time values differ between passes of one seed")

    per_pass = [end_to_end_values(p.row, p.scale) for p in used]
    end_to_end: Dict[str, Dict[str, Any]] = {}
    for metric in END_TO_END:
        if workload not in metric.workloads:
            continue
        if metric.name == "failed_share":
            value = sum(r["failed"] for r in rows) / sum(r["attempted"] for r in rows)
            q1 = q3 = value
        else:
            q1, value, q3 = quartiles([values[metric.name] for values in per_pass])
        end_to_end[metric.name] = {"value": value, "unit": metric.unit, "q1": q1, "q3": q3}

    layer_values = [untraced_layer_values(p.row) for p in used]
    per_layer = {
        key: statistics.median(values[key] for values in layer_values) for key in layer_values[0]
    }
    # The engine-only end-to-end metrics double as per-layer rows (0 where there is no engine).
    for layer, name in (("api.engine", "votes_per_s"), ("api.engine", "close_to_result_s"),
                        ("core.voter", "receipt_latency_ms_p50"),
                        ("core.voter", "receipt_latency_ms_p90")):
        per_layer[f"{layer}.{name}"] = end_to_end.get(name, {}).get("value", 0.0)

    summary: Dict[str, Any] = {
        "workload": workload,
        "seed": rows[0]["seed"],
        "quiet": quiet,
        "n_clean": len(clean),
        "n_rejected": len(passes) - len(clean),
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "phase_sum_share": phase_sum_share(used),
        "passes": [
            {"clean": p.clean, "calib_before_s": p.calib_before, "calib_after_s": p.calib_after,
             "scale": p.scale, "wall": p.row["wall"], "peak_rss_mb": p.row["peak_rss_mb"]}
            for p in passes
        ],
    }
    if traced is not None:
        trace = traced.row["trace"]
        untraced_wall = statistics.median(p.row["wall"]["total_s"] * p.scale for p in used)
        per_layer.update(trace["metrics"])
        per_layer["trace.overhead"] = traced.row["wall"]["total_s"] * traced.scale / untraced_wall
        summary["trace_missing"] = trace["trace_missing"]
        summary["trace_clean"] = traced.clean
        summary["trace_spans"] = trace["span_count"]
        if traced.row["problems"]:
            summary["correct"] = False
            problems.extend(traced.row["problems"])
    return summary


def phase_sum_share(passes: Sequence[Pass]) -> float:
    """Median of (sum of the inner timers) / (wall from end of set-up to result)."""
    shares = []
    for p in passes:
        wall = p.row["wall"]
        if "phases" in wall:
            inner = sum(s for name, s in wall["phases"].items() if name != "setup")
        else:
            inner = wall["shard_run_s"]
        shares.append(inner / wall["post_setup_s"])
    return statistics.median(shares)


# -- environment and output ---------------------------------------------------------


def environment(calibrator: Calibrator, started: float) -> Dict[str, Any]:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_revision": revision,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "crypto_backend": "schnorr",
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "calib_ref_s": calibrator.ref,
        "calib_readings": len(calibrator.readings),
        "times_scaled_to_calib_s": calibrator.scale_to,
        "machine_slow": machine_slow(calibrator.ref),
        "total_wall_s": time.perf_counter() - started,
    }


def committed_calib_ref() -> Optional[float]:
    """``calib_ref_s`` of the committed baseline: the machine speed its numbers were taken at."""
    try:
        return float(json.loads(BASELINE.read_text())["environment"]["calib_ref_s"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def machine_slow(calib_ref_s: Optional[float]) -> bool:
    """Whether this run's reference is > MACHINE_SLOW x the committed baseline's."""
    committed = committed_calib_ref()
    return None not in (calib_ref_s, committed) and calib_ref_s > MACHINE_SLOW * committed


def print_summary(summary: Dict[str, Any], env: Dict[str, Any], *, hide: bool) -> None:
    """Every metric by name and unit, or ``-`` in place of each number with ``hide``."""
    flags = []
    if not summary["quiet"]:
        flags.append('"quiet": false')
    if env["machine_slow"]:
        flags.append("machine_slow")
    if not summary["correct"]:
        flags.append("INCORRECT: " + "; ".join(summary["problems"][:3]))
    tail = f"n_clean={summary['n_clean']} n_rejected={summary['n_rejected']} " + " ".join(flags)
    for name, cell in summary["end_to_end"].items():
        number = "-" if hide else f"{cell['value']:.6g} [{cell['q1']:.6g}..{cell['q3']:.6g}]"
        print(f"{summary['workload']:16s} {name:28s} {number} {cell['unit']}  {tail}")
    units = {m.name: m.unit for m in PER_LAYER}
    for name in sorted(summary["per_layer"]):
        number = "-" if hide else f"{summary['per_layer'][name]:.6g}"
        print(f"{summary['workload']:16s} {name:52s} {number} {units.get(name, '')}")
    if "trace_missing" in summary:
        print(f"{summary['workload']:16s} trace_missing {summary['trace_missing']} "
              f"trace_overhead {summary['per_layer']['trace.overhead']:.3f} "
              f"trace_clean {summary['trace_clean']}")
    print(f"{summary['workload']:16s} inner timers / wall after set-up = "
          f"{summary['phase_sum_share']:.4f}")


def redact(summary: Dict[str, Any]) -> None:
    """A row that was not quiet keeps its diagnostics but carries no number."""
    for cell in summary["end_to_end"].values():
        cell.update(value=None, q1=None, q3=None)
    summary["per_layer"] = dict.fromkeys(summary["per_layer"])


def write_result(name: str, document: Dict[str, Any]) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(document, indent=1) + "\n")
    return path


def contract_line(summaries: Sequence[Dict[str, Any]], *, trace: bool, prefix: bool) -> str:
    """The driver's last line: correct / attempted / failed / metrics."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for summary in summaries:
        lead = f"{summary['workload']}/" if prefix else ""
        if trace:
            for metric in PER_LAYER:
                value = summary["per_layer"].get(metric.name, 0.0)
                metrics[lead + metric.name] = {"value": value, "unit": metric.unit}
        else:
            for metric in CONTRACT_END_TO_END:
                cell = summary["end_to_end"][metric.name]
                metrics[lead + metric.name] = {"value": cell["value"], "unit": metric.unit}
    return json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    })


# -- modes --------------------------------------------------------------------------


def run_set(
    workloads: Sequence[str],
    seed: int,
    calibrator: Calibrator,
    plan: Plan,
    *,
    smoke: bool = False,
    trace: bool = False,
    corrupt_expected: bool = False,
) -> List[Dict[str, Any]]:
    calibrator.warm_up()
    passes = measure(workloads, seed, calibrator, plan, smoke=smoke,
                     corrupt_expected=corrupt_expected)
    summaries = []
    for name in workloads:
        traced = None
        if trace:
            attempts = 1 if plan.window_s is not None else 3
            traced = traced_pass(name, seed, calibrator, smoke=smoke, attempts=attempts)
        summaries.append(summarise(name, passes[name], min_clean=plan.min_clean, traced=traced))
    return summaries


def exit_code(summaries: Sequence[Dict[str, Any]], *, strict: bool = True) -> int:
    if not all(s["correct"] for s in summaries):
        return EXIT_INCORRECT
    if strict and not all(s["quiet"] for s in summaries):
        return EXIT_NOT_QUIET
    return 0


def compare_sets(
    first: Sequence[Dict[str, Any]], second: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Per workload x end-to-end metric: both medians, how much worse the second is, the bound."""
    comparison = []
    for a, b in zip(first, second, strict=True):
        for metric in END_TO_END:
            if metric.name not in a["end_to_end"]:
                continue
            x, y = a["end_to_end"][metric.name]["value"], b["end_to_end"][metric.name]["value"]
            if metric.name == "failed_share":
                worse, excess = y - x, y > x
            else:
                worse = (x - y) / x if metric.better == "higher" else (y - x) / x
                small = metric.unit == "s" and abs(y - x) < MIN_TIME_DIFFERENCE_S
                excess = abs(worse) > metric.bound and not small
            comparison.append({
                "workload": a["workload"], "metric": metric.name, "unit": metric.unit,
                "first": x, "second": y, "relative_worsening": worse, "bound": metric.bound,
                "within_bound": not excess,
            })
        if a["per_layer"].keys() != b["per_layer"].keys():
            raise HarnessError("the two sets report different per-layer metrics")
        exact_names = {m.name for m in PER_LAYER if m.source == "exact"}
        for name in sorted(exact_names & a["per_layer"].keys()):
            if a["per_layer"][name] != b["per_layer"][name]:
                comparison.append({
                    "workload": a["workload"], "metric": name, "first": a["per_layer"][name],
                    "second": b["per_layer"][name], "within_bound": False, "bound": 0.0,
                })
    return comparison


def check_repeat(seed: int, calibrator: Calibrator, started: float) -> int:
    """Two full sets back to back; every workload x metric must agree within its bound."""
    sets = [run_set(ALL_WORKLOADS, seed, calibrator, FULL) for _ in range(2)]
    env = environment(calibrator, started)
    comparison = compare_sets(*sets)
    for cell in comparison:
        verdict = "ok" if cell["within_bound"] else "EXCESS"
        print(f"{cell['workload']:16s} {cell['metric']:28s} "
              f"{cell['first']:.6g} vs {cell['second']:.6g} "
              f"{cell.get('unit', '')} worse by {cell.get('relative_worsening', 0.0):+.4f} "
              f"(bound {cell['bound']}) {verdict}")
    codes = [exit_code(one) for one in sets]
    passed = all(cell["within_bound"] for cell in comparison) and not any(codes)
    path = write_result("repeatability.json", {
        "environment": env, "passed": passed, "comparison": comparison,
        "sets": [[{k: s[k] for k in ("workload", "quiet", "n_clean", "n_rejected", "correct")}
                  for s in one] for one in sets],
    })
    print(f"repeatability: {'passed' if passed else 'FAILED'} -> {path}")
    return 0 if passed else (max(codes) or EXIT_INCORRECT)


def check_gate(seed: int, calibrator: Calibrator) -> int:
    """Under one CPU hog per core the harness must recover the quiet medians or refuse to report."""
    workload = "engine_batched"
    quiet_plan = Plan(MIN_CLEAN, MIN_CLEAN, max_attempts=3 * MIN_CLEAN)
    (quiet,) = run_set([workload], seed, calibrator, quiet_plan)
    if not quiet["quiet"]:
        print("check-gate: the machine was not quiet enough to take the reference medians")
        return EXIT_NOT_QUIET
    hogs = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
            for _ in range(os.cpu_count() or 2)]
    try:
        time.sleep(0.5)
        loaded_plan = Plan(MIN_CLEAN, MIN_CLEAN, max_attempts=MIN_CLEAN + 1)
        (loaded,) = run_set([workload], seed, calibrator, loaded_plan)
    finally:
        for hog in hogs:
            hog.kill()
        for hog in hogs:
            hog.wait()
    print(f"check-gate: quiet n_clean={quiet['n_clean']}; under load n_clean={loaded['n_clean']} "
          f"n_rejected={loaded['n_rejected']} quiet={loaded['quiet']}")
    if not loaded["quiet"]:
        print('check-gate: passed (refused to report: "quiet": false, exit 3 in a normal run)')
        return 0
    comparison = compare_sets([quiet], [loaded])
    passed = all(cell["within_bound"] for cell in comparison)
    print("check-gate: " + ("passed (quiet medians recovered)" if passed
                            else "FAILED: a slow number passed as quiet"))
    return 0 if passed else EXIT_INCORRECT


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=ALL_WORKLOADS,
                        help="time-boxed run of one workload (the driver's form); "
                             "default: the full set")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measurement window of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: also run the traced pass and report per-layer metrics "
                             "(default: 1 for the full set, 0 with --workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="8 voters / 2000 ballots, 2 passes, gate off")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="check against a deliberately wrong expected tally (tests the checks)")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--check-gate", action="store_true")
    args = parser.parse_args(argv)
    if (args.check_repeat or args.check_gate) and (args.smoke or args.workload):
        parser.error("the checks run full-size gated sets: no --smoke, no --workload")

    if not (SRC / "repro").is_dir():
        print(f"run.py: no sources under {SRC}", file=sys.stderr)
        return EXIT_HARNESS

    started = time.perf_counter()
    trace = bool(args.trace) if args.trace is not None else args.workload is None
    if args.smoke:
        plan, calibrator = SMOKE, Calibrator(gate=None)
    elif args.workload:
        # The traced pass runs after the window and is slower than a plain one.
        window = args.seconds * (0.45 if trace else 1.0)
        plan = Plan(MIN_CLEAN_TIMEBOXED, window_s=window)
        reference = committed_calib_ref()
        if reference is None:
            print(f"run.py: no calib_ref_s in {BASELINE} to scale the times to", file=sys.stderr)
            return EXIT_HARNESS
        calibrator = Calibrator(gate=GATE_TIMEBOXED, scale_to=reference)
    else:
        plan, calibrator = FULL, Calibrator()
    try:
        if args.check_repeat:
            return check_repeat(args.seed, calibrator, started)
        if args.check_gate:
            return check_gate(args.seed, calibrator)
        summaries = run_set(
            [args.workload] if args.workload else ALL_WORKLOADS, args.seed, calibrator, plan,
            smoke=args.smoke, trace=trace,
            corrupt_expected=args.corrupt_expected,
        )
    except HarnessError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return EXIT_HARNESS

    env = environment(calibrator, started)
    # A noisy machine produces no number rather than a wrong one: "quiet": false,
    # exit 3.  The driver's form cannot do that (its contract wants a result and
    # exit 0 from every run, and 92 runs inside a fixed time), so a time-boxed run
    # reports what it has and says so on stderr and in its result file.
    timeboxed = plan.window_s is not None
    for summary in summaries:
        summary["environment"] = env
        withheld = not summary["quiet"] and not timeboxed
        print_summary(summary, env, hide=withheld)
        if withheld:
            redact(summary)
        elif not summary["quiet"]:
            print(f"run.py: {summary['workload']}: {summary['n_clean']} clean passes of "
                  f"{summary['n_clean'] + summary['n_rejected']}: not quiet, the numbers "
                  "come from passes the gate rejected", file=sys.stderr)
    name = "e2e.json"
    if args.workload:
        name = f"{args.workload}_seed{args.seed}_trace{int(trace)}.json"
    write_result(("smoke_" if args.smoke else "") + name,
                 {"environment": env, "claim": None, "rows": summaries})
    if timeboxed or all(summary["quiet"] for summary in summaries):
        # Per-layer metrics go on the last line only in the driver's --trace 1 form.
        print(contract_line(summaries, trace=trace and args.workload is not None,
                            prefix=args.workload is None))
    return exit_code(summaries, strict=not timeboxed)


if __name__ == "__main__":
    sys.exit(main())
