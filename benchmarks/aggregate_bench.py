"""Fold the sharded benchmark results into one top-level summary.

Reads every ``benchmarks/results/*.json`` the sharded benchmarks produce
(``sharded_pipeline.json``, ``sharded_parallel.json``) and writes
``BENCH_SHARDED.json`` at the repository root: one self-contained record of
the scale pipeline's current numbers -- untraced ballots/s and traced peak
bytes per configuration, the pooled speedup over the sequential (one-worker,
inline) run, the core count the worker sweep had -- stamped with the
git revision (``+dirty`` when the working tree differs from it) and an ISO
date, so a reviewer (or the nightly CI artifact) can read the pipeline's
health without digging through the raw per-benchmark rows.

Usage::

    python benchmarks/aggregate_bench.py            # after running the benches
    python benchmarks/aggregate_bench.py --check    # fail if inputs missing

The script is read-only over ``benchmarks/results/`` and never runs the
benchmarks itself; run ``bench_sharded_pipeline.py`` first (CI does both in
the nightly ``shard-scale`` job).
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
REPO_ROOT = BENCH_DIR.parent
OUTPUT = REPO_ROOT / "BENCH_SHARDED.json"

#: the result files this summary folds; missing ones are reported, not fatal
#: (unless ``--check``), so partial local runs still aggregate.
SHARDED_INPUTS = ("sharded_pipeline.json", "sharded_parallel.json")


def git_revision() -> str:
    """``HEAD``, with ``+dirty`` when tracked files differ from it."""

    def git(*args: str) -> str:
        out = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()

    try:
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_rows(name: str) -> list:
    path = RESULTS_DIR / name
    if not path.exists():
        return []
    return json.loads(path.read_text())


def summarize_pipeline(rows: list) -> list:
    """Per-shard-count throughput/memory from ``sharded_pipeline.json``."""
    return [
        {
            "num_shards": row["num_shards"],
            "num_ballots": row["num_ballots"],
            "ballots_per_s": row["ballots_per_s"],
            "peak_traced_bytes": row["peak_traced_bytes"],
            "verified": row["verified"],
        }
        for row in rows
    ]


def summarize_parallel(rows: list) -> dict:
    """Worker sweep + speedups from ``sharded_parallel.json``.

    Speedups are computed from the recorded ballots/s against the
    sequential row: the one driver at ``workers=1``, slices inline.
    """
    sequential = next((r for r in rows if r["mode"] == "sequential"), None)
    parallel = [r for r in rows if r["mode"] == "parallel"]
    sweep = []
    for row in parallel:
        entry = {
            "workers": row["workers"],
            "num_shards": row["num_shards"],
            "num_ballots": row["num_ballots"],
            "ballots_per_s": row["ballots_per_s"],
            "peak_traced_bytes": row["peak_traced_bytes"],
            "peak_inflight": row["peak_inflight"],
            "verified": row["verified"],
        }
        if sequential and sequential["ballots_per_s"]:
            entry["speedup_vs_sequential"] = round(
                row["ballots_per_s"] / sequential["ballots_per_s"], 2
            )
        sweep.append(entry)
    summary = {"worker_sweep": sweep}
    if sequential:
        summary["cpu_count"] = sequential["cpu_count"]
        summary["sequential"] = {
            "ballots_per_s": sequential["ballots_per_s"],
            "peak_traced_bytes": sequential["peak_traced_bytes"],
        }
    return summary


def aggregate() -> dict:
    present = [name for name in SHARDED_INPUTS if (RESULTS_DIR / name).exists()]
    missing = [name for name in SHARDED_INPUTS if name not in present]
    return {
        "git_revision": git_revision(),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "inputs": present,
        "missing_inputs": missing,
        "shard_sweep": summarize_pipeline(load_rows("sharded_pipeline.json")),
        "parallel": summarize_parallel(load_rows("sharded_parallel.json")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any expected results file is missing",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=OUTPUT,
        help=f"summary destination (default: {OUTPUT})",
    )
    args = parser.parse_args(argv)

    summary = aggregate()
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out}")
    for name in summary["missing_inputs"]:
        print(f"warning: {RESULTS_DIR / name} missing", file=sys.stderr)
    if args.check and summary["missing_inputs"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
