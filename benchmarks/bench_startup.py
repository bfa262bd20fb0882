"""Start-up cost of a benchmark pass: what a fresh interpreter pays to import.

``setup_s`` of ``benchmarks/e2e`` runs from the spawn of a pass to the
election's first vote, and on ``sharded_scale`` that window is almost all
interpreter start and imports.  This probe starts fresh interpreters and
reports, for each import path a pass takes:

* ``process_s``: wall time of the whole child, spawn to exit, read by this
  process (the ``bare`` path imports nothing: interpreter start alone);
* ``import_s``: wall time of the path's imports, read in the child;
* ``source_compile_s``: the part of it spent compiling module source to
  bytecode (zero for a module whose ``__pycache__`` entry is valid; every
  module when ``PYTHONDONTWRITEBYTECODE`` is set and there is no cache);
* ``compiles`` and ``dataclass_compile_s``: the methods ``dataclasses``
  compiled with ``exec`` for the classes it built, and their time;
* ``bodies_s``: the rest of ``import_s``, mostly the modules' own bodies.

The child counts by wrapping ``dataclasses._create_fn`` and
``SourceFileLoader.source_to_code`` (``src/`` has no counter); on a Python
without ``_create_fn`` the two dataclass columns are empty.  Paths: ``engine``
is what a pass imports before the engine's set-up phase
(``repro.api.spec``, ``repro.analysis.determinism``, ``repro.api.engine``),
``sharded`` what it imports before ``run_sharded`` (``repro.api.spec``,
``repro.api.service``).  Each value is the median of ``REPEATS`` children
(``BENCH_SMOKE=1``: one).  Nothing is gated; the table is printed and saved
to ``benchmarks/results/startup.json``.

Run by hand (one JSON object on stdout)::

    PYTHONPATH=src python benchmarks/bench_startup.py --repeats 9
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
REPEATS = 1 if SMOKE else 9
SRC = Path(__file__).resolve().parents[1] / "src"
PATHS = {
    "bare": (),
    "sharded": ("repro.api.spec", "repro.api.service"),
    "engine": ("repro.api.spec", "repro.analysis.determinism", "repro.api.engine"),
}

CHILD = """
import dataclasses, importlib, json, sys, time
from importlib.machinery import SourceFileLoader

spent = {"compiles": 0, "dataclass_compile_s": 0.0, "source_compile_s": 0.0}

def timed(function, key, counted=None):
    def wrapper(*args, **kwargs):
        begun = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[key] += time.perf_counter() - begun
            if counted:
                spent[counted] += 1
    return wrapper

if hasattr(dataclasses, "_create_fn"):
    dataclasses._create_fn = timed(dataclasses._create_fn, "dataclass_compile_s", "compiles")
else:
    spent["compiles"] = spent["dataclass_compile_s"] = None
SourceFileLoader.source_to_code = timed(SourceFileLoader.source_to_code, "source_compile_s")
begun = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
spent["import_s"] = time.perf_counter() - begun
compiling = spent["source_compile_s"] + (spent["dataclass_compile_s"] or 0.0)
spent["bodies_s"] = spent["import_s"] - compiling
print(json.dumps(spent))
"""


COLUMNS = (
    "process_s", "import_s", "source_compile_s", "compiles", "dataclass_compile_s", "bodies_s",
)


def child(path: str) -> dict:
    """One fresh interpreter importing ``path``'s modules: its reading."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = CHILD if PATHS[path] else "pass"
    spawned = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, *PATHS[path]],
        env=env, capture_output=True, text=True, check=True,
    )
    row = json.loads(done.stdout) if PATHS[path] else {}
    row["process_s"] = time.perf_counter() - spawned
    return row


def measure(repeats: int) -> dict:
    """Median readings per path.  The paths take turns, so a slow stretch of
    the machine does not fall on one path alone."""
    readings = {path: [] for path in PATHS}
    for _ in range(repeats):
        for path in PATHS:
            readings[path].append(child(path))
    summary = {"dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}
    for path, rows in readings.items():
        summary[path] = {}
        for key in COLUMNS:
            values = [row[key] for row in rows if row.get(key) is not None]
            summary[path][key] = statistics.median(values) if values else None
    return summary


def test_start_up_cost_of_the_import_paths(results_sink):
    save_results, print_table = results_sink
    summary = measure(REPEATS)
    cache = "off" if summary["dont_write_bytecode"] else "on"
    table = [
        {"path": path, **{
            key: "-" if value is None else round(value, 4) if isinstance(value, float) else value
            for key, value in summary[path].items()
        }}
        for path in PATHS
    ]
    print_table(f"fresh-interpreter start-up, median of {REPEATS} (bytecode cache {cache})", table)
    save_results("startup", [summary])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args()
    print(json.dumps(measure(args.repeats), indent=2))
