"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section (``benchmarks/README.md`` has the index).  Results are printed as
aligned tables and also dumped as JSON under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_results(name: str, rows: List[Dict]) -> None:
    """Persist a figure's data points as JSON."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(rows, indent=2, default=str) + "\n")


def print_table(title: str, rows: List[Dict]) -> None:
    """Print a figure's data points as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(str(row[c])) for row in rows)) for c in columns}
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in columns))


@pytest.fixture(scope="session")
def results_sink():
    """Fixture handing benchmarks the save/print helpers."""
    return save_results, print_table
