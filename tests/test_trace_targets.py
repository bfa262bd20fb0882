"""Every function the traced benchmark pass wraps still exists.

``benchmarks/e2e/trace.py`` resolves its ``TARGETS`` by dotted name and
skips (and reports under ``trace_missing``) any that no longer resolve, so a
rename or deletion in ``src/`` would otherwise only show up as a missing
per-layer metric in the benchmark job.  This resolves each one the way the
tracer does.
"""

import importlib.util
import sys
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def load_trace_module():
    # ``trace.py`` shares its name with a stdlib module, so it is imported by path.
    spec = importlib.util.spec_from_file_location("e2e_trace_targets", TRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    trace = load_trace_module()
    missing = []
    for target in trace.TARGETS:
        try:
            trace._resolve(target.where)
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append(f"{target.where}: {exc!r}")
    assert trace.TARGETS and missing == []
