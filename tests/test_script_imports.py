"""Every benchmark and example script still imports.

``benchmarks/bench_*.py`` are not collected by the tier-1 run and the
examples run only in their own CI job, so a renamed or moved name they import
would otherwise break them with every test green.  A fresh interpreter loads
each script as a module (an example's ``__main__`` block does not run) and
reports the ones that raise.  ``benchmarks/e2e`` imports submodules only and
has its own smoke run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("benchmarks/bench_*.py")) + sorted(ROOT.glob("examples/*.py"))

LOAD_EACH = """
import importlib.util, sys, traceback
failed = {}
for path in sys.argv[1:]:
    name = "script_" + path.rsplit("/", 1)[-1][:-3]
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    except Exception:
        failed[path] = traceback.format_exc(limit=-1)
for path, error in failed.items():
    print(path, error, sep="\\n")
sys.exit(1 if failed else 0)
"""


def test_every_benchmark_and_example_script_imports():
    assert len(SCRIPTS) >= 17  # 13 benchmarks, 4 examples
    done = subprocess.run(
        [sys.executable, "-c", LOAD_EACH, *map(str, SCRIPTS)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
