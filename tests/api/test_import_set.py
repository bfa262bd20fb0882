"""A run pays only for the modules it uses.

``asyncio`` (~40 ms, ~11 MiB alone in a bare interpreter) is imported by the
first ``TcpLoopbackTransport``, ``concurrent.futures.process`` and the
``multiprocessing`` it pulls in (~30 ms, ~5 MiB) where ``perf/parallel.py``
builds a pool.  A simulated single-process election -- every benchmark pass --
imports neither: resident memory after the imports 26.8 -> 20.4 MiB on the
reference VM.  Red at 1b95dde, where both were module-level imports.

The elections that do use them are the existing tests of
``tests/net/test_transport.py`` (``TransportProfile.tcp()``) and
``tests/core/test_parallel_audit.py`` (``audit.workers=2``).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
HEAVY = ("asyncio", "concurrent.futures.process", "multiprocessing")


def modules_after(statement: str) -> set:
    """The heavy modules in ``sys.modules`` of a fresh interpreter after ``statement``."""
    code = f"import sys\n{statement}\nprint(*[m for m in {HEAVY!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def test_importing_the_engine_and_the_service_loads_no_event_loop_and_no_pool():
    assert modules_after("import repro.api.engine, repro.api.service") == set()


def test_a_simulated_election_loads_neither():
    run = (
        "from repro.api import ElectionEngine, ScenarioSpec\n"
        "spec = ScenarioSpec.preset('paper_baseline', num_voters=2)\n"
        "outcome = ElectionEngine(spec).run(list(spec.options[:1]) * 2)\n"
        "assert outcome.audit_report.passed"
    )
    assert modules_after(run) == set()


def test_the_users_load_them():
    tcp = (
        "from repro.net.transport import TcpLoopbackTransport\n"
        "TcpLoopbackTransport().close()"
    )
    assert modules_after(tcp) == {"asyncio"}
    pool = (
        "from repro.perf.parallel import WarmProcessPool\n"
        "pool = WarmProcessPool(workers=1)\n"
        "assert pool.submit(abs, -3).result() == 3\n"
        "pool.shutdown()"
    )
    assert {"concurrent.futures.process", "multiprocessing"} <= modules_after(pool)
