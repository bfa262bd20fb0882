"""A run pays only for the modules it uses.

``asyncio`` (~40 ms, ~11 MiB alone in a bare interpreter) is imported by the
first ``TcpLoopbackTransport``, ``concurrent.futures.process`` and the
``multiprocessing`` it pulls in (~30 ms, ~5 MiB) where ``perf/parallel.py``
builds a pool.  A simulated single-process election -- every benchmark pass --
imports neither: resident memory after the imports 26.8 -> 20.4 MiB on the
reference VM.  Red at 1b95dde, where both were module-level imports.

The elections that do use them are the existing tests of
``tests/net/test_transport.py`` (``TransportProfile(backend="tcp")``) and
``tests/shard/test_parallel_driver.py`` (``ShardingProfile(workers=2)``).  An
honest engine run does not even load ``repro.perf.parallel``: the audit
batch-verifies in its own process (red at ca6b2f1, where ``api/engine.py`` and
``core/auditor.py`` imported the module for the audit's pool).

The same holds for this package's own modules.  No package ``__init__``
re-exports its submodules (``repro.api`` resolves its names lazily), and
``repro.api.spec`` imports no node, transport or model code, so the sharded
pipeline never loads the protocol nodes, the simulator or the model module
(39 ``repro`` modules where it loaded 62), and an honest engine run
never loads the model layer, the service, the shard driver or the code of a
shard slice (red at af6da53, whose codec imported the slice result's
module, ``shard_runner``, and with it the cluster, streaming tally and
partition).  Nothing is
imported after set-up either: the deferred imports are of code the run does
not execute, so import time cannot move into the timed phases.  The first
two of those gates are red at 9d5dacb, where every package ``__init__``
imported all of its submodules and ``api/spec.py`` the nodes and the model.
"""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
HEAVY = ("asyncio", "concurrent.futures.process", "multiprocessing")
#: the count models: only their tests and the benchmarks use them
MODEL = {"repro.perf.costmodel"}
#: the sharded pipeline's slice code, which an engine run never runs: the
#: codec registers the slice result from ``repro.shard.records``
SLICE = {
    "repro.shard.shard_runner",
    "repro.shard.streaming",
    "repro.shard.partition",
    "repro.consensus.cluster",
}
#: the full-protocol pipeline, which the sharded pipeline never runs
PROTOCOL = {
    "repro.api.engine",
    "repro.core.ea",
    "repro.core.vote_collector",
    "repro.core.bulletin_board",
    "repro.core.trustee",
    "repro.core.auditor",
    "repro.core.byzantine",
    "repro.net.simulator",
}

PRELUDE = (
    "import sys\n"
    "def repro_modules():\n"
    "    return {m for m in sys.modules if m.split('.')[0] == 'repro'}\n"
)
SHARDED_RUN = (
    "from repro.api import MultiElectionService, ScenarioSpec\n"
    "spec = ScenarioSpec.preset('national_scale')\n"
    "service = MultiElectionService()\n"
    "set_up = repro_modules()\n"
    "assert service.run_sharded(spec, num_ballots=2_000).verified\n"
)
ENGINE_RUN = (
    "from repro.api import ElectionEngine, ScenarioSpec\n"
    "spec = ScenarioSpec.preset('paper_baseline', num_voters=2)\n"
    "engine = ElectionEngine(spec)\n"
    "ctx = engine.begin(list(spec.options[:1]) * 2)\n"
    "for driver in engine.drivers:\n"
    "    if driver.should_run(ctx):\n"
    "        engine.run_phase(driver, ctx)\n"
    "    if driver.name == 'setup':\n"
    "        set_up = repro_modules()\n"
    "engine.close()\n"
    "assert engine.outcome().audit_report.passed\n"
)


def fresh_stdout(statement: str) -> str:
    """What a fresh interpreter prints running ``statement`` after :data:`PRELUDE`."""
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + statement],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    return done.stdout


def modules_after(statement: str) -> set:
    """The heavy modules in ``sys.modules`` of a fresh interpreter after ``statement``."""
    out = fresh_stdout(f"{statement}\nprint(*[m for m in {HEAVY!r} if m in sys.modules])")
    return set(out.split())


@lru_cache(maxsize=None)
def repro_modules_of_run(run: str):
    """``(after set-up, after the result)``: the ``repro`` modules of a fresh
    interpreter at the two points of ``run`` (which binds ``set_up``)."""
    out = fresh_stdout(f"{run}\nprint(*sorted(set_up))\nprint(*sorted(repro_modules()))")
    set_up, result = out.splitlines()
    return set(set_up.split()), set(result.split())


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


def test_the_sharded_pipeline_loads_no_protocol_node_simulator_or_model():
    _, result = repro_modules_of_run(SHARDED_RUN)
    assert (PROTOCOL | MODEL) & result == set()


def test_an_honest_engine_run_loads_no_model_service_or_shard_driver():
    _, result = repro_modules_of_run(ENGINE_RUN)
    assert (MODEL | SLICE | {"repro.api.service", "repro.shard.driver"}) & result == set()


def test_an_honest_engine_run_loads_no_process_pool_module():
    _, result = repro_modules_of_run(ENGINE_RUN)
    assert "repro.perf.parallel" not in result


def test_neither_pipeline_imports_a_module_after_set_up():
    for run in (SHARDED_RUN, ENGINE_RUN):
        set_up, result = repro_modules_of_run(run)
        assert result == set_up
