"""Elections run one after another in one process are isolated from each other.

Several full-protocol elections are several ``ElectionEngine(spec).run``
calls.  What a run produces -- its outcome hash, its event stream, its
simulated phase timings and its network traffic -- must be exactly what the
same run produces alone, in a fresh interpreter, whatever ran before it in
the process (including a run that failed).
"""

import gc
import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.determinism import outcome_hash
from repro.api import ElectionEngine, PhaseDriver, ScenarioSpec
from repro.core.auditor import Auditor
from repro.core.election import AuditConfig

ROOT = Path(__file__).resolve().parents[2]
CHOICES = {
    "city": ["option-1", "option-3", "option-1", "option-2", "option-1"],
    "stress": ["option-1", "option-2", "option-1", "option-1"],
}
PRESETS = {"city": ("paper_baseline", 21), "stress": ("byzantine_stress", 22)}


def spec_of(name, seed=None):
    preset, default_seed = PRESETS[name]
    return ScenarioSpec.preset(preset, seed=seed or default_seed, election_id=name)


def fingerprint(outcome):
    """Everything a run must reproduce regardless of the runs before it."""
    return {
        "hash": outcome_hash(outcome),
        "events": [[type(e).__name__, e.sequence, e.sim_time] for e in outcome.events],
        "phase_timings": outcome.phase_timings,
        "traffic": [outcome.network.messages_sent, outcome.network.messages_delivered],
    }


def run(name, seed=None):
    return ElectionEngine(spec_of(name, seed)).run(CHOICES[name])


@lru_cache(maxsize=None)
def alone(name):
    """:func:`fingerprint` of ``name``'s run as the only run of a fresh interpreter."""
    code = (
        f"import json, sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_service import fingerprint, run\n"
        f"print(json.dumps(fingerprint(run({name!r}))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def observed_runs():
    """``city`` then ``stress``, in this process, with one observer
    subscribed to both engines: ``(outcomes by name, the observer's log)``."""
    log, outcomes = [], {}
    for name in ("city", "stress"):
        engine = ElectionEngine(spec_of(name))
        engine.subscribe(log.append)
        outcomes[name] = engine.run(CHOICES[name])
    return outcomes, log


@pytest.fixture(scope="module")
def one_after_another(observed_runs):
    return observed_runs[0]


@pytest.fixture(scope="module")
def shared_log(observed_runs):
    return observed_runs[1]


def as_json(value):
    return json.loads(json.dumps(value))


class TestIsolation:
    def test_every_election_completes(self, one_after_another):
        city, stress = one_after_another["city"], one_after_another["stress"]
        assert city.tally.as_dict() == {"option-1": 3, "option-2": 1, "option-3": 1}
        assert stress.tally.as_dict() == {"option-1": 3, "option-2": 1}
        assert city.audit_report.passed and stress.audit_report.passed

    @pytest.mark.parametrize("name", ["city", "stress"])
    def test_a_run_is_the_same_alone_and_after_another(self, one_after_another, name):
        assert as_json(fingerprint(one_after_another[name])) == alone(name)

    def test_elections_with_different_seeds_diverge(self, one_after_another):
        other = run("city", seed=99)
        city = one_after_another["city"]
        assert [b.serial for b in other.setup.ballots] != [b.serial for b in city.setup.ballots]
        assert outcome_hash(other) != outcome_hash(city)

    def test_network_traffic_is_per_engine(self, one_after_another):
        city, stress = one_after_another["city"], one_after_another["stress"]
        assert city.network is not stress.network
        assert [city.network.messages_sent, city.network.messages_delivered] == (
            alone("city")["traffic"]
        )

    def test_nothing_stays_frozen_after_the_runs(self, one_after_another):
        assert gc.get_freeze_count() == 0


class TestObservers:
    """One observer subscribed to several engines sees each run's own stream."""

    def test_the_log_is_each_runs_events_in_run_order(self, one_after_another, shared_log):
        city, stress = one_after_another["city"], one_after_another["stress"]
        assert shared_log == city.events + stress.events

    def test_the_log_is_demultiplexable_by_election_id(self, one_after_another, shared_log):
        assert {event.election_id for event in shared_log} == {"city", "stress"}
        for name, outcome in one_after_another.items():
            assert [e for e in shared_log if e.election_id == name] == outcome.events

    def test_the_audit_runs_on_the_specs_schedule(self, monkeypatch):
        """``spec.audit`` alone decides the audit's worker budget and batch
        width, and the batching exponents stay unseeded (predictable ones
        void the ``2^-bits`` soundness bound)."""
        requested = []
        verify_all = Auditor.verify_all

        def spy(self, delegations, parallel=None):
            requested.append((parallel, self.security_bits))
            # Record the schedule the engine asked for, verify in-process.
            return verify_all(self, delegations, parallel=replace(parallel, workers=1))

        monkeypatch.setattr(Auditor, "verify_all", spy)
        spec = spec_of("city").derive(audit=AuditConfig(workers=3, security_bits=80))
        outcome = ElectionEngine(spec).run(CHOICES["city"])
        assert outcome.audit_report.passed
        ((schedule, bits),) = requested
        assert (schedule.workers, bits) == (3, 80)
        assert schedule.base_seed is None


def test_a_failed_phase_closes_its_run_and_leaves_the_next_one_unchanged():
    class FailingVoting(PhaseDriver):
        name = "voting"

        def run(self, ctx):
            raise RuntimeError("voting failed")

    failing = ElectionEngine(spec_of("stress"))
    failing.drivers[1] = FailingVoting()
    with pytest.raises(RuntimeError, match="voting failed"):
        failing.run(CHOICES["stress"])
    assert failing.ctx.setup is not None
    assert gc.get_freeze_count() == 0
    assert as_json(fingerprint(run("city"))) == alone("city")
    assert gc.get_freeze_count() == 0
