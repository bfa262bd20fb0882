"""Public, scenario-driven API of the D-DEMOS reproduction.

Three layers (see ``docs/ARCHITECTURE.md``):

* :mod:`repro.api.spec` -- :class:`ScenarioSpec`, a frozen, declarative
  description of one election scenario (composable ``ConsensusConfig`` /
  ``AuditConfig`` / ``NetworkProfile`` / ``AdversaryProfile`` /
  ``CryptoProfile`` blocks, named presets, dict round-tripping);
* :mod:`repro.api.engine` -- :class:`ElectionEngine`, an event-driven runner
  built from pluggable :class:`PhaseDriver` steps (setup, voting, consensus,
  tally, merge, audit) that emits the typed events of :mod:`repro.api.events`;
* :mod:`repro.api.service` -- :class:`MultiElectionService`, a facade that
  multiplexes N independent elections over one shared scheduler and process
  pool, with per-election RNG and timing isolation.

``from repro.api import ElectionEngine, ScenarioSpec`` works for every name
below, but each is looked up on first access: describing a run imports
:mod:`repro.api.spec` alone, and the sharded pipeline never loads the engine.
"""

_SPEC = (
    "PRESETS", "AdmissionProfile", "AdversaryProfile", "AuditConfig", "ClockSkew",
    "ConsensusConfig", "CrashNode", "CryptoProfile", "FaultPlan", "LossBurst",
    "NetworkProfile", "Partition", "RecoverNode", "ScenarioSpec", "ShardingProfile",
    "TransportProfile",
)
_ENGINE = (
    "AuditDriver", "ConsensusDriver", "ElectionEngine", "EngineContext", "MergeDriver",
    "PhaseDriver", "SetupDriver", "TallyDriver", "VotingDriver", "default_drivers",
)
_EVENTS = (
    "AuditCompleted", "BallotAccepted", "ConsensusDecided", "ElectionCompleted",
    "ElectionEvent", "EventBus", "PhaseCompleted", "PhaseStarted", "ShardMergeCompleted",
    "TallyComputed",
)
_SERVICE = ("ElectionReport", "MultiElectionService", "ShardedElectionReport")

#: exported name -> the module that defines it
_HOMES = {
    **dict.fromkeys(_SPEC, "repro.api.spec"),
    **dict.fromkeys(_ENGINE, "repro.api.engine"),
    **dict.fromkeys(_EVENTS, "repro.api.events"),
    **dict.fromkeys(_SERVICE, "repro.api.service"),
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(home), name)
