"""Run legacy ``ElectionParameters`` through the engine.

Tests written against the core-layer parameter object (fault thresholds,
``consensus_batch_size``, ``batch_audit``...) lift it into a spec and run it;
importable as ``engine_runs`` from every test directory, like ``share_blocks``.
"""

from repro.api import ElectionEngine, ScenarioSpec


def run_parameters(params, choices, *, seed=7, voter_parts=None, voter_patience=50.0, **injected):
    """One full election of ``params``; ``injected`` goes to the engine's
    injection points (``rng=``, ``vc_node_classes=``, ``bb_node_classes=``...)."""
    spec = ScenarioSpec.from_election_parameters(
        params, seed=seed, voter_patience=voter_patience
    )
    return ElectionEngine(spec, **injected).run(choices, voter_parts=voter_parts)
