"""Small full-election runs for tests that need an outcome, not a scenario.

Importable as ``engine_runs`` from every test directory, like ``share_blocks``.
"""

from repro.api import ElectionEngine, ScenarioSpec


def small_spec(num_voters=5, num_options=3, **fields):
    """The scenario of ``ElectionParameters.small_test_election``: options
    ``option-1..m``, and the spec's defaults for everything not in ``fields``
    (4 collectors, 3 BB nodes, 2-of-3 trustees, ``election-1``, seed 7)."""
    options = tuple(f"option-{i + 1}" for i in range(num_options))
    return ScenarioSpec(options=options, num_voters=num_voters, **fields)


def run_spec(spec, choices, *, voter_parts=None, **injected):
    """One full election of ``spec``; ``injected`` goes to the engine's
    injection points (``rng=``, ``vc_node_classes=``, ``bb_node_classes=``...)."""
    return ElectionEngine(spec, **injected).run(choices, voter_parts=voter_parts)
