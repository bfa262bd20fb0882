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


def run_spec(spec, choices, *, voter_parts=None):
    """One full election of ``spec`` (Byzantine nodes are named in its
    adversary profile; a test registers its own behaviour with
    ``monkeypatch.setitem(VC_BEHAVIORS, name, cls)``)."""
    return ElectionEngine(spec).run(choices, voter_parts=voter_parts)
