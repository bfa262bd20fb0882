"""Small full-election runs for tests that need an outcome, not a scenario.

Importable as ``engine_runs`` from every test directory, like ``share_blocks``.
"""

from repro.api import AdversaryProfile, ElectionEngine, ScenarioSpec
from repro.core.byzantine import UcertWithholdingVoteCollector


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


class RevealToTwo(UcertWithholdingVoteCollector):
    """Reveals its withheld certificates to VC-1 and VC-2 only: VC-3 is
    outvoted on those ballots and learns their codes through RECOVER."""

    reveal_to = ("VC-1", "VC-2")


def recover_spec():
    """Six voters, VC-0 behaving as ``"reveal-to-two"`` (register
    :class:`RevealToTwo` under that name): VC-3 runs RECOVER."""
    return small_spec(
        num_voters=6, num_options=2, seed=1,
        # Voters never give up on the withholding responder, so its
        # ballots reach consensus known to two honest collectors only.
        voter_patience=1e6,
        adversary=AdversaryProfile(vc_behaviors={"VC-0": "reveal-to-two"}),
    )
