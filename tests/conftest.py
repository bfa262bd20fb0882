"""Shared fixtures.

Expensive artifacts (the group, a full EA setup, a complete election run) are
session-scoped so the many tests that only *read* them do not pay the setup
cost repeatedly.  Tests that mutate state build their own instances.
"""

from __future__ import annotations

import pytest

from repro.api import ElectionEngine, ScenarioSpec
from repro.crypto.elgamal import LiftedElGamal
from repro.crypto.registry import get_group
from repro.crypto.utils import RandomSource


@pytest.fixture(scope="session")
def group():
    """The default (fast) Schnorr group backend."""
    return get_group("schnorr")


@pytest.fixture(scope="session")
def elgamal_keys(group):
    """A commitment key pair shared by crypto tests."""
    return LiftedElGamal(group).keygen(RandomSource(1))


@pytest.fixture()
def rng():
    """A fresh deterministic randomness source per test."""
    return RandomSource(42)


@pytest.fixture()
def count_table_lookups(monkeypatch):
    """``count_table_lookups(group)`` starts counting that backend's fixed-base
    table lookups and returns the counter, a one-element list."""

    def install(group):
        table = type(group.fixed_base(group.generator()))
        original = table.power
        count = [0]

        def counted(self, exponent):
            count[0] += 1
            return original(self, exponent)

        monkeypatch.setattr(table, "power", counted)
        return count

    return install


@pytest.fixture(scope="session")
def small_spec():
    """A small but fully fault-tolerant scenario: 4 VC, 3 BB, 3 trustees."""
    return ScenarioSpec(
        options=("option-1", "option-2"),
        num_voters=4,
        num_vc=4,
        num_bb=3,
        num_trustees=3,
        trustee_threshold=2,
        election_end=200.0,
        seed=5,
    )


@pytest.fixture(scope="session")
def small_params(small_spec):
    """The core-layer parameters of the shared scenario."""
    return small_spec.to_election_parameters()


@pytest.fixture(scope="session")
def small_outcome(small_spec):
    """One complete, honest election run shared by read-only integration tests."""
    engine = ElectionEngine(small_spec)
    choices = ["option-1", "option-2", "option-1", "option-1"]
    return engine.run(choices)


@pytest.fixture(scope="session")
def small_setup(small_outcome):
    """The EA setup of the shared election run."""
    return small_outcome.setup
