"""Deprecated one-shot election coordinator (thin shim over the engine).

:class:`ElectionCoordinator` was the original public entry point: it wired a
complete D-DEMOS election together and ran the phases in a hardwired
sequence.  The public API is now the scenario-driven engine --
:class:`repro.api.spec.ScenarioSpec` + :class:`repro.api.engine.ElectionEngine`
(single election) and :class:`repro.api.service.MultiElectionService` (many
elections) -- and this class remains only so existing callers keep working.
It delegates every phase to the engine's drivers; :meth:`run_election` emits
a :class:`DeprecationWarning` pointing at the replacement.

:class:`ElectionOutcome` moved to :mod:`repro.core.outcome` and is re-exported
here for backwards compatibility.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Type

from repro.core.bulletin_board import BulletinBoardNode
from repro.core.ea import ElectionSetup
from repro.core.election import ElectionParameters
from repro.core.outcome import ElectionOutcome  # noqa: F401  (re-export)
from repro.core.tally import TallyResult
from repro.core.trustee import Trustee
from repro.core.vote_collector import VoteCollectorNode
from repro.crypto.group import Group
from repro.crypto.utils import RandomSource
from repro.net.adversary import Adversary, NetworkConditions
from repro.net.simulator import Network

if TYPE_CHECKING:  # imported lazily at runtime to break the package cycle
    from repro.api.engine import ElectionEngine


class ElectionCoordinator:
    """Deprecated: builds and runs a complete election on the simulator.

    Use :class:`repro.api.engine.ElectionEngine` (driven by a
    :class:`repro.api.spec.ScenarioSpec`) instead; see the migration guide in
    the README.  The constructor keyword arguments are forwarded to the
    engine's injection points, so behaviour is unchanged.
    """

    def __init__(
        self,
        params: ElectionParameters,
        group: Optional[Group] = None,
        conditions: Optional[NetworkConditions] = None,
        adversary: Optional[Adversary] = None,
        rng: Optional[RandomSource] = None,
        vc_node_classes: Optional[Dict[str, Type[VoteCollectorNode]]] = None,
        bb_node_classes: Optional[Dict[str, Type[BulletinBoardNode]]] = None,
        trustee_classes: Optional[Dict[str, Type[Trustee]]] = None,
        include_proofs: bool = True,
        seed: int = 7,
    ):
        # Imported here, not at module level: repro.core re-exports this shim
        # while repro.api builds on repro.core, so a top-level import would
        # cycle through the two package __init__ modules.
        from repro.api.engine import ElectionEngine
        from repro.api.spec import ScenarioSpec

        self.params = params
        self.seed = seed
        spec = ScenarioSpec.from_election_parameters(params, seed=seed)
        self._engine = ElectionEngine(
            spec,
            group=group,
            conditions=conditions or NetworkConditions.lan(seed=seed),
            adversary=adversary,
            rng=rng,
            vc_node_classes=vc_node_classes,
            bb_node_classes=bb_node_classes,
            trustee_classes=trustee_classes,
            include_proofs=include_proofs,
        )
        self._ctx = self._engine.begin()

    # -- state passthrough (the old attribute surface) ---------------------------

    @property
    def engine(self) -> "ElectionEngine":
        """The engine this shim delegates to."""
        return self._engine

    @property
    def group(self) -> Group:
        return self._ctx.group

    @property
    def rng(self) -> RandomSource:
        return self._ctx.rng

    @property
    def setup(self) -> Optional[ElectionSetup]:
        return self._ctx.setup

    @property
    def network(self) -> Optional[Network]:
        return self._ctx.network

    @property
    def vote_collectors(self):
        return self._ctx.vote_collectors

    @property
    def bb_nodes(self):
        return self._ctx.bb_nodes

    @property
    def trustees(self):
        return self._ctx.trustees

    @property
    def voters(self):
        return self._ctx.voters

    # -- phases ------------------------------------------------------------------

    def run_setup(self) -> ElectionSetup:
        """Phase 0: the EA produces all initialization data and is destroyed."""
        self._engine.driver("setup").run(self._ctx)
        return self._ctx.setup

    def build_components(
        self,
        choices: Sequence[str],
        voter_patience: float = 50.0,
        voter_parts: Optional[Sequence[str]] = None,
    ) -> None:
        """Phase 1: instantiate the network, VC/BB nodes and voter clients."""
        if self._ctx.setup is None:
            self.run_setup()
        self._ctx.choices = list(choices)
        self._ctx.voter_parts = voter_parts
        self._ctx.voter_patience = voter_patience
        self._engine.driver("voting").prepare(self._ctx)

    def run_voting_phase(self, stagger: float = 0.5) -> None:
        """Phase 2: voters cast votes, then Vote Set Consensus runs to completion."""
        self._ctx.stagger = stagger
        voting = self._engine.driver("voting")
        consensus = self._engine.driver("consensus")
        voting.schedule(self._ctx)
        voting.execute(self._ctx)
        consensus.schedule(self._ctx)
        consensus.execute(self._ctx)

    def run_trustee_phase(self) -> Optional[TallyResult]:
        """Phase 3: trustees read the BB, compute shares and post them back."""
        self._engine.driver("tally").execute(self._ctx)
        return self._ctx.tally

    def run_audit(self):
        """Phase 4: an independent auditor verifies the whole election."""
        self._engine.driver("audit").execute(self._ctx)
        return self._ctx.audit_report

    # -- one-call entry point -----------------------------------------------------

    def run_election(
        self,
        choices: Sequence[str],
        voter_patience: float = 50.0,
        voter_parts: Optional[Sequence[str]] = None,
        with_audit: bool = True,
        stagger: float = 0.5,
    ) -> ElectionOutcome:
        """Run setup, voting, tabulation and (optionally) a full audit."""
        warnings.warn(
            "ElectionCoordinator.run_election is deprecated; build a "
            "repro.api.ScenarioSpec and run it through repro.api.ElectionEngine "
            "(or MultiElectionService for many elections)",
            DeprecationWarning,
            stacklevel=2,
        )
        try:
            self.run_setup()
            self.build_components(choices, voter_patience=voter_patience, voter_parts=voter_parts)
            self.run_voting_phase(stagger=stagger)
            tally = self.run_trustee_phase()
            if with_audit and tally is not None:
                self.run_audit()
        finally:
            self._engine.close()
        return self._engine.outcome()
