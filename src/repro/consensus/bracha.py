"""Asynchronous binary Byzantine consensus (Bracha-style, signature-free).

D-DEMOS runs one binary consensus instance per ballot at election end.  The
property the voting protocol relies on is the classic *validity* guarantee:

    "If all honest nodes enter binary consensus with the same opinion ``a``,
    the result of any consensus algorithm is guaranteed to be ``a``."

The paper's prototype implements Bracha's binary consensus.  This module
implements the signature-free round structure of Mostefaoui, Moumen and
Raynal (PODC 2014), which provides the same interface and guarantees
(asynchronous, tolerates ``f < n/3`` Byzantine nodes, validity + agreement,
probability-1 termination with a coin) and is substantially simpler to verify
in pure Python.  The substitution is listed in ``docs/ARCHITECTURE.md``,
"Deviations from the paper"; nothing in D-DEMOS depends on the internals of
the consensus primitive, only on its interface and on the
validity/agreement/termination guarantees.

Protocol sketch (per instance, per round ``r``):

1. *Binary-value broadcast:* each node broadcasts ``BVAL(r, est)``.  A node
   that receives ``BVAL(r, v)`` from ``f + 1`` distinct nodes echoes it; a
   value received from ``2f + 1`` distinct nodes enters ``bin_values[r]``.
   Byzantine nodes alone can never place a value in ``bin_values``.
2. Once ``bin_values[r]`` is non-empty the node broadcasts ``AUX(r, w)`` for
   some ``w`` in it, then waits for ``n - f`` AUX messages whose values are
   all contained in ``bin_values[r]``; call the set of values seen ``V``.
3. The round coin ``s = coin(r)`` is flipped.  If ``V = {v}`` and ``v == s``
   the node decides ``v``; if ``V = {v}`` and ``v != s`` it keeps ``est = v``;
   otherwise it adopts ``est = s``.

Deciding nodes broadcast ``FINISH(v)``; a node that collects ``f + 1``
``FINISH(v)`` decides ``v`` as well, and one that collects ``n - f`` halts the
instance.  The default coin is a *common coin* derived by hashing the instance
id and round number, which gives expected O(1) rounds in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from repro.consensus.interfaces import Aux, BVal, ConsensusMessage, Finish
from repro.crypto.utils import sha256


def common_coin(instance: str, round_number: int) -> int:
    """Deterministic public coin shared by all nodes (hash of instance, round)."""
    digest = sha256(b"d-demos-common-coin", instance.encode(), round_number.to_bytes(8, "big"))
    return digest[0] & 1


@dataclass
class _RoundState:
    """Book-keeping for a single round of a single instance."""

    bval_senders: Dict[int, Set[str]] = field(default_factory=lambda: {0: set(), 1: set()})
    bval_echoed: Set[int] = field(default_factory=set)
    bin_values: Set[int] = field(default_factory=set)
    aux_values: Dict[str, int] = field(default_factory=dict)
    aux_sent: bool = False
    completed: bool = False


class BinaryConsensusInstance:
    """One binary consensus instance embedded in a host node.

    The instance does not own a network; the host supplies a ``broadcast``
    callable (sending a :class:`ConsensusMessage` to every participant,
    including the host itself) and a decision callback.
    """

    def __init__(
        self,
        instance_id: str,
        node_id: str,
        num_nodes: int,
        num_faulty: int,
        broadcast: Callable[[ConsensusMessage], None],
        on_decide: Optional[Callable[[str, int], None]] = None,
        coin: Optional[Callable[[str, int], int]] = None,
    ):
        if num_nodes < 3 * num_faulty + 1:
            raise ValueError("binary consensus requires n >= 3f + 1")
        self.instance_id = instance_id
        self.node_id = node_id
        self.n = num_nodes
        self.f = num_faulty
        self.broadcast = broadcast
        self.on_decide = on_decide
        self.coin = coin or common_coin

        self.estimate: Optional[int] = None
        self.round = 0
        self.decided: Optional[int] = None
        self.halted = False
        self.started = False
        self._rounds: Dict[int, _RoundState] = {}
        self._finish_senders: Dict[int, Set[str]] = {0: set(), 1: set()}
        self._finish_sent = False

    # -- public API -------------------------------------------------------------

    def propose(self, value: int) -> None:
        """Start the instance with an initial opinion (0 or 1)."""
        if value not in (0, 1):
            raise ValueError("binary consensus proposals must be 0 or 1")
        if self.started:
            return
        self.started = True
        self.estimate = value
        self.round = 1
        self._start_round()
        if self.halted:
            self._rounds.clear()

    def handle(self, sender: str, message: ConsensusMessage) -> None:
        """Feed a consensus message received from ``sender`` into the instance."""
        if self.halted or message.instance != self.instance_id:
            return
        if isinstance(message, BVal):
            self._on_bval(sender, message)
        elif isinstance(message, Aux):
            self._on_aux(sender, message)
        elif isinstance(message, Finish):
            self._on_finish(sender, message)

    # -- round machinery --------------------------------------------------------

    def _round_state(self, round_number: int) -> _RoundState:
        if round_number not in self._rounds:
            self._rounds[round_number] = _RoundState()
        return self._rounds[round_number]

    def _start_round(self) -> None:
        state = self._round_state(self.round)
        if self.estimate not in state.bval_echoed:
            state.bval_echoed.add(self.estimate)
            self.broadcast(BVal(self.instance_id, self.round, self.estimate))
        self._maybe_progress(self.round)

    def _on_bval(self, sender: str, message: BVal) -> None:
        if message.value not in (0, 1):
            return
        state = self._round_state(message.round)
        state.bval_senders[message.value].add(sender)
        count = len(state.bval_senders[message.value])
        # Echo once we have f+1 supporters (at least one honest node vouches).
        if count >= self.f + 1 and message.value not in state.bval_echoed:
            state.bval_echoed.add(message.value)
            self.broadcast(BVal(self.instance_id, message.round, message.value))
        # Deliver into bin_values at 2f+1 supporters (an honest majority of them).
        if count >= 2 * self.f + 1:
            state.bin_values.add(message.value)
        self._maybe_progress(message.round)

    def _on_aux(self, sender: str, message: Aux) -> None:
        if message.value not in (0, 1):
            return
        state = self._round_state(message.round)
        # Only the first AUX from a sender per round counts.
        state.aux_values.setdefault(sender, message.value)
        self._maybe_progress(message.round)

    def _on_finish(self, sender: str, message: Finish) -> None:
        if message.value not in (0, 1):
            return
        self._finish_senders[message.value].add(sender)
        count = len(self._finish_senders[message.value])
        if count >= self.f + 1 and self.decided is None:
            self._decide(message.value)
        if count >= self.n - self.f:
            # ``handle`` ignores everything from now on, so the round state is
            # dead weight -- unless ``propose`` has yet to run: it reads
            # round 1 to decide whether to broadcast BVAL.
            self.halted = True
            if self.started:
                self._rounds.clear()

    def _maybe_progress(self, round_number: int) -> None:
        if not self.started or self.halted or round_number != self.round:
            return
        state = self._round_state(round_number)
        if state.completed:
            return
        if not state.bin_values:
            return
        if not state.aux_sent:
            state.aux_sent = True
            value = min(state.bin_values)
            self.broadcast(Aux(self.instance_id, round_number, value))
        # Collect AUX messages whose values are justified by bin_values.
        relevant = {
            sender: value
            for sender, value in state.aux_values.items()
            if value in state.bin_values
        }
        if len(relevant) < self.n - self.f:
            return
        values_seen = set(relevant.values())
        state.completed = True
        coin_value = self.coin(self.instance_id, round_number)
        if len(values_seen) == 1:
            value = values_seen.pop()
            self.estimate = value
            if value == coin_value:
                self._decide(value)
        else:
            self.estimate = coin_value
        # Keep participating in later rounds even after deciding, so that
        # lagging honest nodes can still assemble 2f+1 BVAL / n-f AUX quorums;
        # the instance only halts once n-f FINISH messages are collected.
        self.round += 1
        self._start_round()

    def _decide(self, value: int) -> None:
        if self.decided is not None:
            return
        self.decided = value
        if not self._finish_sent:
            self._finish_sent = True
            self.broadcast(Finish(self.instance_id, value))
        if self.on_decide is not None:
            self.on_decide(self.instance_id, value)
