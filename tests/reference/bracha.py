"""Reference binary consensus: the round logic of ``repro.consensus.bracha``
with participants held as sets of names (a set of senders per value, a dict
of first AUX values per sender), counting only ``members``, as the production
instance does.  ``tests/consensus/test_bracha_reference.py`` requires both to
broadcast the same messages in the same order and decide the same value.  It
imports nothing from ``repro`` but the message types.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Optional, Set

from repro.consensus.interfaces import Aux, BVal, ConsensusMessage, Finish


class _Round:
    def __init__(self) -> None:
        self.bval_senders: Dict[int, Set[str]] = {0: set(), 1: set()}
        self.bval_echoed: Set[int] = set()
        self.bin_values: Set[int] = set()
        self.aux_values: Dict[str, int] = {}
        self.aux_sent = False
        self.completed = False


class ReferenceInstance:
    """One instance; ``coin(instance_id, round)`` is the round coin."""

    def __init__(
        self,
        instance_id: str,
        members: Collection[str],
        num_faulty: int,
        broadcast: Callable[[ConsensusMessage], None],
        coin: Callable[[str, int], int],
    ):
        self.instance_id = instance_id
        self.members = frozenset(members)
        self.n, self.f = len(self.members), num_faulty
        self.broadcast, self.coin = broadcast, coin
        self.estimate: Optional[int] = None
        self.round = 0
        self.decided: Optional[int] = None
        self.halted = self.started = False
        self.rounds: Dict[int, _Round] = {}
        self.finish_senders: Dict[int, Set[str]] = {0: set(), 1: set()}
        self.finish_sent = False

    def propose(self, value: int) -> None:
        if self.started:
            return
        self.started, self.estimate, self.round = True, value, 1
        self._start_round()

    def handle(self, sender: str, message: ConsensusMessage) -> None:
        if self.halted or message.instance != self.instance_id or sender not in self.members:
            return
        if not isinstance(message, (BVal, Aux, Finish)) or message.value not in (0, 1):
            return
        if isinstance(message, Finish):
            senders = self.finish_senders[message.value]
            senders.add(sender)
            if len(senders) >= self.f + 1:
                self._decide(message.value)
            if len(senders) >= self.n - self.f:
                self.halted = True
            return
        state = self._state(message.round)
        if isinstance(message, BVal):
            senders = state.bval_senders[message.value]
            senders.add(sender)
            if len(senders) >= self.f + 1 and message.value not in state.bval_echoed:
                state.bval_echoed.add(message.value)
                self.broadcast(BVal(self.instance_id, message.round, message.value))
            if len(senders) >= 2 * self.f + 1:
                state.bin_values.add(message.value)
        else:
            state.aux_values.setdefault(sender, message.value)
        self._progress(message.round)

    def _state(self, round_number: int) -> _Round:
        return self.rounds.setdefault(round_number, _Round())

    def _start_round(self) -> None:
        state = self._state(self.round)
        if self.estimate not in state.bval_echoed:
            state.bval_echoed.add(self.estimate)
            self.broadcast(BVal(self.instance_id, self.round, self.estimate))
        self._progress(self.round)

    def _progress(self, round_number: int) -> None:
        if not self.started or self.halted or round_number != self.round:
            return
        state = self._state(round_number)
        if state.completed or not state.bin_values:
            return
        if not state.aux_sent:
            state.aux_sent = True
            self.broadcast(Aux(self.instance_id, round_number, min(state.bin_values)))
        relevant = {s: v for s, v in state.aux_values.items() if v in state.bin_values}
        if len(relevant) < self.n - self.f:
            return
        state.completed = True
        coin_value = self.coin(self.instance_id, round_number)
        values_seen = set(relevant.values())
        if len(values_seen) == 1:
            self.estimate = values_seen.pop()
            if self.estimate == coin_value:
                self._decide(self.estimate)
        else:
            self.estimate = coin_value
        self.round += 1
        self._start_round()

    def _decide(self, value: int) -> None:
        if self.decided is not None:
            return
        self.decided = value
        if not self.finish_sent:
            self.finish_sent = True
            self.broadcast(Finish(self.instance_id, value))
