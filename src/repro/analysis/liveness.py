"""Liveness analysis: Theorem 1 and Table I.

The liveness theorem bounds how long an honest, [d]-patient voter can have to
wait for a receipt when interacting with an honest responder:

    ``Twait = (2 Nv + 4) Tcomp + 12 Delta + 6 delta``

where ``Tcomp`` is the worst-case running time of any local procedure,
``Delta`` the bound on clock drift and ``delta`` the bound on message delay.
Table I of the paper tracks, step by step, upper bounds on the global clock
and on the internal clocks of the voter ``V``, the responder ``VC`` and the
other honest VC nodes.  This module reproduces the table symbolically (as
coefficient triples) and numerically, plus the two receipt-probability
conditions of the theorem.

Note: the published table contains an obvious typesetting slip in the
"honest VC clocks" cell of the step where the honest nodes verify the
ENDORSE message (it prints ``4 Delta + delta``); the value reproduced here is
the one the proof's recurrence yields, ``4 Delta + 2 delta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True, slots=True)
class TimeBound:
    """An upper bound of the form ``T + a*Tcomp + b*Delta + c*delta``.

    The ``Tcomp`` coefficient is affine in the number of VC nodes:
    ``a = tcomp_const + tcomp_nv * Nv``.
    """

    tcomp_const: int
    tcomp_nv: int
    drift: int
    delay: int

    def tcomp_coefficient(self, num_vc: int) -> int:
        return self.tcomp_const + self.tcomp_nv * num_vc

    def evaluate(self, num_vc: int, tcomp: float, drift_bound: float, delay_bound: float,
                 start: float = 0.0) -> float:
        """Numeric value of the bound."""
        return (
            start
            + self.tcomp_coefficient(num_vc) * tcomp
            + self.drift * drift_bound
            + self.delay * delay_bound
        )

    def formula(self, num_vc: int = None) -> str:
        """Human-readable formula, e.g. ``T + (Nv+3)Tcomp + 7D + 3d``."""
        if num_vc is None:
            if self.tcomp_nv == 0:
                tcomp = f"{self.tcomp_const}Tcomp"
            elif self.tcomp_nv == 1 and self.tcomp_const == 0:
                tcomp = "Nv*Tcomp"
            else:
                nv_part = "Nv" if self.tcomp_nv == 1 else f"{self.tcomp_nv}Nv"
                tcomp = f"({nv_part}+{self.tcomp_const})Tcomp"
        else:
            tcomp = f"{self.tcomp_coefficient(num_vc)}Tcomp"
        return f"T + {tcomp} + {self.drift}D + {self.delay}d"


@dataclass(frozen=True, slots=True)
class LivenessBound:
    """One row of Table I: the four clock bounds at one protocol step."""

    step: str
    global_clock: TimeBound
    voter_clock: TimeBound
    responder_clock: TimeBound
    honest_vc_clocks: TimeBound


def _tb(tcomp_const: int, drift: int, delay: int, tcomp_nv: int = 0) -> TimeBound:
    return TimeBound(tcomp_const, tcomp_nv, drift, delay)


#: Table I, row by row.  Coefficients are (Tcomp const, drift, delay[, Tcomp*Nv]).
_TABLE: List[LivenessBound] = [
    LivenessBound("V is initialized",
                  _tb(0, 0, 0), _tb(0, 0, 0), _tb(0, 1, 0), _tb(0, 1, 0)),
    LivenessBound("V submits her vote to VC",
                  _tb(1, 1, 0), _tb(1, 0, 0), _tb(1, 2, 0), _tb(1, 2, 0)),
    LivenessBound("VC receives V's ballot",
                  _tb(1, 1, 1), _tb(1, 2, 1), _tb(1, 2, 1), _tb(1, 2, 1)),
    LivenessBound("VC verifies the vote and broadcasts ENDORSE",
                  _tb(2, 3, 1), _tb(2, 4, 1), _tb(2, 2, 1), _tb(2, 4, 1)),
    LivenessBound("honest VC nodes receive the ENDORSE message",
                  _tb(2, 3, 2), _tb(2, 4, 2), _tb(2, 4, 2), _tb(2, 4, 2)),
    LivenessBound("honest VC nodes verify and respond with ENDORSEMENT",
                  _tb(3, 5, 2), _tb(3, 6, 2), _tb(3, 6, 2), _tb(3, 4, 2)),
    LivenessBound("VC receives the honest ENDORSEMENT messages",
                  _tb(3, 5, 3), _tb(3, 6, 3), _tb(3, 6, 3), _tb(3, 6, 3)),
    LivenessBound("VC verifies up to Nv-1 endorsements",
                  _tb(2, 7, 3, 1), _tb(2, 8, 3, 1), _tb(2, 6, 3, 1), _tb(2, 8, 3, 1)),
    LivenessBound("VC forms the UCERT and broadcasts its share",
                  _tb(3, 7, 3, 1), _tb(3, 8, 3, 1), _tb(3, 6, 3, 1), _tb(3, 8, 3, 1)),
    LivenessBound("honest VC nodes receive the share and UCERT",
                  _tb(3, 7, 4, 1), _tb(3, 8, 4, 1), _tb(3, 8, 4, 1), _tb(3, 8, 4, 1)),
    LivenessBound("honest VC nodes verify and broadcast their shares",
                  _tb(4, 9, 4, 1), _tb(4, 10, 4, 1), _tb(4, 10, 4, 1), _tb(4, 8, 4, 1)),
    LivenessBound("VC receives the honest shares",
                  _tb(4, 9, 5, 1), _tb(4, 10, 5, 1), _tb(4, 10, 5, 1), _tb(4, 10, 5, 1)),
    LivenessBound("VC verifies up to Nv-1 shares",
                  _tb(3, 11, 5, 2), _tb(3, 12, 5, 2), _tb(3, 10, 5, 2), _tb(3, 12, 5, 2)),
    LivenessBound("VC reconstructs the receipt and sends it to V",
                  _tb(4, 11, 5, 2), _tb(4, 12, 5, 2), _tb(4, 10, 5, 2), _tb(4, 12, 5, 2)),
    LivenessBound("V obtains her receipt",
                  _tb(4, 11, 6, 2), _tb(4, 12, 6, 2), _tb(4, 12, 6, 2), _tb(4, 12, 6, 2)),
]


def liveness_table() -> List[LivenessBound]:
    """Return Table I (all rows, symbolic)."""
    return list(_TABLE)


def twait(num_vc: int, tcomp: float, drift_bound: float, delay_bound: float) -> float:
    """The voter-patience window ``Twait = (2Nv+4)Tcomp + 12 Delta + 6 delta``."""
    if num_vc < 1:
        raise ValueError("need at least one VC node")
    return (2 * num_vc + 4) * tcomp + 12 * drift_bound + 6 * delay_bound


def receipt_deadline_guaranteed(
    num_vc: int, tcomp: float, drift_bound: float, delay_bound: float, election_end: float
) -> float:
    """Latest engagement time that *guarantees* a receipt (Theorem 1, condition 1).

    A voter who is still engaged by ``Tend - (fv + 1) * Twait`` will run into
    an honest responder within fv + 1 attempts.
    """
    max_faulty = (num_vc - 1) // 3
    return election_end - (max_faulty + 1) * twait(num_vc, tcomp, drift_bound, delay_bound)


def receipt_probability_lower_bound(attempts_budget: int) -> float:
    """Theorem 1, condition 2: probability of a receipt within ``y`` patience windows.

    A voter engaged by ``Tend - y * Twait`` obtains a receipt with probability
    more than ``1 - 3^{-y}``.
    """
    if attempts_budget < 0:
        raise ValueError("the attempt budget cannot be negative")
    return 1.0 - 3.0 ** (-attempts_budget)


def failed_attempt_probability(num_vc: int, num_faulty: int, attempts: int) -> float:
    """Exact probability that the first ``attempts`` targets are all faulty.

    ``prod_{j=1..y} (fv - (j-1)) / (Nv - (j-1))`` -- the quantity the proof
    upper-bounds by ``3^{-y}``.
    """
    if num_faulty > num_vc:
        raise ValueError("cannot have more faulty nodes than nodes")
    probability = 1.0
    for j in range(attempts):
        remaining_faulty = num_faulty - j
        remaining_nodes = num_vc - j
        if remaining_faulty <= 0:
            return 0.0
        probability *= remaining_faulty / remaining_nodes
    return probability


def table_as_rows(
    num_vc: int, tcomp: float, drift_bound: float, delay_bound: float
) -> List[Dict[str, object]]:
    """Table I evaluated numerically for concrete parameters."""
    rows = []
    for bound in _TABLE:
        rows.append(
            {
                "step": bound.step,
                "global_clock": bound.global_clock.evaluate(num_vc, tcomp, drift_bound, delay_bound),
                "voter_clock": bound.voter_clock.evaluate(num_vc, tcomp, drift_bound, delay_bound),
                "responder_clock": bound.responder_clock.evaluate(num_vc, tcomp, drift_bound, delay_bound),
                "honest_vc_clocks": bound.honest_vc_clocks.evaluate(num_vc, tcomp, drift_bound, delay_bound),
            }
        )
    return rows
