"""Safety and end-to-end verifiability bounds (Theorems 2-3).

These are the closed-form probability bounds the paper proves; having them as
code lets the benchmarks and examples report concrete numbers for concrete
deployments (e.g. "with 7 VC nodes and 10 million voters, the probability of
dropping a receipted vote is below 10^-17").
"""

from __future__ import annotations


#: Receipts are 64-bit random values (Section III-D).
RECEIPT_SPACE = 2 ** 64


def safety_failure_probability(num_faulty_vc: int, receipt_bits: int = 64) -> float:
    """Theorem 2: probability the adversary forges a receipt for one honest voter.

    The dominant term is guessing the 64-bit receipt with at most ``fv``
    attempts: ``fv / (2^64 - fv)`` (the ``negl(lambda)`` signature-forgery term
    is ignored, as in the theorem statement it only adds a negligible amount).
    """
    if num_faulty_vc < 0:
        raise ValueError("the number of faulty nodes cannot be negative")
    space = 2 ** receipt_bits
    if num_faulty_vc >= space:
        return 1.0
    return num_faulty_vc / (space - num_faulty_vc)


def safety_failure_probability_union(
    num_voters: int, num_faulty_vc: int, receipt_bits: int = 64
) -> float:
    """Corollary 1: union bound over all honest voters.

    Probability that at least one receipted vote is excluded from the tally:
    ``n * fv / (2^64 - fv)``.
    """
    if num_voters < 0:
        raise ValueError("the number of voters cannot be negative")
    return min(1.0, num_voters * safety_failure_probability(num_faulty_vc, receipt_bits))


def e2e_verifiability_error(num_auditing_voters: int, tally_deviation: int) -> float:
    """Theorem 3: the E2E-verifiability error ``2^-theta + 2^-d``.

    ``num_auditing_voters`` (theta) is the number of honest voters who audit
    successfully; ``tally_deviation`` (d) is the deviation the adversary needs
    to introduce to change the outcome.
    """
    if num_auditing_voters < 0 or tally_deviation < 0:
        raise ValueError("theta and d cannot be negative")
    return min(1.0, 2.0 ** (-num_auditing_voters) + 2.0 ** (-tally_deviation))


def fraud_undetected_probability(num_auditors: int) -> float:
    """Probability that ballot fraud escapes ``num_auditors`` independent audits.

    Each audited ballot detects a malicious EA with probability 1/2, so fraud
    survives with probability ``2^-num_auditors`` (the paper's example: 10
    auditors leave ~0.00097).
    """
    if num_auditors < 0:
        raise ValueError("the number of auditors cannot be negative")
    return 2.0 ** (-num_auditors)
