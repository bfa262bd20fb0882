"""Analytical results of the paper: liveness bounds (Theorem 1 / Table I,
:mod:`repro.analysis.liveness`), safety (Theorem 2 / Corollary 1) and
end-to-end verifiability (Theorem 3) (:mod:`repro.analysis.verification`),
plus the determinism and safety checks the chaos matrix runs
(:mod:`repro.analysis.determinism`).

Nothing is re-exported here: import each name from its defining module.
"""
