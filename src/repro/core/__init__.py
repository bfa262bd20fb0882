"""The D-DEMOS protocol: Election Authority, Vote Collectors, Bulletin Board,
Trustees, Voters and Auditors.  ``repro.api.engine.ElectionEngine`` runs
complete elections of them on the discrete-event network simulator.

Nothing is re-exported here: import each name from its defining module
(``repro.core.ea``, ``repro.core.vote_collector``...), so a run loads only the
nodes it builds.
"""
