"""Deterministic discrete-event network simulation.

The paper's model (Section III-C) assumes a fully connected, asynchronous
network where the adversary may drop, delay, duplicate or reorder messages,
but honest messages are eventually delivered; node clocks may drift from the
global clock by at most a bound.  This package provides exactly that model as
an in-process, deterministic discrete-event simulator so protocol executions
are reproducible and the adversary is programmable.

Nothing is re-exported here: import each name from its defining module
(``repro.net.simulator``, ``repro.net.codec``, ``repro.net.transport``...).
"""
