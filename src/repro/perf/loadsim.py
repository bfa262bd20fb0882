"""Discrete-event load simulation of the vote-collection protocol.

This is the engine behind the reproduction of Figures 4a-4f, 5a and 5b.  It
mirrors the paper's measurement methodology:

* ``cc`` closed-loop clients: each client submits a vote to a randomly chosen
  VC node, waits for the receipt, then immediately submits its next vote
  (think time zero) -- exactly like the paper's multi-threaded voting client;
* the logical VC nodes are placed round-robin on the physical machines of the
  testbed (4 machines in the paper), and every machine is a multi-core FIFO
  server: protocol stages consume CPU there according to the cost model;
* a vote follows the critical path of Algorithm 1: responder validation ->
  ENDORSE round (waits for the ``Nv - fv`` quorum) -> UCERT assembly ->
  VOTE_P round (again a quorum) -> receipt reconstruction -> reply; helper
  nodes additionally perform off-critical-path work that consumes capacity.

The simulator reports sustained throughput and the response-time distribution
over a measurement window after warm-up.

Besides the paper's closed loop, :meth:`VoteCollectionLoadSimulator.run_open_loop`
drives the same vote pipeline from an externally generated arrival stream
(:mod:`repro.perf.arrivals`): votes arrive on the *voters'* clock, and each
responder enforces a bounded admission window -- arrivals beyond
``admission_depth`` in-flight votes are shed, exactly like the admission
queue in :mod:`repro.core.admission`.  This is the regime where batching and
backpressure matter: a closed loop can never overload the system, an election
morning can.
"""

from __future__ import annotations

import heapq
import itertools
import random
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.perf.costmodel import CostModel


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    return sorted_values[int(fraction * (len(sorted_values) - 1))]


@dataclass
class LoadResult:
    """Outcome of one closed-loop load-simulation run."""

    num_vc: int
    num_clients: int
    votes_completed: int
    duration_s: float
    throughput_ops: float
    mean_latency_s: float
    median_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    network_name: str

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary (one figure data point)."""
        return {
            "num_vc": self.num_vc,
            "num_clients": self.num_clients,
            "throughput_ops": round(self.throughput_ops, 2),
            "mean_latency_s": round(self.mean_latency_s, 4),
            "p50_latency_s": round(self.p50_latency_s, 4),
            "p95_latency_s": round(self.p95_latency_s, 4),
            "p99_latency_s": round(self.p99_latency_s, 4),
        }


@dataclass
class OpenLoopResult:
    """Outcome of one open-loop (arrival-driven) load-simulation run."""

    num_vc: int
    arrival_process: str
    offered: int
    admitted: int
    shed: int
    completed: int
    duration_s: float
    throughput_ops: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    peak_in_flight: int
    network_name: str

    @property
    def shed_rate(self) -> float:
        """Fraction of offered votes shed at admission."""
        return self.shed / self.offered if self.offered else 0.0

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary (one benchmark data point)."""
        return {
            "num_vc": self.num_vc,
            "arrival_process": self.arrival_process,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_rate": round(self.shed_rate, 4),
            "throughput_ops": round(self.throughput_ops, 2),
            "p50_latency_s": round(self.p50_latency_s, 4),
            "p95_latency_s": round(self.p95_latency_s, 4),
            "p99_latency_s": round(self.p99_latency_s, 4),
            "peak_in_flight": self.peak_in_flight,
        }


class _MachineQueue:
    """A physical machine: ``cores`` identical servers with a shared FIFO queue."""

    def __init__(self, cores: int):
        self.cores = cores
        self.busy = 0
        self.queue: List[Tuple[float, Callable[[float], None]]] = []
        self.busy_time = 0.0

    def submit(self, now: float, service_ms: float, completion: Callable[[float], None],
               engine: "_Engine") -> None:
        """Submit a job; ``completion(finish_time)`` runs when it finishes."""
        self.queue.append((service_ms, completion))
        self._dispatch(now, engine)

    def _dispatch(self, now: float, engine: "_Engine") -> None:
        while self.busy < self.cores and self.queue:
            service_ms, completion = self.queue.pop(0)
            self.busy += 1
            self.busy_time += service_ms
            finish = now + service_ms / 1000.0

            def done(at: float, completion=completion) -> None:
                self.busy -= 1
                completion(at)
                self._dispatch(at, engine)

            engine.schedule(finish, done)


class _Engine:
    """Minimal event loop for the load simulator."""

    def __init__(self):
        self._queue: List[Tuple[float, int, Callable[[float], None]]] = []
        self._seq = itertools.count()
        self.now = 0.0

    def schedule(self, when: float, action: Callable[[float], None]) -> None:
        heapq.heappush(self._queue, (when, next(self._seq), action))

    def run(self, should_stop: Callable[[], bool]) -> None:
        while self._queue and not should_stop():
            when, _, action = heapq.heappop(self._queue)
            self.now = when
            action(when)


class VoteCollectionLoadSimulator:
    """Simulate ``cc`` concurrent clients voting against ``Nv`` VC nodes."""

    def __init__(
        self,
        num_vc: int,
        num_clients: int,
        cost_model: Optional[CostModel] = None,
        seed: int = 1,
    ):
        if num_vc < 4:
            raise ValueError("the protocol requires at least 4 VC nodes")
        if num_clients < 1:
            raise ValueError("need at least one client")
        self.num_vc = num_vc
        self.num_clients = num_clients
        self.model = cost_model or CostModel()
        self.rng = random.Random(seed)
        self.quorum = num_vc - (num_vc - 1) // 3

    # -- shared vote pipeline -----------------------------------------------------

    def _make_cluster(self) -> Tuple[List[_MachineQueue], List[_MachineQueue]]:
        """The physical machines (multi-core CPU) and their one-server disks."""
        num_machines = min(self.model.machines.num_machines, self.num_vc)
        machines = [
            _MachineQueue(self.model.machines.cores_per_machine) for _ in range(num_machines)
        ]
        # One disk per machine (PostgreSQL-backed experiments); a single server
        # each, which is what makes the database the bottleneck in Figures 5a-5c.
        disks = [_MachineQueue(1) for _ in range(num_machines)]
        return machines, disks

    def _start_vote_pipeline(
        self,
        engine: _Engine,
        machines: List[_MachineQueue],
        disks: List[_MachineQueue],
        responder: int,
        begin: float,
        on_finished: Callable[[float], None],
    ) -> None:
        """Drive one vote down the critical path of Algorithm 1.

        ``on_finished(finish_time)`` runs when the receipt reaches the client.
        """
        disk_access_ms = self.model.ballot_access_disk_ms()
        inter_vc_s = self.model.network.inter_vc_ms / 1000.0
        client_hop_s = self.model.network.client_to_vc_ms / 1000.0

        def machine_for(vc_index: int) -> _MachineQueue:
            return machines[vc_index % len(machines)]

        def disk_for(vc_index: int) -> _MachineQueue:
            return disks[vc_index % len(disks)]

        def submit_with_disk(vc_index: int, at: float, cpu_ms: float,
                             completion: Callable[[float], None]) -> None:
            """Run the ballot's disk access (if any) before the CPU work."""
            if disk_access_ms <= 0:
                machine_for(vc_index).submit(at, cpu_ms, completion, engine)
                return

            def after_disk(t: float) -> None:
                machine_for(vc_index).submit(t, cpu_ms, completion, engine)

            disk_for(vc_index).submit(at, disk_access_ms, after_disk, engine)

        # Stage 1: request travels to the responder and is validated there.
        def after_request_hop(t: float) -> None:
            submit_with_disk(
                responder, t, self.model.responder_initial_ms(), after_initial
            )

        def after_initial(t: float) -> None:
            # Stage 2: ENDORSE round; we need the (quorum-1)-th helper reply.
            helper_done_times: List[float] = []
            pending = {"count": 0}

            def helper_finished(ht: float) -> None:
                helper_done_times.append(ht)
                pending["count"] += 1
                if pending["count"] == self.quorum - 1:
                    reply_at = ht + inter_vc_s
                    engine.schedule(reply_at, after_endorsements)

            for helper in range(self.num_vc):
                if helper == responder:
                    continue
                arrival = t + inter_vc_s

                def submit_helper(ht: float, helper=helper) -> None:
                    submit_with_disk(
                        helper, ht, self.model.helper_endorse_ms(), helper_finished
                    )

                engine.schedule(arrival, submit_helper)

        def after_endorsements(t: float) -> None:
            # Stage 3: the responder verifies the endorsements, builds the UCERT.
            machine_for(responder).submit(
                t, self.model.responder_certificate_ms(self.num_vc), after_ucert, engine
            )

        def after_ucert(t: float) -> None:
            # Stage 4: VOTE_P round; again wait for the quorum of helpers.
            pending = {"count": 0}

            def helper_finished(ht: float) -> None:
                pending["count"] += 1
                if pending["count"] == self.quorum - 1:
                    engine.schedule(ht + inter_vc_s, after_shares)

            for helper in range(self.num_vc):
                if helper == responder:
                    continue
                arrival = t + inter_vc_s

                def submit_helper(ht: float, helper=helper) -> None:
                    machine_for(helper).submit(
                        ht, self.model.helper_vote_pending_ms(self.num_vc),
                        helper_finished, engine,
                    )
                    # Off-critical-path reconstruction work on the helper.
                    machine_for(helper).submit(
                        ht, self.model.helper_background_ms(self.num_vc),
                        lambda _t: None, engine,
                    )

                engine.schedule(arrival, submit_helper)

        def after_shares(t: float) -> None:
            # Stage 5: the responder reconstructs the receipt and replies.
            machine_for(responder).submit(
                t, self.model.responder_reconstruct_ms(self.num_vc), after_reconstruct, engine
            )

        def after_reconstruct(t: float) -> None:
            engine.schedule(t + client_hop_s, on_finished)

        engine.schedule(begin + client_hop_s, after_request_hop)

    # -- closed loop (the paper's methodology) -------------------------------------

    def run(
        self,
        target_votes: Optional[int] = None,
        warmup_votes: Optional[int] = None,
    ) -> LoadResult:
        """Run until ``target_votes`` measured votes complete (after warm-up)."""
        if target_votes is None:
            target_votes = max(2_000, 2 * self.num_clients)
        if warmup_votes is None:
            warmup_votes = max(200, self.num_clients // 2)

        engine = _Engine()
        machines, disks = self._make_cluster()

        completed: List[float] = []          # latencies of measured votes
        state = {"completed": 0, "measure_start": None, "measure_end": None}
        total_needed = warmup_votes + target_votes

        def start_vote(client_id: int, at: float) -> None:
            responder = self.rng.randrange(self.num_vc)
            begin = at

            def vote_finished(t: float) -> None:
                state["completed"] += 1
                if state["completed"] == warmup_votes:
                    state["measure_start"] = t
                elif state["completed"] > warmup_votes:
                    completed.append(t - begin)
                    if state["completed"] == total_needed:
                        state["measure_end"] = t
                # Closed loop: the client immediately votes again.
                if state["completed"] < total_needed:
                    engine.schedule(t, lambda t2: start_vote(client_id, t2))

            self._start_vote_pipeline(engine, machines, disks, responder, begin, vote_finished)

        # Clients start within the first simulated 100 ms, like the paper's
        # client threads released by a common start signal.
        for client in range(self.num_clients):
            engine.schedule(self.rng.uniform(0.0, 0.1), lambda t, c=client: start_vote(c, t))

        engine.run(lambda: state["measure_end"] is not None)

        measure_start = state["measure_start"] if state["measure_start"] is not None else 0.0
        measure_end = state["measure_end"] if state["measure_end"] is not None else engine.now
        duration = max(measure_end - measure_start, 1e-9)
        latencies = sorted(completed or [0.0])
        return LoadResult(
            num_vc=self.num_vc,
            num_clients=self.num_clients,
            votes_completed=len(completed),
            duration_s=duration,
            throughput_ops=len(completed) / duration,
            mean_latency_s=statistics.fmean(latencies),
            median_latency_s=statistics.median(latencies),
            p50_latency_s=_percentile(latencies, 0.50),
            p95_latency_s=_percentile(latencies, 0.95),
            p99_latency_s=_percentile(latencies, 0.99),
            network_name=self.model.network.name,
        )

    # -- open loop (arrival-driven, with bounded admission) ------------------------

    def run_open_loop(
        self,
        arrival_times: Sequence[float],
        admission_depth: Optional[int] = None,
        arrival_name: str = "custom",
    ) -> OpenLoopResult:
        """Drive the vote pipeline from an external arrival stream.

        ``arrival_times`` is a sorted list of submission instants (seconds),
        typically produced by an :mod:`repro.perf.arrivals` process.  Each
        arrival targets a uniformly random responder; a responder with
        ``admission_depth`` votes already in flight sheds the arrival at the
        door (counted, not retried -- the open loop measures raw admission
        capacity; retry behaviour lives in :mod:`repro.core.voter`).
        ``admission_depth=None`` disables shedding, so queues grow without
        bound under overload -- the contrast with a bounded run is the point.
        """
        if admission_depth is not None and admission_depth < 1:
            raise ValueError("admission depth must be at least 1 (or None for unbounded)")

        engine = _Engine()
        machines, disks = self._make_cluster()

        in_flight = [0] * self.num_vc
        latencies: List[float] = []
        stats = {"offered": 0, "shed": 0, "peak": 0, "last_finish": 0.0}

        def arrive(at: float) -> None:
            stats["offered"] += 1
            responder = self.rng.randrange(self.num_vc)
            if admission_depth is not None and in_flight[responder] >= admission_depth:
                stats["shed"] += 1
                return
            in_flight[responder] += 1
            stats["peak"] = max(stats["peak"], max(in_flight))

            def vote_finished(t: float) -> None:
                in_flight[responder] -= 1
                latencies.append(t - at)
                stats["last_finish"] = max(stats["last_finish"], t)

            self._start_vote_pipeline(engine, machines, disks, responder, at, vote_finished)

        for at in arrival_times:
            engine.schedule(at, arrive)

        engine.run(lambda: False)  # drain every admitted vote

        offered = stats["offered"]
        admitted = offered - stats["shed"]
        completed = len(latencies)
        first = arrival_times[0] if len(arrival_times) else 0.0
        duration = max(stats["last_finish"] - first, 1e-9)
        ordered = sorted(latencies or [0.0])
        return OpenLoopResult(
            num_vc=self.num_vc,
            arrival_process=arrival_name,
            offered=offered,
            admitted=admitted,
            shed=stats["shed"],
            completed=completed,
            duration_s=duration,
            throughput_ops=completed / duration,
            p50_latency_s=_percentile(ordered, 0.50),
            p95_latency_s=_percentile(ordered, 0.95),
            p99_latency_s=_percentile(ordered, 0.99),
            peak_in_flight=stats["peak"],
            network_name=self.model.network.name,
        )


def sweep_vc_counts(
    vc_counts,
    client_counts,
    cost_model_factory: Callable[[], CostModel],
    target_votes: Optional[int] = None,
    seed: int = 1,
) -> List[LoadResult]:
    """Run the simulator over a grid of (#VC, #clients) configurations."""
    results = []
    for num_vc in vc_counts:
        for num_clients in client_counts:
            simulator = VoteCollectionLoadSimulator(
                num_vc=num_vc,
                num_clients=num_clients,
                cost_model=cost_model_factory(),
                seed=seed,
            )
            results.append(simulator.run(target_votes=target_votes))
    return results
