"""Fluid-flow bandwidth model with max–min fair sharing.

Data transfers in the simulated cluster are *flows*: a number of bytes
moving across a set of capacitated resources (NIC ingress/egress, rack
uplinks, storage-media read/write channels). At any instant, every
active flow receives a transfer rate computed by progressive filling
(max–min fairness): the most contended resource caps the rates of the
flows crossing it, those flows are frozen, the residual capacity is
redistributed, and so on. This flow-level ("fluid") approximation is
the standard technique for simulating bandwidth sharing without
packet-level detail, and it reproduces the concurrency phenomena the
paper's evaluation depends on: a medium's throughput dividing among
concurrent streams, NIC congestion growing with the degree of
parallelism, and a pipeline's rate being set by its slowest stage (a
pipeline write is a single flow crossing all stage resources).

Incremental scheduling
----------------------
The scheduler maintains the flow↔resource bipartite graph explicitly
(:class:`FlowSet` per resource, ``flow.resources`` per flow). When a
flow starts, finishes, or is cancelled — or a capacity changes — only
the **connected component** of the graph touched by the change can see
different max–min rates: progressive filling never moves capacity
between disconnected components. :class:`IncrementalFlowSolver`
therefore re-fills just that component, reusing cached rates everywhere
else, while :class:`DenseFlowSolver` re-fills every active flow from
round 0 — the original O(events × flows × resources) behavior, kept as
the oracle for the differential equivalence tests.

The round journal
-----------------
Inside a component the incremental solver does not start over either.
A fill is a sequence of *rounds*: pop the lowest valid candidate
``(share, name, rid)``, freeze the open flows on that bottleneck at
``share``, subtract ``share`` from every other resource they cross.
Each component's latest fill is kept as a **journal** of its rounds —
key, frozen flows, and the ``(cap, pending)`` each touched resource had
when the round began. A later change names a set ``C`` of changed
resources (a started flow's, the finished or cancelled flows', the one
``set_capacity`` re-priced). The solver walks the journal: the
trajectory of every ``C`` resource restarts from a fresh
``effective_capacity()`` at its new flow count, and round ``j`` is
**reused** iff its bottleneck is not in ``C`` and no ``C`` resource's
key on the new trajectory sorts below round ``j``'s key. Then a fill
from round 0 would pop the very same candidate (every other resource is
in the state the journal recorded, and none of them beat it then),
freeze the same flows at the same share and perform the same
subtractions — a reused round is a round whose selection and arithmetic
are literally unchanged, so skipping it changes no float anywhere. The
``C`` resources are advanced through a reused round by replaying its
subtractions one at a time (``cap -= share`` per crossing flow, never
``cap - m * share`` and never ``sum()``, which is compensated from
Python 3.12 on): the order of subtractions is the contract. At the
first round that is not reusable the solver rewinds every later round
to its recorded before-state, re-opens those rounds' flows, and runs
the ordinary round loop from there, recording as it goes. Stopping the
reuse *early* is always exact — the loop simply recomputes rounds it
could have kept; stopping late is not, which is why the test is on the
new trajectory, replayed, rather than on any bound.

A journal lives by three rules. It covers exactly the component(s) it
was filled with: a start on idle resources opens a journal of its own,
and an idle resource is absorbed only by the journal of a busy resource
the same flow crosses. A change whose busy resources belong to two
journals, or to none that is live, falls back to search-and-fill from
round 0 — one fill and one new journal per component found. And
whatever re-rates or re-prices a journal's resources behind its back
retires it for good: the fallback fill retires every journal whose
resources it reaches (resources a finish left idle included — their old
journal still lists the finished flow), and assigning
``Resource.capacity`` retires the resource's journal, so fault-injection
code that forgets ``refresh`` gets stale rates under both solvers alike
but can never make them disagree.

Both solvers share every other code path, and a journaled fill is
*bit-identical* to a global fill from round 0 (same subtraction
arithmetic, same deterministic bottleneck order), so the two produce
identical simulated completion times and byte-identical trace/metrics
exports — asserted by ``tests/test_flow_solver_equivalence.py``.

Progress integration is lazy: each flow carries a ``last_advanced``
timestamp and its remaining bytes are materialized only when its *rate
value* actually changes (or it finishes), instead of sweeping every
active flow on every event. Completions are tracked in a per-flow heap
``(finish_time, seq, token, flow)`` with token-bump invalidation; the
scheduler keeps exactly one cancellable engine timer parked at the
heap minimum.

The product runs one solver, :data:`DEFAULT_SOLVER`; tests and
``benchmarks/bench_flows_scale.py`` reach the oracle with
``FlowScheduler(..., solver="dense")``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability
    from repro.obs.tracing import Span
    from repro.sim.engine import SimulationEngine, TimerHandle

_EPSILON_BYTES = 1e-6
#: Minimum scheduling quantum: a flow within this of completion is done.
#: Prevents Zeno loops where float residue (micro-bytes) would otherwise
#: reschedule ever-smaller wakeups without the clock advancing.
_MIN_DT = 1e-9

#: Deterministic resource identity for tie-breaking and graph bookkeeping;
#: creation order is stable across identically-seeded runs, unlike id().
_resource_ids = itertools.count()


class FlowSet(dict):
    """Insertion-ordered set of flows (a ``dict`` whose values are unused).

    Attach order equals ``flow.seq`` order, which gives two properties
    the scheduler leans on: iteration is deterministic across runs
    (``set`` iteration follows object addresses), and per-resource
    demand sums no longer need an O(F log F) sort per sample.
    Being a ``dict``, ``len``, ``in``, iteration and truthiness run at C
    speed — ``NrConn`` is read hundreds of thousands of times per run.
    """

    __slots__ = ()

    def add(self, flow) -> None:
        self[flow] = None

    def discard(self, flow) -> None:
        self.pop(flow, None)


class Resource:
    """A capacitated, shareable channel (NIC direction, media channel...).

    ``capacity`` is in bytes per simulated second. ``active_count`` is the
    number of flows currently crossing the resource; the file system's
    load statistics (``NrConn`` in the paper) read this directly.
    """

    def __init__(
        self, name: str, capacity: float, congestion_overhead: float = 0.0
    ) -> None:
        if capacity <= 0:
            raise SimulationError(f"resource {name!r} needs capacity > 0")
        self.name = name
        self._capacity = float(capacity)
        #: Per-extra-connection efficiency loss. Real networks lose
        #: aggregate goodput under fan-in (TCP incast, switch buffer
        #: pressure); a pure fluid model conserves it. A small positive
        #: value on network resources reproduces the paper's observed
        #: throughput decline at high degrees of parallelism.
        self.congestion_overhead = float(congestion_overhead)
        self.flows: FlowSet = FlowSet()
        self.bytes_served = 0.0
        self._rid = next(_resource_ids)
        # Fill state (see FlowScheduler._run_rounds): residual capacity
        # and open-flow count on the current fill's trajectory, the last
        # stamp that visited the resource, and the journal of the fill
        # that last rated its flows.
        self._cap = 0.0
        self._pending = 0
        self._mark = 0
        self._journal: "_Journal | None" = None

    @property
    def capacity(self) -> float:
        return self._capacity

    @capacity.setter
    def capacity(self, value: float) -> None:
        # A write from outside the scheduler (fault injection): rounds
        # recorded under the old capacity must never be reused, whether
        # or not the writer remembers to call ``refresh``.
        self._capacity = value
        if self._journal is not None:
            self._journal.live = False

    @property
    def active_count(self) -> int:
        return len(self.flows)

    def effective_capacity(self) -> float:
        """Capacity after congestion losses at the current concurrency."""
        penalty = 1.0 + self.congestion_overhead * max(0, len(self.flows) - 1)
        return self._capacity / penalty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Resource {self.name} cap={self.capacity:.0f}B/s active={self.active_count}>"


class Flow:
    """A transfer of ``size`` bytes across ``resources``.

    ``completed`` is an :class:`~repro.sim.events.Event` that succeeds
    with the flow when the last byte arrives (or fails if cancelled).
    """

    def __init__(
        self,
        size: float,
        resources: Sequence[Resource],
        completed: Event,
        label: str = "",
    ) -> None:
        if size < 0:
            raise SimulationError("flow size must be non-negative")
        self.size = float(size)
        self.remaining = float(size)
        # A pipeline may legitimately visit one node twice; the same
        # physical resource must only count once toward the flow's rate.
        self.resources: tuple[Resource, ...] = tuple(dict.fromkeys(resources))
        self.completed = completed
        self.label = label
        self.rate = 0.0
        self.started_at = 0.0
        self.finished_at: float | None = None
        #: Scheduler-assigned start order; the deterministic identity used
        #: for completion ordering and trace correlation (labels may embed
        #: process-global block ids, which are not stable across runs).
        self.seq = 0
        #: Simulation time up to which ``remaining`` is materialized;
        #: progress between ``last_advanced`` and now is implied by
        #: ``rate`` and integrated only when the rate value changes.
        self.last_advanced = 0.0
        #: Invalidation token for completion-heap entries; bumped whenever
        #: the flow's scheduled finish time stops being valid.
        self._wake_token = 0
        #: Trace span covering this transfer, when observability is on.
        self.span: "Span | None" = None
        #: Stamp of the fill in which the flow is still unfrozen, else 0.
        self._open = 0

    @property
    def duration(self) -> float:
        """Transfer duration in simulated seconds (valid once finished)."""
        if self.finished_at is None:
            raise SimulationError(f"flow {self.label!r} has not finished")
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow {self.label or hex(id(self))} remaining="
            f"{self.remaining:.0f}B rate={self.rate:.0f}B/s>"
        )


#: Stamps for fills: "visited in this search", "changed in this fill",
#: "still open in this fill". Never reused, so stale marks are inert.
_stamps = itertools.count(1)

#: What a solver hands the round loop: the candidate heap, the number of
#: open flows, the stamp they carry, and where to record rounds.
Plan = tuple[list, int, int, "list | None"]


def _candidate(resource: Resource) -> tuple:
    """The resource's heap entry: its open flows' equal share, then the
    deterministic tie-break. ``rid`` is unique, so comparing two entries
    never reaches the resource itself."""
    return (
        resource._cap / resource._pending,
        resource.name,
        resource._rid,
        resource,
    )


def _candidates(resources: Iterable[Resource]) -> list:
    """A heap of the candidates of every resource with open flows."""
    heap = [_candidate(r) for r in resources if r._pending]
    heapq.heapify(heap)
    return heap


def _round_zero(resources: Sequence[Resource], journal: "_Journal | None") -> list:
    """Start every resource's trajectory afresh; return the candidate heap."""
    for resource in resources:
        resource._journal = journal
        resource._cap = resource.effective_capacity()
        resource._pending = len(resource.flows)
    return _candidates(resources)


class DenseFlowSolver:
    """Re-fill every active flow on every change (the original behavior).

    Kept as the oracle the differential tests compare the incremental
    solver against: it never journals and always starts at round 0.
    """

    name = "dense"

    def __init__(self, scheduler: "FlowScheduler") -> None:
        self.scheduler = scheduler

    def plan(self, started: Flow | None, changed: Iterable[Resource]) -> list[Plan]:
        stamp = next(_stamps)
        resources: list[Resource] = []
        open_count = 0
        for flow in self.scheduler.active:
            if flow.resources:  # else a no-cost copy, rated at its start
                flow._open = stamp
                open_count += 1
                for resource in flow.resources:
                    if resource._mark != stamp:
                        resource._mark = stamp
                        resources.append(resource)
        return [(_round_zero(resources, None), open_count, stamp, None)]


class _Journal:
    """The rounds of one component's latest fill, in the order they ran.

    A round is ``(key, frozen, before)``: the winning heap candidate
    ``(share, name, rid, bottleneck)``, the flows it froze, and for every
    other resource those flows cross ``(cap, pending, crossings)`` — what
    it held when the round began and how many of the frozen flows cross
    it. ``live`` drops to False the moment anything else re-rates (or
    re-prices) one of the journal's resources.
    """

    __slots__ = ("rounds", "live")

    def __init__(self) -> None:
        self.rounds: list[tuple] = []
        self.live = True


def _lowest_key(resources: Iterable[Resource]) -> tuple:
    """The candidate a heap over ``resources`` would pop first."""
    return min(
        (_candidate(r) for r in resources if r._pending), default=(math.inf,)
    )


class IncrementalFlowSolver:
    """Re-fill only what a change can reach.

    Max–min filling never moves capacity between disconnected components
    of the flow↔resource graph, so flows outside the touched component
    provably keep their cached rates; and inside it, every round that
    ran before the change could first matter is reused from the
    component's journal (module docstring, *The round journal*).
    """

    name = "incremental"

    def __init__(self, scheduler: "FlowScheduler") -> None:
        self.scheduler = scheduler

    def select(
        self, seed: Resource, stamp: int
    ) -> tuple[list[Flow], list[Resource]]:
        """The connected component of ``seed``, found by BFS.

        Returns its flows and every resource they cross (``seed`` itself
        even when idle), all marked with ``stamp``.
        """
        seed._mark = stamp
        flows: list[Flow] = []
        resources = [seed]
        frontier = [seed]
        while frontier:
            for flow in frontier.pop().flows:
                if flow._open != stamp:
                    flow._open = stamp
                    flows.append(flow)
                    for resource in flow.resources:
                        if resource._mark != stamp:
                            resource._mark = stamp
                            resources.append(resource)
                            frontier.append(resource)
        return flows, resources

    def plan(self, started: Flow | None, changed: Iterable[Resource]) -> list[Plan]:
        # Which journal rated the flows on the changed resources? A
        # resource carrying nothing but the flow being started was rated
        # by none: whatever it still points at is stale.
        if started is None:
            seeds = list(dict.fromkeys(changed))
            journals = {resource._journal for resource in seeds}
        else:
            seeds = started.resources
            journals = {
                resource._journal for resource in seeds if len(resource.flows) > 1
            }
        stamp = next(_stamps)
        if len(journals) == 1:
            (journal,) = journals
            if journal is not None and journal.live:
                return [self._resume(journal, seeds, started, stamp)]
        elif started is not None and not journals:
            # A start on idle resources is a component of its own.
            started._open = stamp
            journal = _Journal()
            return [(_round_zero(seeds, journal), 1, stamp, journal.rounds)]
        # The change spans journals, or its journal is retired: search,
        # and fill each component found from round 0 under a journal of
        # its own, retiring every journal the fill re-rates.
        plans = []
        for seed in seeds:
            if seed._mark != stamp:
                flows, resources = self.select(seed, stamp)
                for resource in resources:
                    if resource._journal is not None:
                        resource._journal.live = False
                journal = _Journal()
                plans.append(
                    (_round_zero(resources, journal), len(flows), stamp, journal.rounds)
                )
        return plans

    def _resume(
        self,
        journal: _Journal,
        seeds: Sequence[Resource],
        started: Flow | None,
        stamp: int,
    ) -> Plan:
        """Reuse the journal's rounds up to the first one the change reaches.

        ``seeds`` are the changed resources. Their trajectory starts
        afresh (new capacity, new flow count) and is advanced through
        each reused round by replaying that round's subtractions one at a
        time, exactly as a fill from round 0 would perform them. A round
        is reused iff its bottleneck is unchanged and no changed
        resource's key now sorts below the round's: then the round-0
        fill would pop the same candidate, freeze the same flows at the
        same share, and do the same arithmetic on every unchanged
        resource.
        """
        for resource in seeds:
            resource._mark = stamp
            resource._journal = journal
            resource._cap = resource.effective_capacity()
            resource._pending = len(resource.flows)
        rounds = journal.rounds
        lowest = _lowest_key(seeds)
        keep = 0
        for key, frozen, before in rounds:
            if key[3]._mark == stamp or lowest < key:
                break
            if not before.keys().isdisjoint(seeds):
                share = key[0]
                for resource in seeds:
                    if resource in before:
                        crossings = before[resource][2]
                        # Later rewinds must land on the new trajectory.
                        before[resource] = (
                            resource._cap, resource._pending, crossings
                        )
                        for _ in range(crossings):
                            resource._cap -= share
                        resource._pending -= crossings
                lowest = _lowest_key(seeds)
            keep += 1
        # Rewind the rest, first recorded state first: what a resource
        # held when round ``keep`` began is what its earliest rewound
        # round saw (a bottleneck untouched since then still holds it).
        involved = list(seeds)
        open_count = 0
        for key, frozen, before in rounds[keep:]:
            bottleneck = key[3]
            if bottleneck._mark != stamp:
                bottleneck._mark = stamp
                bottleneck._pending = len(frozen)
                involved.append(bottleneck)
            for resource, state in before.items():
                if resource._mark != stamp:
                    resource._mark = stamp
                    resource._cap, resource._pending, _ = state
                    involved.append(resource)
            for flow in frozen:
                if flow.finished_at is None:
                    flow._open = stamp
                    open_count += 1
        del rounds[keep:]
        if started is not None:
            started._open = stamp
            open_count += 1
        return _candidates(involved), open_count, stamp, rounds


SOLVERS = {
    DenseFlowSolver.name: DenseFlowSolver,
    IncrementalFlowSolver.name: IncrementalFlowSolver,
}
#: What ``FlowScheduler()`` runs (differential tests patch in the oracle).
DEFAULT_SOLVER = IncrementalFlowSolver.name


def _seq_key(flow: Flow) -> int:
    return flow.seq


class FlowScheduler:
    """Runs the fluid model on top of a :class:`SimulationEngine`."""

    def __init__(
        self,
        engine: "SimulationEngine",
        obs: "Observability | None" = None,
        solver: str | None = None,
    ) -> None:
        self.engine = engine
        if obs is None:
            from repro.obs import Observability

            obs = Observability()  # disabled no-op bundle
        self.obs = obs
        self.active: FlowSet = FlowSet()
        self.total_flows_started = 0
        self.total_bytes_completed = 0.0
        #: Rate assignments performed by progressive filling; the perf
        #: tests use this to show the incremental solver does less work.
        self.rate_computations = 0
        #: Pending completions: ``(finish_time, seq, token, flow)``.
        #: Entries whose token no longer matches ``flow._wake_token`` are
        #: stale and skipped on pop (token-bump lazy invalidation).
        self._completions: list[tuple[float, int, int, Flow]] = []
        self._wake_handle: "TimerHandle | None" = None
        self._wake_time = math.inf
        #: ``resource name → utilization series`` handles and the registry
        #: they were bound in (see :meth:`_sample_utilization`).
        self._util_series: dict = {}
        self._util_registry: object = None
        name = solver or DEFAULT_SOLVER
        try:
            solver_cls = SOLVERS[name]
        except KeyError:
            raise SimulationError(
                f"unknown flow solver {name!r}; options: {sorted(SOLVERS)}"
            ) from None
        self.solver = solver_cls(self)
        self.solver_name = name

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def start_flow(
        self,
        size: float,
        resources: Iterable[Resource],
        label: str = "",
        parent: "Span | None" = None,
    ) -> Flow:
        """Begin transferring ``size`` bytes over ``resources``.

        Returns the flow; wait on ``flow.completed`` for the finish time.
        A zero-byte flow completes immediately. With observability on,
        the transfer is covered by a ``flow.transfer`` span attached as
        ``flow.span``; pass ``parent`` to link it to the client operation
        that initiated it.
        """
        flow = Flow(size, list(resources), self.engine.event(), label=label)
        now = self.engine.now
        flow.started_at = now
        flow.last_advanced = now
        self.total_flows_started += 1
        flow.seq = self.total_flows_started
        obs = self.obs
        if obs.enabled:
            flow.span = obs.tracer.start_span(
                "flow.transfer",
                parent=parent,
                size=flow.size,
                resources=len(flow.resources),
                # Which channels the transfer crosses (NIC directions,
                # rack uplinks, media read/write channels) — the trace
                # analyzer's straggler view points at the shared hop.
                path=[r.name for r in flow.resources],
            )
            obs.metrics.counter("flows_started_total").inc()
        if flow.remaining <= _EPSILON_BYTES:
            flow.finished_at = now
            if flow.span is not None:
                flow.span.end("ok")
                obs.metrics.counter("flows_completed_total").inc()
            flow.completed.succeed(flow)
            return flow
        self.active.add(flow)
        for resource in flow.resources:
            resource.flows.add(flow)
        self._reallocate(started=flow)
        return flow

    def cancel_flow(self, flow: Flow, exception: BaseException) -> None:
        """Abort an in-flight flow; its waiter sees ``exception``."""
        if flow not in self.active:
            return
        self._materialize(flow)
        self._detach(flow)
        flow.finished_at = self.engine.now
        if flow.span is not None:
            flow.span.end("cancelled", transferred=flow.size - flow.remaining)
            self.obs.metrics.counter("flows_cancelled_total").inc()
        flow.completed.fail(exception)
        self._reallocate(changed=flow.resources)

    def transfer(
        self,
        size: float,
        resources: Iterable[Resource],
        label: str = "",
        parent: "Span | None" = None,
    ) -> Event:
        """Convenience: start a flow and return its completion event."""
        return self.start_flow(
            size, resources, label=label, parent=parent
        ).completed

    def refresh(self, resources: Iterable[Resource] | None = None) -> None:
        """Re-share bandwidth after an external capacity change.

        Fault injection (medium degradation, NIC rate caps) rewrites
        ``Resource.capacity`` while flows are in flight; calling this
        recomputes the max–min allocation under the new capacities.
        Pass the changed ``resources`` as a hint so the incremental
        solver only revisits their connected components; with no hint,
        every component is recomputed.
        """
        if resources is None:
            resources = [r for flow in self.active for r in flow.resources]
        self._reallocate(changed=resources)

    def set_capacity(self, resource: Resource, capacity: float) -> None:
        """Change one resource's capacity and re-share immediately."""
        if capacity <= 0:
            raise SimulationError(
                f"resource {resource.name!r} needs capacity > 0"
            )
        resource._capacity = float(capacity)  # not the setter: the journal stays
        self._reallocate(changed=(resource,))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _detach(self, flow: Flow) -> None:
        self.active.discard(flow)
        flow._wake_token += 1
        for resource in flow.resources:
            resource.flows.discard(flow)

    def _materialize(self, flow: Flow) -> None:
        """Integrate the flow's progress from ``last_advanced`` to now.

        Called exactly when the flow's rate value changes (or it leaves
        the system), so both solvers accumulate the same float chunks at
        the same simulation times — the key to bit-identical results.
        """
        now = self.engine.now
        elapsed = now - flow.last_advanced
        flow.last_advanced = now
        if elapsed <= 0:
            return
        moved = flow.rate * elapsed
        flow.remaining = max(0.0, flow.remaining - moved)
        share = moved / max(1, len(flow.resources))
        for resource in flow.resources:
            resource.bytes_served += share

    def _reallocate(
        self, started: Flow | None = None, changed: Iterable[Resource] = ()
    ) -> None:
        """Re-rate after a start or a change to ``changed``; cascade finishes.

        Flows whose new rate puts them within :data:`_MIN_DT` of
        completion finish immediately (in ``seq`` order), and their
        resources are the next pass's change, mirroring the dense
        solver's finish-then-refill recursion.
        """
        while True:
            due: list[Flow] = []
            for flow in self._fill_rates(started, changed):
                rate = flow.rate
                if (
                    flow.remaining <= _EPSILON_BYTES
                    or rate == math.inf
                    or (rate > 0 and flow.remaining / rate <= _MIN_DT)
                ):
                    due.append(flow)
                else:
                    flow._wake_token += 1
                    if rate > 0:
                        heapq.heappush(
                            self._completions,
                            (
                                self.engine.now + flow.remaining / rate,
                                flow.seq,
                                flow._wake_token,
                                flow,
                            ),
                        )
                    # A zero-rate flow waits with no completion entry; if
                    # nothing else is in flight the wakeup check below
                    # reports the deadlock.
            if not due:
                break
            due.sort(key=_seq_key)
            started = None
            changed = self._finish_flows(due)
        self._schedule_wakeup()
        if self.obs.enabled:
            self._sample_utilization()

    def _fill_rates(
        self, started: Flow | None, changed: Iterable[Resource]
    ) -> list[Flow]:
        """Progressive filling from the solver's plan; returns re-rated flows."""
        rated: list[Flow] = []
        if started is not None and not started.resources:
            # A flow crossing no resources is a local no-cost copy.
            self.rate_computations += 1
            started.rate = math.inf
            rated.append(started)
            started = None
        for plan in self.solver.plan(started, changed):
            self._run_rounds(*plan, rated)
        return rated

    def _run_rounds(
        self,
        heap: list,
        open_count: int,
        stamp: int,
        rounds: list | None,
        rated: list[Flow],
    ) -> None:
        """The round loop: freeze the lowest bottleneck's flows, repeat.

        ``heap`` holds ``(share, name, rid, resource)`` candidates,
        verified on pop: an entry is trusted only if it still equals the
        live ``_cap / _pending`` of its resource. A round pushes one
        fresh entry per resource it changed, after the round, so at the
        start of every round each resource with open flows has exactly
        one valid entry — the deterministic min-by-(share, name, rid)
        choice of the original O(rounds × resources) scan. A resource's
        open count starts at ``len(resource.flows)``: every flow on a
        reached resource is in the component being filled.
        """
        heappop, heappush = heapq.heappop, heapq.heappush
        materialize = self._materialize
        while open_count:
            while heap:
                key = heappop(heap)
                share, _name, _rid, bottleneck = key
                count = bottleneck._pending
                if count and bottleneck._cap / count == share:
                    break
            else:
                raise SimulationError("flow without any capacitated resource")
            frozen = [flow for flow in bottleneck.flows if flow._open == stamp]
            before: dict[Resource, tuple] = {}
            for flow in frozen:
                flow._open = 0
                if flow.rate != share:
                    # The rate *value* changes: a materialization point.
                    materialize(flow)
                    flow.rate = share
                    rated.append(flow)
                for resource in flow.resources:
                    if resource is not bottleneck:
                        if resource not in before:
                            before[resource] = (resource._cap, resource._pending)
                        resource._cap -= share
                        resource._pending -= 1
            bottleneck._pending = 0
            open_count -= len(frozen)
            self.rate_computations += len(frozen)
            for resource, (cap, pending) in before.items():
                count = resource._pending
                if count:  # _candidate(resource), inlined: the hot push
                    heappush(
                        heap,
                        (resource._cap / count, resource.name, resource._rid, resource),
                    )
                # ... and how many of the round's flows crossed it.
                before[resource] = (cap, pending, pending - count)
            if rounds is not None:
                rounds.append((key, frozen, before))

    def _finish_flows(self, due: list[Flow]) -> list[Resource]:
        """Finish ``due`` in order; return the resources that changes."""
        for flow in due:
            self._finish_flow(flow)
        return [r for flow in due for r in flow.resources]

    def _finish_flow(self, flow: Flow) -> None:
        self._materialize(flow)
        self._detach(flow)
        flow.remaining = 0.0
        flow.finished_at = self.engine.now
        self.total_bytes_completed += flow.size
        if flow.span is not None:
            flow.span.end("ok")
            self.obs.metrics.counter("flows_completed_total").inc()
            self.obs.metrics.counter("flow_bytes_total").inc(flow.size)
        flow.completed.succeed(flow)

    def _next_completion(self) -> float | None:
        """Earliest valid completion time; purges stale heap heads."""
        heap = self._completions
        while heap:
            _when, _seq, token, flow = heap[0]
            if token != flow._wake_token or flow not in self.active:
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    def _schedule_wakeup(self) -> None:
        when = self._next_completion()
        if when is None:
            if self.active:
                raise SimulationError("active flow has zero rate; deadlock")
            if self._wake_handle is not None:
                self._wake_handle.cancel()
                self._wake_handle = None
                self._wake_time = math.inf
            return
        if self._wake_handle is not None:
            if self._wake_time == when:
                return  # the parked timer is already right
            self._wake_handle.cancel()
        self._wake_handle = self.engine.call_at(when, self._on_wakeup)
        self._wake_time = when

    def _on_wakeup(self) -> None:
        self._wake_handle = None
        self._wake_time = math.inf
        now = self.engine.now
        heap = self._completions
        due: list[Flow] = []
        while heap:
            when, _seq, token, flow = heap[0]
            if token != flow._wake_token or flow not in self.active:
                heapq.heappop(heap)
                continue
            if when > now:
                break
            heapq.heappop(heap)
            due.append(flow)  # heap order is (time, seq): ties resolve by seq
        if not due:
            self._schedule_wakeup()
            return
        self._reallocate(changed=self._finish_flows(due))

    def _sample_utilization(self) -> None:
        """Record per-resource utilization after a rate change.

        One sample per resource currently crossed by an active flow:
        the demanded rate as a fraction of effective capacity, stamped
        with the simulation time. Resources are visited in name order so
        identical runs emit identical series; per-resource demand sums
        in attach (= seq) order because :class:`FlowSet` preserves it.

        This is the hottest metric feed there is, so each resource's
        series is looked up once and the handle kept; a handle must not
        outlive its registry (``Observability.enable()`` / ``disable()``
        swap it), so the map is dropped when the registry is another.
        """
        metrics = self.obs.metrics
        if self._util_registry is not metrics:
            self._util_registry, self._util_series = metrics, {}
        series_of = self._util_series
        now = metrics.now()
        metrics.gauge("flows_active").set(len(self.active))
        involved: dict[str, Resource] = {}
        for flow in self.active:
            for resource in flow.resources:
                involved[resource.name] = resource
        for name in sorted(involved):
            resource = involved[name]
            capacity = resource.effective_capacity()
            demand = 0.0
            for flow in resource.flows:
                rate = flow.rate
                if rate != math.inf:
                    demand += rate
            series = series_of.get(name)
            if series is None:
                series = series_of[name] = metrics.timeseries(
                    "resource_utilization", resource=name
                )
            series.sample(demand / capacity if capacity > 0 else 0.0, now)
