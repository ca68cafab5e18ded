"""Load Balancing (LB) component.

One LB instance runs on the task-manager processor next to the AC.  It
receives "Location" method calls (facet/receptacle) from the AC and
returns an assignment plan that balances synthetic utilization: each
subtask goes to the eligible processor (home or replica, criterion C3)
with the lowest synthetic utilization at decision time — the paper's
heuristic.  When accepting a new task only that task's assignment is
decided; already-admitted tasks are never moved (paper section 4.4),
except that under AC-per-task + LB-per-job the reservation of the *same*
task may be relocated when one of its jobs arrives.

The LB shares the AC's live ledger/analyzer through the
``admission_state`` facet, so its plans are admissible exactly when the
AC's subsequent bookkeeping says they are.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ccm.component import AttributeSpec, Component
from repro.ccm.ports import Facet, Receptacle
from repro.core.runtime import RuntimeEnv
from repro.errors import ComponentError
from repro.sched.aub import RESERVED, BatchAdmissionSession, burst_candidate
from repro.sched.task import Job, TaskSpec


class LoadBalancerComponent(Component):
    """Lowest-synthetic-utilization placement over replicated components."""

    ATTRIBUTES = {
        "strategy": AttributeSpec(
            str,
            default="T",
            validator=lambda v: v in ("N", "T", "J"),
            doc="Mirror of the deployment's LB strategy (informational; the "
            "AC component drives when Location calls happen).",
        ),
    }

    def __init__(self, name: str, env: RuntimeEnv) -> None:
        super().__init__(name)
        self.env = env
        self._state = Receptacle(self, "admission_state")
        self.location_calls = 0
        self.plans_returned = 0
        self.reallocations_proposed = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def provide_location_facet(self) -> Facet:
        """The facet the AC's ``locator`` receptacle connects to."""
        return Facet(self, "location", self)

    def connect_admission_state(self, facet: Facet) -> None:
        self._state.connect(facet)

    def provide_facet(self, port_name: str) -> Facet:
        if port_name == "location":
            return self.provide_location_facet()
        return super().provide_facet(port_name)

    def connect_receptacle(self, port_name: str, facet: Facet) -> None:
        if port_name == "admission_state":
            self.connect_admission_state(facet)
            return
        super().connect_receptacle(port_name, facet)

    def on_activate(self) -> None:
        if not self._state.connected:
            raise ComponentError(
                f"LB {self.name!r}: admission_state receptacle not connected"
            )

    # ------------------------------------------------------------------
    # Location interface (called synchronously by the AC)
    # ------------------------------------------------------------------
    def location(self, job: Job, now: float) -> Optional[Dict[int, str]]:
        """Propose an admissible assignment for ``job``, or None.

        Greedy heuristic: stage by stage, pick the eligible processor with
        the lowest synthetic utilization (counting utilization this plan
        has already placed), then verify the AUB condition for the whole
        system under the plan.
        """
        self.location_calls += 1
        state = self._state()
        task = job.task
        assignment, contribs = self._greedy_plan(task, state.ledger)
        visits = task.visited_processors(assignment)
        if not state.analyzer.admissible(visits, contribs, now):
            return None
        self.plans_returned += 1
        return assignment

    def location_in_batch(
        self, job: Job, session: BatchAdmissionSession
    ) -> Optional[Dict[int, str]]:
        """Batch counterpart of :meth:`location` for a drained burst.

        Plans against the session's overlay view — the live ledger plus
        every placement this burst has already accepted — so the greedy
        scores see exactly the utilizations the sequential path's interim
        ledger commits would have produced.  The plan is tested once
        through the session (the sequential path tests it twice, in
        ``location()`` and again in the AC's test-and-commit, but under
        an unchanged ledger both tests agree, so decisions stay
        bit-identical) and committed into the overlay on success.
        Returns the admissible assignment, or None.
        """
        self.location_calls += 1
        task = job.task
        assignment, _added = self._greedy_plan(task, session)
        if not session.try_admit(burst_candidate(task, assignment)):
            return None
        self.plans_returned += 1
        return assignment

    def location_for_reserved(
        self, task: TaskSpec, current: Dict[int, str], now: float
    ) -> Optional[Dict[int, str]]:
        """Propose moving an already-reserved task's assignment.

        Used for AC-per-task + LB-per-job.  Returns an admissible new
        assignment evaluated as a *delta* against the existing reservation
        (contributions move between processors), or None when no
        admissible improvement exists.
        """
        self.location_calls += 1
        state = self._state()
        assignment, delta = self._greedy_plan(
            task, state.ledger, discount=current
        )
        if assignment == current:
            return None
        # The plan's contribution map is owned by this call, so the move
        # deltas (new placement minus current reservation) fold in place.
        for subtask in task.subtasks:
            node = current[subtask.index]
            delta[node] = delta.get(node, 0.0) - task.subtask_utilization(
                subtask.index
            )
        visits = task.visited_processors(assignment)
        if not state.analyzer.admissible(
            visits, delta, now, exclude=(task.task_id, RESERVED)
        ):
            return None
        self.reallocations_proposed += 1
        return assignment

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _greedy_plan(
        self,
        task: TaskSpec,
        ledger,
        discount: Optional[Dict[int, str]] = None,
    ):
        """Stage-by-stage lowest-utilization placement.

        ``ledger`` is any utilization source exposing ``utilization(node)``
        — the live ledger on the sequential path, a
        :class:`~repro.sched.aub.BatchAdmissionSession` (ledger plus
        batch overlay) on the batched path.  ``discount`` maps subtask
        index -> node currently holding that subtask's reservation; the
        reservation's utilization is subtracted when scoring that node so
        a relocation decision is not biased against keeping the current
        placement.
        """
        assignment: Dict[int, str] = {}
        added: Dict[str, float] = {}
        for subtask in task.subtasks:
            u = task.subtask_utilization(subtask.index)
            current = None if discount is None else discount.get(subtask.index)
            best = None
            best_score = None
            for node in subtask.eligible:
                base = ledger.utilization(node) + added.get(node, 0.0)
                if node == current:
                    base -= u
                score = (base, node)
                if best is None or score < best_score:
                    best = node
                    best_score = score
            assignment[subtask.index] = best
            added[best] = added.get(best, 0.0) + u
        return assignment, added
