"""Deployment-plan feasibility checks.

The paper's configuration engine "performs a feasibility check on
configuration settings, to ensure correct handling of dependent
constraints" — most prominently refusing AC-per-Task + IR-per-Job.  This
module checks a whole :class:`~repro.config.plan.DeploymentPlan`:

* the AC strategy triple is a valid combination;
* an LB instance exists iff the AC's lb_strategy enables it, and they are
  colocated on the task manager;
* exactly one TE and IR per application processor, with matching
  processor_id properties and IR strategies consistent with the AC's;
* TE release modes consistent with the AC/LB strategies;
* subtask instances carry EDMS-consistent priorities (a task with a
  shorter end-to-end deadline never has a lower-urgency priority value);
* every task chain is complete on every eligible processor and the first
  stage's home processor hosts a TE.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List

from repro.config.plan import (
    DeploymentPlan,
    IMPL_AC,
    IMPL_FI_SUBTASK,
    IMPL_IR,
    IMPL_LAST_SUBTASK,
    IMPL_LB,
    IMPL_TE,
)
from repro.config.workload_spec import parse_workload_json
from repro.core.strategies import ACStrategy, LBStrategy
from repro.errors import ConfigurationError
from repro.workloads.model import Workload


def validate_plan(plan: DeploymentPlan) -> Workload:
    """Validate ``plan``; returns the embedded workload on success.

    Raises :class:`ConfigurationError` (or the more specific
    :class:`~repro.errors.InvalidStrategyCombination`) on any violation.
    """
    combo = plan.combo()  # raises on missing/duplicated AC
    combo.validate()
    workload = _embedded_workload(plan)
    _check_services(plan, combo)
    _check_effectors_and_resetters(plan, combo, workload)
    _check_subtasks(plan, combo, workload)
    return workload


def _embedded_workload(plan: DeploymentPlan) -> Workload:
    if not plan.workload_json:
        raise ConfigurationError("plan has no embedded workload")
    try:
        return parse_workload_json(plan.workload_json)
    except json.JSONDecodeError as exc:  # pragma: no cover - parse guards
        raise ConfigurationError(f"embedded workload is invalid: {exc}") from None


def _check_services(plan: DeploymentPlan, combo) -> None:
    ac = plan.instances_of(IMPL_AC)[0]
    if ac.node != plan.manager_node:
        raise ConfigurationError(
            f"AC instance must live on the task manager {plan.manager_node!r}, "
            f"found on {ac.node!r}"
        )
    lbs = plan.instances_of(IMPL_LB)
    lb_enabled = combo.lb is not LBStrategy.NONE
    if lb_enabled and len(lbs) != 1:
        raise ConfigurationError(
            f"lb_strategy={combo.lb.value} requires exactly one LB instance, "
            f"found {len(lbs)}"
        )
    if not lb_enabled and lbs:
        raise ConfigurationError(
            "plan deploys an LB instance but the AC disables load balancing"
        )
    if lb_enabled:
        lb = lbs[0]
        if lb.node != plan.manager_node:
            raise ConfigurationError(
                "LB instance must be colocated with the AC on the task manager"
            )
        facet_conns = {
            (c.source_instance, c.source_port, c.target_instance)
            for c in plan.connections
            if c.kind == "facet"
        }
        if (ac.instance_id, "locator", lb.instance_id) not in facet_conns:
            raise ConfigurationError(
                "missing facet connection: AC locator -> LB location"
            )
        if (lb.instance_id, "admission_state", ac.instance_id) not in facet_conns:
            raise ConfigurationError(
                "missing facet connection: LB admission_state -> AC"
            )


def _check_effectors_and_resetters(
    plan: DeploymentPlan, combo, workload: Workload
) -> None:
    expected_mode = (
        "per_task"
        if combo.ac is ACStrategy.PER_TASK and combo.lb is not LBStrategy.PER_JOB
        else "per_job"
    )
    te_nodes: Dict[str, int] = defaultdict(int)
    for te in plan.instances_of(IMPL_TE):
        props = te.property_dict()
        if props.get("processor_id") != te.node:
            raise ConfigurationError(
                f"TE {te.instance_id!r}: processor_id "
                f"{props.get('processor_id')!r} != node {te.node!r}"
            )
        if props.get("release_mode") != expected_mode:
            raise ConfigurationError(
                f"TE {te.instance_id!r}: release_mode "
                f"{props.get('release_mode')!r} inconsistent with strategies "
                f"{combo.label} (expected {expected_mode!r})"
            )
        te_nodes[te.node] += 1
    ir_nodes: Dict[str, int] = defaultdict(int)
    for ir in plan.instances_of(IMPL_IR):
        props = ir.property_dict()
        if props.get("processor_id") != ir.node:
            raise ConfigurationError(
                f"IR {ir.instance_id!r}: processor_id mismatch"
            )
        if props.get("strategy") != combo.ir.value:
            raise ConfigurationError(
                f"IR {ir.instance_id!r}: strategy {props.get('strategy')!r} "
                f"!= AC's ir_strategy {combo.ir.value!r}"
            )
        ir_nodes[ir.node] += 1
    for node in workload.app_nodes:
        if te_nodes.get(node, 0) != 1:
            raise ConfigurationError(
                f"application processor {node!r} needs exactly one TE, "
                f"found {te_nodes.get(node, 0)}"
            )
        if ir_nodes.get(node, 0) != 1:
            raise ConfigurationError(
                f"application processor {node!r} needs exactly one IR, "
                f"found {ir_nodes.get(node, 0)}"
            )


def _check_subtasks(plan: DeploymentPlan, combo, workload: Workload) -> None:
    subtask_instances = plan.instances_of(IMPL_FI_SUBTASK) + plan.instances_of(
        IMPL_LAST_SUBTASK
    )
    deployed = {}
    priorities: Dict[str, float] = {}
    for inst in subtask_instances:
        props = inst.property_dict()
        key = (props["task_id"], props["subtask_index"], inst.node)
        if key in deployed:
            raise ConfigurationError(
                f"duplicate subtask instance for {key}"
            )
        deployed[key] = inst
        if props.get("ir_mode") != combo.ir.value:
            raise ConfigurationError(
                f"subtask {inst.instance_id!r}: ir_mode "
                f"{props.get('ir_mode')!r} != AC's ir_strategy"
            )
        task_id = props["task_id"]
        priority = float(props["priority"])
        if task_id in priorities and priorities[task_id] != priority:
            raise ConfigurationError(
                f"task {task_id!r} has inconsistent priorities across "
                "subtask instances"
            )
        priorities[task_id] = priority

    by_deadline: List = sorted(workload.tasks, key=lambda t: t.deadline)
    for earlier, later in zip(by_deadline, by_deadline[1:]):
        if earlier.task_id in priorities and later.task_id in priorities:
            if priorities[earlier.task_id] > priorities[later.task_id]:
                raise ConfigurationError(
                    f"EDMS violation: task {earlier.task_id!r} (deadline "
                    f"{earlier.deadline}) has lower urgency than "
                    f"{later.task_id!r} (deadline {later.deadline})"
                )

    instance_ids = {inst.instance_id for inst in plan.instances}
    for task in workload.tasks:
        last_index = task.n_subtasks - 1
        for subtask in task.subtasks:
            expected_impl = (
                IMPL_LAST_SUBTASK if subtask.index == last_index else IMPL_FI_SUBTASK
            )
            for node in subtask.eligible:
                key = (task.task_id, subtask.index, node)
                inst = deployed.get(key)
                if inst is None:
                    raise ConfigurationError(
                        f"missing subtask instance for task {task.task_id!r} "
                        f"stage {subtask.index} on {node!r}"
                    )
                if inst.implementation != expected_impl:
                    raise ConfigurationError(
                        f"subtask {inst.instance_id!r}: implementation "
                        f"{inst.implementation!r}, expected {expected_impl!r}"
                    )
        arrival_node = task.subtasks[0].home
        if f"TE-{arrival_node}" not in instance_ids:
            raise ConfigurationError(
                f"task {task.task_id!r} arrives on {arrival_node!r} "
                f"but no TE is deployed there"
            )
