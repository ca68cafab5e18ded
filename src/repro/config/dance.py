"""DAnCE-lite: staged deployment and configuration pipeline.

Reproduces the paper's Figure 4 flow:

1. **Plan Launcher** parses the XML deployment plan into
   ``Deployment::DeploymentPlan`` structures
   (:class:`~repro.config.plan.DeploymentPlan`).
2. **Execution Manager** splits the plan per node and hands each slice to
   a **Node Application Manager** as a ``NodeImplementationInfo``.
3. Each **Node Application** creates the component server/container for
   its node, instantiates component implementations from the repository,
   and initializes their attributes through the standard Configurator
   interface (``set_configuration``).
4. Facet/receptacle connections are established, then all containers are
   activated.

The result is a live :class:`~repro.core.middleware.MiddlewareSystem`
indistinguishable from one assembled programmatically — the tests assert
exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.ccm.component import Component
from repro.ccm.repository import ComponentRepository
from repro.config.plan import (
    ComponentInstance,
    Connection,
    DeploymentPlan,
    IMPL_AC,
    IMPL_FI_SUBTASK,
    IMPL_IR,
    IMPL_LAST_SUBTASK,
    IMPL_LB,
    IMPL_TE,
    build_deployment_plan,
)
from repro.config.validation import validate_plan
from repro.config.xml_io import parse_xml
from repro.core.admission_controller import AdmissionControllerComponent
from repro.core.cost_model import CostModel
from repro.core.idle_resetter import IdleResetterComponent
from repro.core.load_balancer import LoadBalancerComponent
from repro.core.middleware import MiddlewareSystem
from repro.core.runtime import RuntimeEnv
from repro.core.subtask import FISubtaskComponent, LastSubtaskComponent
from repro.core.task_effector import TaskEffectorComponent
from repro.errors import DeploymentError
from repro.net.latency import DelayModel


def default_repository(env: RuntimeEnv) -> ComponentRepository:
    """The component repository holding the six paper components.

    Factories close over the shared :class:`RuntimeEnv`, playing the role
    of CIAO's container services injection.
    """
    repository = ComponentRepository()
    repository.register(IMPL_AC, lambda name: AdmissionControllerComponent(name, env))
    repository.register(IMPL_LB, lambda name: LoadBalancerComponent(name, env))
    repository.register(IMPL_TE, lambda name: TaskEffectorComponent(name, env))
    repository.register(IMPL_IR, lambda name: IdleResetterComponent(name, env))
    repository.register(IMPL_FI_SUBTASK, lambda name: FISubtaskComponent(name, env))
    repository.register(
        IMPL_LAST_SUBTASK, lambda name: LastSubtaskComponent(name, env)
    )
    return repository


@dataclass
class NodeImplementationInfo:
    """Per-node slice of the plan (the initialization data structure the
    Execution Manager hands to each Node Application Manager)."""

    node: str
    instances: List[ComponentInstance] = field(default_factory=list)


class NodeApplication:
    """Installs and configures the component instances of one node."""

    def __init__(self, node: str) -> None:
        self.node = node
        self.installed: Dict[str, Component] = {}

    def install(
        self,
        info: NodeImplementationInfo,
        container,
        repository: ComponentRepository,
    ) -> None:
        for inst in info.instances:
            component = repository.create(inst.implementation, inst.instance_id)
            # Standard Configurator interface (paper: set_configuration).
            component.set_configuration(inst.property_dict())
            container.install(component)
            self.installed[inst.instance_id] = component


class NodeApplicationManager:
    """Creates the Node Application for one node."""

    def __init__(self, info: NodeImplementationInfo) -> None:
        self.info = info

    def start(self, container, repository: ComponentRepository) -> NodeApplication:
        app = NodeApplication(self.info.node)
        app.install(self.info, container, repository)
        return app


class ExecutionManager:
    """Splits a deployment plan into per-node slices and runs them."""

    def __init__(self, repository: ComponentRepository) -> None:
        self.repository = repository
        self.node_applications: Dict[str, NodeApplication] = {}
        # instance id -> component, filled at install; on a repeated id
        # the first node application (in plan order) keeps it.
        self._components: Dict[str, Component] = {}

    def prepare_plan(self, plan: DeploymentPlan) -> Dict[str, NodeImplementationInfo]:
        infos: Dict[str, NodeImplementationInfo] = {
            node: NodeImplementationInfo(node) for node in plan.nodes
        }
        for inst in plan.instances:
            if inst.node not in infos:
                raise DeploymentError(
                    f"instance {inst.instance_id!r} targets unknown node "
                    f"{inst.node!r}"
                )
            infos[inst.node].instances.append(inst)
        return infos

    def execute(self, plan: DeploymentPlan, containers: Dict[str, object]) -> None:
        for node, info in self.prepare_plan(plan).items():
            container = containers.get(node)
            if container is None:
                raise DeploymentError(f"no container available on node {node!r}")
            manager = NodeApplicationManager(info)
            app = manager.start(container, self.repository)
            self.node_applications[node] = app
            for instance_id, component in app.installed.items():
                self._components.setdefault(instance_id, component)

    def component(self, instance_id: str) -> Component:
        try:
            return self._components[instance_id]
        except KeyError:
            raise DeploymentError(
                f"no installed component {instance_id!r}"
            ) from None

    def establish_connections(self, plan: DeploymentPlan) -> None:
        """Wire facet/receptacle connections from the plan.

        Event connections need no action here: sinks subscribe to their
        topics during install/activate, mirroring how the federated event
        channel decouples suppliers from consumers.
        """
        for conn in plan.connections:
            if conn.kind != "facet":
                continue
            source = self.component(conn.source_instance)
            target = self.component(conn.target_instance)
            facet = target.provide_facet(conn.target_port)
            source.connect_receptacle(conn.source_port, facet)


class PlanLauncher:
    """Entry point: parse an XML plan and drive the Execution Manager."""

    @staticmethod
    def parse(xml_text: str) -> DeploymentPlan:
        return parse_xml(xml_text)


class DeploymentEngine:
    """Facade: deploy a plan (or its XML) into a runnable system."""

    def deploy(
        self,
        plan: Union[DeploymentPlan, str],
        seed: int = 0,
        cost_model: Optional[CostModel] = None,
        trace: bool = False,
        delay_model: Optional[DelayModel] = None,
        aperiodic_interarrival_factor: float = 2.0,
        arrival_batching: bool = False,
        metrics_registry=None,
    ) -> MiddlewareSystem:
        """Validate and deploy ``plan``; returns a ready-to-run system.

        ``plan`` may be a :class:`DeploymentPlan` or an XML descriptor
        string (the Plan Launcher parses it first).
        """
        if isinstance(plan, str):
            plan = PlanLauncher.parse(plan)
        workload = validate_plan(plan)
        combo = plan.combo()
        system = MiddlewareSystem(
            workload,
            combo,
            cost_model=cost_model,
            seed=seed,
            trace=trace,
            delay_model=delay_model,
            aperiodic_interarrival_factor=aperiodic_interarrival_factor,
            auto_deploy=False,
            arrival_batching=arrival_batching,
            metrics_registry=metrics_registry,
        )
        repository = default_repository(system.env)
        manager = ExecutionManager(repository)
        manager.execute(plan, system.containers)
        manager.establish_connections(plan)
        ac = manager.component("Central-AC")
        assert isinstance(ac, AdmissionControllerComponent)
        if arrival_batching:
            # The plan format predates batching; the knob rides in from
            # the scenario rather than the descriptor.
            ac.set_attribute("batching", True)
        system.ac = ac
        try:
            lb = manager.component("Central-LB")
        except DeploymentError:
            lb = None
        if lb is not None:
            assert isinstance(lb, LoadBalancerComponent)
            system.lb = lb
        system.finish_deployment()
        return system

    def deploy_scenario(self, scenario, metrics_registry=None) -> MiddlewareSystem:
        """Deploy a :class:`repro.api.Scenario` through the full pipeline.

        The scenario's workload and strategy combination become an XML-able
        deployment plan, which the Execution Manager then installs — so a
        declarative scenario and a hand-written deployment descriptor take
        exactly the same path into a live system.  Only middleware-engine
        scenarios are deployable; disturbances are scheduled by the
        :class:`repro.api.Session` that owns the scenario, not here.
        """
        from repro.api.scenario import ENGINE_MIDDLEWARE

        if scenario.engine != ENGINE_MIDDLEWARE:
            raise DeploymentError(
                "the DAnCE-lite pipeline deploys middleware scenarios only, "
                f"not {scenario.engine!r}"
            )
        workload = scenario.workload.materialize()
        plan = build_deployment_plan(workload, scenario.strategy_combo)
        return self.deploy(
            plan,
            seed=scenario.seed,
            cost_model=scenario.cost_model,
            trace=scenario.trace,
            delay_model=scenario.delay_model,
            aperiodic_interarrival_factor=scenario.aperiodic_interarrival_factor,
            arrival_batching=scenario.arrival_batching,
            metrics_registry=metrics_registry,
        )
