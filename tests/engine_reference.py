"""Frozen per-tick engine loop: the reference the event-stepped run must equal.

This is `Simulation.run` as the package shipped it before the engine learned
to skip the ticks on which nothing can happen: it calls `_tick` on every tick
of the run.  Keep it as it is; the oracle tests compare logs, counters and
the audit trail against it.
"""

from __future__ import annotations

from dtnlab.routing import Predictor, Router
from dtnlab.scenario import ScenarioSpec
from dtnlab.simcore import (
    ContactPlan,
    SimOutput,
    Simulation,
    build_router,
    contact_plan,
)


class PerTickSimulation(Simulation):
    """The engine with every tick visited, idle or not."""

    def run(self) -> SimOutput:
        if self.plan is None:
            self.plan = contact_plan(self.spec, self.seed)
        transitions = dict((k, (downs, ups)) for k, downs, ups in self.plan.steps())
        for k in range(1, self.n_ticks + 1):
            now = round(k * self.spec.tick_s, 4)
            self._tick(now, *transitions.get(k, ((), ())))
        self._finish(round(self.spec.duration_s, 4))
        return SimOutput(
            scenario=self.spec.name,
            regime=self.spec.regime,
            router=self.router.name,
            seed=self.seed,
            duration_s=self.spec.duration_s,
            nodes=list(self.nodes),
            plan=self.plan,
            deliveries=self.deliveries,
            relays=self.relays,
            residencies=self.residencies,
            messages=self.messages,
            generated=len(self.messages),
            eligible_encounters=getattr(self.router, "eligible_encounters", 0),
            fallbacks=getattr(self.router, "fallbacks", 0),
            audit=self.audit,
        )


def run_per_tick(
    spec: ScenarioSpec,
    router: Router | str,
    seed: int,
    predictor: Predictor | None = None,
    feature_medians: tuple[float, float] = (0.0, 0.0),
    audit: bool = False,
    plan: ContactPlan | None = None,
) -> SimOutput:
    """run_simulation on the per-tick loop."""
    if isinstance(router, str):
        router = build_router(router, seed, predictor)
    return PerTickSimulation(
        spec, router, seed, audit=audit, feature_medians=feature_medians, plan=plan
    ).run()
