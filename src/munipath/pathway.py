"""Rolling multi-stage transformation pathway for a building stock.

Each stage optimizes every building for its target year, then reconciles
the stock-wide reality constraints that the per-building problems cannot
see: only so many renovations and heating conversions fit into a period.
Voluntary measures are ranked by how much they improve on doing nothing,
capped by rate budgets, denied ones are re-optimized away, and the
survivors get implementation years spread so no interim year exceeds its
cumulative quota.  Committed decisions mutate the twin the next stage sees.

Every building problem (status-quo dispatch, frozen plan, free plan and
restricted re-solve) is one task for ``_solve_one``.  When more than one
worker is allowed, a pathway run opens one process pool and every batch of
more than one task runs in it.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from .catalog import Catalog, effective_demand, in_service
from .model import (
    BuildingSolution,
    InfeasibleBuildingError,
    ModelError,
    optimize_building,
)
from .scenario import BUDGETED_KINDS, ScenarioFrame, cumulative_quota, retrofit_budgets
from .solver import load_highs
from .twin import Building, EnergyTwin, TechnologyInstance, TimeGrid


class PathwayError(Exception):
    """Stage planning failed as a whole."""


@dataclass(frozen=True)
class Measure:
    """One committed change to one building."""

    building_id: str
    kind: str  # renovation | conversion | addition
    mandatory: bool
    decision_year: int  # stage target year that decided it
    implementation_year: int
    description: str
    variant_index: int | None = None
    new_components: tuple[str, ...] = ()
    installs: tuple[tuple[str, float], ...] = ()
    drops: tuple[tuple[str, float], ...] = ()
    reduction_score: float = 0.0


@dataclass(frozen=True)
class StageResult:
    target_year: int
    period_years: int
    budgets: dict[str, int]
    solutions: dict[str, BuildingSolution]
    measures: tuple[Measure, ...]
    denied: tuple[tuple[str, str], ...]  # (building_id, kind)
    infeasible: dict[str, str]  # no plan exists: the reason per building
    realized_rates: dict[str, float]
    twin_after: EnergyTwin
    # solves that ended without a plan or a proof of infeasibility
    failed: dict[str, str] = field(default_factory=dict)

    def measures_of(self, kind: str, *, voluntary_only: bool = False) -> list[Measure]:
        return [mm for mm in self.measures
                if mm.kind == kind and (not voluntary_only or not mm.mandatory)]


@dataclass(frozen=True)
class TransformationPath:
    twin_id: str
    stages: tuple[StageResult, ...]
    scenario_id: str
    catalog_id: str
    options: dict

    @property
    def stage_years(self) -> tuple[int, ...]:
        return tuple(st.target_year for st in self.stages)

    def verify_chain(self) -> list[str]:
        """Cross-stage consistency: committed changes must materialize.

        Returns violations; empty means the chain is sound.
        """
        problems: list[str] = []
        if list(self.stage_years) != sorted(set(self.stage_years)):
            problems.append("stage years not strictly increasing")
        for k in range(1, len(self.stages)):
            st = self.stages[k]
            y0 = self.stages[k - 1].target_year
            y1 = st.target_year
            twin = st.twin_after
            by_id = {b.id: b for b in twin.buildings}
            n_b = len(twin.buildings)
            for kind in BUDGETED_KINDS:
                vol = st.measures_of(kind, voluntary_only=True)
                if len(vol) > st.budgets[kind]:
                    problems.append(
                        f"stage {y1}: {len(vol)} voluntary {kind} measures exceed "
                        f"budget {st.budgets[kind]}")
                years = sorted(mm.implementation_year for mm in vol)
                cap = self.options[f"{kind}_rate_cap"]
                for j, yr in enumerate(years, start=1):
                    if j > cumulative_quota(cap, n_b, yr - y0):
                        problems.append(
                            f"stage {y1}: {kind} number {j} at {yr} breaks the "
                            f"cumulative quota")
            for mm in st.measures:
                if not y0 < mm.implementation_year <= y1:
                    problems.append(
                        f"{mm.building_id}: implementation year {mm.implementation_year} "
                        f"outside ({y0}, {y1}]")
                b = by_id.get(mm.building_id)
                if b is None:
                    problems.append(f"{mm.building_id}: vanished from the twin")
                    continue
                if mm.kind == "renovation" and mm.variant_index is not None:
                    if b.variant_index & mm.variant_index != mm.variant_index:
                        problems.append(
                            f"{mm.building_id}: variant {mm.variant_index} not applied")
                for tid, size in mm.installs:
                    hit = any(inst.tech_id == tid
                              and abs(inst.size - size) < 1e-6
                              and inst.install_year == mm.implementation_year
                              for inst in b.installed)
                    if not hit:
                        problems.append(
                            f"{mm.building_id}: install {tid} {size:.3f} kW missing")
            prev = self.stages[k - 1].twin_after
            prev_by_id = {b.id: b for b in prev.buildings}
            for b in twin.buildings:
                before = prev_by_id.get(b.id)
                if before is None:
                    problems.append(f"{b.id}: appeared out of nowhere")
                    continue
                if before.variant_index & b.variant_index != before.variant_index:
                    problems.append(f"{b.id}: refurbishment state regressed")
        return problems


# ---------------------------------------------------------------------------
# Stage engine


@dataclass(frozen=True)
class _Task:
    """One optimize_building call: a building and the keyword options of its
    role (status quo, frozen, free or restricted re-solve)."""

    building: Building
    cat: Catalog
    scenario: ScenarioFrame
    grid: TimeGrid
    options: dict


@dataclass
class _BuildingOutcome:
    building_id: str
    solution: BuildingSolution | None
    error: str | None = None
    infeasible: bool = False  # the error proves that no plan exists


def _solve_one(task: _Task) -> _BuildingOutcome:
    bid = task.building.id
    try:
        _, _, sol = optimize_building(task.building, task.cat, task.scenario, task.grid,
                                      **task.options)
    except InfeasibleBuildingError as exc:
        return _BuildingOutcome(bid, None, str(exc), infeasible=True)
    except ModelError as exc:
        return _BuildingOutcome(bid, None, str(exc))
    return _BuildingOutcome(bid, sol)


def _solve_all(tasks: list[_Task], pool: Executor | None) -> list[_BuildingOutcome]:
    """Outcomes in task order, from the run's pool when there is one and the
    batch has more than one task; a single task is cheaper in-process."""
    if pool is None or len(tasks) <= 1:
        return [_solve_one(t) for t in tasks]
    return list(pool.map(_solve_one, tasks))


def _split_measures(building: Building, cat: Catalog, sol: BuildingSolution,
                    *, mandatory_conversion: bool, decision_year: int,
                    score: float) -> list[Measure]:
    """Decompose one building's plan into class-tagged measures: the
    envelope, the heat converters and the rest of the plant.

    Implementation years are assigned later; placeholder is the decision
    year.
    """
    common = dict(building_id=building.id, decision_year=decision_year,
                  implementation_year=decision_year, reduction_score=score)
    out: list[Measure] = []
    if sol.new_components:
        out.append(Measure(
            kind="renovation", mandatory=False,
            description="envelope refurbishment: " + ", ".join(sol.new_components),
            variant_index=sol.variant_index, new_components=sol.new_components,
            **common))
    # installs and drops of heat converters (True) and of other plant (False)
    plant = {True: ([], []), False: ([], [])}
    for t, s in sol.installed:
        plant[cat.tech(t).is_heat_converter][0].append((t, s))
    for i in sol.dropped:
        plant[cat.tech(i.tech_id).is_heat_converter][1].append((i.tech_id, i.size))
    for heat, kind, mandatory, label, unit in (
            (True, "conversion", mandatory_conversion, "heating conversion", " kW"),
            (False, "addition", False, "plant addition", "")):
        installs, drops = plant[heat]
        if installs or drops:
            parts = (", ".join(f"+{t} {s:.1f}{unit}" for t, s in installs),
                     ", ".join(f"-{t} {s:.1f}{unit}" for t, s in drops))
            out.append(Measure(
                kind=kind, mandatory=mandatory,
                description=f"{label}: " + "; ".join(p for p in parts if p),
                installs=tuple(installs), drops=tuple(drops), **common))
    return out


def _assign_years(measures: list[Measure], *, y0: int, y1: int, n_buildings: int,
                  scenario: ScenarioFrame, building_expiry: dict[str, int]) -> list[Measure]:
    """Set implementation years: expiry-driven for mandatory measures,
    earliest quota-admissible year for ranked voluntary ones."""
    assigned: list[Measure] = []
    conversion_year: dict[str, int] = {}

    for kind, cap in scenario.rate_caps.items():
        ranked = [mm for mm in measures if mm.kind == kind and not mm.mandatory]
        ranked.sort(key=lambda mm: (-mm.reduction_score, mm.building_id))
        for j, mm in enumerate(ranked, start=1):
            year = None
            for k_el in range(1, y1 - y0 + 1):
                if cumulative_quota(cap, n_buildings, k_el) >= j:
                    year = y0 + k_el
                    break
            if year is None:
                raise PathwayError(
                    f"{kind} measure for {mm.building_id} has no quota slot; "
                    f"budget accounting is inconsistent")
            assigned.append(replace(mm, implementation_year=year))
            if kind == "conversion":
                conversion_year[mm.building_id] = year

    for mm in measures:
        if mm.kind == "conversion" and mm.mandatory:
            expiry = building_expiry.get(mm.building_id, y0 + 1)
            year = min(max(expiry, y0 + 1), y1)
            assigned.append(replace(mm, implementation_year=year))
            conversion_year[mm.building_id] = year
    for mm in measures:
        if mm.kind == "addition":
            year = conversion_year.get(mm.building_id, y1)
            assigned.append(replace(mm, implementation_year=year))
    return assigned


def _commit(twin: EnergyTwin, cat: Catalog, measures: list[Measure],
            solutions: dict[str, BuildingSolution], y1: int) -> EnergyTwin:
    """Apply committed measures and natural expiry; returns the next twin."""
    by_building: dict[str, list[Measure]] = {}
    for mm in measures:
        by_building.setdefault(mm.building_id, []).append(mm)

    new_buildings: list[Building] = []
    for b in twin.buildings:
        sol = solutions.get(b.id)
        mms = by_building.get(b.id, [])
        installed = b.installed
        demand = dict(b.demand)
        state = b.variant_index

        if sol is not None and mms:
            # the plan's kept units, one entry each (so a dropped unit's
            # identical twin stays), then its new ones
            installed = [*sol.kept, *(TechnologyInstance(tid, size, mm.implementation_year)
                                      for mm in mms for tid, size in mm.installs)]
            for mm in mms:
                if mm.kind == "renovation" and mm.variant_index is not None:
                    state |= mm.variant_index
                    demand = {v: tuple(arr.tolist())
                              for v, arr in effective_demand(b, state, cat).items()}

        # natural end of life: expired units leave the stock silently
        new_buildings.append(replace(
            b, installed=tuple(in_service(installed, cat, y1)), variant_index=state,
            demand=demand))
    return replace(twin, buildings=tuple(new_buildings))


def plan_stage(
    twin: EnergyTwin,
    cat: Catalog,
    scenario: ScenarioFrame,
    *,
    previous_year: int,
    target_year: int,
    objective_mode: str = "cost",
    params: dict | None = None,
    pool: Executor | None = None,
) -> StageResult:
    """One full stage: optimize, categorize, rank, cap, re-optimize, commit.
    Batches of building problems run in ``pool`` when one is given."""
    period = target_year - previous_year
    if period < 1:
        raise PathwayError("target year must lie after the previous stage year")
    n_b = len(twin.buildings)
    budgets = retrofit_budgets(scenario, n_b, period)
    buildings = sorted(twin.buildings, key=lambda b: b.id)
    grid = twin.grid

    common = dict(target_year=target_year, period_years=period,
                  objective_mode=objective_mode, params=params)
    frozen = dict(common, allow_refurb=False, allow_plant_change=False)
    outcomes = _solve_all([_Task(b, cat, scenario, grid, options)
                           for b in buildings for options in (frozen, common)], pool)
    by_id = {b.id: b for b in buildings}

    infeasible: dict[str, str] = {}
    failed: dict[str, str] = {}
    solutions: dict[str, BuildingSolution] = {}
    score: dict[str, float] = {}  # improvement of the free plan on the frozen one
    mandatory: set[str] = set()  # frozen plan infeasible: the conversion is forced
    for base, free in zip(outcomes[::2], outcomes[1::2]):
        bid = free.building_id
        if base.solution is None and not base.infeasible:
            # a failed or time-limited baseline says nothing about feasibility,
            # so it must not make the conversion mandatory
            failed[bid] = f"baseline solve failed: {base.error}"
        elif free.solution is None:
            (infeasible if free.infeasible else failed)[bid] = free.error
        elif base.infeasible:
            solutions[bid] = free.solution
            score[bid] = math.inf
            mandatory.add(bid)
        else:
            solutions[bid] = free.solution
            score[bid] = base.solution.objective - free.solution.objective
    unsolved = {**infeasible, **failed}
    if n_b and len(unsolved) == n_b:
        raise PathwayError(
            f"stage {target_year}: no building could be solved "
            f"({next(iter(unsolved.values()))})")

    def split(bid: str, sol: BuildingSolution) -> list[Measure]:
        return _split_measures(by_id[bid], cat, sol, mandatory_conversion=bid in mandatory,
                               decision_year=target_year, score=score[bid])

    # each surviving plan's measures; a re-solve replaces them
    plans = {bid: split(bid, sol) for bid, sol in solutions.items()}

    # allocation of voluntary slots in rank order
    remaining = dict(budgets)
    denied: list[tuple[str, str]] = []
    granted: dict[str, set[str]] = {}
    for bid in sorted(plans, key=lambda b: (-score[b], b)):
        kinds = {mm.kind for mm in plans[bid]}
        take: set[str] = set()
        for kind in BUDGETED_KINDS:
            if kind not in kinds:
                continue
            if kind == "conversion" and bid in mandatory:
                take.add(kind)
                continue
            if remaining[kind] > 0:
                remaining[kind] -= 1
                take.add(kind)
            else:
                denied.append((bid, kind))
        granted[bid] = take

    # re-optimize buildings that lost a slot; only granted classes stay open
    resolves = [
        _Task(by_id[bid], cat, scenario, grid, dict(
            common, allow_refurb="renovation" in granted[bid],
            allow_plant_change=True if "conversion" in granted[bid] else "additions_only"))
        for bid in sorted({bid for bid, _ in denied})]
    for r in _solve_all(resolves, pool):
        bid = r.building_id
        if r.solution is None:
            (infeasible if r.infeasible else failed)[bid] = f"re-optimization failed: {r.error}"
            del solutions[bid], plans[bid]
            continue
        solutions[bid] = r.solution
        plans[bid] = split(bid, r.solution)
        for mm in plans[bid]:
            if mm.kind in BUDGETED_KINDS and not mm.mandatory and mm.kind not in granted[bid]:
                raise PathwayError(f"{bid}: denied {mm.kind} reappeared after re-optimization")

    # mandatory conversions fall due when the first heat converter expires
    building_expiry: dict[str, int] = {}
    for b in buildings:
        alive = in_service(b.installed, cat, target_year)
        heat_expired = [i for i in b.installed
                        if i not in alive and cat.tech(i.tech_id).is_heat_converter]
        if heat_expired:
            building_expiry[b.id] = min(
                i.install_year + cat.tech(i.tech_id).lifetime for i in heat_expired)

    measures = _assign_years([mm for bid in sorted(plans) for mm in plans[bid]],
                             y0=previous_year, y1=target_year,
                             n_buildings=n_b, scenario=scenario,
                             building_expiry=building_expiry)
    measures.sort(key=lambda mm: (mm.implementation_year, mm.building_id, mm.kind))

    twin_after = _commit(twin, cat, measures, solutions, target_year)

    realized = {}
    for kind in BUDGETED_KINDS:
        count = sum(1 for mm in measures if mm.kind == kind)
        realized[kind] = count / (n_b * period) if n_b and period else 0.0

    return StageResult(
        target_year=target_year,
        period_years=period,
        budgets=budgets,
        solutions=solutions,
        measures=tuple(measures),
        denied=tuple(sorted(denied)),
        infeasible=infeasible,
        realized_rates=realized,
        twin_after=twin_after,
        failed=failed,
    )


def _status_quo_stage(twin: EnergyTwin, cat: Catalog, scenario: ScenarioFrame,
                      year: int, objective_mode: str,
                      params: dict | None, pool: Executor | None) -> StageResult:
    """Valuation of the untouched stock: dispatch only, no decisions."""
    options = dict(target_year=year, period_years=1, objective_mode=objective_mode,
                   allow_refurb=False, allow_plant_change=False,
                   include_transition_costs=False, params=params)
    outcomes = _solve_all([_Task(b, cat, scenario, twin.grid, options)
                           for b in sorted(twin.buildings, key=lambda b: b.id)], pool)
    solutions = {r.building_id: r.solution for r in outcomes if r.solution is not None}
    unsolved = [r for r in outcomes if r.solution is None]
    if twin.buildings and len(unsolved) == len(twin.buildings):
        raise PathwayError(f"status quo {year}: no building could be dispatched")
    return StageResult(
        target_year=year, period_years=0,
        budgets={k: 0 for k in BUDGETED_KINDS},
        solutions=solutions, measures=(), denied=(),
        infeasible={r.building_id: r.error for r in unsolved if r.infeasible},
        realized_rates={k: 0.0 for k in BUDGETED_KINDS},
        twin_after=twin,
        failed={r.building_id: r.error for r in unsolved if not r.infeasible},
    )


def plan_pathway(
    twin: EnergyTwin,
    cat: Catalog,
    scenario: ScenarioFrame,
    stage_years: list[int] | tuple[int, ...],
    *,
    objective_mode: str = "cost",
    params: dict | None = None,
    workers: int = 0,
) -> TransformationPath:
    """Plan the full pathway over the given stage years.

    The first year values the stock as found (no decisions); each later
    year is a planning stage whose committed result feeds the next.  With
    more than one worker, every stage's batches share one process pool.
    """
    years = [int(y) for y in stage_years]
    if len(years) < 2:
        raise PathwayError("a pathway needs a status quo year and at least one stage")
    if years != sorted(set(years)):
        raise PathwayError("stage years must be strictly increasing")

    # the largest batch holds a frozen and a free problem per building
    n = min(workers, 2 * len(twin.buildings))
    if n > 1:
        # Forked workers inherit the parent's modules: loading the HiGHS
        # extension before the first map spares every worker from loading it.
        load_highs()
    with ProcessPoolExecutor(max_workers=n) if n > 1 else nullcontext() as pool:
        stages = [_status_quo_stage(twin, cat, scenario, years[0], objective_mode,
                                    params, pool)]
        for k in range(1, len(years)):
            stages.append(plan_stage(
                stages[-1].twin_after, cat, scenario,
                previous_year=years[k - 1], target_year=years[k],
                objective_mode=objective_mode,
                params=params, pool=pool,
            ))

    return TransformationPath(
        twin_id=twin.twin_id,
        stages=tuple(stages),
        scenario_id=str(scenario.meta.get("id", "scenario")),
        catalog_id=str(cat.meta.get("id", "catalog")),
        options={"objective_mode": objective_mode,
                 **{f"{kind}_rate_cap": cap for kind, cap in scenario.rate_caps.items()}},
    )
