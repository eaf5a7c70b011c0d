"""Rolling multi-stage transformation pathway for a building stock.

Each stage optimizes every building for its target year, then reconciles
the stock-wide reality constraints that the per-building problems cannot
see: only so many renovations and heating conversions fit into a period.
Voluntary measures are ranked by how much they improve on doing nothing,
capped by rate budgets, denied ones are re-optimized away, and the
survivors get implementation years spread so no interim year exceeds its
cumulative quota.  Committed decisions mutate the twin the next stage sees.

Every building problem (status-quo dispatch, frozen plan, free plan and
restricted re-solve) is one task for ``_solve_one``; each batch of tasks
runs in a process pool when more than one worker is allowed.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

from .catalog import Catalog, variant_delta_factor
from .docio import dumps
from .model import (
    BuildingSolution,
    InfeasibleBuildingError,
    ModelError,
    optimize_building,
)
from .scenario import ScenarioFrame, cumulative_quota, retrofit_budgets
from .solver import load_highs
from .twin import (
    Building,
    DemandProfile,
    EnergyTwin,
    RefurbState,
    TechnologyInstance,
    TimeGrid,
    remaining_lifetime,
)

MEASURE_KINDS = ("renovation", "conversion", "addition")
BUDGETED_KINDS = ("renovation", "conversion")


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

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StageResult:
    target_year: int
    period_years: int
    budgets: dict[str, int]
    solutions: dict[str, BuildingSolution]
    measures: tuple[Measure, ...]
    denied: tuple[tuple[str, str], ...]  # (building_id, kind)
    infeasible: dict[str, str]
    realized_rates: dict[str, float]
    twin_after: EnergyTwin

    def measures_of(self, kind: str, *, voluntary_only: bool = False) -> list[Measure]:
        return [mm for mm in self.measures
                if mm.kind == kind and (not voluntary_only or not mm.mandatory)]


@dataclass(frozen=True)
class TransformationPath:
    twin_id: str
    stage_years: tuple[int, ...]
    stages: tuple[StageResult, ...]
    scenario_id: str
    catalog_id: str
    options: dict

    def measures(self) -> list[Measure]:
        out: list[Measure] = []
        for st in self.stages:
            out.extend(st.measures)
        return out

    def stage(self, target_year: int) -> StageResult:
        for st in self.stages:
            if st.target_year == target_year:
                return st
        raise KeyError(target_year)

    def to_dict(self) -> dict:
        return {
            "twin_id": self.twin_id,
            "stage_years": list(self.stage_years),
            "scenario_id": self.scenario_id,
            "catalog_id": self.catalog_id,
            "options": dict(sorted(self.options.items())),
            "stages": [_stage_dict(st) for st in self.stages],
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())

    def verify_chain(self) -> list[str]:
        """Cross-stage consistency: committed changes must materialize.

        Returns violations; empty means the chain is sound.
        """
        problems: list[str] = []
        caps = {
            "renovation": float(self.options.get("renovation_rate_cap", math.inf)),
            "conversion": float(self.options.get("conversion_rate_cap", math.inf)),
        }
        if list(self.stage_years) != sorted(set(self.stage_years)):
            problems.append("stage years not strictly increasing")
        for k, st in enumerate(self.stages):
            if st.target_year != self.stage_years[k]:
                problems.append(f"stage {k} year mismatch")
        for k in range(1, len(self.stages)):
            st = self.stages[k]
            y0 = self.stage_years[k - 1]
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
                for j, yr in enumerate(years, start=1):
                    if math.isfinite(caps[kind]) and j > cumulative_quota(
                            caps[kind], n_b, yr - y0):
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
                    have = b.refurb_state.variant_index
                    if have & mm.variant_index != mm.variant_index:
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
                old = before.refurb_state.variant_index
                if old & b.refurb_state.variant_index != old:
                    problems.append(f"{b.id}: refurbishment state regressed")
        return problems


def _stage_dict(st: StageResult) -> dict:
    return {
        "target_year": st.target_year,
        "period_years": st.period_years,
        "budgets": dict(sorted(st.budgets.items())),
        "realized_rates": dict(sorted(st.realized_rates.items())),
        "denied": [list(d) for d in sorted(st.denied)],
        "infeasible": dict(sorted(st.infeasible.items())),
        "measures": [mm.to_dict() for mm in sorted(
            st.measures, key=lambda mm: (mm.implementation_year, mm.building_id, mm.kind))],
        "buildings": {
            bid: _solution_dict(sol) for bid, sol in sorted(st.solutions.items())
        },
    }


def _solution_dict(sol: BuildingSolution) -> dict:
    return {
        "objective": sol.objective,
        "variant_index": sol.variant_index,
        "new_components": list(sol.new_components),
        "kept": [inst.to_dict() for inst in sol.kept],
        "dropped": [inst.to_dict() for inst in sol.dropped],
        "installed": [[t, s] for t, s in sol.installed],
        "imports": dict(sorted(sol.imports.items())),
        "export": sol.export,
        "pv_generation": sol.pv_generation,
        "self_consumption": sol.self_consumption,
        "breakdown": sol.breakdown.to_dict(),
        "emissions": dict(sorted(sol.emissions.items())),
        "demand_after": dict(sorted(sol.demand_after.items())),
    }


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


def _solve_all(tasks: list[_Task], workers: int) -> list[_BuildingOutcome]:
    """Outcomes in task order, from a process pool when more than one worker
    and more than one task are given."""
    n = min(workers, len(tasks))
    if n <= 1:
        return [_solve_one(t) for t in tasks]
    # Forked workers inherit the parent's modules: loading the HiGHS
    # extension here spares every worker of every pool from loading it.
    load_highs()
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(_solve_one, tasks))


def _budgeted_kinds(cat: Catalog, sol: BuildingSolution) -> set[str]:
    """Which rate-capped measure classes this plan would consume."""
    kinds: set[str] = set()
    if sol.new_components:
        kinds.add("renovation")
    if any(cat.tech(t).is_heat_converter for t, _ in sol.installed) \
            or any(cat.tech(i.tech_id).is_heat_converter for i in sol.dropped):
        kinds.add("conversion")
    return kinds


def _expired_instances(building: Building, cat: Catalog, year: int) -> list[TechnologyInstance]:
    return [inst for inst in building.installed
            if remaining_lifetime(inst, cat.tech(inst.tech_id).lifetime, year) <= 0]


def _split_measures(building: Building, cat: Catalog, sol: BuildingSolution,
                    *, mandatory_conversion: bool, decision_year: int,
                    score: float) -> list[Measure]:
    """Decompose one building's plan into class-tagged measures.

    Implementation years are assigned later; placeholder is the decision
    year.
    """
    out: list[Measure] = []
    if sol.new_components:
        out.append(Measure(
            building_id=building.id, kind="renovation", mandatory=False,
            decision_year=decision_year, implementation_year=decision_year,
            description="envelope refurbishment: " + ", ".join(sol.new_components),
            variant_index=sol.variant_index, new_components=sol.new_components,
            reduction_score=score,
        ))
    heat_installs = tuple((t, s) for t, s in sol.installed
                          if cat.tech(t).is_heat_converter)
    heat_drops = tuple((i.tech_id, i.size) for i in sol.dropped
                       if cat.tech(i.tech_id).is_heat_converter)
    other_installs = tuple((t, s) for t, s in sol.installed if (t, s) not in set(heat_installs))
    other_drops = tuple((i.tech_id, i.size) for i in sol.dropped
                        if (i.tech_id, i.size) not in set(heat_drops))
    if heat_installs or heat_drops:
        what = ", ".join(f"+{t} {s:.1f} kW" for t, s in heat_installs)
        gone = ", ".join(f"-{t} {s:.1f} kW" for t, s in heat_drops)
        out.append(Measure(
            building_id=building.id, kind="conversion", mandatory=mandatory_conversion,
            decision_year=decision_year, implementation_year=decision_year,
            description=("heating conversion: " + "; ".join(p for p in (what, gone) if p)),
            installs=heat_installs, drops=heat_drops, reduction_score=score,
        ))
    if other_installs or other_drops:
        what = ", ".join(f"+{t} {s:.1f}" for t, s in other_installs)
        gone = ", ".join(f"-{t} {s:.1f}" for t, s in other_drops)
        out.append(Measure(
            building_id=building.id, kind="addition", mandatory=False,
            decision_year=decision_year, implementation_year=decision_year,
            description="plant addition: " + "; ".join(p for p in (what, gone) if p),
            installs=other_installs, drops=other_drops, reduction_score=score,
        ))
    return out


def _assign_years(measures: list[Measure], *, y0: int, y1: int, n_buildings: int,
                  scenario: ScenarioFrame, building_expiry: dict[str, int]) -> list[Measure]:
    """Set implementation years: expiry-driven for mandatory measures,
    earliest quota-admissible year for ranked voluntary ones."""
    caps = {"renovation": scenario.renovation_rate_cap,
            "conversion": scenario.conversion_rate_cap}
    assigned: list[Measure] = []
    counters: dict[str, int] = {k: 0 for k in BUDGETED_KINDS}
    conversion_year: dict[str, int] = {}

    for kind in BUDGETED_KINDS:
        ranked = [mm for mm in measures if mm.kind == kind and not mm.mandatory]
        ranked.sort(key=lambda mm: (-mm.reduction_score, mm.building_id))
        for mm in ranked:
            counters[kind] += 1
            j = counters[kind]
            year = None
            for k_el in range(1, y1 - y0 + 1):
                if cumulative_quota(caps[kind], n_buildings, k_el) >= j:
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
        installed = list(b.installed)
        demand = dict(b.demand)
        state = b.refurb_state

        if sol is not None and mms:
            dropped_keys = {(i.tech_id, i.size, i.install_year) for i in sol.dropped}
            installed = [i for i in installed
                         if (i.tech_id, i.size, i.install_year) not in dropped_keys]
            for mm in mms:
                for tid, size in mm.installs:
                    installed.append(TechnologyInstance(
                        tech_id=tid, size=size, install_year=mm.implementation_year))
                if mm.kind == "renovation" and mm.variant_index is not None:
                    old_ir = state.variant_index
                    new_ir = old_ir | mm.variant_index
                    for vector in list(demand):
                        f = variant_delta_factor(cat, old_ir, new_ir, vector) \
                            if vector in ("space_heat", "hot_water") else 1.0
                        if f != 1.0:
                            prof = demand[vector]
                            demand[vector] = DemandProfile(
                                values=tuple(v * f for v in prof.values),
                                resolution=prof.resolution)
                    state = RefurbState.from_index(new_ir)

        # natural end of life: expired units leave the stock silently
        installed = [i for i in installed
                     if remaining_lifetime(i, cat.tech(i.tech_id).lifetime, y1) > 0]
        new_buildings.append(replace(
            b, installed=tuple(installed), refurb_state=state, demand=demand))
    return replace(twin, buildings=tuple(new_buildings))


def plan_stage(
    twin: EnergyTwin,
    cat: Catalog,
    scenario: ScenarioFrame,
    *,
    previous_year: int,
    target_year: int,
    objective_mode: str = "cost",
    backend: str | None = None,
    params: dict | None = None,
    workers: int = 0,
) -> StageResult:
    """One full stage: optimize, categorize, rank, cap, re-optimize, commit."""
    period = target_year - previous_year
    if period < 1:
        raise PathwayError("target year must lie after the previous stage year")
    n_b = len(twin.buildings)
    budgets = retrofit_budgets(scenario, n_b, period)
    buildings = sorted(twin.buildings, key=lambda b: b.id)
    grid = twin.grid

    common = dict(target_year=target_year, period_years=period,
                  objective_mode=objective_mode, backend=backend, params=params)
    frozen = dict(common, allow_refurb=False, allow_plant_change=False)
    outcomes = _solve_all([_Task(b, cat, scenario, grid, options)
                           for b in buildings for options in (frozen, common)], workers)
    by_id = {b.id: b for b in buildings}

    infeasible: dict[str, str] = {}
    solutions: dict[str, BuildingSolution] = {}
    score: dict[str, float] = {}  # improvement of the free plan on the frozen one
    mandatory: set[str] = set()  # frozen plan infeasible: the conversion is forced
    for base, free in zip(outcomes[::2], outcomes[1::2]):
        bid = free.building_id
        if base.solution is None and not base.infeasible:
            # a failed or time-limited baseline says nothing about feasibility,
            # so it must not make the conversion mandatory
            infeasible[bid] = f"baseline solve failed: {base.error}"
        elif free.solution is None:
            infeasible[bid] = free.error
        elif base.infeasible:
            solutions[bid] = free.solution
            score[bid] = math.inf
            mandatory.add(bid)
        else:
            solutions[bid] = free.solution
            score[bid] = base.solution.objective - free.solution.objective
    if n_b and len(infeasible) == n_b:
        raise PathwayError(
            f"stage {target_year}: no building could be solved "
            f"({next(iter(infeasible.values()))})")

    # allocation of voluntary slots in rank order
    remaining = dict(budgets)
    denied: list[tuple[str, str]] = []
    granted: dict[str, set[str]] = {}
    for bid in sorted(score, key=lambda b: (-score[b], b)):
        kinds = _budgeted_kinds(cat, solutions[bid])
        take: set[str] = set()
        for kind in ("conversion", "renovation"):
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
    for r in _solve_all(resolves, workers):
        if r.solution is None:
            infeasible[r.building_id] = f"re-optimization failed: {r.error}"
            solutions.pop(r.building_id)
            granted.pop(r.building_id)
        else:
            solutions[r.building_id] = r.solution

    # final measures from the surviving solutions
    measures: list[Measure] = []
    building_expiry: dict[str, int] = {}
    for bid in sorted(solutions):
        b = by_id[bid]
        sol = solutions[bid]
        expired = _expired_instances(b, cat, target_year)
        heat_expired = [i for i in expired if cat.tech(i.tech_id).is_heat_converter]
        if heat_expired:
            building_expiry[bid] = min(
                i.install_year + cat.tech(i.tech_id).lifetime for i in heat_expired)
        for mm in _split_measures(b, cat, sol, mandatory_conversion=bid in mandatory,
                                  decision_year=target_year, score=score[bid]):
            if mm.kind in BUDGETED_KINDS and not mm.mandatory \
                    and mm.kind not in granted.get(bid, set()):
                # the re-optimized plan may not reintroduce a denied class
                raise PathwayError(
                    f"{bid}: denied {mm.kind} reappeared after re-optimization")
            measures.append(mm)

    measures = _assign_years(measures, y0=previous_year, y1=target_year,
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
    )


def _status_quo_stage(twin: EnergyTwin, cat: Catalog, scenario: ScenarioFrame,
                      year: int, objective_mode: str, backend: str | None,
                      params: dict | None, workers: int) -> StageResult:
    """Valuation of the untouched stock: dispatch only, no decisions."""
    options = dict(target_year=year, period_years=1, objective_mode=objective_mode,
                   allow_refurb=False, allow_plant_change=False,
                   include_transition_costs=False, backend=backend, params=params)
    outcomes = _solve_all([_Task(b, cat, scenario, twin.grid, options)
                           for b in sorted(twin.buildings, key=lambda b: b.id)], workers)
    solutions = {r.building_id: r.solution for r in outcomes if r.solution is not None}
    infeasible = {r.building_id: r.error for r in outcomes if r.solution is None}
    if twin.buildings and len(infeasible) == len(twin.buildings):
        raise PathwayError(f"status quo {year}: no building could be dispatched")
    return StageResult(
        target_year=year, period_years=0,
        budgets={k: 0 for k in BUDGETED_KINDS},
        solutions=solutions, measures=(), denied=(), infeasible=infeasible,
        realized_rates={k: 0.0 for k in BUDGETED_KINDS},
        twin_after=twin,
    )


def plan_pathway(
    twin: EnergyTwin,
    cat: Catalog,
    scenario: ScenarioFrame,
    stage_years: list[int] | tuple[int, ...],
    *,
    objective_mode: str = "cost",
    backend: str | None = None,
    params: dict | None = None,
    workers: int = 0,
) -> TransformationPath:
    """Plan the full pathway over the given stage years.

    The first year values the stock as found (no decisions); each later
    year is a planning stage whose committed result feeds the next.
    """
    years = [int(y) for y in stage_years]
    if len(years) < 2:
        raise PathwayError("a pathway needs a status quo year and at least one stage")
    if years != sorted(set(years)):
        raise PathwayError("stage years must be strictly increasing")

    stages: list[StageResult] = []
    current = twin
    first = _status_quo_stage(current, cat, scenario, years[0], objective_mode,
                              backend, params, workers)
    stages.append(first)
    for k in range(1, len(years)):
        st = plan_stage(
            current, cat, scenario,
            previous_year=years[k - 1], target_year=years[k],
            objective_mode=objective_mode,
            backend=backend, params=params, workers=workers,
        )
        stages.append(st)
        current = st.twin_after

    return TransformationPath(
        twin_id=twin.twin_id,
        stage_years=tuple(years),
        stages=tuple(stages),
        scenario_id=str(scenario.meta.get("id", "scenario")),
        catalog_id=str(cat.meta.get("id", "catalog")),
        options={
            "backend": backend or "default",
            "objective_mode": objective_mode,
            "renovation_rate_cap": scenario.renovation_rate_cap,
            "conversion_rate_cap": scenario.conversion_rate_cap,
        },
    )
