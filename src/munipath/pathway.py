"""Rolling multi-stage transformation pathway for a building stock.

Each stage optimizes every building for its target year, then reconciles
the stock-wide reality constraints that the per-building problems cannot
see: only so many renovations and heating conversions fit into a period.
Voluntary measures are ranked by how much they improve on doing nothing,
capped by rate budgets, denied ones are re-optimized away, and the
survivors get implementation years spread so no interim year exceeds its
cumulative quota.  Committed decisions mutate the twin the next stage sees.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .catalog import Catalog, variant_delta_factor
from .model import (
    BuildingSolution,
    InfeasibleBuildingError,
    ModelError,
    optimize_building,
)
from .scenario import ScenarioFrame, cumulative_quota, retrofit_budgets
from .twin import (
    Building,
    DemandProfile,
    EnergyTwin,
    RefurbState,
    TechnologyInstance,
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
        return {
            "building_id": self.building_id,
            "kind": self.kind,
            "mandatory": self.mandatory,
            "decision_year": self.decision_year,
            "implementation_year": self.implementation_year,
            "description": self.description,
            "variant_index": self.variant_index,
            "new_components": list(self.new_components),
            "installs": [[t, s] for t, s in self.installs],
            "drops": [[t, s] for t, s in self.drops],
            "reduction_score": self.reduction_score,
        }


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
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

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


def save_pathway(path_obj: TransformationPath, sink) -> None:
    payload = path_obj.to_json()
    if hasattr(sink, "write"):
        sink.write(payload)
    else:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(payload)


# ---------------------------------------------------------------------------
# Stage engine


@dataclass
class _BuildingOutcome:
    building_id: str
    baseline_objective: float | None  # None: frozen plan infeasible
    solution: BuildingSolution | None
    error: str | None

    @property
    def score(self) -> float:
        if self.solution is None:
            return -math.inf
        if self.baseline_objective is None:
            return math.inf
        return self.baseline_objective - self.solution.objective


def _solve_one(args) -> _BuildingOutcome:
    (building, cat, scenario, grid, y1, period, mode, backend, params) = args
    baseline_obj: float | None
    try:
        _, out_b, _ = optimize_building(
            building, cat, scenario, grid,
            target_year=y1, period_years=period, objective_mode=mode,
            allow_refurb=False, allow_plant_change=False,
            backend=backend, params=params,
        )
        baseline_obj = float(out_b.objective)
    except InfeasibleBuildingError:
        baseline_obj = None
    except ModelError as exc:
        # a failed or time-limited baseline says nothing about feasibility,
        # so it must not make the conversion mandatory
        return _BuildingOutcome(building.id, None, None, f"baseline solve failed: {exc}")
    try:
        _, _, sol = optimize_building(
            building, cat, scenario, grid,
            target_year=y1, period_years=period, objective_mode=mode,
            backend=backend, params=params,
        )
        return _BuildingOutcome(building.id, baseline_obj, sol, None)
    except (InfeasibleBuildingError, ModelError) as exc:
        return _BuildingOutcome(building.id, baseline_obj, None, str(exc))


def _heat_conversion_tech(cat: Catalog, tech_id: str) -> bool:
    spec = cat.tech(tech_id)
    return spec.output == "heat" and spec.kind == "converter"


def _budgeted_kinds(cat: Catalog, sol: BuildingSolution) -> set[str]:
    """Which rate-capped measure classes this plan would consume."""
    kinds: set[str] = set()
    if sol.new_components:
        kinds.add("renovation")
    if any(_heat_conversion_tech(cat, t) for t, _ in sol.installed) \
            or any(_heat_conversion_tech(cat, i.tech_id) for i in sol.dropped):
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
                          if _heat_conversion_tech(cat, t))
    heat_drops = tuple((i.tech_id, i.size) for i in sol.dropped
                       if _heat_conversion_tech(cat, i.tech_id))
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

    tasks = [(b, cat, scenario, grid, target_year, period, objective_mode,
              backend, params)
             for b in buildings]
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_one, tasks))
    else:
        results = [_solve_one(t) for t in tasks]
    results.sort(key=lambda r: r.building_id)
    by_id = {b.id: b for b in buildings}

    infeasible: dict[str, str] = {}
    solutions: dict[str, BuildingSolution] = {}
    proposals: list[tuple[float, str]] = []  # (-score, building_id) orderable
    outcome_of: dict[str, _BuildingOutcome] = {}
    for r in results:
        outcome_of[r.building_id] = r
        if r.solution is None:
            infeasible[r.building_id] = r.error or "infeasible"
            continue
        solutions[r.building_id] = r.solution
        proposals.append((-r.score, r.building_id))
    if n_b and len(infeasible) == n_b:
        raise PathwayError(
            f"stage {target_year}: no building could be solved "
            f"({next(iter(infeasible.values()))})")

    # allocation of voluntary slots in rank order
    remaining = dict(budgets)
    denied: list[tuple[str, str]] = []
    granted: dict[str, set[str]] = {}
    proposals.sort()
    for _, bid in proposals:
        r = outcome_of[bid]
        sol = r.solution
        mandatory_conv = r.baseline_objective is None
        kinds = _budgeted_kinds(cat, sol)
        take: set[str] = set()
        for kind in ("conversion", "renovation"):
            if kind not in kinds:
                continue
            if kind == "conversion" and mandatory_conv:
                take.add(kind)
                continue
            if remaining[kind] > 0:
                remaining[kind] -= 1
                take.add(kind)
            else:
                denied.append((bid, kind))
        granted[bid] = take

    # re-optimize buildings that lost a slot; only granted classes stay open
    denied_by_building: dict[str, set[str]] = {}
    for bid, kind in denied:
        denied_by_building.setdefault(bid, set()).add(kind)
    for bid in sorted(denied_by_building):
        b = by_id[bid]
        allow_refurb = "renovation" in granted[bid]
        allow_plant = True if "conversion" in granted[bid] else "additions_only"
        try:
            _, _, sol2 = optimize_building(
                b, cat, scenario, grid,
                target_year=target_year, period_years=period,
                objective_mode=objective_mode,
                allow_refurb=allow_refurb, allow_plant_change=allow_plant,
                backend=backend, params=params,
            )
            solutions[bid] = sol2
        except (InfeasibleBuildingError, ModelError) as exc:
            infeasible[bid] = f"re-optimization failed: {exc}"
            solutions.pop(bid, None)
            granted.pop(bid, None)

    # final measures from the surviving solutions
    measures: list[Measure] = []
    building_expiry: dict[str, int] = {}
    for bid in sorted(solutions):
        b = by_id[bid]
        r = outcome_of[bid]
        sol = solutions[bid]
        mandatory_conv = r.baseline_objective is None
        expired = _expired_instances(b, cat, target_year)
        heat_expired = [i for i in expired if _heat_conversion_tech(cat, i.tech_id)]
        if heat_expired:
            building_expiry[bid] = min(
                i.install_year + cat.tech(i.tech_id).lifetime for i in heat_expired)
        for mm in _split_measures(b, cat, sol, mandatory_conversion=mandatory_conv,
                                  decision_year=target_year, score=r.score):
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
                      year: int, objective_mode: str,
                      backend: str | None, params: dict | None) -> StageResult:
    """Valuation of the untouched stock: dispatch only, no decisions."""
    solutions: dict[str, BuildingSolution] = {}
    infeasible: dict[str, str] = {}
    for b in sorted(twin.buildings, key=lambda b: b.id):
        try:
            _, _, sol = optimize_building(
                b, cat, scenario, twin.grid,
                target_year=year, period_years=1, objective_mode=objective_mode,
                allow_refurb=False, allow_plant_change=False,
                include_transition_costs=False,
                backend=backend, params=params,
            )
            solutions[b.id] = sol
        except (InfeasibleBuildingError, ModelError) as exc:
            infeasible[b.id] = str(exc)
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
                              backend, params)
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
