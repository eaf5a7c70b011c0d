"""Per-building expansion and operation model.

One building, one target year: decide which existing units to keep or
dismantle, which new units to install and at what size, which envelope
refurbishment variant to execute, and how to dispatch everything over the
time grid, minimizing annual-equivalent cost (or emissions, or a carbon
priced mix).  Brownfield effects enter through residual values on kept
plant and dismantling costs on removed plant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .catalog import (
    EMBODIED_INSTALL_SHARE,
    KIND_CONNECTION,
    KIND_CONVERTER,
    KIND_STORAGE,
    PRICED_CARRIERS,
    Catalog,
    CostBreakdown,
    TechnologySpec,
    annuity_factor,
    effective_demand,
    residual_value,
    variant_components,
    variant_cost,
    variant_delta_factor,
)
from .scenario import ScenarioFrame
from .solver import LinearModel, SolveOutcome, SolveRequest, SolveStatus, solve
from .twin import (
    HEAT_VECTORS,
    Building,
    TechnologyInstance,
    TimeGrid,
    admissible_refurb_variants,
    remaining_lifetime,
)

BINARY_TOL = 1e-4
# a solution value further outside its column bounds is a failed solve
BOUND_TOL = 1e-6
# solution values this close to a column bound are taken as on it
BOUND_SNAP_TOL = 1e-9
CLOSURE_REL_TOL = 1e-6

SCOPE1_CARRIERS = ("gas", "oil", "pellets", "woodchips")
SCOPE2_CARRIERS = ("electricity", "heat_network")

OBJECTIVE_MODES = ("cost", "emission", "weighted")


class ModelError(Exception):
    """Model construction or solution extraction failed."""


class InfeasibleBuildingError(ModelError):
    """No admissible plan can serve the building's demand."""

    def __init__(self, building_id: str, reason: str):
        super().__init__(f"building {building_id!r}: {reason}")
        self.building_id = building_id
        self.reason = reason


@dataclass(frozen=True)
class _Unit:
    """One dispatchable or capacity-bearing unit: existing or candidate."""

    key: str
    spec: TechnologySpec
    existing: int | None  # index into the alive-instance list, None for new
    cap: float | None  # fixed capacity of an existing unit


@dataclass
class ModelArtifacts:
    """Solver request plus everything needed to interpret its solution."""

    request: SolveRequest
    building: Building
    catalog: Catalog
    grid: TimeGrid
    target_year: int
    options: dict
    alive: list[TechnologyInstance]
    units: list[_Unit]
    # the builder's key of each column and row, in index order
    var_keys: tuple[tuple, ...]
    row_keys: tuple[tuple, ...]
    # the accounts of each column per unit of its value: costs in EUR/yr,
    # one array per CostBreakdown field; scope 1, 2 and 3 emissions in
    # kgCO2eq/yr, shape (3, n); the domain its costs are reported under
    costs: CostBreakdown = field(repr=False)
    scopes: np.ndarray = field(repr=False)
    domain: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class BuildingSolution:
    """Interpreted optimum for one building at one target year."""

    building_id: str
    target_year: int
    objective: float
    variant_index: int
    new_components: tuple[str, ...]
    kept: tuple[TechnologyInstance, ...]
    dropped: tuple[TechnologyInstance, ...]
    installed: tuple[tuple[str, float], ...]
    annual_output: dict[str, float]
    imports: dict[str, float]
    export: float
    pv_generation: float
    self_consumption: float
    breakdown: CostBreakdown
    breakdown_by_domain: dict[str, CostBreakdown]
    emissions: dict[str, float]
    demand_after: dict[str, float]
    model_options: dict
    x: np.ndarray = field(repr=False, default=None)


# ---------------------------------------------------------------------------
# Construction


def _candidate_specs(building: Building, cat: Catalog) -> list[TechnologySpec]:
    has_heat = any(v in building.demand for v in HEAT_VECTORS)
    has_cooling = "cooling" in building.demand
    out = []
    for tid in sorted(cat.techs):
        spec = cat.techs[tid]
        if spec.requires_heat_network and not building.heat_network_access:
            continue
        if spec.output == "cooling" and not has_cooling:
            continue
        if spec.output == "heat" and spec.kind != KIND_STORAGE and not has_heat:
            continue
        out.append(spec)
    return out


def _availability(spec: TechnologySpec, grid: TimeGrid) -> np.ndarray | None:
    if spec.carrier == "solar":
        return grid.solar_availability()
    return None


def _unit_domain(spec: TechnologySpec) -> str:
    return "heat" if spec.output == "heat" else "electricity"


def _carrier_domain(carrier: str) -> str:
    return "electricity" if carrier == "electricity" else "heat"


def build_model(
    building: Building,
    cat: Catalog,
    scenario: ScenarioFrame,
    grid: TimeGrid,
    *,
    target_year: int,
    period_years: int,
    objective_mode: str = "cost",
    allow_refurb: bool = True,
    allow_plant_change: bool | str = True,
    include_transition_costs: bool = True,
    size_grid: dict[str, tuple[float, ...]] | None = None,
) -> ModelArtifacts:
    """Assemble the expansion-and-operation MILP for one building.

    ``period_years`` is the span the stage decision covers; one-time
    transition payments (residual value write-offs, dismantling) are
    annualized over it so they compete fairly with operating costs.

    ``allow_plant_change`` accepts three settings: True (free), False
    (every unit kept, no candidates) and "additions_only", which freezes
    heat-producing converters but leaves the rest of the plant open.
    """
    if objective_mode not in OBJECTIVE_MODES:
        raise ModelError(f"unknown objective mode {objective_mode!r}")
    if period_years < 1:
        raise ModelError("period_years must be >= 1")
    size_grid = size_grid or {}

    rate = cat.discount_rate
    steps = grid.steps
    h = grid.hours_per_step
    w = grid.step_weights()
    seasons = grid.season_of_step()
    af_period = annuity_factor(rate, period_years)

    alive = [inst for inst in building.installed
             if remaining_lifetime(inst, cat.tech(inst.tech_id).lifetime, target_year) > 0]

    units: list[_Unit] = []
    for i, inst in enumerate(alive):
        units.append(_Unit(key=f"x{i}:{inst.tech_id}", spec=cat.tech(inst.tech_id),
                           existing=i, cap=inst.size))
    candidates = _candidate_specs(building, cat) if allow_plant_change else []
    if allow_plant_change == "additions_only":
        candidates = [spec for spec in candidates if not spec.is_heat_converter]
    for spec in candidates:
        units.append(_Unit(key=f"n:{spec.id}", spec=spec, existing=None, cap=None))

    base: dict[str, np.ndarray] = {}
    for vector, prof in building.demand.items():
        base[vector] = prof.as_array()
    zeros = np.zeros(steps)

    current_ir = building.refurb_state.variant_index
    admissible = sorted(admissible_refurb_variants(building)) if allow_refurb else [current_ir]

    m = LinearModel()
    # one row per column: the CostBreakdown fields in order, then scopes 1-3
    accounts: list[tuple[float, ...]] = []
    domain: list[str] = []

    def new_var(key, *, lb=0.0, ub=math.inf, integer=False, dom="heat",
                capex=0.0, subsidy=0.0, opex=0.0, dec=0.0, resid=0.0,
                s1=0.0, s2=0.0, s3=0.0) -> int:
        idx = m.add_var(key, lb=lb, ub=ub, integer=integer)
        accounts.append((capex, subsidy, opex, dec, resid, s1, s2, s3))
        domain.append(dom)
        return idx

    # -- keep / dismantle of existing units ----------------------------------
    v_keep: dict[int, int] = {}
    v_drop: dict[int, int] = {}
    for i, inst in enumerate(alive):
        spec = cat.tech(inst.tech_id)
        remaining = remaining_lifetime(inst, spec.lifetime, target_year)
        resid = residual_value(spec.capex_total(inst.size), spec.lifetime, remaining)
        dec_cost = spec.deconstruction * inst.size
        dom = _unit_domain(spec)
        keep_opex = spec.opex_fixed * inst.size
        trans = include_transition_costs
        v_keep[i] = new_var(
            ("keep", i), ub=1.0, integer=True, dom=dom,
            opex=keep_opex,
            resid=af_period * resid if trans else 0.0,
        )
        v_drop[i] = new_var(
            ("drop", i), ub=1.0, integer=True, dom=dom,
            dec=af_period * dec_cost if trans else 0.0,
            s3=((1.0 - EMBODIED_INSTALL_SHARE) * spec.embodied * inst.size / period_years
                if trans else 0.0),
        )
        r_kd = m.add_row(("keepdrop", i), 1.0, 1.0)
        m.add_term(r_kd, v_keep[i], 1.0)
        m.add_term(r_kd, v_drop[i], 1.0)
        frozen = (not allow_plant_change
                  or (allow_plant_change == "additions_only" and spec.is_heat_converter))
        if frozen:
            m.fix_var(v_keep[i], 1.0)
            m.fix_var(v_drop[i], 0.0)

    # -- new installations ----------------------------------------------------
    v_inst: dict[str, int] = {}
    v_size: dict[str, int] = {}
    for u in units:
        if u.existing is not None:
            continue
        spec = u.spec
        af_life = annuity_factor(rate, spec.lifetime)
        dom = _unit_domain(spec)
        v_inst[spec.id] = new_var(
            ("inst", spec.id), ub=1.0, integer=True, dom=dom,
            capex=af_life * spec.capex_fix,
            subsidy=af_life * spec.subsidy_rate * spec.capex_fix,
        )
        v_size[spec.id] = new_var(
            ("size", spec.id), dom=dom,
            capex=af_life * spec.capex_var,
            subsidy=af_life * spec.subsidy_rate * spec.capex_var,
            opex=spec.opex_fixed,
            s3=EMBODIED_INSTALL_SHARE * spec.embodied / spec.lifetime,
        )
        if spec.id in size_grid:
            levels = tuple(sorted(size_grid[spec.id]))
            r_sz = m.add_row(("size_grid", spec.id), 0.0, 0.0)
            m.add_term(r_sz, v_size[spec.id], 1.0)
            r_pick = m.add_row(("pick_one", spec.id), 0.0, 0.0)
            m.add_term(r_pick, v_inst[spec.id], -1.0)
            for k, level in enumerate(levels):
                p = new_var(("pick", spec.id, k), ub=1.0, integer=True, dom=dom)
                m.add_term(r_sz, p, -float(level))
                m.add_term(r_pick, p, 1.0)
        else:
            r_max = m.add_row(("size_max", spec.id), -math.inf, 0.0)
            m.add_term(r_max, v_size[spec.id], 1.0)
            cap_ub = spec.max_size if math.isfinite(spec.max_size) else 1e6
            m.add_term(r_max, v_inst[spec.id], -cap_ub)
            if spec.min_size > 0:
                r_min = m.add_row(("size_min", spec.id), 0.0, math.inf)
                m.add_term(r_min, v_size[spec.id], 1.0)
                m.add_term(r_min, v_inst[spec.id], -spec.min_size)

    # -- refurbishment variant choice -----------------------------------------
    v_variant: dict[int, int] = {}
    r_choice = m.add_row(("variant_choice",), 1.0, 1.0)
    for ir in range(16):
        ok = ir in admissible
        one_time = variant_cost(cat, building, ir) if ok else 0.0
        ann = 0.0
        s3 = 0.0
        if ok and one_time > 0.0:
            added = ir & ~current_ir
            ann = sum(
                annuity_factor(rate, cat.refurb[name].lifetime)
                * cat.refurb[name].cost_per_m2 * cat.refurb[name].area(building)
                for name in variant_components(added))
            s3 = sum(
                cat.refurb[name].embodied_per_m2 * cat.refurb[name].area(building)
                / cat.refurb[name].lifetime
                for name in variant_components(added))
        v_variant[ir] = new_var(
            ("variant", ir), ub=1.0 if ok else 0.0, integer=True,
            dom="refurbishment", capex=ann, s3=s3,
        )
        m.add_term(r_choice, v_variant[ir], 1.0)
    if not allow_refurb or len(admissible) == 1 and admissible[0] == current_ir:
        for ir in range(16):
            m.fix_var(v_variant[ir], 1.0 if ir == current_ir else 0.0)

    # -- parallel measure limit ------------------------------------------------
    r_par = m.add_row(("parallel_limit",), -math.inf,
                      float(scenario.max_parallel_retrofits))
    for tid, vi in v_inst.items():
        m.add_term(r_par, vi, 1.0)
    for ir in admissible:
        n_new = len(variant_components(ir & ~current_ir))
        if n_new:
            m.add_term(r_par, v_variant[ir], float(n_new))

    # -- siting: roof and open space --------------------------------------------
    for area_attr, per_kw_attr, rname in (
        ("roof_area", "roof_area_per_kw", "roof_area"),
        ("open_space_area", "open_area_per_kw", "open_space_area"),
    ):
        total = getattr(building, area_attr)
        relevant = [u for u in units if getattr(u.spec, per_kw_attr) > 0]
        if not relevant:
            continue
        r = m.add_row((rname,), -math.inf, total)
        for u in relevant:
            per_kw = getattr(u.spec, per_kw_attr)
            if u.existing is not None:
                m.add_term(r, v_keep[u.existing], per_kw * u.cap)
            else:
                m.add_term(r, v_size[u.spec.id], per_kw)

    # -- dispatch variables -----------------------------------------------------
    v_out: dict[str, np.ndarray] = {}
    v_ch: dict[str, np.ndarray] = {}
    v_dis: dict[str, np.ndarray] = {}
    v_soc: dict[str, np.ndarray] = {}
    eff_per_unit: dict[str, np.ndarray] = {}

    for u in units:
        spec = u.spec
        if spec.kind == KIND_CONNECTION:
            continue
        dom = _unit_domain(spec)
        if spec.kind == KIND_CONVERTER:
            eff = np.array([spec.efficiency_at(s) for s in seasons])
            eff_per_unit[u.key] = eff
            ids = np.empty(steps, dtype=np.int64)
            for s in range(steps):
                ids[s] = new_var(("out", u.key, s), dom=dom, opex=spec.opex_var * w[s])
            v_out[u.key] = ids
            avail = _availability(spec, grid)
            cap_profile = avail if avail is not None else np.ones(steps)
            for s in range(steps):
                r = m.add_row(("cap", u.key, s), -math.inf, 0.0)
                m.add_term(r, ids[s], 1.0)
                lim = cap_profile[s] * h
                if u.existing is not None:
                    m.add_term(r, v_keep[u.existing], -lim * u.cap)
                else:
                    m.add_term(r, v_size[spec.id], -lim)
        elif spec.kind == KIND_STORAGE:
            ids_ch = np.empty(steps, dtype=np.int64)
            ids_dis = np.empty(steps, dtype=np.int64)
            ids_soc = np.empty(steps, dtype=np.int64)
            for s in range(steps):
                ids_ch[s] = new_var(("ch", u.key, s), dom=dom)
                ids_dis[s] = new_var(("dis", u.key, s), dom=dom)
                ids_soc[s] = new_var(("soc", u.key, s), dom=dom)
            v_ch[u.key], v_dis[u.key], v_soc[u.key] = ids_ch, ids_dis, ids_soc
            retention = (1.0 - spec.loss_per_hour) ** h
            p_lim = spec.power_per_capacity * h
            for s in range(steps):
                for label, ids, lim in (("soc_cap", ids_soc, 1.0),
                                        ("ch_cap", ids_ch, p_lim),
                                        ("dis_cap", ids_dis, p_lim)):
                    r = m.add_row((label, u.key, s), -math.inf, 0.0)
                    m.add_term(r, ids[s], 1.0)
                    if u.existing is not None:
                        m.add_term(r, v_keep[u.existing], -lim * u.cap)
                    else:
                        m.add_term(r, v_size[spec.id], -lim)
            for block in grid.cyclic_blocks():
                lo, hi = block.start, block.stop
                for s in range(lo, hi):
                    nxt = s + 1 if s + 1 < hi else lo
                    r = m.add_row(("soc_tr", u.key, s), 0.0, 0.0)
                    m.add_term(r, ids_soc[nxt], 1.0)
                    m.add_term(r, ids_soc[s], -retention)
                    m.add_term(r, ids_ch[s], -spec.charge_efficiency)
                    m.add_term(r, ids_dis[s], 1.0 / spec.discharge_efficiency)

    # -- imports, export, grid capacity -----------------------------------------
    carriers = sorted({u.spec.carrier for u in units
                       if u.spec.carrier in PRICED_CARRIERS and u.spec.carrier != "electricity"})
    grid_units = [u for u in units if u.spec.kind == KIND_CONNECTION]
    need_electricity = True  # electricity bus always exists

    v_imp: dict[str, np.ndarray] = {}
    year = target_year
    for c in carriers + (["electricity"] if need_electricity else []):
        price = scenario.price_at(c, year) / 100.0  # EUR per kWh
        ef = scenario.emission_factor_at(c, year) / 1000.0  # kg per kWh
        s1 = ef if c in SCOPE1_CARRIERS else 0.0
        s2 = ef if c in SCOPE2_CARRIERS else 0.0
        ids = np.empty(steps, dtype=np.int64)
        for s in range(steps):
            ids[s] = new_var(("imp", c, s), dom=_carrier_domain(c),
                             opex=price * w[s], s1=s1 * w[s], s2=s2 * w[s])
        v_imp[c] = ids

    feed_in = scenario.feed_in_at(year) / 100.0
    v_exp = np.empty(steps, dtype=np.int64)
    for s in range(steps):
        v_exp[s] = new_var(("exp", s), dom="electricity", opex=-feed_in * w[s])

    for s in range(steps):
        r = m.add_row(("grid_cap", s), -math.inf, 0.0)
        m.add_term(r, v_imp["electricity"][s], 1.0)
        m.add_term(r, v_exp[s], 1.0)
        for u in grid_units:
            if u.existing is not None:
                m.add_term(r, v_keep[u.existing], -h * u.cap)
            else:
                m.add_term(r, v_size[u.spec.id], -h)

    # -- balances ------------------------------------------------------------
    sh = base.get("space_heat", zeros)
    hw = base.get("hot_water", zeros)
    el = base.get("electricity", zeros)
    cool = base.get("cooling", None)

    r_heat = [m.add_row(("balance", "heat", s), 0.0, 0.0) for s in range(steps)]
    r_el = [m.add_row(("balance", "electricity", s), float(el[s]), float(el[s]))
            for s in range(steps)]
    r_cool = None
    if cool is not None:
        r_cool = [m.add_row(("balance", "cooling", s), float(cool[s]), float(cool[s]))
                  for s in range(steps)]
    r_fuel: dict[str, list[int]] = {}
    for c in carriers:
        r_fuel[c] = [m.add_row(("fuel", c, s), 0.0, 0.0) for s in range(steps)]

    # variant-conditional heat demand on the heat balance
    for ir in admissible:
        d_sh = variant_delta_factor(cat, current_ir, ir, "space_heat")
        d_hw = variant_delta_factor(cat, current_ir, ir, "hot_water")
        for s in range(steps):
            coef = sh[s] * d_sh + hw[s] * d_hw
            if coef:
                m.add_term(r_heat[s], v_variant[ir], -coef)

    bus_rows = {"heat": r_heat, "electricity": r_el, "cooling": r_cool}
    for u in units:
        spec = u.spec
        if spec.kind == KIND_CONVERTER:
            out_ids = v_out[u.key]
            rows = bus_rows.get(spec.output)
            eff = eff_per_unit[u.key]
            for s in range(steps):
                if rows is not None:
                    m.add_term(rows[s], out_ids[s], 1.0)
                if spec.byproduct is not None:
                    bp_rows = bus_rows.get(spec.byproduct[0])
                    if bp_rows is not None:
                        m.add_term(bp_rows[s], out_ids[s], spec.byproduct[1])
                if spec.carrier == "electricity":
                    m.add_term(r_el[s], out_ids[s], -1.0 / eff[s])
                elif spec.carrier in r_fuel:
                    m.add_term(r_fuel[spec.carrier][s], out_ids[s], -1.0 / eff[s])
        elif spec.kind == KIND_STORAGE:
            rows = bus_rows.get(spec.output)
            if rows is None:
                continue
            for s in range(steps):
                m.add_term(rows[s], v_dis[u.key][s], 1.0)
                m.add_term(rows[s], v_ch[u.key][s], -1.0)

    for c in carriers:
        for s in range(steps):
            m.add_term(r_fuel[c][s], v_imp[c][s], 1.0)
    for s in range(steps):
        m.add_term(r_el[s], v_imp["electricity"][s], 1.0)
        m.add_term(r_el[s], v_exp[s], -1.0)

    # -- objective -------------------------------------------------------------
    table = np.array(accounts, dtype=float).T.copy()  # one contiguous row per account
    costs = CostBreakdown(*table[:5])
    scopes = table[5:]
    if objective_mode == "cost":
        obj = costs.objective
    elif objective_mode == "emission":
        obj = scopes.sum(axis=0)
    else:
        co2 = scenario.co2_price_at(target_year) / 1000.0  # EUR per kg
        obj = costs.objective + co2 * scopes.sum(axis=0)
    return ModelArtifacts(
        request=m.build(obj), building=building, catalog=cat, grid=grid,
        target_year=target_year,
        options={
            "objective_mode": objective_mode,
            "allow_refurb": allow_refurb,
            "allow_plant_change": allow_plant_change,
            "include_transition_costs": include_transition_costs,
            "size_grid": {k: tuple(v) for k, v in size_grid.items()},
        },
        alive=alive, units=units, var_keys=m.var_keys, row_keys=m.row_keys,
        costs=costs, scopes=scopes, domain=np.array(domain),
    )


# ---------------------------------------------------------------------------
# Extraction and verification


def _label(key: tuple) -> str:
    """A column or row key as text: ``("cap", "x0:gas_boiler", 3)`` reads
    ``cap[x0:gas_boiler,3]``."""
    tag, *rest = key
    return f"{tag}[{','.join(map(str, rest))}]" if rest else tag


def _binary_value(x: np.ndarray, idx: int) -> int:
    v = float(x[idx])
    if abs(v - round(v)) > BINARY_TOL:
        raise ModelError(f"binary variable {idx} is fractional: {v}")
    return 1 if v > 0.5 else 0


def extract_solution(arts: ModelArtifacts, outcome: SolveOutcome) -> BuildingSolution:
    """Interpret a solver outcome; verifies column bounds, integrality and
    objective closure."""
    if not outcome.ok:
        raise ModelError(f"cannot extract from status {outcome.status.value}")
    # HiGHS may return a column a hair outside its bounds (a zero size as
    # -3e-12, say), which would reach the document as a negative cost:
    # project onto the bounds and snap what lies within BOUND_SNAP_TOL of one.
    lb, ub = arts.request.var_lb, arts.request.var_ub
    outside = np.maximum(lb - outcome.x, outcome.x - ub)
    if outside.max(initial=0.0) > BOUND_TOL:
        j = int(np.argmax(outside))
        raise ModelError(f"{_label(arts.var_keys[j])} = {outcome.x[j]:.6g} lies outside "
                         f"its bounds [{lb[j]}, {ub[j]}]")
    x = np.clip(outcome.x, lb, ub)
    x = np.where(np.abs(x - lb) <= BOUND_SNAP_TOL, lb, x)
    x = np.where(np.abs(ub - x) <= BOUND_SNAP_TOL, ub, x)
    w = arts.grid.step_weights()

    # objective closure against the request's objective
    recon = float(arts.request.obj @ x)
    if outcome.objective is not None:
        scale = max(1.0, abs(outcome.objective))
        if abs(recon - outcome.objective) > CLOSURE_REL_TOL * scale * 10:
            raise ModelError(
                f"objective closure failed: solver {outcome.objective!r} vs "
                f"reconstructed {recon!r}")

    variant_index = None
    kept, dropped = [], []
    installed: list[tuple[str, float]] = []
    annual_output: dict[str, float] = {}
    imports: dict[str, float] = {}
    export = 0.0
    pv_gen = 0.0

    size_of: dict[str, float] = {}
    inst_of: dict[str, int] = {}
    for idx, kind in enumerate(arts.var_keys):
        tag = kind[0]
        if tag == "keep":
            if _binary_value(x, idx):
                kept.append(arts.alive[kind[1]])
        elif tag == "drop":
            if _binary_value(x, idx):
                dropped.append(arts.alive[kind[1]])
        elif tag == "variant":
            if _binary_value(x, idx):
                if variant_index is not None:
                    raise ModelError("more than one refurbishment variant selected")
                variant_index = kind[1]
        elif tag == "inst":
            inst_of[kind[1]] = _binary_value(x, idx)
        elif tag == "size":
            size_of[kind[1]] = float(x[idx])
        elif tag == "out":
            _, key, s = kind
            annual_output[key] = annual_output.get(key, 0.0) + float(x[idx]) * w[s]
        elif tag == "imp":
            _, c, s = kind
            imports[c] = imports.get(c, 0.0) + float(x[idx]) * w[s]
        elif tag == "exp":
            export += float(x[idx]) * w[kind[1]]
    if variant_index is None:
        raise ModelError("no refurbishment variant selected")
    for tid, chosen in sorted(inst_of.items()):
        if chosen:
            installed.append((tid, size_of.get(tid, 0.0)))

    for u in arts.units:
        if u.spec.id == "pv" or (u.spec.carrier == "solar"
                                 and u.spec.output == "electricity"):
            pv_gen += annual_output.get(u.key, 0.0)
    self_consumption = 0.0
    if pv_gen > 1e-9:
        self_consumption = float(np.clip((pv_gen - export) / pv_gen, 0.0, 1.0))

    # each total is its own account @ x: one (k, n) @ x product rounds differently
    accounts = [getattr(arts.costs, f.name) for f in fields(CostBreakdown)]
    breakdown = CostBreakdown(*(float(acc @ x) for acc in accounts))
    by_domain: dict[str, CostBreakdown] = {}
    for dom in ("heat", "electricity", "refurbishment"):
        mask = (arts.domain == dom).astype(float)
        by_domain[dom] = CostBreakdown(*(float((acc * mask) @ x) for acc in accounts))
    emissions = {f"scope{k}": float(row @ x) for k, row in enumerate(arts.scopes, 1)}
    emissions["total"] = emissions["scope1"] + emissions["scope2"] + emissions["scope3"]

    eff = effective_demand(arts.building, variant_index, arts.catalog)
    demand_after = {v: float(arr @ w) for v, arr in eff.items()}

    current_ir = arts.building.refurb_state.variant_index
    new_components = variant_components(variant_index & ~current_ir)

    return BuildingSolution(
        building_id=arts.building.id,
        target_year=arts.target_year,
        objective=float(outcome.objective if outcome.objective is not None else recon),
        variant_index=variant_index,
        new_components=new_components,
        kept=tuple(kept),
        dropped=tuple(dropped),
        installed=tuple(installed),
        annual_output=annual_output,
        imports=imports,
        export=export,
        pv_generation=pv_gen,
        self_consumption=self_consumption,
        breakdown=breakdown,
        breakdown_by_domain=by_domain,
        emissions=emissions,
        demand_after=demand_after,
        model_options=dict(arts.options),
        x=np.asarray(x, dtype=float),
    )


def check_solution(arts: ModelArtifacts, x: np.ndarray,
                   rel_tol: float = 1e-6, soc_tol_kwh: float = 1e-6) -> list[str]:
    """Structural verification of a solution vector against the model.

    Returns human-readable violations; an empty list means the plan honors
    area limits, the one-variant rule, keep/dismantle exclusivity, the
    parallel-measure cap, all balances, and storage consistency.
    """
    req = arts.request
    x = np.asarray(x, dtype=float)
    act = req.row_activity(x)
    lo, hi = req.row_lb, req.row_ub

    gross = np.zeros(req.n_rows)
    np.add.at(gross, req.a_rows, np.abs(req.a_vals * x[req.a_cols]))
    scale = np.maximum(np.maximum(1.0, gross), np.where(np.isfinite(lo), np.abs(lo), 0.0))
    slack = np.maximum(1e-7, rel_tol * scale)

    tags = np.array([key[0] for key in arts.row_keys], dtype=object)
    balance = np.isin(tags, ("balance", "fuel"))
    area = np.isin(tags, ("roof_area", "open_space_area"))
    residual = np.abs(act - lo)
    broken = np.select(
        [balance, tags == "soc_tr", area, tags == "parallel_limit",
         tags == "keepdrop", tags == "variant_choice"],
        [residual > rel_tol * scale,
         residual > soc_tol_kwh,
         act > hi + 1e-7 * scale,
         act > hi + 1e-7,
         residual > 1e-6,
         np.abs(act - 1.0) > 1e-6],
        default=(act < lo - slack) | (act > hi + slack))

    violations: list[str] = []
    for ridx in np.flatnonzero(broken):
        key = arts.row_keys[ridx]
        tag, a, l, h = key[0], float(act[ridx]), float(lo[ridx]), float(hi[ridx])
        if tag in ("balance", "fuel", "soc_tr"):
            violations.append(f"{_label(key)}: residual {a - l:.3e}")
        elif tag in ("roof_area", "open_space_area"):
            violations.append(f"{tag}: used {a:.6f} exceeds {h:.6f}")
        elif tag == "parallel_limit":
            violations.append(f"parallel_limit: {a:.6f} > {h:.6f}")
        elif tag == "keepdrop":
            violations.append(f"{_label(key)}: sum {a:.8f} != {l}")
        elif tag == "variant_choice":
            violations.append(f"variant_choice: sum {a:.8f} != 1")
        else:
            violations.append(f"{_label(key)}: activity {a:.6e} outside [{l}, {h}]")

    for idx, key in enumerate(arts.var_keys):
        if key[0] == "soc" and x[idx] < -soc_tol_kwh:
            violations.append(f"{_label(key)}: negative charge {float(x[idx]):.3e}")
    return violations


def optimize_building(
    building: Building,
    cat: Catalog,
    scenario: ScenarioFrame,
    grid: TimeGrid,
    *,
    target_year: int,
    period_years: int,
    backend: str | None = None,
    params: dict | None = None,
    **options,
) -> tuple[ModelArtifacts, SolveOutcome, BuildingSolution]:
    """Build, solve, and interpret one building's stage problem."""
    arts = build_model(
        building, cat, scenario, grid,
        target_year=target_year, period_years=period_years, **options,
    )
    outcome = solve(arts.request, backend=backend, params=params)
    if outcome.status is SolveStatus.INFEASIBLE:
        raise InfeasibleBuildingError(building.id, "no feasible expansion and dispatch plan")
    if not outcome.ok:
        raise ModelError(
            f"building {building.id!r}: solver ended with {outcome.status.value}: "
            f"{outcome.message}")
    solution = extract_solution(arts, outcome)
    violations = check_solution(arts, solution.x)
    if violations:
        raise ModelError(
            f"building {building.id!r}: the {outcome.status.value} solution breaks "
            f"{len(violations)} row(s), first {violations[0]}")
    return arts, outcome, solution
