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
    in_service,
    residual_value,
    variant_components,
    variant_delta_factor,
)
from .scenario import ScenarioFrame
from .solver import (
    LinearModel,
    Relaxation,
    SolveOutcome,
    SolveRequest,
    SolverError,
    SolveStatus,
    solve,
)
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
# check_solution: a balance row may miss by this share of its gross
# activity, a storage transition or charge level by this many kWh
ROW_REL_TOL = 1e-6
SOC_TOL_KWH = 1e-6
# lp_guided_start installs a candidate whose LP size exceeds this (kW or kWh)
USE_TOL = 1e-6

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
    options: dict
    alive: list[TechnologyInstance]
    units: list[_Unit]
    # the builder's key of each column and row, in index order
    var_keys: tuple[tuple, ...]
    row_keys: tuple[tuple, ...]
    # the column indices of each family the solution is read by: "keep" and
    # "drop" per alive unit, "variant" per variant index, "inst" and "size"
    # per candidate id (in id order), "out" per converter unit key and
    # "imp" per carrier (one column per step each), "exp" per step, and
    # "soc", every storage charge level
    cols: dict = field(repr=False)
    # the accounts of each column per unit of its value: costs in EUR/yr,
    # one array per CostBreakdown field; scope 1, 2 and 3 emissions in
    # kgCO2eq/yr, shape (3, n); the domain its costs are reported under
    costs: CostBreakdown = field(repr=False)
    scopes: np.ndarray = field(repr=False)
    domain: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class BuildingSolution:
    """Interpreted optimum for one building at one target year."""

    objective: float
    variant_index: int
    new_components: tuple[str, ...]
    kept: tuple[TechnologyInstance, ...]
    dropped: tuple[TechnologyInstance, ...]
    installed: tuple[tuple[str, float], ...]
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
    # the solve behind the plan: FEASIBLE when a limit stopped HiGHS before it
    # proved the incumbent optimal, with the relative gap it had left
    status: SolveStatus = SolveStatus.OPTIMAL
    gap: float | None = None


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

    alive = in_service(building.installed, cat, target_year)

    units: list[_Unit] = []
    for i, inst in enumerate(alive):
        units.append(_Unit(key=f"x{i}:{inst.tech_id}", spec=cat.tech(inst.tech_id),
                           existing=i, cap=inst.size))
    candidates = _candidate_specs(building, cat) if allow_plant_change else []
    if allow_plant_change == "additions_only":
        candidates = [spec for spec in candidates if not spec.is_heat_converter]
    for spec in candidates:
        units.append(_Unit(key=f"n:{spec.id}", spec=spec, existing=None, cap=None))

    base = {vector: np.asarray(values, dtype=float) for vector, values in building.demand.items()}
    zeros = np.zeros(steps)

    current_ir = building.variant_index
    admissible = sorted(admissible_refurb_variants(building)) if allow_refurb else [current_ir]

    m = LinearModel()
    # one (8, k) block per new_var call: the CostBreakdown fields in order,
    # then scopes 1-3, each per unit of the block's k columns
    accounts: list[np.ndarray] = []
    domain: list[str] = []

    def new_var(keys, *, lb=0.0, ub=math.inf, integer=False, dom="heat",
                capex=0.0, subsidy=0.0, opex=0.0, dec=0.0, resid=0.0,
                s1=0.0, s2=0.0, s3=0.0) -> np.ndarray:
        ids = m.add_vars(keys, lb, ub, integer)
        block = np.empty((8, len(ids)))
        for row, value in zip(block, (capex, subsidy, opex, dec, resid, s1, s2, s3)):
            row[:] = value
        accounts.append(block)
        domain.extend([dom] * len(ids))
        return ids

    # -- keep / dismantle of existing units ----------------------------------
    v_keep: list[int] = []
    v_drop: list[int] = []
    for i, inst in enumerate(alive):
        spec = cat.tech(inst.tech_id)
        remaining = remaining_lifetime(inst, spec.lifetime, target_year)
        resid = residual_value(spec.capex_total(inst.size), spec.lifetime, remaining)
        dec_cost = spec.deconstruction * inst.size
        dom = _unit_domain(spec)
        trans = include_transition_costs
        frozen = (not allow_plant_change
                  or (allow_plant_change == "additions_only" and spec.is_heat_converter))
        keep, drop = new_var(
            [("keep", i), ("drop", i)], lb=(1.0, 0.0) if frozen else 0.0,
            ub=(1.0, 0.0) if frozen else 1.0, integer=True, dom=dom,
            opex=(spec.opex_fixed * inst.size, 0.0),
            resid=(af_period * resid if trans else 0.0, 0.0),
            dec=(0.0, af_period * dec_cost if trans else 0.0),
            s3=(0.0, (1.0 - EMBODIED_INSTALL_SHARE) * spec.embodied * inst.size / period_years
                if trans else 0.0),
        )
        m.add_terms(m.add_row(("keepdrop", i), 1.0, 1.0), (keep, drop), 1.0)
        v_keep.append(keep)
        v_drop.append(drop)

    # -- new installations ----------------------------------------------------
    v_inst: dict[str, int] = {}
    v_size: dict[str, int] = {}
    for u in units:
        if u.existing is not None:
            continue
        spec = u.spec
        af_life = annuity_factor(rate, spec.lifetime)
        dom = _unit_domain(spec)
        v_inst[spec.id], v_size[spec.id] = new_var(
            [("inst", spec.id), ("size", spec.id)], ub=(1.0, math.inf),
            integer=(True, False), dom=dom,
            capex=(af_life * spec.capex_fix, af_life * spec.capex_var),
            subsidy=(af_life * spec.subsidy_rate * spec.capex_fix,
                     af_life * spec.subsidy_rate * spec.capex_var),
            opex=(0.0, spec.opex_fixed),
            s3=(0.0, EMBODIED_INSTALL_SHARE * spec.embodied / spec.lifetime),
        )
        if spec.id in size_grid:
            levels = np.array(sorted(size_grid[spec.id]), dtype=float)
            r_sz = m.add_row(("size_grid", spec.id), 0.0, 0.0)
            r_pick = m.add_row(("pick_one", spec.id), 0.0, 0.0)
            m.add_terms((r_sz, r_pick), (v_size[spec.id], v_inst[spec.id]), (1.0, -1.0))
            picks = new_var([("pick", spec.id, k) for k in range(len(levels))],
                            ub=1.0, integer=True, dom=dom)
            m.add_terms(r_sz, picks, -levels)
            m.add_terms(r_pick, picks, 1.0)
        else:
            cap_ub = spec.max_size if math.isfinite(spec.max_size) else 1e6
            r_max = m.add_row(("size_max", spec.id), -math.inf, 0.0)
            m.add_terms(r_max, (v_size[spec.id], v_inst[spec.id]), (1.0, -cap_ub))
            if spec.min_size > 0:
                r_min = m.add_row(("size_min", spec.id), 0.0, math.inf)
                m.add_terms(r_min, (v_size[spec.id], v_inst[spec.id]), (1.0, -spec.min_size))

    def capacity(u: _Unit) -> tuple[int, float]:
        """The column carrying a unit's capacity and the capacity per unit of
        its value: an existing unit's keep binary, a candidate's size."""
        if u.existing is not None:
            return v_keep[u.existing], u.cap
        return v_size[u.spec.id], 1.0

    # -- refurbishment variant choice -----------------------------------------
    ok = np.isin(np.arange(16), admissible)
    ann = np.zeros(16)
    s3 = np.zeros(16)
    for ir in admissible:
        added = [cat.refurb[name] for name in variant_components(ir & ~current_ir)]
        ann[ir] = sum(annuity_factor(rate, r.lifetime) * r.cost_per_m2 * r.area(building)
                      for r in added)
        s3[ir] = sum(r.embodied_per_m2 * r.area(building) / r.lifetime for r in added)
    fixed = admissible == [current_ir]
    current = (np.arange(16) == current_ir).astype(float)
    r_choice = m.add_row(("variant_choice",), 1.0, 1.0)
    v_variant = new_var([("variant", ir) for ir in range(16)],
                        lb=current if fixed else 0.0, ub=current if fixed else ok,
                        integer=True, dom="refurbishment", capex=ann, s3=s3)
    m.add_terms(r_choice, v_variant, 1.0)

    # -- parallel measure limit ------------------------------------------------
    r_par = m.add_row(("parallel_limit",), -math.inf,
                      float(scenario.max_parallel_retrofits))
    m.add_terms(r_par, list(v_inst.values()), 1.0)
    m.add_terms(r_par, v_variant[admissible],
                [float(len(variant_components(ir & ~current_ir))) for ir in admissible])

    # -- siting: roof and open space --------------------------------------------
    for area_attr, per_kw_attr, rname in (
        ("roof_area", "roof_area_per_kw", "roof_area"),
        ("open_space_area", "open_area_per_kw", "open_space_area"),
    ):
        relevant = [u for u in units if getattr(u.spec, per_kw_attr) > 0]
        if not relevant:
            continue
        r = m.add_row((rname,), -math.inf, getattr(building, area_attr))
        for u in relevant:
            col, kw = capacity(u)
            m.add_terms(r, col, getattr(u.spec, per_kw_attr) * kw)

    # -- dispatch variables -----------------------------------------------------
    v_out: dict[str, np.ndarray] = {}
    v_ch: dict[str, np.ndarray] = {}
    v_dis: dict[str, np.ndarray] = {}
    v_soc: list[np.ndarray] = []
    step_range = range(steps)

    for u in units:
        spec = u.spec
        if spec.kind == KIND_CONNECTION:
            continue
        dom = _unit_domain(spec)
        col, kw = capacity(u)
        if spec.kind == KIND_CONVERTER:
            ids = new_var([("out", u.key, s) for s in step_range], dom=dom,
                          opex=spec.opex_var * w)
            v_out[u.key] = ids
            avail = _availability(spec, grid)
            lim = (avail if avail is not None else np.ones(steps)) * h
            r = m.add_rows([("cap", u.key, s) for s in step_range], -math.inf, 0.0)
            m.add_terms(r, ids, 1.0)
            m.add_terms(r, col, -lim * kw)
        elif spec.kind == KIND_STORAGE:
            # columns ch, dis, soc and rows soc_cap, ch_cap, dis_cap each
            # interleaved per step
            ids_ch, ids_dis, ids_soc = new_var(
                [(tag, u.key, s) for s in step_range for tag in ("ch", "dis", "soc")],
                dom=dom).reshape(steps, 3).T
            v_ch[u.key], v_dis[u.key] = ids_ch, ids_dis
            v_soc.append(ids_soc)
            retention = (1.0 - spec.loss_per_hour) ** h
            p_lim = spec.power_per_capacity * h
            r = m.add_rows([(label, u.key, s) for s in step_range
                            for label in ("soc_cap", "ch_cap", "dis_cap")], -math.inf, 0.0)
            m.add_terms(r, np.stack([ids_soc, ids_ch, ids_dis], axis=1).ravel(), 1.0)
            m.add_terms(r, col, np.tile([-kw, -p_lim * kw, -p_lim * kw], steps))
            for block in grid.cyclic_blocks():
                r = m.add_rows([("soc_tr", u.key, s) for s in step_range[block]], 0.0, 0.0)
                m.add_terms(r, np.roll(ids_soc[block], -1), 1.0)
                m.add_terms(r, ids_soc[block], -retention)
                m.add_terms(r, ids_ch[block], -spec.charge_efficiency)
                m.add_terms(r, ids_dis[block], 1.0 / spec.discharge_efficiency)

    # -- imports, export, grid capacity -----------------------------------------
    carriers = sorted({u.spec.carrier for u in units
                       if u.spec.carrier in PRICED_CARRIERS and u.spec.carrier != "electricity"})
    grid_units = [u for u in units if u.spec.kind == KIND_CONNECTION]

    v_imp: dict[str, np.ndarray] = {}
    year = target_year
    for c in carriers + ["electricity"]:  # the electricity bus always exists
        price = scenario.price_at(c, year) / 100.0  # EUR per kWh
        ef = scenario.emission_factor_at(c, year) / 1000.0  # kg per kWh
        s1 = ef if c in SCOPE1_CARRIERS else 0.0
        s2 = ef if c in SCOPE2_CARRIERS else 0.0
        v_imp[c] = new_var([("imp", c, s) for s in step_range], dom=_carrier_domain(c),
                           opex=price * w, s1=s1 * w, s2=s2 * w)

    feed_in = scenario.feed_in_at(year) / 100.0
    v_exp = new_var([("exp", s) for s in step_range], dom="electricity", opex=-feed_in * w)

    r = m.add_rows([("grid_cap", s) for s in step_range], -math.inf, 0.0)
    m.add_terms(r, v_imp["electricity"], 1.0)
    m.add_terms(r, v_exp, 1.0)
    for u in grid_units:
        col, kw = capacity(u)
        m.add_terms(r, col, -h * kw)

    # -- balances ------------------------------------------------------------
    sh = base.get("space_heat", zeros)
    hw = base.get("hot_water", zeros)
    el = base.get("electricity", zeros)
    cool = base.get("cooling", None)

    r_heat = m.add_rows([("balance", "heat", s) for s in step_range], 0.0, 0.0)
    r_el = m.add_rows([("balance", "electricity", s) for s in step_range], el, el)
    r_cool = None
    if cool is not None:
        r_cool = m.add_rows([("balance", "cooling", s) for s in step_range], cool, cool)
    r_fuel = {c: m.add_rows([("fuel", c, s) for s in step_range], 0.0, 0.0)
              for c in carriers}

    # variant-conditional heat demand on the heat balance
    for ir in admissible:
        d_sh = variant_delta_factor(cat, current_ir, ir, "space_heat")
        d_hw = variant_delta_factor(cat, current_ir, ir, "hot_water")
        m.add_terms(r_heat, v_variant[ir], -(sh * d_sh + hw * d_hw))

    bus_rows = {"heat": r_heat, "electricity": r_el, "cooling": r_cool}
    for u in units:
        spec = u.spec
        if spec.kind == KIND_CONVERTER:
            out_ids = v_out[u.key]
            eff = np.array([spec.efficiency_at(s) for s in seasons])
            rows = bus_rows.get(spec.output)
            if rows is not None:
                m.add_terms(rows, out_ids, 1.0)
            if spec.byproduct is not None:
                bp_rows = bus_rows.get(spec.byproduct[0])
                if bp_rows is not None:
                    m.add_terms(bp_rows, out_ids, spec.byproduct[1])
            if spec.carrier == "electricity":
                m.add_terms(r_el, out_ids, -1.0 / eff)
            elif spec.carrier in r_fuel:
                m.add_terms(r_fuel[spec.carrier], out_ids, -1.0 / eff)
        elif spec.kind == KIND_STORAGE:
            rows = bus_rows.get(spec.output)
            if rows is not None:
                m.add_terms(rows, v_dis[u.key], 1.0)
                m.add_terms(rows, v_ch[u.key], -1.0)

    for c in carriers:
        m.add_terms(r_fuel[c], v_imp[c], 1.0)
    m.add_terms(r_el, v_imp["electricity"], 1.0)
    m.add_terms(r_el, v_exp, -1.0)

    # -- objective -------------------------------------------------------------
    table = np.concatenate(accounts, axis=1)  # one contiguous row per account
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
        options={
            "objective_mode": objective_mode,
            "allow_refurb": allow_refurb,
            "allow_plant_change": allow_plant_change,
            "include_transition_costs": include_transition_costs,
            "size_grid": {k: tuple(v) for k, v in size_grid.items()},
        },
        alive=alive, units=units, var_keys=m.var_keys, row_keys=m.row_keys,
        cols={"keep": np.array(v_keep, dtype=int), "drop": np.array(v_drop, dtype=int),
              "variant": v_variant, "inst": v_inst, "size": v_size, "out": v_out,
              "imp": v_imp, "exp": v_exp,
              "soc": np.concatenate([np.empty(0, dtype=int), *v_soc])},
        costs=costs, scopes=scopes, domain=np.array(domain),
    )


# ---------------------------------------------------------------------------
# Extraction and verification


def _label(key: tuple) -> str:
    """A column or row key as text: ``("cap", "x0:gas_boiler", 3)`` reads
    ``cap[x0:gas_boiler,3]``."""
    tag, *rest = key
    return f"{tag}[{','.join(map(str, rest))}]" if rest else tag


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

    cols = arts.cols
    ints = np.flatnonzero(arts.request.integrality)
    fractional = np.abs(x[ints] - np.round(x[ints])) > BINARY_TOL
    if fractional.any():
        j = ints[np.argmax(fractional)]
        raise ModelError(f"binary {_label(arts.var_keys[j])} is fractional: {x[j]}")
    chosen = np.flatnonzero(x[cols["variant"]] > 0.5)
    if len(chosen) != 1:
        raise ModelError(f"{len(chosen)} refurbishment variants selected, expected one")
    variant_index = int(chosen[0])

    def step_total(ids: np.ndarray) -> float:
        # summed in step order: a dot product rounds differently
        return float(np.cumsum(x[ids] * w)[-1])

    imports = {c: step_total(ids) for c, ids in cols["imp"].items()}
    export = step_total(cols["exp"])
    # a float even without PV units, so that the document writes 0.0
    pv_gen = sum((step_total(cols["out"][u.key]) for u in arts.units
                  if u.spec.carrier == "solar" and u.spec.output == "electricity"), 0.0)
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

    return BuildingSolution(
        objective=float(outcome.objective if outcome.objective is not None else recon),
        variant_index=variant_index,
        new_components=variant_components(variant_index & ~arts.building.variant_index),
        kept=tuple(arts.alive[i] for i in np.flatnonzero(x[cols["keep"]] > 0.5)),
        dropped=tuple(arts.alive[i] for i in np.flatnonzero(x[cols["drop"]] > 0.5)),
        installed=tuple((tid, float(x[cols["size"][tid]]))
                        for tid, j in cols["inst"].items() if x[j] > 0.5),
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
        status=outcome.status,
        gap=outcome.gap,
    )


def check_solution(arts: ModelArtifacts, x: np.ndarray) -> list[str]:
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
    slack = np.maximum(1e-7, ROW_REL_TOL * scale)

    tags = np.array([key[0] for key in arts.row_keys], dtype=object)
    balance = np.isin(tags, ("balance", "fuel"))
    area = np.isin(tags, ("roof_area", "open_space_area"))
    residual = np.abs(act - lo)
    broken = np.select(
        [balance, tags == "soc_tr", area, tags == "parallel_limit",
         tags == "keepdrop", tags == "variant_choice"],
        [residual > ROW_REL_TOL * scale,
         residual > SOC_TOL_KWH,
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

    soc = arts.cols["soc"]
    for idx in soc[x[soc] < -SOC_TOL_KWH]:
        violations.append(f"{_label(arts.var_keys[idx])}: negative charge {float(x[idx]):.3e}")
    return violations


def lp_guided_start(arts: ModelArtifacts) -> np.ndarray | None:
    """A plan for the MILP to start from, found by LP solves alone; None
    when no candidate's install column is free or no plan is found.

    1. Solve the LP relaxation.
    2. Fix every integer column but the install binaries to its rounded LP
       value; of the variants, the one with the largest LP value.
    3. Install each candidate whose LP size is positive.  While the LP
       with every integer column fixed is infeasible, drop the least-used
       installed candidate (smallest LP install value).
    4. Try dropping each installed candidate once, least-used first, and
       keep a drop when the fixed LP's objective falls.

    The result is the last feasible fixed LP's solution: every integer
    column at an integer, every row as the LP left it.

    Measured with scipy 1.17.1 and HiGHS 1.12.0 on 2 vCPUs, replaying the
    free MILPs and re-solves of serial pathway runs (process time,
    median of 5 rounds; 2 at 60 minutes), heuristic included:
    * fixtures 11 and 12 at 240 minutes (23 solves): 2.26 s without a
      start, 1.09 s plus 0.42 s of heuristic with it (0.67x).  Nodes
      fell from 411 to 249 and LP iterations from 15,375 to 9,335.  The
      start was the optimum in 19 solves, within 0.3 % in 2, 12-13 % off
      in 2, and never missing;
    * held-out fixtures 13 and 14 (24 solves): 0.68x, nodes 478 to 296;
    * fixtures 11 and 12 at 60 minutes: 12.47 s against 6.21 s plus
      3.14 s (0.75x), nodes 674 to 275, the start optimal in 21 of 23.
    Without step 4 the start was optimal in 6 of 23 (2 of 23 at 60
    minutes) and the replays took 0.70x to 0.82x.  Ordering by LP size
    instead of LP install value took 0.63x against 0.64x at 240 minutes
    but 0.72x against 0.63x at 60.
    """
    req = arts.request
    inst = np.fromiter(arts.cols["inst"].values(), dtype=np.int64)
    if not (req.var_lb[inst] < req.var_ub[inst]).any():
        return None
    try:
        lp = Relaxation(req)
    except SolverError:
        return None  # solve reports what HiGHS cannot take
    relaxed = lp.run()
    if relaxed is None:
        return None
    x = relaxed[1]
    ints = np.flatnonzero(req.integrality)
    fixed = np.clip(np.round(x), req.var_lb, req.var_ub)
    variant = arts.cols["variant"]
    fixed[variant] = 0.0
    fixed[variant[np.argmax(x[variant])]] = 1.0
    # keep and drop of a unit rounded on their own could both read 0 (0.5 each)
    fixed[arts.cols["drop"]] = 1.0 - fixed[arts.cols["keep"]]
    size = np.fromiter(arts.cols["size"].values(), dtype=np.int64)
    # installed candidates, least-used first
    installed = [k for k in np.argsort(x[inst], kind="stable") if x[size[k]] > USE_TOL]

    def fixed_lp(candidates: list) -> tuple[float, np.ndarray] | None:
        fixed[inst] = 0.0
        fixed[inst[candidates]] = 1.0
        lp.bound(ints, fixed[ints], fixed[ints])
        return lp.run()

    best = fixed_lp(installed)
    while best is None and installed:
        installed = installed[1:]
        best = fixed_lp(installed)
    if best is None:
        return None
    for k in list(installed):
        trial = fixed_lp([j for j in installed if j != k])
        if trial is not None and trial[0] < best[0]:
            installed.remove(k)
            best = trial
    return best[1]


def optimize_building(
    building: Building,
    cat: Catalog,
    scenario: ScenarioFrame,
    grid: TimeGrid,
    *,
    target_year: int,
    period_years: int,
    params: dict | None = None,
    **options,
) -> tuple[ModelArtifacts, SolveOutcome, BuildingSolution]:
    """Build, solve, and interpret one building's stage problem."""
    arts = build_model(
        building, cat, scenario, grid,
        target_year=target_year, period_years=period_years, **options,
    )
    outcome = solve(arts.request, params=params, start=lp_guided_start(arts))
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
