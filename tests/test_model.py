"""Per-building MILP: hand oracles, structure, verification, invariances."""

import dataclasses

import numpy as np
import pytest

from munipath.catalog import (
    annuity_factor,
    residual_value,
    restrict_catalog,
)
from munipath.model import (
    InfeasibleBuildingError,
    ModelError,
    build_model,
    check_solution,
    extract_solution,
    optimize_building,
)
from munipath.solver import solve
from munipath.twin import (
    Building,
    DemandProfile,
    RefurbState,
    TechnologyInstance,
    TimeGrid,
    remaining_lifetime,
)

from oracles import build_toy_model, enumerate_building_optimum, make_toy_instance, toy_grid

ONE_STEP = TimeGrid(1440, ((15, 365.0),))  # one winter step covering the year


def _boiler_building(annual_heat_kwh: float = 2190.0) -> Building:
    # fully refurbished so the variant layer is pinned; plant frozen by options
    return Building(
        id="hand", location=(9.7, 50.5), building_type="residential",
        construction_year=1995, roof_area=120.0, open_space_area=0.0,
        demand={"space_heat": DemandProfile((annual_heat_kwh / 365.0,), 1440)},
        refurb_state=RefurbState(True, True, True, True),
        installed=(TechnologyInstance("gas_boiler", 10.0, 2015),),
    )


def _frozen(b, cat, scen, **kw):
    return optimize_building(
        b, cat, scen, ONE_STEP, target_year=2030, period_years=7,
        allow_refurb=True, allow_plant_change=False, **kw)


# ---------------------------------------------------------------------------
# Hand-computed oracles on a one-step model


def test_frozen_boiler_cost_oracle(cat, scen):
    b = _boiler_building()
    spec = cat.tech("gas_boiler")
    arts, outcome, sol = _frozen(b, cat, scen)

    heat = 2190.0
    eta = spec.efficiency_at("winter")
    fuel = heat / eta
    opex = (spec.opex_fixed * 10.0 + spec.opex_var * heat
            + scen.price_at("gas", 2030) / 100.0 * fuel)
    remaining = remaining_lifetime(b.installed[0], spec.lifetime, 2030)
    resid = (annuity_factor(cat.discount_rate, 7)
             * residual_value(spec.capex_total(10.0), spec.lifetime, remaining))
    assert remaining > 0  # the unit is still on the books in 2030

    assert sol.objective == pytest.approx(opex - resid, rel=1e-9)
    assert sol.breakdown.opex == pytest.approx(opex, rel=1e-9)
    assert sol.breakdown.residual_value == pytest.approx(resid, rel=1e-9)
    assert sol.breakdown.capex == 0.0
    assert sol.breakdown.deconstruction == 0.0
    assert sol.breakdown.objective == pytest.approx(sol.objective, rel=1e-9)

    assert sol.imports == pytest.approx({"gas": fuel, "electricity": 0.0})
    assert sum(sol.annual_output.values()) == pytest.approx(heat, rel=1e-9)
    assert sol.kept == b.installed
    assert sol.dropped == () and sol.installed == ()
    assert sol.variant_index == 15 and sol.new_components == ()
    assert sol.demand_after["space_heat"] == pytest.approx(heat, rel=1e-12)
    assert sol.export == 0.0 and sol.pv_generation == 0.0


def test_frozen_boiler_emission_oracle(cat, scen):
    b = _boiler_building()
    spec = cat.tech("gas_boiler")
    _, _, sol = _frozen(b, cat, scen, objective_mode="emission")

    fuel = 2190.0 / spec.efficiency_at("winter")
    scope1 = scen.emission_factor_at("gas", 2030) / 1000.0 * fuel
    assert sol.objective == pytest.approx(scope1, rel=1e-9)
    assert sol.emissions["scope1"] == pytest.approx(scope1, rel=1e-9)
    assert sol.emissions["scope2"] == 0.0
    assert sol.emissions["scope3"] == 0.0
    assert sol.emissions["total"] == pytest.approx(scope1, rel=1e-9)


def test_weighted_mode_prices_carbon(cat, scen):
    b = _boiler_building()
    _, _, cost_sol = _frozen(b, cat, scen)
    _, _, weighted_sol = _frozen(b, cat, scen, objective_mode="weighted")
    expected = (cost_sol.breakdown.objective
                + scen.co2_price_at(2030) / 1000.0 * cost_sol.emissions["total"])
    assert weighted_sol.objective == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# Model structure


def test_structure_rows_and_variant_bounds(cat, scen, twin20):
    b = twin20.buildings[0]
    arts = build_model(b, cat, scen, twin20.grid, target_year=2030, period_years=7)
    req = arts.request

    assert len(arts.var_keys) == req.n_vars and len(arts.row_keys) == req.n_rows
    keepdrop = [k for k in arts.row_keys if k[0] == "keepdrop"]
    assert len(keepdrop) == len(arts.alive)

    par = [i for i, k in enumerate(arts.row_keys) if k[0] == "parallel_limit"]
    assert len(par) == 1
    assert req.row_ub[par[0]] == float(scen.max_parallel_retrofits)

    current = b.refurb_state.variant_index
    for idx, kind in enumerate(arts.var_keys):
        if kind[0] == "variant":
            admissible = kind[1] & current == current
            assert req.var_ub[idx] == (1.0 if admissible else 0.0)

    choice = [i for i, k in enumerate(arts.row_keys) if k[0] == "variant_choice"]
    assert len(choice) == 1
    assert req.row_lb[choice[0]] == req.row_ub[choice[0]] == 1.0


def test_check_solution_accepts_optimum_and_flags_tampering(cat, scen):
    rng = np.random.default_rng(21)
    building, toy_cat, grid, size_grid = make_toy_instance(rng, cat)
    arts = build_toy_model(building, toy_cat, grid, size_grid, scen)
    outcome = solve(arts.request)
    assert outcome.ok
    assert check_solution(arts, outcome.x) == []

    x = np.array(outcome.x)
    keep_idx = [i for i, k in enumerate(arts.var_keys) if k[0] == "keep"]
    if keep_idx:
        x[keep_idx[0]] = 1.0 - x[keep_idx[0]]  # break keep/dismantle exclusivity
        expected = "keepdrop[0]: sum"
    else:
        x[[i for i, k in enumerate(arts.var_keys) if k[0] == "variant"][0]] += 1.0
        expected = "variant_choice: sum"
    violations = check_solution(arts, x)
    assert any(v.startswith(expected) for v in violations), violations


def test_accepted_solve_is_checked_against_its_rows(cat, scen, monkeypatch):
    # the solver claims an optimum that lets the boiler fall short of the
    # heat demand: bounds, integrality and closure hold, the balance does not
    import munipath.model

    b = _boiler_building()
    arts = build_model(b, cat, scen, ONE_STEP, target_year=2030, period_years=7,
                       allow_refurb=True, allow_plant_change=False)
    (j,) = [i for i, k in enumerate(arts.var_keys) if k[0] == "out"]
    real_solve = munipath.model.solve

    def short_of_heat(request, backend=None, params=None):
        out = real_solve(request, backend=backend, params=params)
        x = np.array(out.x)
        x[j] *= 0.5
        return dataclasses.replace(out, x=x, objective=None)

    monkeypatch.setattr(munipath.model, "solve", short_of_heat)
    with pytest.raises(ModelError, match=r"'hand'.*balance\[heat,0\]: residual"):
        _frozen(b, cat, scen)


def test_extraction_rejects_fractional_binaries(cat, scen):
    rng = np.random.default_rng(22)
    building, toy_cat, grid, size_grid = make_toy_instance(rng, cat)
    arts = build_toy_model(building, toy_cat, grid, size_grid, scen)
    outcome = solve(arts.request)
    x = np.array(outcome.x)
    # an admissible variant, so 0.5 lies within its bounds
    var_idx = [i for i, k in enumerate(arts.var_keys)
               if k[0] == "variant" and arts.request.var_ub[i] == 1.0]
    x[var_idx[0]] = 0.5
    bad = dataclasses.replace(outcome, x=x, objective=None)
    with pytest.raises(ModelError, match="fractional"):
        extract_solution(arts, bad)


def test_extraction_projects_round_off_onto_bounds(cat, scen):
    rng = np.random.default_rng(21)
    building, toy_cat, grid, size_grid = make_toy_instance(rng, cat)
    arts = build_toy_model(building, toy_cat, grid, size_grid, scen)
    outcome = solve(arts.request)
    clean = extract_solution(arts, outcome)
    unused = [j for j, k in enumerate(arts.var_keys)
              if k[0] == "size" and outcome.x[j] == 0.0 and arts.costs.capex[j] > 0.0]
    assert unused, "the toy optimum installs every candidate"
    x = np.array(outcome.x)
    x[unused[0]] = -3e-12  # as HiGHS may return a zero-valued column
    noisy = extract_solution(arts, dataclasses.replace(outcome, x=x))
    assert noisy.breakdown.capex == clean.breakdown.capex
    assert noisy.breakdown.capex >= 0.0
    assert noisy.x[unused[0]] == 0.0
    x[unused[0]] = -1e-3  # far beyond round-off: the solve is not trusted
    with pytest.raises(ModelError, match="outside its bounds"):
        extract_solution(arts, dataclasses.replace(outcome, x=x))


# ---------------------------------------------------------------------------
# Infeasibility surfaces


def test_undersized_frozen_plant_is_infeasible(cat, scen):
    b = _boiler_building(annual_heat_kwh=10.0e6)  # far beyond 10 kW of boiler
    with pytest.raises(InfeasibleBuildingError) as err:
        _frozen(b, cat, scen)
    assert err.value.building_id == "hand"


def test_missing_plant_is_infeasible(cat, scen):
    b = dataclasses.replace(_boiler_building(), installed=())
    with pytest.raises(InfeasibleBuildingError):
        _frozen(b, cat, scen)


def test_buffered_boiler_covers_a_peak_above_its_nameplate(cat, scen):
    # 120 kWh, then 0 kWh, in two 12-hour steps: the 10 kW peak exceeds the
    # 6 kW boiler, and the buffer tank charged in the quiet step covers it
    grid = TimeGrid(720, ((15, 365.0),))
    b = dataclasses.replace(
        _boiler_building(), demand={"space_heat": DemandProfile((120.0, 0.0), 720)},
        installed=(TechnologyInstance("gas_boiler", 6.0, 2015),
                   TechnologyInstance("buffer_tank", 100.0, 2015)))
    arts, outcome, _ = optimize_building(
        b, cat, scen, grid, target_year=2030, period_years=7,
        allow_refurb=True, allow_plant_change=False)
    value = dict(zip(arts.var_keys, outcome.x))
    assert value[("out", "x0:gas_boiler", 0)] == pytest.approx(72.0)
    assert value[("dis", "x1:buffer_tank", 0)] == pytest.approx(48.0)


def test_invalid_options_raise(cat, scen):
    b = _boiler_building()
    with pytest.raises(ModelError):
        build_model(b, cat, scen, ONE_STEP, target_year=2030, period_years=7,
                    objective_mode="profit")
    with pytest.raises(ModelError):
        build_model(b, cat, scen, ONE_STEP, target_year=2030, period_years=0)


# ---------------------------------------------------------------------------
# Optimization invariants


def test_refurbishment_option_never_hurts(cat, scen):
    rng = np.random.default_rng(31)
    for _ in range(3):
        building, toy_cat, grid, size_grid = make_toy_instance(rng, cat)
        kw = dict(target_year=2030, period_years=7, size_grid=size_grid,
                  params={"mip_gap": 1e-9})
        _, _, free = optimize_building(building, toy_cat, scen, grid,
                                       allow_refurb=True, **kw)
        _, _, pinned = optimize_building(building, toy_cat, scen, grid,
                                         allow_refurb=False, **kw)
        assert free.objective <= pinned.objective + 1e-6 * abs(pinned.objective)


def test_argmin_invariant_under_objective_scaling(cat, scen):
    rng = np.random.default_rng(32)
    building, toy_cat, grid, size_grid = make_toy_instance(rng, cat)
    arts = build_toy_model(building, toy_cat, grid, size_grid, scen)
    req = arts.request
    lam = 3.7
    tight = {"mip_gap": 1e-9}
    a = solve(req, params=tight)
    s = solve(dataclasses.replace(req, obj=req.obj * lam), params=tight)
    assert a.status is s.status
    # the scaled argmin solves the original problem too
    assert s.objective == pytest.approx(lam * a.objective, rel=1e-7)
    value_of_s = float(req.obj @ s.x)
    assert value_of_s == pytest.approx(a.objective, rel=1e-7)


def test_pv_generation_capped_by_availability(cat, scen):
    small = restrict_catalog(cat, ["pv", "grid_connection", "battery"])
    grid = toy_grid()
    el = 0.8 + 0.4 * np.sin(np.arange(grid.steps) / 3.0) ** 2
    b = Building(
        id="sunny", location=(9.0, 50.0), building_type="commercial",
        construction_year=2005, roof_area=400.0, open_space_area=0.0,
        demand={"electricity": DemandProfile(tuple(float(v) for v in el), 120)},
        refurb_state=RefurbState(True, True, True, True),
        installed=(TechnologyInstance("grid_connection", 60.0, 2010),),
    )
    _, _, sol = optimize_building(
        b, small, scen, grid, target_year=2023, period_years=5)
    pv_size = dict(sol.installed).get("pv", 0.0)
    avail_cap = pv_size * float(grid.solar_availability() * grid.hours_per_step
                                @ grid.step_weights())
    assert sol.pv_generation <= avail_cap + 1e-6
    assert 0.0 <= sol.self_consumption <= 1.0
    assert sol.export <= sol.pv_generation + 1e-9


def test_size_grid_pins_candidate_sizes(cat, scen):
    rng = np.random.default_rng(33)
    for _ in range(3):
        building, toy_cat, grid, size_grid = make_toy_instance(rng, cat)
        _, _, sol = optimize_building(
            building, toy_cat, scen, grid, target_year=2030, period_years=7,
            size_grid=size_grid)
        for tid, size in sol.installed:
            if tid in size_grid:
                assert min(abs(size - lvl) for lvl in size_grid[tid]) < 1e-6


def test_model_optimum_matches_exhaustive_enumeration(cat, scen):
    rng = np.random.default_rng(34)
    for k in range(4):
        building, toy_cat, grid, size_grid = make_toy_instance(rng, cat)
        arts = build_toy_model(building, toy_cat, grid, size_grid, scen)
        best = enumerate_building_optimum(arts)
        out = solve(arts.request, params={"mip_gap": 1e-9})
        assert out.ok, f"instance {k}"
        assert best is not None
        assert out.objective == pytest.approx(best, rel=1e-6), f"instance {k}"
