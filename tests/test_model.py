"""Per-building MILP: hand oracles, structure, verification, invariances."""

import dataclasses
import hashlib

import numpy as np
import pytest

from munipath.catalog import (
    annuity_factor,
    residual_value,
    restrict_catalog,
)
from munipath.model import (
    BOUND_TOL,
    InfeasibleBuildingError,
    ModelError,
    build_model,
    check_solution,
    extract_solution,
    lp_guided_start,
    optimize_building,
)
from munipath.fixtures import make_fixture_twin
from munipath.solver import SolveStatus, _colwise, solve
from munipath.twin import (
    Building,
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
        demand={"space_heat": (annual_heat_kwh / 365.0,)},
        variant_index=15,
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
    w = ONE_STEP.step_weights()
    assert sum(float(sol.x[ids] @ w) for ids in arts.cols["out"].values()) \
        == pytest.approx(heat, rel=1e-9)
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

    current = b.variant_index
    for idx, kind in enumerate(arts.var_keys):
        if kind[0] == "variant":
            admissible = kind[1] & current == current
            assert req.var_ub[idx] == (1.0 if admissible else 0.0)

    choice = [i for i, k in enumerate(arts.row_keys) if k[0] == "variant_choice"]
    assert len(choice) == 1
    assert req.row_lb[choice[0]] == req.row_ub[choice[0]] == 1.0


def test_variant_capex_charges_only_the_components_a_variant_adds(cat, scen):
    twin = make_fixture_twin(5, seed=11, grid=TimeGrid.representative_days(240))
    b = twin.buildings[4]
    assert b.variant_index == 1  # the roof is done
    arts = build_model(b, cat, scen, twin.grid, target_year=2030, period_years=7)
    variant = arts.cols["variant"]

    def annual(name):
        r = cat.refurb[name]
        return annuity_factor(cat.discount_rate, r.lifetime) * r.cost_per_m2 * r.area(b)

    # the done roof never bills again, and no variant may drop it
    assert arts.costs.capex[variant[1]] == 0.0
    assert arts.costs.capex[variant[3]] == pytest.approx(annual("wall"), rel=1e-12)
    assert arts.costs.capex[variant[15]] == pytest.approx(
        annual("wall") + annual("window") + annual("cellar"), rel=1e-12)
    assert arts.request.var_ub[variant[0]] == 0.0


def test_a_free_envelope_component_still_carries_its_embodied_emissions(cat, scen):
    # a roof subsidised down to no cost still has its embodied emissions
    roof = dataclasses.replace(cat.refurb["roof"], cost_per_m2=0.0)
    free_roof = dataclasses.replace(cat, refurb={**cat.refurb, "roof": roof})
    twin = make_fixture_twin(1, seed=11)
    b = twin.buildings[0]
    assert b.variant_index == 0
    arts = build_model(b, free_roof, scen, twin.grid, target_year=2030, period_years=7)
    roof_only = arts.cols["variant"][1]
    assert arts.costs.capex[roof_only] == 0.0
    # 18 kg/m2 embodied over 95.9 m2 of roof, written off over 40 years
    assert (roof.embodied_per_m2, roof.area(b), roof.lifetime) == (18.0, 95.9, 40)
    assert arts.scopes[2, roof_only] == pytest.approx(43.155, rel=1e-12)


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

    def short_of_heat(request, params=None, start=None):
        out = real_solve(request, params=params)
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


def _key_scan(arts, x):
    """The plan read off every column by its key alone, summing each step
    total in step order."""
    w = arts.grid.step_weights()
    kept, dropped, chosen, size = [], [], [], {}
    out, imports, export = {}, {}, 0.0
    for j, key in enumerate(arts.var_keys):
        tag = key[0]
        if tag == "keep" and x[j] > 0.5:
            kept.append(arts.alive[key[1]])
        elif tag == "drop" and x[j] > 0.5:
            dropped.append(arts.alive[key[1]])
        elif tag == "inst" and x[j] > 0.5:
            chosen.append(key[1])
        elif tag == "size":
            size[key[1]] = float(x[j])
        elif tag == "out":
            out[key[1]] = out.get(key[1], 0.0) + float(x[j]) * w[key[2]]
        elif tag == "imp":
            imports[key[1]] = imports.get(key[1], 0.0) + float(x[j]) * w[key[2]]
        elif tag == "exp":
            export += float(x[j]) * w[key[1]]
    installed = tuple((tid, size[tid]) for tid in sorted(chosen))
    return tuple(kept), tuple(dropped), installed, out, imports, export


@pytest.mark.parametrize("minutes", [240, 60])
@pytest.mark.parametrize("options", [
    dict(allow_refurb=False, allow_plant_change=False), {}], ids=["frozen", "free"])
def test_extraction_by_family_equals_a_key_scan(cat, scen, minutes, options):
    twin = make_fixture_twin(3, seed=11, grid=TimeGrid.representative_days(minutes))
    for b in twin.buildings:
        arts = build_model(b, cat, scen, twin.grid, target_year=2023, period_years=7,
                           **options)
        outcome = solve(arts.request, params={"mip_gap": 1e-4})
        plans = [outcome]
        if not options:
            # no fixture optimum drops a unit: read one that drops the first
            x = np.array(outcome.x)
            x[arts.cols["keep"][0]], x[arts.cols["drop"][0]] = 0.0, 1.0
            plans.append(dataclasses.replace(outcome, x=x, objective=None))
        for plan in plans:
            sol = extract_solution(arts, plan)
            kept, dropped, installed, out, imports, export = _key_scan(arts, sol.x)
            assert sol.kept == kept and sol.dropped == dropped
            assert sol.installed == installed
            # a unit key reads "x0:pv" or "n:pv"
            specs = {key: cat.tech(key.split(":", 1)[1]) for key in out}
            pv = sum((out[key] for key, spec in specs.items()
                      if spec.carrier == "solar" and spec.output == "electricity"), 0.0)
            assert isinstance(sol.pv_generation, float) and sol.pv_generation == pv
            assert sol.imports == imports
            assert sol.export == export
        if not options:
            assert sol.dropped == (arts.alive[0],)


def test_extraction_needs_exactly_one_variant(cat, scen, twin20):
    b = next(b for b in twin20.buildings if b.variant_index == 0)
    arts = build_model(b, cat, scen, twin20.grid, target_year=2030, period_years=7)
    outcome = solve(arts.request)
    variants = arts.cols["variant"]
    for picked in ((0, 1), ()):
        x = np.array(outcome.x)
        x[variants] = 0.0
        x[variants[list(picked)]] = 1.0
        bad = dataclasses.replace(outcome, x=x, objective=None)
        with pytest.raises(ModelError, match=f"{len(picked)} refurbishment variants"):
            extract_solution(arts, bad)


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
        _boiler_building(), demand={"space_heat": (120.0, 0.0)},
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
        demand={"electricity": tuple(float(v) for v in el)},
        variant_index=15,
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


# SHA-256 of each role's request for building b002 (a gas boiler and a buffer
# tank) of the 2-building 240-minute fixture, seed 11: a formulation change
# must update these on purpose.
PINNED_REQUESTS = {
    "frozen": "ed8ce727b8e7a1106b531f4b043edee7a9d4aacb08b77909bbaafcad42430568",
    "free": "a67d6d5d3dced1f1cbe70c8b5259b729aa1ebbaf2d53e547d2529faab1f00365",
    "additions_only": "0ab3f32c4042132e3839c0b1fecff294fe4b2715a000ca7c343e5d4659de12fa",
}


@pytest.mark.parametrize("role, options", [
    ("frozen", dict(allow_refurb=False, allow_plant_change=False)),
    ("free", {}),
    ("additions_only", dict(allow_plant_change="additions_only")),
])
def test_build_model_request_is_pinned(cat, scen, role, options):
    twin = make_fixture_twin(2, seed=11, grid=TimeGrid.representative_days(240))
    arts = build_model(twin.building("b002"), cat, scen, twin.grid,
                       target_year=2030, period_years=7, **options)
    req = arts.request
    digest = hashlib.sha256(repr((arts.var_keys, arts.row_keys)).encode())
    for part in (req.obj, req.var_lb, req.var_ub, req.row_lb, req.row_ub,
                 req.integrality, *_colwise(req)):
        digest.update(part.tobytes())  # native byte order: little-endian
    assert digest.hexdigest() == PINNED_REQUESTS[role]


# ---------------------------------------------------------------------------
# The LP-guided start of free MILPs and re-solves


def _b001_free_2030(cat, scen):
    twin = make_fixture_twin(5, seed=11, grid=TimeGrid.representative_days(240))
    return build_model(twin.building("b001"), cat, scen, twin.grid,
                       target_year=2030, period_years=7)


def test_an_optimal_start_reaches_highs(cat, scen):
    # solve's own column-wise arrays are named start, index, value: a start
    # lost on the way to HiGHS would change nothing here
    arts = _b001_free_2030(cat, scen)
    params = {"mip_gap": 1e-4}
    cold = solve(arts.request, params)
    warm = solve(arts.request, params, start=cold.x)
    assert cold.nodes > 0
    assert warm.status is SolveStatus.OPTIMAL
    assert (warm.nodes, warm.lp_iterations) < (cold.nodes, cold.lp_iterations)
    assert warm.nodes < cold.nodes or warm.lp_iterations < cold.lp_iterations
    assert warm.objective == pytest.approx(cold.objective, rel=1e-4)


def test_a_start_that_breaks_a_row_changes_nothing(cat, scen):
    # every admissible variant at once breaks variant_choice; HiGHS drops
    # such a start and runs the same search as without one
    arts = _b001_free_2030(cat, scen)
    cold = solve(arts.request, {"mip_gap": 1e-4})
    bad = cold.x.copy()
    variant = arts.cols["variant"]
    bad[variant[arts.request.var_ub[variant] > 0]] = 1.0
    assert any(v.startswith("variant_choice") for v in check_solution(arts, bad))
    broken = solve(arts.request, {"mip_gap": 1e-4}, start=bad)
    assert (broken.status, broken.objective, broken.nodes, broken.lp_iterations) == (
        cold.status, cold.objective, cold.nodes, cold.lp_iterations)
    assert np.array_equal(broken.x, cold.x)


_ROLES = {
    "free": (dict(), True),
    "resolve_no_refurb": (dict(allow_refurb=False), True),
    "resolve_additions": (dict(allow_plant_change="additions_only"), True),
    "resolve_neither": (dict(allow_refurb=False, allow_plant_change="additions_only"), True),
    "frozen": (dict(allow_refurb=False, allow_plant_change=False), False),
    "status_quo": (dict(allow_refurb=False, allow_plant_change=False,
                        include_transition_costs=False), False),
}


@pytest.mark.parametrize("resolution", [240, 60])
def test_lp_guided_start_is_a_plan(cat, scen, resolution):
    twin = make_fixture_twin(5, seed=11, grid=TimeGrid.representative_days(resolution))
    for b in twin.buildings:
        for role, (options, gets_start) in _ROLES.items():
            arts = build_model(b, cat, scen, twin.grid, target_year=2030,
                               period_years=1 if role == "status_quo" else 7, **options)
            x = lp_guided_start(arts)
            if not gets_start:
                assert x is None, (b.id, role)
                continue
            assert x is not None, (b.id, role)
            req = arts.request
            # within the tolerance extract_solution grants a solver's vector
            outside = np.maximum(req.var_lb - x, x - req.var_ub)
            assert outside.max() <= BOUND_TOL, (b.id, role)
            ints = x[req.integrality]
            assert np.array_equal(ints, np.round(ints)), (b.id, role)
            assert check_solution(arts, x) == [], (b.id, role)


def test_optimize_building_starts_only_free_models(cat, scen, monkeypatch):
    import munipath.model

    starts = []
    real_solve = munipath.model.solve

    def spy(request, params=None, start=None):
        starts.append(start)
        return real_solve(request, params=params, start=start)

    monkeypatch.setattr(munipath.model, "solve", spy)
    twin = make_fixture_twin(5, seed=11, grid=TimeGrid.representative_days(240))
    b = twin.building("b002")
    optimize_building(b, cat, scen, twin.grid, target_year=2030, period_years=7)
    optimize_building(b, cat, scen, twin.grid, target_year=2030, period_years=7,
                      allow_refurb=False, allow_plant_change=False)
    assert starts[0] is not None and starts[1] is None


def test_a_model_highs_rejects_gets_no_start(cat, scen):
    # a NaN bound makes HiGHS reject the model; solve files that as FAILED
    # (optimize_building: a failed building), so the start must not raise
    arts = _b001_free_2030(cat, scen)
    var_ub = arts.request.var_ub.copy()
    var_ub[arts.cols["inst"]["pv"]] = np.nan
    arts.request = dataclasses.replace(arts.request, var_ub=var_ub)
    assert lp_guided_start(arts) is None
    assert solve(arts.request).status is SolveStatus.FAILED
