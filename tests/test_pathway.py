"""Stage planning: budgets, scheduling, commitment, chain integrity."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from munipath import model, pathway, report
from munipath.catalog import CostBreakdown, variant_delta_factor
from munipath.docio import dumps
from munipath.fixtures import make_fixture_twin
from munipath.model import BuildingSolution
from munipath.pathway import (
    BUDGETED_KINDS,
    Measure,
    PathwayError,
    _assign_years,
    _commit,
    _split_measures,
    plan_pathway,
    plan_stage,
)
from munipath.report import path_document, stage_geojson
from munipath.scenario import cumulative_quota, retrofit_budgets
from munipath.solver import SolveOutcome, SolveStatus
from munipath.twin import (
    Building,
    EnergyTwin,
    TechnologyInstance,
    TimeGrid,
)

PARAMS = {"mip_gap": 1e-4}


@pytest.fixture(scope="module")
def twin6():
    return make_fixture_twin(6, seed=5)


@pytest.fixture(scope="module")
def path6(twin6, cat, scen):
    return plan_pathway(twin6, cat, scen, [2023, 2033], params=PARAMS)


# ---------------------------------------------------------------------------
# Shape and status quo


def test_pathway_shape(path6, twin6):
    assert path6.twin_id == twin6.twin_id
    assert path6.stage_years == (2023, 2033)
    assert len(path6.stages) == 2
    assert path6.stages[0].period_years == 0
    assert path6.stages[1].period_years == 10


def test_status_quo_stage_makes_no_decisions(path6, twin6):
    st0 = path6.stages[0]
    assert st0.measures == ()
    assert st0.denied == ()
    assert st0.budgets == {k: 0 for k in BUDGETED_KINDS}
    assert st0.realized_rates == {k: 0.0 for k in BUDGETED_KINDS}
    assert st0.twin_after.to_dict() == twin6.to_dict()
    ids = {b.id for b in twin6.buildings}
    assert set(st0.solutions) | set(st0.infeasible) == ids
    for sol in st0.solutions.values():
        # valuation of the stock as found: nothing changes hands
        assert sol.installed == () and sol.dropped == ()
        assert sol.new_components == ()


def test_every_building_accounted_for(path6, twin6):
    st1 = path6.stages[1]
    ids = {b.id for b in twin6.buildings}
    assert set(st1.solutions) | set(st1.infeasible) == ids
    assert not set(st1.solutions) & set(st1.infeasible)


# ---------------------------------------------------------------------------
# Budgets and denial bookkeeping


def test_stage_budgets_match_scenario(path6, scen):
    st1 = path6.stages[1]
    assert st1.budgets == retrofit_budgets(scen, 6, 10)
    assert st1.budgets == {"renovation": 1, "conversion": 2}


def test_voluntary_measures_respect_budgets(path6):
    st1 = path6.stages[1]
    for kind in BUDGETED_KINDS:
        vol = st1.measures_of(kind, voluntary_only=True)
        assert len(vol) <= st1.budgets[kind]


def test_denied_classes_do_not_reappear(path6):
    st1 = path6.stages[1]
    for bid, kind in st1.denied:
        leaked = [mm for mm in st1.measures
                  if mm.building_id == bid and mm.kind == kind and not mm.mandatory]
        assert leaked == []


def test_realized_rates_formula(path6):
    st1 = path6.stages[1]
    for kind in BUDGETED_KINDS:
        count = len(st1.measures_of(kind))
        assert st1.realized_rates[kind] == pytest.approx(count / 60.0)


def test_measures_consistent_with_solutions(path6, cat):
    st1 = path6.stages[1]
    for mm in st1.measures:
        sol = st1.solutions[mm.building_id]
        if mm.kind == "renovation":
            assert mm.new_components == sol.new_components
            assert mm.variant_index == sol.variant_index
        elif mm.kind == "conversion":
            assert all(cat.tech(t).is_heat_converter for t, _ in mm.installs)
        else:
            assert all(not cat.tech(t).is_heat_converter for t, _ in mm.installs)
        assert 2023 < mm.implementation_year <= 2033


# ---------------------------------------------------------------------------
# Chain verification


def test_chain_is_sound(path6):
    assert path6.verify_chain() == []


def test_chain_flags_out_of_window_years(path6):
    st1 = path6.stages[1]
    if not st1.measures:
        pytest.skip("stage committed no measures")
    bad_measures = (dataclasses.replace(st1.measures[0], implementation_year=2023),
                    ) + st1.measures[1:]
    tampered = dataclasses.replace(
        path6, stages=(path6.stages[0], dataclasses.replace(st1, measures=bad_measures)))
    assert any("outside" in p for p in tampered.verify_chain())


def test_chain_flags_budget_overrun(path6):
    st1 = path6.stages[1]
    flood = tuple(
        Measure(building_id=f"ghost{k}", kind="renovation", mandatory=False,
                decision_year=2033, implementation_year=2033,
                description="synthetic overrun", variant_index=15)
        for k in range(st1.budgets["renovation"] + 1))
    tampered = dataclasses.replace(
        path6, stages=(path6.stages[0],
                       dataclasses.replace(st1, measures=st1.measures + flood)))
    assert any("exceed" in p or "quota" in p for p in tampered.verify_chain())


def test_chain_flags_missing_install(path6):
    st1 = path6.stages[1]
    with_installs = [mm for mm in st1.measures if mm.installs]
    if not with_installs:
        pytest.skip("no install-bearing measures this stage")
    mm = with_installs[0]
    ghost = dataclasses.replace(mm, installs=(("fuel_cell", 123.456),))
    measures = tuple(m if m is not mm else ghost for m in st1.measures)
    tampered = dataclasses.replace(
        path6, stages=(path6.stages[0], dataclasses.replace(st1, measures=measures)))
    assert any("missing" in p for p in tampered.verify_chain())


# ---------------------------------------------------------------------------
# Year assignment


def _measure(bid, kind, *, mandatory=False, score=0.0):
    return Measure(building_id=bid, kind=kind, mandatory=mandatory,
                   decision_year=2033, implementation_year=2033,
                   description=kind, reduction_score=score)


def test_assign_years_fills_quota_slots_in_rank_order(scen):
    measures = [_measure("b", "conversion", score=5.0),
                _measure("a", "conversion", score=9.0),
                _measure("c", "conversion", score=1.0)]
    out = _assign_years(measures, y0=2023, y1=2033, n_buildings=30,
                        scenario=scen, building_expiry={})
    year_of = {mm.building_id: mm.implementation_year for mm in out}
    # quota floor(0.045*30*k): 1 slot after one year, 2 after two, 4 after three
    assert year_of == {"a": 2024, "b": 2025, "c": 2026}


def test_assign_years_raises_when_quota_never_opens(scen):
    with pytest.raises(PathwayError):
        _assign_years([_measure("a", "renovation")], y0=2023, y1=2028,
                      n_buildings=1, scenario=scen, building_expiry={})


def test_assign_years_mandatory_follows_expiry(scen):
    measures = [_measure("a", "conversion", mandatory=True),
                _measure("b", "conversion", mandatory=True),
                _measure("c", "conversion", mandatory=True)]
    out = _assign_years(measures, y0=2023, y1=2033, n_buildings=50, scenario=scen,
                        building_expiry={"a": 2027, "b": 2010, "c": 2050})
    year_of = {mm.building_id: mm.implementation_year for mm in out}
    assert year_of == {"a": 2027, "b": 2024, "c": 2033}  # clamped into the window


def test_assign_years_additions_ride_along(scen):
    measures = [_measure("a", "conversion", mandatory=True),
                _measure("a", "addition"),
                _measure("z", "addition")]
    out = _assign_years(measures, y0=2023, y1=2033, n_buildings=50, scenario=scen,
                        building_expiry={"a": 2029})
    years = {(mm.building_id, mm.kind): mm.implementation_year for mm in out}
    assert years[("a", "addition")] == years[("a", "conversion")] == 2029
    assert years[("z", "addition")] == 2033  # no conversion to follow


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(span=st.integers(1, 12), n_buildings=st.integers(1, 60),
       caps=st.tuples(st.floats(0.005, 0.2), st.floats(0.005, 0.2)),
       data=st.data())
def test_assign_years_respects_the_cumulative_quota(scen, span, n_buildings, caps, data):
    y0, y1 = 2023, 2023 + span
    cap_of = dict(zip(BUDGETED_KINDS, caps))
    scenario = dataclasses.replace(scen, renovation_rate_cap=cap_of["renovation"],
                                   conversion_rate_cap=cap_of["conversion"])
    measures = []
    for kind in BUDGETED_KINDS:
        count = data.draw(st.integers(
            0, cumulative_quota(cap_of[kind], n_buildings, span)), label=kind)
        scores = data.draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
        measures += [_measure(f"{kind[0]}{i:02d}", kind, score=float(sc))
                     for i, sc in enumerate(scores)]
    out = _assign_years(measures, y0=y0, y1=y1, n_buildings=n_buildings,
                        scenario=scenario, building_expiry={})
    assert len(out) == len(measures)
    for kind in BUDGETED_KINDS:
        ranked = sorted((mm for mm in out if mm.kind == kind),
                        key=lambda mm: (-mm.reduction_score, mm.building_id))
        for j, mm in enumerate(ranked, start=1):
            first_open = min(y for y in range(y0 + 1, y1 + 1)
                             if cumulative_quota(cap_of[kind], n_buildings, y - y0) >= j)
            assert mm.implementation_year == first_open
        for k in range(1, span + 1):
            done = sum(mm.implementation_year <= y0 + k for mm in ranked)
            assert done <= cumulative_quota(cap_of[kind], n_buildings, k)


# ---------------------------------------------------------------------------
# Measure splitting and commitment


def _stub_solution(b: Building, **overrides) -> BuildingSolution:
    fields = dict(
        objective=0.0,
        variant_index=b.variant_index, new_components=(),
        kept=b.installed, dropped=(), installed=(),
        imports={}, export=0.0, pv_generation=0.0,
        self_consumption=0.0, breakdown=CostBreakdown(),
        breakdown_by_domain={}, emissions={"scope1": 0.0, "scope2": 0.0,
                                           "scope3": 0.0, "total": 0.0},
        demand_after={}, model_options={}, x=np.zeros(1),
    )
    fields.update(overrides)
    return BuildingSolution(**fields)


def _one_building_twin(cat) -> EnergyTwin:
    grid = TimeGrid(1440, ((15, 365.0),))
    b = Building(
        id="solo", location=(9.5, 50.2), building_type="residential",
        construction_year=1970, roof_area=90.0, open_space_area=0.0,
        demand={"space_heat": (30.0,), "electricity": (6.0,)},
        variant_index=1,  # the roof is done
        installed=(TechnologyInstance("gas_boiler", 12.0, 2013),
                   TechnologyInstance("grid_connection", 30.0, 2005)),
    )
    return EnergyTwin(meta={"id": "solo-twin"}, grid=grid, buildings=(b,))


def test_split_measures_three_way(cat):
    twin = _one_building_twin(cat)
    b = twin.buildings[0]
    sol = _stub_solution(
        b,
        variant_index=3, new_components=("wall",),
        installed=(("air_source_heat_pump", 9.0), ("pv", 4.0)),
        dropped=(b.installed[0],), kept=(b.installed[1],),
    )
    mms = _split_measures(b, cat, sol, mandatory_conversion=True,
                          decision_year=2033, score=2.5)
    by_kind = {mm.kind: mm for mm in mms}
    assert set(by_kind) == {"renovation", "conversion", "addition"}
    assert by_kind["renovation"].variant_index == 3
    assert by_kind["renovation"].mandatory is False
    assert by_kind["conversion"].mandatory is True
    assert by_kind["conversion"].installs == (("air_source_heat_pump", 9.0),)
    assert by_kind["conversion"].drops == (("gas_boiler", 12.0),)
    assert by_kind["addition"].installs == (("pv", 4.0),)
    assert all(mm.reduction_score == 2.5 for mm in mms)
    assert by_kind["renovation"].description == "envelope refurbishment: wall"
    assert by_kind["conversion"].description == (
        "heating conversion: +air_source_heat_pump 9.0 kW; -gas_boiler 12.0 kW")
    assert by_kind["addition"].description == "plant addition: +pv 4.0"


def test_commit_applies_drops_installs_variant_and_expiry(cat):
    twin = _one_building_twin(cat)
    b = twin.buildings[0]
    sol = _stub_solution(b, dropped=(b.installed[0],), kept=(b.installed[1],))
    measures = [
        Measure(building_id="solo", kind="conversion", mandatory=True,
                decision_year=2033, implementation_year=2026,
                description="swap", installs=(("air_source_heat_pump", 8.0),),
                drops=(("gas_boiler", 12.0),)),
        Measure(building_id="solo", kind="renovation", mandatory=False,
                decision_year=2033, implementation_year=2028,
                description="envelope", variant_index=15,
                new_components=("wall", "window", "cellar")),
    ]
    after = _commit(twin, cat, measures, {"solo": sol}, 2033)
    nb = after.buildings[0]
    assert nb.variant_index == 15
    tech_ids = [i.tech_id for i in nb.installed]
    assert "gas_boiler" not in tech_ids
    hp = next(i for i in nb.installed if i.tech_id == "air_source_heat_pump")
    assert hp.install_year == 2026 and hp.size == 8.0
    factor = variant_delta_factor(cat, 1, 15, "space_heat")
    assert nb.demand["space_heat"][0] == pytest.approx(30.0 * factor)
    assert nb.demand["electricity"][0] == 6.0


def test_commit_drops_one_of_two_identical_units(cat):
    twin = _one_building_twin(cat)
    b = twin.buildings[0]
    boiler = TechnologyInstance("gas_boiler", 12.0, 2020)
    b = dataclasses.replace(b, installed=(boiler, boiler, b.installed[1]))
    twin = dataclasses.replace(twin, buildings=(b,))
    sol = _stub_solution(b, dropped=(boiler,), kept=(boiler, b.installed[1]))
    drop = Measure(building_id="solo", kind="conversion", mandatory=False,
                   decision_year=2033, implementation_year=2030,
                   description="one boiler less", drops=(("gas_boiler", 12.0),))
    after = _commit(twin, cat, [drop], {"solo": sol}, 2033)
    assert after.buildings[0].installed == (boiler, b.installed[1])


def test_commit_removes_expired_units_silently(cat):
    twin = _one_building_twin(cat)
    b = twin.buildings[0]
    lifetime = cat.tech("gas_boiler").lifetime
    stale = dataclasses.replace(
        b, installed=(TechnologyInstance("gas_boiler", 12.0, 2033 - lifetime),
                      b.installed[1]))
    twin = dataclasses.replace(twin, buildings=(stale,))
    after = _commit(twin, cat, [], {}, 2033)
    tech_ids = [i.tech_id for i in after.buildings[0].installed]
    assert "gas_boiler" not in tech_ids
    assert "grid_connection" in tech_ids


def test_committed_demand_of_a_renovation_is_the_solution_demand_after(path6):
    st1 = path6.stages[1]
    w = path6.stages[0].twin_after.grid.step_weights()
    renovated = [mm.building_id for mm in st1.measures_of("renovation")]
    assert renovated, "the stage renovates no building"
    for bid in renovated:
        demand = st1.twin_after.building(bid).demand
        after = st1.solutions[bid].demand_after
        assert set(demand) == set(after)
        for vector, annual in after.items():
            assert float(np.asarray(demand[vector], dtype=float) @ w) == annual, (bid, vector)


# ---------------------------------------------------------------------------
# Mandatory conversions bypass the voluntary budget


def _expiring_heating_twin(cat):
    """Three buildings whose heating systems all reach end of life in 2028."""
    twin = make_fixture_twin(3, seed=9)
    buildings = []
    for b in twin.buildings:
        installed = tuple(
            TechnologyInstance(i.tech_id, i.size,
                               2028 - cat.tech(i.tech_id).lifetime)
            if cat.tech(i.tech_id).is_heat_converter else i
            for i in b.installed)
        buildings.append(dataclasses.replace(b, installed=installed))
    return dataclasses.replace(twin, buildings=tuple(buildings))


@pytest.fixture(scope="module")
def mandatory_path(cat, scen):
    return plan_pathway(_expiring_heating_twin(cat), cat, scen, [2023, 2033],
                        params=PARAMS)


def test_mandatory_conversions_exceed_voluntary_budget(mandatory_path):
    st1 = mandatory_path.stages[1]
    conversions = st1.measures_of("conversion")
    assert len(conversions) == 3  # every heating system died mid-stage
    assert all(mm.mandatory for mm in conversions)
    assert len(conversions) > st1.budgets["conversion"] == 1
    assert st1.measures_of("conversion", voluntary_only=True) == []


def test_mandatory_conversions_land_on_expiry_year(mandatory_path):
    st1 = mandatory_path.stages[1]
    for mm in st1.measures_of("conversion"):
        assert mm.implementation_year == 2028


def test_mandatory_chain_still_verifies(mandatory_path):
    assert mandatory_path.verify_chain() == []


def _fail_solves(monkeypatch, role, building_ids):
    """Stub the solve of each ``role`` problem of the given buildings to end
    FAILED, as HiGHS does on a numerical breakdown."""
    real_solve, real_optimize = model.solve, pathway.optimize_building
    failing = [False]  # whether the current optimize_building call fails

    def solve(request, params=None, start=None):
        if failing[0]:
            return SolveOutcome(status=SolveStatus.FAILED, message="stubbed breakdown")
        return real_solve(request, params=params, start=start)

    def optimize(building, *args, **kw):
        failing[0] = building.id in building_ids and _role(kw) == role
        return real_optimize(building, *args, **kw)

    monkeypatch.setattr(model, "solve", solve)
    monkeypatch.setattr(pathway, "optimize_building", optimize)


def test_failed_baseline_is_not_mandatory(monkeypatch, cat, scen):
    """Only an infeasible frozen plan makes the conversion mandatory; a
    frozen solve that failed leaves the building unplanned for the stage."""
    twin = _expiring_heating_twin(cat)
    failed = twin.buildings[0].id
    _fail_solves(monkeypatch, "frozen", {failed})
    st = plan_stage(twin, cat, scen, previous_year=2023, target_year=2033,
                    params=PARAMS)
    assert st.failed[failed].startswith("baseline solve failed: ")
    assert failed not in st.infeasible and failed not in st.solutions
    assert [mm for mm in st.measures if mm.building_id == failed] == []
    others = st.measures_of("conversion")
    assert len(others) == 2 and all(mm.mandatory for mm in others)


def test_a_failed_free_solve_is_not_infeasible(monkeypatch, cat, scen):
    twin = _expiring_heating_twin(cat)
    failed = twin.buildings[0].id
    _fail_solves(monkeypatch, "free", {failed})
    st = plan_stage(twin, cat, scen, previous_year=2023, target_year=2033,
                    params=PARAMS)
    assert "solver ended with failed" in st.failed[failed]
    assert failed not in st.infeasible and failed not in st.solutions
    assert set(st.solutions) == {b.id for b in twin.buildings} - {failed}
    assert report._stage_dict(st, cat)["failed"] == st.failed
    props = {f["properties"]["id"]: f["properties"]
             for f in stage_geojson(st, cat)["features"]}
    assert props[failed]["failed"] == st.failed[failed]
    assert not any("failed" in p for bid, p in props.items() if bid != failed)


def test_a_failed_status_quo_solve_is_not_infeasible(monkeypatch, cat, scen):
    twin = _expiring_heating_twin(cat)
    ids = {b.id for b in twin.buildings}
    failed = twin.buildings[1].id
    _fail_solves(monkeypatch, "status quo", {failed})
    st = pathway._status_quo_stage(twin, cat, scen, 2023, "cost", PARAMS, None)
    assert "solver ended with failed" in st.failed[failed]
    assert st.infeasible == {} and set(st.solutions) == ids - {failed}
    # failed buildings count towards a stock nothing could be solved for
    monkeypatch.undo()
    _fail_solves(monkeypatch, "status quo", ids)
    with pytest.raises(PathwayError, match="no building could be dispatched"):
        pathway._status_quo_stage(twin, cat, scen, 2023, "cost", PARAMS, None)


def test_clean_stage_documents_have_no_failed_key(path6, cat):
    for st in path6.stages:
        assert st.failed == {} and "failed" not in report._stage_dict(st, cat)
        assert not any("failed" in f["properties"]
                       for f in stage_geojson(st, cat)["features"])


# ---------------------------------------------------------------------------
# Failure modes and parallel workers


def test_pathway_rejects_bad_stage_years(twin6, cat, scen):
    with pytest.raises(PathwayError):
        plan_pathway(twin6, cat, scen, [2030], params=PARAMS)
    with pytest.raises(PathwayError):
        plan_pathway(twin6, cat, scen, [2030, 2030], params=PARAMS)
    with pytest.raises(PathwayError):
        plan_pathway(twin6, cat, scen, [2033, 2023], params=PARAMS)


def test_pathway_fails_when_nothing_is_solvable(twin6, cat, scen):
    buildings = tuple(
        dataclasses.replace(
            b, demand={**b.demand, "space_heat": (1e9,) * twin6.grid.steps})
        for b in twin6.buildings)
    hopeless = dataclasses.replace(twin6, buildings=buildings)
    with pytest.raises(PathwayError):
        plan_pathway(hopeless, cat, scen, [2023, 2033], params=PARAMS)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: keeps its size and the tasks of
    each map it was given, and runs them serially in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.maps = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.maps.append(list(tasks))
        return map(fn, self.maps[-1])


def _record_pools(monkeypatch) -> list[_RecordingPool]:
    pools = []

    def make(max_workers):
        pools.append(_RecordingPool(max_workers))
        return pools[-1]

    monkeypatch.setattr(pathway, "ProcessPoolExecutor", make)
    return pools


def _role(options: dict) -> str:
    if options.get("include_transition_costs") is False:
        return "status quo"
    if options.get("allow_refurb") is False and options.get("allow_plant_change") is False:
        return "frozen"
    return "re-solve" if "allow_refurb" in options else "free"


def test_pool_never_exceeds_the_task_count(monkeypatch, cat, scen):
    pools = _record_pools(monkeypatch)
    twin = make_fixture_twin(1, seed=9)
    plan_pathway(twin, cat, scen, [2023, 2030], params=PARAMS, workers=1)
    assert pools == []
    plan_pathway(twin, cat, scen, [2023, 2030], params=PARAMS, workers=64)
    # one pool, sized by the largest batch: a frozen and a free problem per
    # building; the one-task status-quo batch ran in-process
    assert [pool.max_workers for pool in pools] == [2]
    assert [len(tasks) for tasks in pools[0].maps] == [2]
    monkeypatch.setattr(pathway, "_solve_one", str.upper)
    assert pathway._solve_all(["a"], pools[0]) == ["A"]
    assert pathway._solve_all(["b", "c"], None) == ["B", "C"]
    assert [len(tasks) for tasks in pools[0].maps] == [2]


@pytest.fixture(scope="module")
def serial_path(cat, scen):
    twin = make_fixture_twin(3, seed=9)
    path = plan_pathway(twin, cat, scen, [2023, 2030], params=PARAMS, workers=0)
    # two denied buildings: the re-solves form a batch of their own
    assert len({bid for bid, _ in path.stages[1].denied}) == 2
    return twin, path


def test_parallel_workers_match_serial(serial_path, cat, scen):
    twin, serial = serial_path
    parallel = plan_pathway(twin, cat, scen, [2023, 2030], params=PARAMS, workers=2)
    assert dumps(path_document(serial, cat)) == dumps(path_document(parallel, cat))
    assert serial.stages[1].twin_after.to_dict() == parallel.stages[1].twin_after.to_dict()


def test_every_role_goes_through_the_pool(serial_path, monkeypatch, cat, scen):
    twin, serial = serial_path
    pools = _record_pools(monkeypatch)
    pooled = plan_pathway(twin, cat, scen, [2023, 2030], params=PARAMS, workers=2)
    assert dumps(path_document(pooled, cat)) == dumps(path_document(serial, cat))
    assert [pool.max_workers for pool in pools] == [2]
    assert [sorted({_role(t.options) for t in tasks}) for tasks in pools[0].maps] == [
        ["status quo"], ["free", "frozen"], ["re-solve"]]
