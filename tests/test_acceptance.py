"""Acceptance gate: one verdict line per criterion.

Each test prints `[criterion n] <label>: PASS|FAIL` (run pytest with -s
to see them) and then asserts, so a red criterion is visible both ways.
"""

import dataclasses
import subprocess
import sys
import time

import numpy as np

from munipath.catalog import restrict_catalog
from munipath.docio import dumps
from munipath.model import build_model, check_solution, optimize_building
from munipath.pathway import plan_pathway
from munipath.report import aggregate_stage, path_document, stage_geojson
from munipath.scenario import cumulative_quota, retrofit_budgets
from munipath.solver import SolveRequest, SolveStatus, solve
from munipath.twin import TechnologyInstance

from conftest import STAGE_YEARS
from oracles import (
    build_toy_model,
    enumerate_building_optimum,
    enumerate_mip_optimum,
    make_random_mip,
    make_toy_instance,
)
from reference_solver import duality_check_count, reference_solve
from munipath.fixtures import make_fixture_twin

GAS_TECHS = frozenset({"gas_boiler", "micro_chp", "fuel_cell"})
HP_TECHS = frozenset({"air_source_heat_pump", "ground_source_heat_pump"})
HEAT_TECHS = frozenset({
    "gas_boiler", "oil_heating", "pellet_heating", "woodchip_heating",
    "direct_electric", "air_source_heat_pump", "ground_source_heat_pump",
    "solar_thermal", "micro_chp", "heat_exchanger",
})


def _verdict(num: int, label: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"\n[criterion {num}] {label}: {status}")
    assert not problems, "\n".join(problems)


def _stage_inputs(planned_path, twin20):
    """(input twin, stage) pairs; stage k starts from stage k-1's outcome."""
    twins = [twin20] + [st.twin_after for st in planned_path.stages[:-1]]
    return list(zip(twins, planned_path.stages))


def _mip_request(c, a, row_lb, row_ub, var_lb, var_ub, integrality) -> SolveRequest:
    a = np.asarray(a, dtype=float)
    rows, cols = np.nonzero(a)
    return SolveRequest(
        obj=np.asarray(c, dtype=float),
        a_rows=rows, a_cols=cols, a_vals=a[rows, cols],
        row_lb=np.asarray(row_lb, dtype=float),
        row_ub=np.asarray(row_ub, dtype=float),
        var_lb=np.asarray(var_lb, dtype=float),
        var_ub=np.asarray(var_ub, dtype=float),
        integrality=np.asarray(integrality, dtype=bool),
    )


def _capacity(twin, tech_ids) -> float:
    return sum(t.size for b in twin.buildings for t in b.installed
               if t.tech_id in tech_ids)


def test_criterion_1_oracle_equivalence(cat, scen):
    problems = []
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    for k in range(50):
        building, toy_cat, grid, size_grid = make_toy_instance(rng, cat)
        arts = build_toy_model(building, toy_cat, grid, size_grid, scen)
        best = enumerate_building_optimum(arts)
        out = solve(arts.request, params={"mip_gap": 1e-9})
        if best is None or not out.ok:
            problems.append(f"instance {k}: enumeration={best} solver={out.status}")
            continue
        if abs(out.objective - best) > 1e-6 * max(1.0, abs(best)):
            problems.append(
                f"instance {k}: solver {out.objective!r} vs enumeration {best!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 2 min")
    _verdict(1, f"oracle equivalence on 50 toy instances ({elapsed:.1f}s)", problems)


def test_criterion_2_constraint_suite(planned_path, twin20, cat, scen):
    problems = []
    checked = 0
    for twin_in, stage in _stage_inputs(planned_path, twin20):
        for bid in sorted(stage.solutions):
            sol = stage.solutions[bid]
            arts = build_model(
                twin_in.building(bid), cat, scen, twin_in.grid,
                target_year=stage.target_year,
                period_years=stage.period_years or 1,
                **sol.model_options)
            for v in check_solution(arts, sol.x):
                problems.append(f"{stage.target_year}/{bid}: {v}")
            checked += 1
    if checked == 0:
        problems.append("no solved buildings to check")
    _verdict(2, f"constraint suite clean on {checked} solved buildings", problems)


def test_criterion_3_rate_caps(planned_path, twin20, scen):
    problems = []
    n = len(twin20.buildings)
    caps = {"renovation": scen.renovation_rate_cap,
            "conversion": scen.conversion_rate_cap}
    if abs(caps["renovation"] - 0.02) > 1e-12 or abs(caps["conversion"] - 0.045) > 1e-12:
        problems.append(f"fixture caps are {caps}, expected 2.0%/4.5%")
    for stage in planned_path.stages:
        p = stage.period_years
        if p < 1:
            if stage.measures:
                problems.append(f"{stage.target_year}: status quo made decisions")
            continue
        if stage.budgets != retrofit_budgets(scen, n, p):
            problems.append(f"{stage.target_year}: budgets {stage.budgets} "
                            f"!= {retrofit_budgets(scen, n, p)}")
        y0 = stage.target_year - p
        for kind, cap in caps.items():
            years = sorted(m.implementation_year
                           for m in stage.measures_of(kind, voluntary_only=True))
            if len(years) > stage.budgets[kind]:
                problems.append(f"{stage.target_year}: {len(years)} voluntary "
                                f"{kind}s exceed budget {stage.budgets[kind]}")
            for j in range(1, p + 1):
                scheduled = sum(1 for y in years if y <= y0 + j)
                quota = cumulative_quota(cap, n, j)
                if scheduled > quota:
                    problems.append(
                        f"{stage.target_year}: {scheduled} {kind}s by year "
                        f"{y0 + j} exceed cumulative quota {quota}")
    _verdict(3, "annual scheduled counts respect floor-budgets", problems)


def test_criterion_4_directional_response(cat, scen):
    problems = []

    # the fixture trajectory itself: gas climbs from its 2025 low to the
    # 2045 peak, electricity falls from the 2023 spike, CO2 only rises
    gas_prices = [scen.price_at("gas", y) for y in range(2025, 2046)]
    el_prices = [scen.price_at("electricity", y) for y in range(2023, 2046)]
    co2 = [scen.co2_price_at(y) for y in range(2023, 2046)]
    if not (abs(gas_prices[0] - 13.94) < 1e-9 and abs(gas_prices[-1] - 27.68) < 1e-9
            and all(b >= a - 1e-9 for a, b in zip(gas_prices, gas_prices[1:]))):
        problems.append(f"gas price trajectory {gas_prices} not rising 13.94->27.68")
    if not (abs(el_prices[0] - 49.39) < 1e-9 and abs(el_prices[-1] - 23.59) < 1e-9
            and el_prices[-1] < el_prices[0]
            and min(el_prices) < 25.0):
        problems.append(f"electricity trajectory {el_prices} not falling 49.39->23.59")
    if not (abs(co2[0] - 80.0) < 1e-9 and abs(co2[-1] - 200.0) < 1e-9
            and all(b >= a - 1e-9 for a, b in zip(co2, co2[1:]))):
        problems.append(f"CO2 price trajectory {co2} not rising 80->200")

    # gas-dominated stock: capacity must shift from gas toward heat pumps
    twin = make_fixture_twin(12, seed=21)
    buildings = []
    for b in twin.buildings:
        inst = tuple(TechnologyInstance("gas_boiler", t.size, t.install_year)
                     if t.tech_id in HEAT_TECHS else t for t in b.installed)
        buildings.append(dataclasses.replace(b, installed=inst))
    twin = dataclasses.replace(twin, buildings=tuple(buildings))
    path = plan_pathway(twin, cat, scen, STAGE_YEARS, params={"mip_gap": 1e-4})
    gas_cap = [_capacity(twin, GAS_TECHS)] + \
        [_capacity(st.twin_after, GAS_TECHS) for st in path.stages]
    hp_cap = [_capacity(twin, HP_TECHS)] + \
        [_capacity(st.twin_after, HP_TECHS) for st in path.stages]
    if not all(b <= a + 1e-9 for a, b in zip(gas_cap, gas_cap[1:])):
        problems.append(f"gas capacity not non-increasing: {gas_cap}")
    if not all(b >= a - 1e-9 for a, b in zip(hp_cap, hp_cap[1:])):
        problems.append(f"heat pump capacity not non-decreasing: {hp_cap}")

    # paired runs: same building, only the gas price raised.  The catalog
    # is narrowed so gas stays in use and substitution happens through
    # solar thermal and envelope measures rather than a fuel switch.
    gas_cat = restrict_catalog(cat, ["gas_boiler", "solar_thermal",
                                     "buffer_tank", "grid_connection"])
    dearer = dataclasses.replace(
        scen, prices={**scen.prices,
                      "gas": tuple(1.5 * p for p in scen.prices["gas"])})
    pool_twin = make_fixture_twin(8, seed=33)
    pool = [b for b in pool_twin.buildings if "cooling" not in b.demand][:3]
    baseline_use = []
    for b in pool:
        inst = tuple(TechnologyInstance("gas_boiler", t.size, t.install_year)
                     if t.tech_id in HEAT_TECHS else t for t in b.installed
                     if t.tech_id in HEAT_TECHS
                     or t.tech_id in ("grid_connection", "buffer_tank"))
        b = dataclasses.replace(b, installed=inst)
        use = []
        for frame in (scen, dearer):
            _, _, sol = optimize_building(
                b, gas_cat, frame, pool_twin.grid, target_year=2023,
                period_years=5, params={"mip_gap": 1e-9})
            use.append(sol.imports.get("gas", 0.0))
        baseline_use.append(use[0])
        if use[1] > use[0] + 1e-6 * max(1.0, use[0]):
            problems.append(f"{b.id}: gas use rose {use[0]:.3f} -> {use[1]:.3f} "
                            "under a higher gas price")
    if max(baseline_use, default=0.0) <= 0.0:
        problems.append("paired runs vacuous: no baseline gas consumption")
    _verdict(4, "directional response to the price trajectory", problems)


def test_criterion_5_chain_and_determinism(planned_path, twin20, cat, scen):
    problems = [f"chain: {v}" for v in planned_path.verify_chain()]

    ids = {b.id for b in twin20.buildings}
    for stage in planned_path.stages:
        got = {b.id for b in stage.twin_after.buildings}
        if got != ids:
            problems.append(f"{stage.target_year}: building set changed "
                            f"({sorted(ids ^ got)})")

    twin5 = make_fixture_twin(5, seed=3)
    runs = [plan_pathway(twin5, cat, scen, [2023, 2033],
                         params={"mip_gap": 1e-4}) for _ in range(2)]
    blobs = [dumps(path_document(p, cat)).encode() for p in runs]
    if blobs[0] != blobs[1]:
        problems.append("two identical runs serialized differently")
    _verdict(5, "stage chaining sound, repeat run byte-identical", problems)


def test_criterion_6_accounting_closure(planned_path, cat):
    problems = []
    for stage in planned_path.stages:
        for bid in sorted(stage.solutions):
            sol = stage.solutions[bid]
            scale = max(1.0, abs(sol.objective))
            if abs(sol.objective - sol.breakdown.objective) > 1e-6 * scale:
                problems.append(f"{stage.target_year}/{bid}: objective "
                                f"{sol.objective!r} vs breakdown "
                                f"{sol.breakdown.objective!r}")
            em = sol.emissions
            if em["total"] != em["scope1"] + em["scope2"] + em["scope3"]:
                problems.append(f"{stage.target_year}/{bid}: emission scopes "
                                "do not sum to the total")

        rep = aggregate_stage(stage, cat)
        em = rep["emissions"]
        if em and em["total"] != em["scope1"] + em["scope2"] + em["scope3"]:
            problems.append(f"{stage.target_year}: stage emission total broken")

        geo = stage_geojson(stage, cat)
        n_geo = len(geo["features"])
        n_freq = sum(rep["heating_frequency"].values())
        if not (n_geo == n_freq == rep["n_buildings"]):
            problems.append(f"{stage.target_year}: counts disagree "
                            f"(geojson {n_geo}, frequency {n_freq}, "
                            f"stock {rep['n_buildings']})")
        geo_freq: dict[str, int] = {}
        for f in geo["features"]:
            tech = f["properties"]["primary_heating"]
            geo_freq[tech] = geo_freq.get(tech, 0) + 1
        if geo_freq != rep["heating_frequency"]:
            problems.append(f"{stage.target_year}: GeoJSON heating census "
                            f"{geo_freq} != report {rep['heating_frequency']}")
        power = {}
        for b in stage.twin_after.buildings:
            for t in b.installed:
                power[t.tech_id] = power.get(t.tech_id, 0.0) + t.size
        if power != rep["installed_power"]:
            problems.append(f"{stage.target_year}: installed power mismatch")
    _verdict(6, "objective, emission and census accounting closes", problems)


def test_criterion_7_reference_solver():
    problems = []
    rng = np.random.default_rng(7)
    checks_before = duality_check_count()
    t0 = time.perf_counter()
    n_optimal = 0
    for k in range(200):
        data = make_random_mip(rng)
        want_status, want = enumerate_mip_optimum(*data)
        out = reference_solve(_mip_request(*data))
        if want_status == "infeasible":
            if out.status is not SolveStatus.INFEASIBLE:
                problems.append(f"mip {k}: expected infeasible, got {out.status}")
            continue
        if not out.ok:
            problems.append(f"mip {k}: expected optimal, got {out.status}")
            continue
        n_optimal += 1
        if abs(out.objective - want) > 1e-6 * max(1.0, abs(want)):
            problems.append(f"mip {k}: {out.objective!r} vs enumerated {want!r}")
    elapsed = time.perf_counter() - t0
    new_checks = duality_check_count() - checks_before
    if new_checks < n_optimal:
        problems.append(f"only {new_checks} duality checks for {n_optimal} "
                        "optimal solves")
    _verdict(7, f"reference solver matches 2^n enumeration on 200 MIPs "
                f"({elapsed:.1f}s, {new_checks} duality checks)", problems)


def test_criterion_8_end_to_end(tmp_path):
    problems = []
    exe = [sys.executable, "-m", "munipath"]
    twin_path = tmp_path / "twin.json"
    out_dir = tmp_path / "out"
    rep_dir = tmp_path / "rep"
    t0 = time.perf_counter()
    steps = (
        ("gen-fixture", ["gen-fixture", "--out", str(twin_path),
                         "--buildings", "20"]),
        ("pathway", ["pathway", str(twin_path),
                     "--periods", ",".join(str(y) for y in STAGE_YEARS),
                     "--out-dir", str(out_dir), "--workers", "1"]),
        ("report", ["report", str(out_dir / "path.json"),
                    "--out-dir", str(rep_dir)]),
    )
    for label, args in steps:
        res = subprocess.run(exe + args, capture_output=True, text=True,
                             timeout=400)
        if res.returncode != 0:
            problems.append(f"{label} exited {res.returncode}: "
                            f"{res.stderr.strip()[:400]}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        problems.append(f"chain took {elapsed:.0f}s, budget is 5 min")
    if not problems:
        for name in ["path.json", "report.csv"] + \
                [f"stock_{y}.geojson" for y in STAGE_YEARS]:
            if not (out_dir / name).exists():
                problems.append(f"missing output {name}")
    _verdict(8, f"end-to-end fixture -> pathway -> report ({elapsed:.0f}s)",
             problems)
