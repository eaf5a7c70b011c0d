"""
Optimizing one building
=======================

Runs the expansion-and-operation model for a single building at a
target year and walks through what the optimum actually decided.
"""

from munipath import default_catalog, default_scenario, make_fixture_twin
from munipath.catalog import variant_components
from munipath.model import check_solution, optimize_building

cat = default_catalog()
scen = default_scenario()
twin = make_fixture_twin(10, seed=11)

# b005 still heats with a 2001 gas boiler; ask what it should look like
# in 2030, with the stage decision covering a seven-year period
b = twin.building("b005")
print(f"{b.id}: built {b.construction_year}, "
      + ", ".join(f"{t.tech_id}@{t.size:g}kW" for t in b.installed))

arts, outcome, sol = optimize_building(
    b, cat, scen, twin.grid, target_year=2030, period_years=7,
    params={"mip_gap": 1e-6})
print(f"{outcome.status.value} after {outcome.nodes} branch-and-bound nodes "
      f"in {outcome.wall_time_s:.2f}s, "
      f"objective {sol.objective:,.0f} EUR/a\n")

# discrete outcome: envelope variant, kept and dismantled plant, new kit
print("envelope:", ", ".join(variant_components(sol.variant_index)) or "untouched",
      f"(new: {', '.join(sol.new_components) or 'none'})")
print("kept:     ", ", ".join(f"{t.tech_id}@{t.size:g}kW" for t in sol.kept) or "-")
print("dropped:  ", ", ".join(f"{t.tech_id}@{t.size:g}kW" for t in sol.dropped) or "-")
print("installed:", ", ".join(f"{t}@{s:.1f}kW" for t, s in sol.installed) or "-")

# operation: where the energy comes from and what it costs
print("\nimports:", {c: round(v) for c, v in sol.imports.items()}, "kWh/a")
print(f"PV generation {sol.pv_generation:,.0f} kWh/a, "
      f"self-consumption {sol.self_consumption:.0%}, "
      f"export {sol.export:,.0f} kWh/a")
bd = sol.breakdown
print(f"cost: capex {bd.capex:,.0f} - subsidy {bd.capex_subsidy:,.0f} "
      f"+ opex {bd.opex:,.0f} + removal {bd.deconstruction:,.0f} "
      f"- residual {bd.residual_value:,.0f} = {bd.objective:,.0f} EUR/a")
em = sol.emissions
print(f"emissions: {em['total']:,.0f} kg/a "
      f"(scope1 {em['scope1']:,.0f}, scope2 {em['scope2']:,.0f}, "
      f"scope3 {em['scope3']:,.0f})")

# the solution vector satisfies every structural constraint
print("\nconstraint violations:", check_solution(arts, sol.x) or "none")

# the same question under different objectives gives different answers
print("\nobjective sweep:")
for mode in ("cost", "emission", "weighted"):
    _, _, s = optimize_building(
        b, cat, scen, twin.grid, target_year=2030, period_years=7,
        objective_mode=mode, params={"mip_gap": 1e-6})
    heat = ", ".join(sorted({t for t, _ in s.installed}
                            | {t.tech_id for t in s.kept})) or "-"
    print(f"  {mode:9s}: {s.breakdown.objective:9,.0f} EUR/a, "
          f"{s.emissions['total']:8,.0f} kg/a, plant [{heat}]")
