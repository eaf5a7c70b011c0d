"""
A staged transformation pathway
===============================

Plans the whole stock over three stage years.  Each stage optimizes
every building with full knowledge of that stage only, then a ranking
heuristic fits the wishlist into the annual renovation and conversion
budgets; what survives is committed and seeds the next stage.
"""

from munipath import (
    default_catalog,
    default_scenario,
    make_fixture_twin,
    path_document,
    plan_pathway,
)
from munipath.docio import dumps
from munipath.scenario import retrofit_budgets

cat = default_catalog()
scen = default_scenario()
twin = make_fixture_twin(6, seed=5)
years = [2023, 2030, 2040]

# rate caps translate into whole-measure budgets per planning period
n = len(twin.buildings)
for y0, y1 in zip(years, years[1:]):
    print(f"{y0}->{y1}: budgets {retrofit_budgets(scen, n, y1 - y0)}")

path = plan_pathway(twin, cat, scen, years, params={"mip_gap": 1e-4})

# stage 1 is the untouched status quo, later stages commit measures
for st in path.stages:
    print(f"\n=== {st.target_year} "
          f"({'status quo' if st.period_years == 0 else f'{st.period_years}a period'}) ===")
    print(f"solved {len(st.solutions)}/{n}, budgets {st.budgets}, "
          f"realized rates " + ", ".join(f"{k} {v:.1%}" for k, v in
                                         sorted(st.realized_rates.items())))
    for m in st.measures:
        tag = "mandatory" if m.mandatory else "voluntary"
        print(f"  {m.implementation_year} {m.building_id} {m.kind:10s} "
              f"[{tag}] {m.description}")
    if st.denied:
        print("  denied:", ", ".join(f"{b}/{k}" for b, k in st.denied))

# the chain is verifiable after the fact: every committed measure must
# materialize in the following stock, within budget, inside its window
print("\nchain violations:", path.verify_chain() or "none")

# the run's document (path.json) holds the plan with every stage's report
# and map; it serializes deterministically: same inputs, same bytes
blob = dumps(path_document(path, cat))
print(f"serialized path: {len(blob):,} bytes, "
      f"stages {[s.target_year for s in path.stages]}")
