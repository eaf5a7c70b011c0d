"""
Aggregated reports, CSV and GeoJSON exports
===========================================

Turns a finished pathway into stock-level numbers: technology census,
energy balances, cost and emission accounting, and per-building maps.
"""

import json
import tempfile
from pathlib import Path

from munipath import (
    default_catalog,
    default_scenario,
    make_fixture_twin,
    plan_pathway,
)
from munipath.docio import dumps
from munipath.report import (
    aggregate_stage,
    export_csv,
    geojson_from_document,
    path_document,
    pathway_deltas,
)

cat = default_catalog()
scen = default_scenario()
twin = make_fixture_twin(6, seed=5)
path = plan_pathway(twin, cat, scen, [2023, 2030, 2040],
                    params={"mip_gap": 1e-4})

# one report per stage: counts, installed power, flows, costs, emissions
reports = [aggregate_stage(st, cat) for st in path.stages]
for rep in reports:
    balance = rep["energy_balance"]
    imports = sum(v for k, v in balance.items() if k.startswith("import_"))
    print(f"=== {rep['stage_year']} ===")
    print("  heating census:", rep["heating_frequency"])
    print(f"  energy: imports {imports:,.0f} kWh/a, "
          f"pv {balance['pv_generation']:,.0f}, "
          f"export {balance['export_electricity']:,.0f}")
    print(f"  cost {rep['cost_breakdown']['objective']:,.0f} EUR/a, "
          f"emissions {rep['emissions']['total'] / 1000:,.1f} t/a")

# the self-contained document bundles the path with every stage's report
# and map, so the exports below read it instead of solving again
doc = path_document(path, cat)

# stage-over-stage deltas show the direction of travel
for row in pathway_deltas(doc)[1:]:
    print(f"{row['stage_year']}: emissions {row['emissions_delta']:+,.0f} kg/a, "
          f"cost {row['cost_delta']:+,.0f} EUR/a")

# the long-form CSV holds every reported number, one metric per row
csv_text = export_csv(reports)
print(f"\nCSV: {len(csv_text.splitlines())} rows, first three:")
for line in csv_text.splitlines()[:3]:
    print("  " + line)

# GeoJSON maps the final stock; properties carry the per-building story
geo = json.loads(geojson_from_document(doc, path.stages[-1].target_year))
feat = geo["features"][0]
print(f"\nGeoJSON: {len(geo['features'])} features; "
      f"{feat['properties']['id']} -> "
      f"{feat['properties']['primary_heating']}, "
      f"{feat['properties']['annual_cost_eur']:,.0f} EUR/a")

# the files `munipath pathway` writes, from the same document
out = Path(tempfile.mkdtemp(prefix="munipath_demo_"))
(out / "path.json").write_text(dumps(doc))
(out / "report.csv").write_text(csv_text)
for year in doc["stage_years"]:
    (out / f"stock_{year}.geojson").write_text(geojson_from_document(doc, year))
print(f"\nwrote {sorted(p.name for p in out.iterdir())} to {out}")
