"""
A synthetic building stock and the technology catalog
======================================================

Builds the seeded demo town, pokes at demand profiles and installed
plant, and shows the cost arithmetic the optimizer runs on.
"""

import numpy as np

from munipath import default_catalog, make_fixture_twin
from munipath.catalog import annuity_factor, residual_value
from munipath.twin import admissible_refurb_variants, variant_components

# same seed, same town: ten buildings on the default representative-days
# grid (four typed days at hourly resolution)
twin = make_fixture_twin(10, seed=11)
grid = twin.grid
print(f"twin {twin.meta['id']}: {len(twin.buildings)} buildings, "
      f"{grid.steps} timesteps of {grid.resolution_minutes} min")

# every building carries demand profiles (kWh per grid step) plus its
# installed plant
for b in twin.buildings[:4]:
    heat = b.annual_demand("space_heat", grid) + b.annual_demand("hot_water", grid)
    plant = ", ".join(f"{t.tech_id}@{t.size:g}kW({t.install_year})"
                      for t in b.installed)
    print(f"  {b.id} {b.building_type:11s} heat {heat:9.0f} kWh/a  [{plant}]")

# peak heat load decides how much converter capacity a plan must cover
b = twin.buildings[0]
peak = max(b.demand["space_heat"]) / grid.hours_per_step
print(f"\n{b.id} peak space heat draw: {peak:.1f} kW")

# the envelope state is a variant bitmask over the four components; it
# fixes which refurbishment variants are still open, since
# already-renovated components may not be undone
done = ", ".join(sorted(variant_components(b.variant_index))) or "nothing done"
print(f"{b.id} envelope ({done}), "
      f"{len(admissible_refurb_variants(b))} of 16 variants admissible")

# the catalog prices everything the optimizer may build or keep
cat = default_catalog()
cat.validate()
print(f"\ncatalog: {len(cat.techs)} technologies, "
      f"discount rate {cat.discount_rate:.1%}")
spec = cat.tech("air_source_heat_pump")
print(f"heat pump, 10 kW: capex {spec.capex_total(10):.0f} EUR, "
      f"lifetime {spec.lifetime} a, "
      f"winter COP {spec.efficiency_at('winter'):.2f}")

# investment enters the objective as an annuity; an early dismantling
# forfeits the residual value of what is torn down
af = annuity_factor(cat.discount_rate, spec.lifetime)
print(f"annuity factor over {spec.lifetime} a: {af:.4f} "
      f"-> {af * spec.capex_total(10):.0f} EUR/a")
for age in (2, 10, 18):
    rv = residual_value(spec.capex_total(10), spec.lifetime, spec.lifetime - age)
    print(f"  residual value at age {age:2d}: {rv:8.0f} EUR")

# profiles are tuples of step values; as a numpy array, slicing out one
# typed day is enough to see the seasonal spread the dispatch has to cope with
sh = np.asarray(twin.buildings[0].demand["space_heat"])
per_day = sh.reshape(len(grid.days), -1)
for (doy, _), day in zip(grid.days, per_day):
    print(f"day {doy:3d}: space heat {day.sum():6.1f} kWh, "
          f"peak step {day.max():5.2f} kWh")
