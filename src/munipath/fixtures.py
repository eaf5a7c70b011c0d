"""Seeded synthetic building stocks for tests and demos.

The default 20-building town mixes heating archetypes and installation
ages so that a planning run actually exercises the interesting paths:
some plants expire mid-period (forced replacements), many conversions
and renovations are attractive at once (rate caps bind), and a couple of
buildings are already modern (nothing to do).  Same seed, same twin.
"""

from __future__ import annotations

import math

import numpy as np

from .twin import Building, EnergyTwin, TechnologyInstance, TimeGrid, variant_of

# share of the stock per heating archetype; remainders go to the largest
# fractional parts so any stock size splits deterministically
_ARCHETYPES = (
    ("direct_electric", 0.35),
    ("gas_boiler", 0.35),
    ("oil_heating", 0.20),
    ("air_source_heat_pump", 0.10),
)

# heating plant vintages cycle per archetype; early ones expire mid-plan
_INSTALL_YEARS = {
    "direct_electric": (1998, 2001, 2005, 2009, 2013, 2017, 2020),
    "gas_boiler": (2001, 2004, 2008, 2012, 2015, 2018, 2020),
    "oil_heating": (2002, 2007, 2013, 2017),
    "air_source_heat_pump": (2019, 2021),
}


def _allocate_archetypes(n: int) -> list[str]:
    exact = [(name, n * share) for name, share in _ARCHETYPES]
    counts = {name: int(x) for name, x in exact}
    rest = n - sum(counts.values())
    by_frac = sorted(exact, key=lambda p: (-(p[1] - int(p[1])), p[0]))
    for name, _ in by_frac[:rest]:
        counts[name] += 1
    out: list[str] = []
    for name, _ in _ARCHETYPES:
        out.extend([name] * counts[name])
    return out


def _seasonal_heat(day: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.cos(2.0 * np.pi * (day - 15.0) / 365.0))


def _space_heat_shape(day: np.ndarray, hour: np.ndarray) -> np.ndarray:
    seasonal = 0.05 + 0.95 * _seasonal_heat(day) ** 1.3
    diurnal = 0.65 + 0.35 * np.cos(2.0 * np.pi * (hour - 8.0) / 24.0)
    return seasonal * diurnal


def _hot_water_shape(day: np.ndarray, hour: np.ndarray) -> np.ndarray:
    morning = np.exp(-((hour - 7.5) ** 2) / 3.0)
    evening = np.exp(-((hour - 19.0) ** 2) / 4.0)
    return 0.3 + 0.9 * morning + 0.7 * evening


def _electricity_shape(day: np.ndarray, hour: np.ndarray) -> np.ndarray:
    base = 0.4 + 0.2 * np.exp(-((hour - 8.0) ** 2) / 5.0)
    base = base + 0.35 * np.exp(-((hour - 19.5) ** 2) / 6.0)
    return base * (1.0 + 0.15 * _seasonal_heat(day))


def _cooling_shape(day: np.ndarray, hour: np.ndarray) -> np.ndarray:
    summer = (1.0 - _seasonal_heat(day)) ** 2
    midday = np.clip(np.sin(np.pi * (hour - 9.0) / 10.0), 0.0, None)
    return summer * midday


_SHAPES = {
    "space_heat": _space_heat_shape,
    "hot_water": _hot_water_shape,
    "electricity": _electricity_shape,
    "cooling": _cooling_shape,
}


def demand_profile(grid: TimeGrid, vector: str, annual_kwh: float) -> tuple[float, ...]:
    """A plausible load profile on the grid, scaled to the annual total."""
    shape = _SHAPES[vector](grid.day_of_year().astype(float), grid.hour_of_day())
    weighted = float(shape @ grid.step_weights())
    if weighted <= 0.0:
        raise ValueError(f"degenerate shape for {vector}")
    values = shape * (annual_kwh / weighted)
    return tuple(float(v) for v in values)


def _heat_peak_kw(building_demand: dict[str, tuple[float, ...]], h: float) -> float:
    arr = None
    for vector in ("space_heat", "hot_water"):
        values = building_demand.get(vector)
        if values is None:
            continue
        arr = np.asarray(values) if arr is None else arr + np.asarray(values)
    return float(arr.max()) / h if arr is not None else 0.0


def make_fixture_twin(n_buildings: int = 20, *, seed: int = 11,
                      grid: TimeGrid | None = None) -> EnergyTwin:
    """Generate the synthetic town; deterministic for a given seed."""
    if n_buildings < 1:
        raise ValueError("need at least one building")
    grid = grid or TimeGrid.representative_days()
    rng = np.random.default_rng(seed)
    archetypes = _allocate_archetypes(n_buildings)
    type_counter: dict[str, int] = {}

    buildings: list[Building] = []
    for i in range(n_buildings):
        arch = archetypes[i]
        k = type_counter.get(arch, 0)
        type_counter[arch] = k + 1
        bid = f"b{i + 1:03d}"
        commercial = i % 7 == 3
        public = i == 13
        btype = "commercial" if commercial else ("public" if public else "residential")
        modern = arch == "air_source_heat_pump"

        if modern:
            construction = int(rng.integers(2010, 2022))
            sh = rng.uniform(9_000, 14_000)
            variant = variant_of(("roof", "wall", "window") if k % 2 == 0 else ("roof", "window"))
        else:
            construction = int(rng.integers(1955, 1990))
            variant = variant_of(("roof",) if i % 5 == 4 else ())
            if commercial:
                sh = rng.uniform(45_000, 90_000)
            elif public:
                sh = rng.uniform(35_000, 55_000)
            else:
                sh = rng.uniform(30_000, 60_000)
        if commercial:
            hw, el = rng.uniform(2_000, 3_500), rng.uniform(15_000, 30_000)
            roof = rng.uniform(300, 600)
        elif public:
            hw, el = rng.uniform(2_500, 4_000), rng.uniform(8_000, 12_000)
            roof = rng.uniform(260, 340)
        else:
            hw, el = rng.uniform(2_200, 4_000), rng.uniform(2_600, 4_500)
            roof = rng.uniform(90, 130)

        demand = {
            "space_heat": demand_profile(grid, "space_heat", sh),
            "hot_water": demand_profile(grid, "hot_water", hw),
            "electricity": demand_profile(grid, "electricity", el),
        }
        if commercial:
            demand["cooling"] = demand_profile(grid, "cooling", rng.uniform(5_000, 12_000))

        peak = _heat_peak_kw(demand, grid.hours_per_step)
        heat_size = max(4.0, math.ceil(peak * 1.15))
        install = _INSTALL_YEARS[arch][k % len(_INSTALL_YEARS[arch])]
        installed = [
            TechnologyInstance(arch, heat_size, install),
            TechnologyInstance("grid_connection", max(8.0, math.ceil(peak + 6.0)),
                               2010 + i % 10),
        ]
        if arch == "gas_boiler" and k % 3 == 0:
            installed.append(TechnologyInstance("buffer_tank", 12.0, 2015))
        if commercial:
            installed.append(TechnologyInstance("air_conditioner", 15.0, 2015))

        buildings.append(Building(
            id=bid,
            location=(9.96 + 0.08 * float(rng.uniform()), 51.53 + 0.05 * float(rng.uniform())),
            building_type=btype,
            construction_year=construction,
            roof_area=float(round(roof, 1)),
            open_space_area=float(round(rng.uniform(60, 200), 1)) if i % 4 == 2 else 0.0,
            demand=demand,
            variant_index=variant,
            installed=tuple(installed),
            heat_network_access=i % 5 == 1,
        ))

    meta = {"id": f"fixture-{n_buildings}-{seed}", "synthetic": True,
            "note": "generated stock for tests and demos"}
    return EnergyTwin(meta=meta, grid=grid, buildings=tuple(buildings))
