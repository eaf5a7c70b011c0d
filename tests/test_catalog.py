"""Technology catalog: annuities, residuals, refurbishment variants, costs."""

import hashlib
import json
import math

import numpy as np
import pytest

from munipath.catalog import (
    Catalog,
    CatalogError,
    CostBreakdown,
    RefurbComponentSpec,
    TechnologySpec,
    annuity_factor,
    default_catalog,
    effective_demand,
    load_catalog,
    residual_value,
    restrict_catalog,
    save_catalog,
    variant_components,
    variant_delta_factor,
    variant_heat_factor,
)
from munipath.twin import (
    COMPONENTS,
    HEAT_VECTORS,
    Building,
    TimeGrid,
)


# ---------------------------------------------------------------------------
# Annuities and residual values


def test_annuity_repays_principal():
    # discounted annuity stream equals the financed unit
    for rate in (0.01, 0.03, 0.07):
        for years in (1, 5, 20, 40):
            af = annuity_factor(rate, years)
            pv = sum(af / (1.0 + rate) ** k for k in range(1, years + 1))
            assert pv == pytest.approx(1.0, rel=1e-12)


def test_annuity_zero_rate_is_straight_division():
    assert annuity_factor(0.0, 20) == pytest.approx(0.05)
    assert annuity_factor(0.0, 8) == pytest.approx(0.125)


def test_annuity_rejects_non_positive_horizon():
    with pytest.raises(ValueError):
        annuity_factor(0.03, 0)
    with pytest.raises(ValueError):
        annuity_factor(0.03, -3)


def test_residual_value_straight_line():
    assert residual_value(1000.0, 20, 20) == pytest.approx(1000.0)
    assert residual_value(1000.0, 20, 10) == pytest.approx(500.0)
    assert residual_value(1000.0, 20, 0) == 0.0
    # clamped to the book interval
    assert residual_value(1000.0, 20, 25) == pytest.approx(1000.0)
    assert residual_value(1000.0, 20, -4) == 0.0


def test_residual_value_monotone_in_remaining_years():
    values = [residual_value(5000.0, 18, r) for r in range(0, 19)]
    assert all(a <= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# CostBreakdown


def test_cost_breakdown_objective_identity():
    bd = CostBreakdown(capex=100.0, capex_subsidy=20.0, opex=55.0,
                       deconstruction=6.0, residual_value=11.0)
    assert bd.objective == pytest.approx(100.0 - 20.0 + 55.0 + 6.0 - 11.0)
    assert CostBreakdown().objective == 0.0


def test_cost_breakdown_add_and_scale():
    a = CostBreakdown(1.0, 2.0, 3.0, 4.0, 5.0)
    b = CostBreakdown(10.0, 20.0, 30.0, 40.0, 50.0)
    s = a + b
    assert s.capex == 11.0 and s.residual_value == 55.0
    assert s.objective == pytest.approx(a.objective + b.objective)
    d = s.to_dict()
    assert d["objective"] == pytest.approx(s.objective)


# ---------------------------------------------------------------------------
# Refurbishment variants


def test_variant_components_bit_layout():
    assert variant_components(0) == ()
    assert variant_components(15) == COMPONENTS
    assert variant_components(1) == ("roof",)
    assert variant_components(2) == ("wall",)
    assert variant_components(4) == ("window",)
    assert variant_components(8) == ("cellar",)
    assert variant_components(5) == ("roof", "window")
    with pytest.raises(ValueError):
        variant_components(16)
    with pytest.raises(ValueError):
        variant_components(-1)


def test_variant_heat_factor_is_component_product(cat):
    for ir in range(16):
        for vector in HEAT_VECTORS:
            expected = 1.0
            for name in variant_components(ir):
                expected *= cat.refurb[name].demand_factor.get(vector, 1.0)
            assert variant_heat_factor(cat, ir, vector) == pytest.approx(expected)
    assert variant_heat_factor(cat, 0, "space_heat") == 1.0
    # refurbishment never increases heat demand
    assert variant_heat_factor(cat, 15, "space_heat") < 1.0


def test_variant_delta_factor_composes(cat):
    # stepping 0 -> 5 -> 15 multiplies out the same as 0 -> 15
    direct = variant_delta_factor(cat, 0, 15, "space_heat")
    stepped = (variant_delta_factor(cat, 0, 5, "space_heat")
               * variant_delta_factor(cat, 5, 15, "space_heat"))
    assert direct == pytest.approx(stepped, rel=1e-12)
    assert variant_delta_factor(cat, 5, 5, "space_heat") == 1.0
    with pytest.raises(ValueError):
        variant_delta_factor(cat, 5, 4, "space_heat")  # drops the roof bit


def _demo_building() -> Building:
    sh = tuple(float(x) for x in np.linspace(30.0, 10.0, 24))
    hw = (2.0,) * 24
    el = (1.5,) * 24
    return Building(
        id="demo", location=(9.0, 50.0), building_type="residential",
        construction_year=1968, roof_area=140.0, open_space_area=30.0,
        demand={"space_heat": sh, "hot_water": hw, "electricity": el},
        variant_index=1,  # the roof is done
    )


def test_effective_demand_identity_and_scaling(cat):
    b = _demo_building()
    grid = TimeGrid.full_year(60)  # only used for array sizes here
    base = effective_demand(b, b.variant_index, cat)
    assert np.allclose(base["space_heat"], np.asarray(b.demand["space_heat"]))
    assert np.allclose(base["electricity"], np.asarray(b.demand["electricity"]))
    full = effective_demand(b, 15, cat)
    factor = variant_delta_factor(cat, b.variant_index, 15, "space_heat")
    assert np.allclose(full["space_heat"],
                       np.asarray(b.demand["space_heat"]) * factor)
    # electricity untouched by envelope measures
    assert np.allclose(full["electricity"], base["electricity"])
    assert factor < 1.0


# ---------------------------------------------------------------------------
# Catalog content and serialization


def test_default_catalog_validates(cat):
    cat.validate()  # raises on defect
    assert cat.discount_rate == pytest.approx(0.03)


def test_default_catalog_inventory(cat):
    expected = {
        "air_conditioner", "air_source_heat_pump", "battery", "buffer_tank",
        "direct_electric", "fuel_cell", "gas_boiler", "grid_connection",
        "ground_source_heat_pump", "heat_exchanger", "micro_chp",
        "oil_heating", "pellet_heating", "pv", "solar_thermal",
        "woodchip_heating",
    }
    assert set(cat.techs) == expected
    assert set(cat.refurb) == set(COMPONENTS)
    kinds = {t.kind for t in cat.techs.values()}
    assert kinds == {"converter", "storage", "connection"}


def test_catalog_tech_lookup(cat):
    assert cat.tech("gas_boiler").carrier == "gas"
    with pytest.raises(CatalogError):
        cat.tech("fusion_reactor")


def test_seasonal_efficiency_lookup(cat):
    hp = cat.tech("air_source_heat_pump")
    assert hp.efficiency_at("winter") < hp.efficiency_at("summer")
    boiler = cat.tech("gas_boiler")
    assert boiler.efficiency_at("winter") == boiler.efficiency_at("summer")


def test_capex_total_is_affine(cat):
    t = cat.tech("gas_boiler")
    assert t.capex_total(10.0) == pytest.approx(t.capex_fix + 10.0 * t.capex_var)


def test_default_catalog_content_is_pinned(cat):
    digest = hashlib.sha256(json.dumps(cat.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == "12d2fa2fec2c9dbcd34378359dc40a62d5392d03bf6075e2496b4f8aefaaaa6f"


def test_catalog_round_trip(cat, tmp_path):
    p1 = tmp_path / "cat.json"
    save_catalog(cat, p1)
    again = load_catalog(p1)
    assert again.to_dict() == cat.to_dict()
    p2 = tmp_path / "cat2.json"
    save_catalog(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_absent_keys_take_the_field_defaults(cat):
    spec = TechnologySpec.from_dict({"id": "bare", "kind": "converter"})
    assert spec == TechnologySpec(id="bare", name="bare", kind="converter",
                                  carrier=None, output=None)
    comp = RefurbComponentSpec.from_dict({
        "name": "roof", "cost_per_m2": 1.0, "area_factor": 1.0,
        "demand_factor": {}, "lifetime": 30})
    assert comp.embodied_per_m2 == 0.0
    doc = cat.to_dict()
    del doc["discount_rate"], doc["meta"]
    assert Catalog.from_dict(doc) == Catalog(cat.techs, cat.refurb)
    # present keys take the type of the field default
    spec = TechnologySpec.from_dict({"id": "t", "kind": "storage", "lifetime": 15.0,
                                     "capex_var": 3, "max_size": None})
    assert type(spec.lifetime) is int and type(spec.capex_var) is float
    assert spec.max_size == math.inf


def test_restrict_catalog(cat):
    small = restrict_catalog(cat, ["gas_boiler", "grid_connection"])
    assert set(small.techs) == {"gas_boiler", "grid_connection"}
    assert small.refurb == cat.refurb
    with pytest.raises(CatalogError):
        restrict_catalog(cat, ["gas_boiler", "warp_drive"])


def _catalog_with(spec: TechnologySpec) -> Catalog:
    base = default_catalog()
    techs = dict(base.techs)
    techs[spec.id] = spec
    return Catalog(techs=techs, refurb=base.refurb,
                   discount_rate=base.discount_rate, meta=base.meta)


def test_validate_rejects_bad_specs(cat):
    import dataclasses

    boiler = cat.tech("gas_boiler")
    bad = [
        dataclasses.replace(boiler, id="x", kind="teleporter"),
        dataclasses.replace(boiler, id="x", carrier="antimatter"),
        dataclasses.replace(boiler, id="x", efficiency=0.0),
        dataclasses.replace(boiler, id="x", subsidy_rate=1.5),
        dataclasses.replace(boiler, id="x", lifetime=0),
        dataclasses.replace(boiler, id="x", min_size=5.0, max_size=2.0),
        dataclasses.replace(boiler, id="x", capex_var=-1.0),
    ]
    for spec in bad:
        with pytest.raises(CatalogError):
            _catalog_with(spec).validate()


def test_validate_rejects_bad_refurb(cat):
    base = default_catalog()
    refurb = dict(base.refurb)
    del refurb["cellar"]
    with pytest.raises(CatalogError):
        Catalog(techs=base.techs, refurb=refurb,
                discount_rate=base.discount_rate, meta=base.meta).validate()
    refurb = dict(base.refurb)
    spec = refurb["roof"]
    refurb["roof"] = RefurbComponentSpec(
        name="roof", cost_per_m2=spec.cost_per_m2, area_factor=spec.area_factor,
        demand_factor={"space_heat": 1.2, "hot_water": 1.0},
        lifetime=spec.lifetime, embodied_per_m2=spec.embodied_per_m2)
    with pytest.raises(CatalogError):
        Catalog(techs=base.techs, refurb=refurb,
                discount_rate=base.discount_rate, meta=base.meta).validate()


def test_validate_rejects_bad_discount(cat):
    base = default_catalog()
    with pytest.raises(CatalogError):
        Catalog(techs=base.techs, refurb=base.refurb,
                discount_rate=1.0, meta=base.meta).validate()


def test_load_catalog_rejects_malformed():
    with pytest.raises(CatalogError):
        load_catalog("{not json")
    with pytest.raises(CatalogError):
        load_catalog(json.dumps({"techs": {}}))
