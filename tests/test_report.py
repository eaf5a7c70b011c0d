"""Stock-level reporting and the CSV / GeoJSON export surface."""

import csv
import io
import json

import pytest

from munipath.docio import dumps, write_text
from munipath.report import (
    aggregate_stage,
    export_csv,
    geojson_from_document,
    path_document,
    pathway_deltas,
    primary_heating,
    reports_from_document,
    stage_geojson,
)
from munipath.twin import Building, TechnologyInstance


@pytest.fixture(scope="module")
def reports(planned_path, cat):
    return [aggregate_stage(st, cat) for st in planned_path.stages]


# ---------------------------------------------------------------------------
# Aggregation


def test_every_building_is_classified(planned_path, reports):
    for st, rep in zip(planned_path.stages, reports):
        assert rep["n_buildings"] == 20
        assert rep["n_solved"] == len(st.solutions)
        assert sum(rep["heating_frequency"].values()) == 20
        assert all(0 < v <= 20 for v in rep["refurb_frequency"].values())


def test_installed_power_matches_stock(planned_path, reports):
    for st, rep in zip(planned_path.stages, reports):
        independent: dict[str, float] = {}
        for b in st.twin_after.buildings:
            for inst in b.installed:
                independent[inst.tech_id] = independent.get(inst.tech_id, 0.0) + inst.size
        assert set(rep["installed_power"]) == set(independent)
        for tid, kw in independent.items():
            assert rep["installed_power"][tid] == pytest.approx(kw, rel=1e-12)


def test_cost_and_emission_closure(planned_path, reports):
    for st, rep in zip(planned_path.stages, reports):
        want_cost = sum(sol.breakdown.objective for sol in st.solutions.values())
        assert rep["cost_breakdown"]["objective"] == pytest.approx(want_cost, rel=1e-9)
        em = rep["emissions"]
        for scope in ("scope1", "scope2", "scope3"):
            want = sum(sol.emissions[scope] for sol in st.solutions.values())
            assert em[scope] == pytest.approx(want, rel=1e-9)
        assert em["total"] == em["scope1"] + em["scope2"] + em["scope3"]
        domain_total = sum(rep["cost_by_domain"].values())
        assert domain_total == pytest.approx(rep["cost_breakdown"]["objective"], rel=1e-9)


def test_measure_counts(planned_path, reports):
    for st, rep in zip(planned_path.stages, reports):
        for kind in ("renovation", "conversion", "addition"):
            assert rep["measures"].get(kind, 0) == len(st.measures_of(kind))
        assert rep["measures"].get("mandatory", 0) == sum(
            1 for mm in st.measures if mm.mandatory)


def test_energy_balance_covers_demand_and_imports(planned_path, reports):
    balance = reports[0]["energy_balance"]
    assert any(k.startswith("demand_") for k in balance)
    assert any(k.startswith("import_") for k in balance)
    assert "export_electricity" in balance
    assert 0.0 <= balance["pv_self_consumption"] <= 1.0


def test_pathway_deltas_telescope(planned_path, cat):
    rows = pathway_deltas(path_document(planned_path, cat))
    assert [r["stage_year"] for r in rows] == list(planned_path.stage_years)
    assert "cost_delta" not in rows[0]
    for prev, cur in zip(rows, rows[1:]):
        assert cur["cost_delta"] == pytest.approx(
            cur["annual_cost"] - prev["annual_cost"], abs=1e-9)
        assert cur["emissions_delta"] == pytest.approx(
            cur["annual_emissions"] - prev["annual_emissions"], abs=1e-9)


# ---------------------------------------------------------------------------
# CSV export


def test_csv_empty_input_is_header_only():
    assert export_csv([]) == "stage_year,metric,key,value\n"


def test_csv_reparses_to_exact_values(reports):
    text = export_csv(reports)
    assert "\r" not in text
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["stage_year", "metric", "key", "value"]
    by_year = {rep["stage_year"]: rep for rep in reports}
    seen = 0
    for year_s, metric, key, value in parsed[1:]:
        d = by_year[int(year_s)]
        if metric == "buildings":
            want = d["n_buildings"] if key == "total" else d["n_solved"]
            assert int(value) == want
            continue
        want = d[metric][key]
        if isinstance(want, float):
            assert float(value) == want  # shortest-repr round trip is exact
        else:
            assert int(value) == want
        seen += 1
    total_keys = sum(
        len(d[m]) for d in by_year.values()
        for m in ("refurb_frequency", "heating_frequency", "installed_power",
                  "energy_balance", "cost_breakdown", "cost_by_domain",
                  "emissions", "measures"))
    assert seen == total_keys


def test_csv_deterministic_and_sink_equal(reports, tmp_path):
    a = export_csv(reports)
    b = export_csv(list(reports))
    assert a == b
    out = tmp_path / "report.csv"
    export_csv(reports, out)
    assert out.read_bytes() == a.encode("utf-8")


@pytest.mark.parametrize("metric, key, value", [
    ("n_buildings", None, "many"),
    ("installed_power", "pv", "4 kW"),
    ("measures", "renovation", None),
])
def test_csv_refuses_a_value_that_is_no_number(reports, metric, key, value):
    rep = json.loads(json.dumps(reports[-1]))
    if key is None:
        rep[metric] = value
    else:
        rep[metric][key] = value
    with pytest.raises((ValueError, TypeError)):
        export_csv([rep])


# ---------------------------------------------------------------------------
# GeoJSON export


def test_geojson_structure(planned_path, cat, reports):
    for st, rep in zip(planned_path.stages, reports):
        doc = stage_geojson(st, cat)
        assert doc["type"] == "FeatureCollection"
        assert doc["stage_year"] == st.target_year
        feats = doc["features"]
        assert len(feats) == 20
        ids = [f["properties"]["id"] for f in feats]
        assert ids == sorted(ids)
        heating: dict[str, int] = {}
        for f in feats:
            assert f["type"] == "Feature"
            geom = f["geometry"]
            assert geom["type"] == "Point"
            lon, lat = geom["coordinates"]
            assert -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0
            props = f["properties"]
            for key in ("building_type", "construction_year", "refurbished",
                        "primary_heating", "installed", "heat_demand_kwh"):
                assert key in props
            if props["id"] in st.solutions:
                assert "annual_cost_eur" in props
                assert "annual_emissions_kg" in props
            tech = props["primary_heating"]
            heating[tech] = heating.get(tech, 0) + 1
        assert heating == rep["heating_frequency"]


def test_geojson_deterministic_and_sink_equal(planned_path, cat, tmp_path):
    st = planned_path.stages[-1]
    a = geojson_from_document(path_document(planned_path, cat), st.target_year)
    assert a == geojson_from_document(path_document(planned_path, cat), st.target_year)
    assert a == dumps(stage_geojson(st, cat))
    out = tmp_path / "stock.geojson"
    write_text(out, a)
    assert out.read_bytes() == a.encode("utf-8")


# ---------------------------------------------------------------------------
# Self-contained result document


def test_path_document_reproduces_exports(planned_path, cat, reports):
    doc = path_document(planned_path, cat)
    assert [sd["report"] for sd in doc["stages"]] == reports
    assert reports_from_document(doc) == reports
    for st in planned_path.stages:
        assert geojson_from_document(doc, st.target_year) == dumps(stage_geojson(st, cat))


def test_path_document_survives_json_round_trip(planned_path, cat):
    doc = path_document(planned_path, cat)
    again = json.loads(json.dumps(doc, sort_keys=True, indent=1))
    assert reports_from_document(again) == reports_from_document(doc)
    year = planned_path.stage_years[-1]
    assert geojson_from_document(again, year) == geojson_from_document(doc, year)


def test_geojson_from_document_unknown_year(planned_path, cat):
    doc = path_document(planned_path, cat)
    with pytest.raises(KeyError):
        geojson_from_document(doc, 1999)


# ---------------------------------------------------------------------------
# Primary heating classification


def _bld(installed) -> Building:
    return Building(
        id="p", location=(9.0, 50.0), building_type="residential",
        construction_year=1990, roof_area=80.0, open_space_area=0.0,
        installed=tuple(installed),
    )


def test_primary_heating_rules(cat):
    big_wins = _bld([TechnologyInstance("gas_boiler", 8.0, 2015),
                     TechnologyInstance("air_source_heat_pump", 12.0, 2020)])
    assert primary_heating(big_wins, cat) == "air_source_heat_pump"

    tie = _bld([TechnologyInstance("gas_boiler", 9.0, 2015),
                TechnologyInstance("air_source_heat_pump", 9.0, 2020)])
    assert primary_heating(tie, cat) == "air_source_heat_pump"  # alphabetical

    non_heat = _bld([TechnologyInstance("pv", 10.0, 2020),
                     TechnologyInstance("battery", 8.0, 2020),
                     TechnologyInstance("grid_connection", 30.0, 2005)])
    assert primary_heating(non_heat, cat) == "none"
    assert primary_heating(_bld([]), cat) == "none"
