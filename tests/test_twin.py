"""Time axis, demand profiles, envelope state, and twin ingestion."""

import json

import numpy as np
import pytest

from munipath.twin import (
    COMPONENTS,
    Building,
    DuplicateIdError,
    EnergyTwin,
    TechnologyInstance,
    TimeGrid,
    TwinParseError,
    TwinValidationError,
    admissible_refurb_variants,
    load_twin,
    remaining_lifetime,
    save_twin,
    variant_components,
    variant_of,
)


# ---------------------------------------------------------------------------
# TimeGrid


def test_full_year_grid_covers_8760_hours():
    g = TimeGrid.full_year(60)
    assert g.steps == 8760
    assert g.hours_per_step == 1.0
    w = g.step_weights()
    assert np.all(w == 1.0)
    assert float(w.sum()) == 8760.0


def test_representative_days_weights_cover_the_year():
    for res in (60, 30, 15):
        g = TimeGrid.representative_days(res)
        assert g.steps == 4 * g.steps_per_day
        # every day-of-year column sums to 365 calendar days
        assert float(sum(w for _, w in g.days)) == 365.0
        assert float(g.step_weights().sum()) == 365.0 * g.steps_per_day


def test_resolution_must_divide_a_day():
    with pytest.raises(ValueError):
        TimeGrid(7, ((15, 365.0),))
    with pytest.raises(ValueError):
        TimeGrid(0, ((15, 365.0),))
    with pytest.raises(ValueError):
        TimeGrid(60, ())


def test_cyclic_blocks_full_year_is_one_loop():
    g = TimeGrid.full_year(60)
    assert g.cyclic_blocks() == [slice(0, 8760)]


def test_cyclic_blocks_weighted_days_cycle_separately():
    g = TimeGrid.representative_days(60)
    blocks = g.cyclic_blocks()
    assert len(blocks) == 4
    assert all(b.stop - b.start == 24 for b in blocks)
    assert blocks[0].start == 0 and blocks[-1].stop == g.steps


def test_day_and_hour_labels():
    g = TimeGrid.representative_days(60)
    d = g.day_of_year()
    h = g.hour_of_day()
    assert d.shape == (96,) and h.shape == (96,)
    assert set(d) == {15, 105, 196, 288}
    assert h.min() == 0.0 and h.max() == 23.0


def test_solar_availability_bounded_and_dark_at_night():
    for g in (TimeGrid.representative_days(60), TimeGrid.full_year(60)):
        a = g.solar_availability()
        assert float(a.min()) >= 0.0
        assert float(a.max()) <= 1.0
        h = g.hour_of_day()
        assert np.all(a[(h < 6.0) | (h >= 18.0)] == 0.0)
        assert float(a.max()) > 0.1


def test_solar_availability_summer_beats_winter():
    g = TimeGrid.representative_days(60)
    a = g.solar_availability()
    d = g.day_of_year()
    assert a[d == 196].max() > a[d == 15].max()


def test_season_labels():
    g = TimeGrid(1440, ((15, 1.0), (105, 1.0), (196, 1.0), (320, 1.0)))
    assert list(g.season_of_step()) == ["winter", "transition", "summer", "winter"]


def test_grid_round_trip():
    g = TimeGrid.representative_days(30)
    assert TimeGrid.from_dict(g.to_dict()) == g


# ---------------------------------------------------------------------------
# Demand profiles


def test_profile_validation_complaints():
    # a negative value, a NaN, or a resolution other than the grid's (720)
    for profile, complaint in (
            ({"values": [1.0, -0.1], "resolution": 720}, "negative demand value"),
            ({"values": [float("nan"), 1.0]}, "non-finite demand sum"),
            ({"values": [1.0, 2.0], "resolution": 60}, "resolution 60 != grid 720")):
        with pytest.raises(TwinValidationError) as err:
            load_twin(_doc([_minimal_record(demand={"electricity": profile})]))
        assert err.value.field == "demand" and err.value.building_id == "b1"
        assert complaint in str(err.value)
    ok = load_twin(_doc([_minimal_record(demand={"electricity": {"values": [1.0, 2.0]}})]))
    assert ok.buildings[0].demand["electricity"] == (1.0, 2.0)


# ---------------------------------------------------------------------------
# Envelope state and variants


def _building(variant_index: int) -> Building:
    return Building(
        id="b", location=(10.0, 51.0), building_type="residential",
        construction_year=1980, roof_area=100.0, open_space_area=0.0,
        variant_index=variant_index,
    )


def test_refurb_state_round_trip_all_16():
    grid = TimeGrid(720, ((15, 365.0),))
    for ir in range(16):
        names = variant_components(ir)
        assert len(names) == bin(ir).count("1")
        assert variant_of(names) == ir
        doc = EnergyTwin({}, grid, (_building(ir),)).to_dict()
        assert doc["buildings"][0]["refurb_state"] == {c: c in names for c in COMPONENTS}
        assert load_twin(json.dumps(doc)).buildings[0].variant_index == ir
    with pytest.raises(ValueError):
        variant_components(16)
    with pytest.raises(ValueError):
        variant_components(-1)
    # the reader ignores unknown components and counts any truthy value
    rec = _minimal_record(refurb_state={"roof": 1, "wall": 0, "window": "yes", "attic": True})
    assert load_twin(_doc([rec])).buildings[0].variant_index == variant_of(("roof", "window"))


def test_admissible_variants_count_halves_per_done_component():
    for ir in range(16):
        b = _building(ir)
        adm = admissible_refurb_variants(b)
        assert len(adm) == 2 ** (4 - bin(ir).count("1"))
        # admissible variants never drop a component already done
        assert all(v & ir == ir for v in adm)
        assert 15 in adm  # the full envelope is always reachable


def test_admissible_variants_extremes():
    assert admissible_refurb_variants(_building(0)) == set(range(16))
    assert admissible_refurb_variants(_building(15)) == {15}


def test_admissible_variants_wall_only():
    wall_bit = 1 << COMPONENTS.index("wall")
    adm = admissible_refurb_variants(_building(variant_of(("wall",))))
    assert adm == {ir for ir in range(16) if ir & wall_bit}
    assert len(adm) == 8


# ---------------------------------------------------------------------------
# Lifetime


def test_remaining_lifetime_arithmetic():
    inst = TechnologyInstance("gas_boiler", 10.0, 2015)
    assert remaining_lifetime(inst, 20, 2030) == 5.0
    assert remaining_lifetime(TechnologyInstance("x", 1.0, 2000), 20, 2030) == 0.0
    assert remaining_lifetime(inst, 20, 2015) == 20.0


def test_remaining_lifetime_non_increasing_and_zero_at_expiry():
    inst = TechnologyInstance("t", 5.0, 2010)
    lifetime = 17
    values = [remaining_lifetime(inst, lifetime, y) for y in range(2010, 2040)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert remaining_lifetime(inst, lifetime, 2010 + lifetime) == 0.0
    assert remaining_lifetime(inst, lifetime, 2010 + lifetime - 1) == 1.0


# ---------------------------------------------------------------------------
# Ingestion


def test_save_load_round_trip(twin20, tmp_path):
    p1 = tmp_path / "twin.json"
    save_twin(twin20, p1)
    again = load_twin(p1)
    assert again.to_dict() == twin20.to_dict()
    p2 = tmp_path / "twin2.json"
    save_twin(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_total_heat_demand_matches_raw_document(twin20, tmp_path):
    p = tmp_path / "twin.json"
    save_twin(twin20, p)
    doc = json.loads(p.read_text())
    weights = np.repeat([w for _, w in doc["meta"]["timegrid"]["days"]],
                        1440 // doc["meta"]["timegrid"]["resolution_minutes"])
    raw_total = 0.0
    for rec in doc["buildings"]:
        for vec in ("space_heat", "hot_water"):
            if vec in rec["demand"]:
                raw_total += float(np.asarray(rec["demand"][vec]["values"]) @ weights)
    grid = twin20.grid
    twin_total = sum(b.annual_demand("space_heat", grid) + b.annual_demand("hot_water", grid)
                     for b in twin20.buildings)
    assert raw_total == pytest.approx(twin_total, rel=1e-12)
    assert twin_total > 0


def test_load_twin_from_string_and_file(tmp_path):
    grid = TimeGrid(720, ((15, 365.0),))
    b = Building(id="only", location=(9.9, 50.1), building_type="public",
                 construction_year=1999, roof_area=50.0, open_space_area=0.0,
                 demand={"electricity": (1.0, 2.0)})
    twin = EnergyTwin(meta={"id": "mini"}, grid=grid, buildings=(b,))
    text = json.dumps(twin.to_dict())
    loaded = load_twin(text)
    assert loaded.buildings[0].id == "only"
    assert loaded.grid == grid
    path = tmp_path / "t.json"
    path.write_text(text)
    assert load_twin(path).to_dict() == twin.to_dict()


def _doc(buildings: list[dict]) -> str:
    return json.dumps({
        "meta": {"timegrid": {"resolution_minutes": 720, "days": [[15, 365.0]]}},
        "buildings": buildings,
    })


def _minimal_record(**overrides) -> dict:
    rec = {
        "id": "b1",
        "location": [10.0, 51.0],
        "building_type": "residential",
        "construction_year": 1975,
        "roof_area": 120.0,
        "open_space_area": 0.0,
        "demand": {"electricity": {"values": [1.0, 1.0], "resolution": 720}},
    }
    rec.update(overrides)
    return rec


def test_minimal_document_loads():
    twin = load_twin(_doc([_minimal_record()]))
    assert len(twin.buildings) == 1
    assert twin.buildings[0].installed == ()


def test_negative_roof_area_names_the_building():
    with pytest.raises(TwinValidationError) as err:
        load_twin(_doc([_minimal_record(roof_area=-1.0)]))
    assert err.value.building_id == "b1"
    assert err.value.field == "roof_area"
    assert "b1" in str(err.value)


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateIdError) as err:
        load_twin(_doc([_minimal_record(), _minimal_record()]))
    assert "b1" in str(err.value)


def test_validation_rejections():
    with pytest.raises(TwinValidationError):
        load_twin(_doc([_minimal_record(building_type="castle")]))
    with pytest.raises(TwinValidationError):
        load_twin(_doc([_minimal_record(location=[200.0, 51.0])]))
    with pytest.raises(TwinValidationError):  # wrong step count
        load_twin(_doc([_minimal_record(
            demand={"electricity": {"values": [1.0], "resolution": 720}})]))
    with pytest.raises(TwinValidationError):  # negative demand
        load_twin(_doc([_minimal_record(
            demand={"electricity": {"values": [1.0, -1.0], "resolution": 720}})]))
    with pytest.raises(TwinValidationError):  # unknown vector
        load_twin(_doc([_minimal_record(
            demand={"steam": {"values": [1.0, 1.0], "resolution": 720}})]))
    with pytest.raises(TwinValidationError):  # zero-size instance
        load_twin(_doc([_minimal_record(
            installed=[{"tech_id": "pv", "size": 0.0, "install_year": 2020}])]))


def test_parse_errors(tmp_path):
    with pytest.raises(TwinParseError):
        load_twin("{not json")
    with pytest.raises(TwinParseError):
        load_twin(json.dumps({"buildings": []}))  # meta missing
    with pytest.raises(TwinParseError):
        load_twin(json.dumps({"meta": "ab", "buildings": []}))  # meta no object
    with pytest.raises(TwinParseError):
        load_twin(json.dumps({"meta": {}, "buildings": 5}))  # buildings no list
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"meta": "\xff"}')
    with pytest.raises(TwinParseError):
        load_twin(not_utf8)
    with pytest.raises(TwinParseError):
        load_twin(json.dumps({"meta": {}, "buildings": []}))  # timegrid missing
    with pytest.raises(TwinParseError):
        load_twin(_doc([{"id": "b1"}]))  # truncated record
    with pytest.raises(TwinParseError):
        load_twin("/nonexistent/twin.json")


def test_sidecar_csv_profiles(tmp_path):
    (tmp_path / "profiles.csv").write_text(
        "electricity,space_heat\n1.5,24.0\n2.5,12.0\n")
    rec = _minimal_record(demand={
        "electricity": {"csv": "profiles.csv"},
        "space_heat": {"csv": "profiles.csv"},
    })
    doc_path = tmp_path / "twin.json"
    doc_path.write_text(_doc([rec]))
    twin = load_twin(doc_path)
    assert twin.buildings[0].demand["electricity"] == (1.5, 2.5)
    assert twin.buildings[0].demand["space_heat"] == (24.0, 12.0)
    # referencing a sidecar without a base directory cannot work
    with pytest.raises(TwinParseError):
        load_twin(_doc([rec]))
    # missing column
    rec2 = _minimal_record(demand={"hot_water": {"csv": "profiles.csv"}})
    doc_path.write_text(_doc([rec2]))
    with pytest.raises(TwinParseError):
        load_twin(doc_path)


def test_building_lookup_and_replacement(twin20):
    b = twin20.buildings[0]
    assert twin20.building(b.id) is b
    with pytest.raises(KeyError):
        twin20.building("nope")
