"""Stock-level reporting on planned stages, and the one writer of a run's
document.

Turns per-building solutions into the aggregates a municipality actually
discusses: how many buildings run on what, how much energy crosses the
boundary, what it costs, and what it emits.  ``path_document`` bundles the
plan with each stage's report and map into the run's document
(``path.json``), from which every export is regenerated without solving
again.  All exports are deterministic byte for byte so results can be
diffed between runs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict

from .catalog import Catalog, CostBreakdown
from .docio import dumps, write_text
from .model import BuildingSolution
from .pathway import StageResult, TransformationPath
from .solver import SolveStatus
from .twin import HEAT_VECTORS, Building, variant_components


# every metric of a stage report, in CSV order, and the type of its values
METRICS = {
    "refurb_frequency": int,
    "heating_frequency": int,
    "installed_power": float,
    "energy_balance": float,
    "cost_breakdown": float,
    "cost_by_domain": float,
    "emissions": float,
    "measures": int,
}


def primary_heating(building: Building, cat: Catalog) -> str:
    """The technology carrying the building's heat supply.

    Largest heat-producing converter by size; ties resolve to the
    alphabetically first id so reports are stable.
    """
    best: tuple[float, str] | None = None
    for inst in building.installed:
        if not cat.tech(inst.tech_id).is_heat_converter:
            continue
        key = (-inst.size, inst.tech_id)
        if best is None or key < best:
            best = key
    return best[1] if best else "none"


def aggregate_stage(stage: StageResult, cat: Catalog) -> dict:
    """Roll one stage up to stock level: the report ``path.json`` stores for
    the stage, every mapping sorted by key.

    Stock composition comes from the committed twin; flows, costs, and
    emissions from the per-building solutions (unsolved buildings carry
    no flows).
    """
    twin = stage.twin_after
    refurb: dict[str, int] = {}
    heating: dict[str, int] = {}
    power: dict[str, float] = {}
    for b in twin.buildings:
        for comp in variant_components(b.variant_index):
            refurb[comp] = refurb.get(comp, 0) + 1
        tech = primary_heating(b, cat)
        heating[tech] = heating.get(tech, 0) + 1
        for inst in b.installed:
            power[inst.tech_id] = power.get(inst.tech_id, 0.0) + inst.size

    balance: dict[str, float] = {}
    total = CostBreakdown()
    by_domain: dict[str, float] = {}
    emissions: dict[str, float] = {}
    pv_total = 0.0
    export_total = 0.0
    for bid in sorted(stage.solutions):
        sol = stage.solutions[bid]
        for carrier, kwh in sol.imports.items():
            balance[f"import_{carrier}"] = balance.get(f"import_{carrier}", 0.0) + kwh
        export_total += sol.export
        pv_total += sol.pv_generation
        for vector, kwh in sol.demand_after.items():
            balance[f"demand_{vector}"] = balance.get(f"demand_{vector}", 0.0) + kwh
        total = total + sol.breakdown
        for dom, part in sol.breakdown_by_domain.items():
            by_domain[dom] = by_domain.get(dom, 0.0) + part.objective
        for scope, kg in sol.emissions.items():
            emissions[scope] = emissions.get(scope, 0.0) + kg
    if emissions:
        # re-derive the total from the summed scopes so the published
        # numbers close exactly
        emissions["total"] = (emissions.get("scope1", 0.0)
                              + emissions.get("scope2", 0.0)
                              + emissions.get("scope3", 0.0))
    balance["export_electricity"] = export_total
    balance["pv_generation"] = pv_total
    balance["pv_self_consumption"] = (
        (pv_total - export_total) / pv_total if pv_total > 1e-9 else 0.0)

    measures: dict[str, int] = {}
    for mm in stage.measures:
        measures[mm.kind] = measures.get(mm.kind, 0) + 1
        if mm.mandatory:
            measures["mandatory"] = measures.get("mandatory", 0) + 1

    metrics = {"refurb_frequency": refurb, "heating_frequency": heating,
               "installed_power": power, "energy_balance": balance,
               "cost_breakdown": total.to_dict(), "cost_by_domain": by_domain,
               "emissions": emissions, "measures": measures}
    return {
        "stage_year": stage.target_year,
        "n_buildings": len(twin.buildings),
        "n_solved": len(stage.solutions),
        **{metric: dict(sorted(values.items())) for metric, values in metrics.items()},
    }


def pathway_deltas(doc: dict) -> list[dict]:
    """Stage-over-stage movement of cost and emissions in a run's document."""
    out: list[dict] = []
    prev = None
    for rep in reports_from_document(doc):
        row = {
            "stage_year": rep["stage_year"],
            "annual_cost": rep["cost_breakdown"]["objective"],
            "annual_emissions": rep["emissions"].get("total", 0.0),
        }
        if prev is not None:
            row["cost_delta"] = row["annual_cost"] - prev["annual_cost"]
            row["emissions_delta"] = row["annual_emissions"] - prev["annual_emissions"]
        out.append(row)
        prev = row
    return out


def export_csv(reports: list[dict], sink=None) -> str:
    """Long-format table of stage reports: stage_year, metric, key, value.

    Row order is fixed (stage, then metric, then key) and floats use
    their shortest round-trip form, so equal inputs give equal bytes.  Each
    value is converted to its metric's type, so a report read from a
    document with a value that is no number raises ``ValueError`` or
    ``TypeError``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["stage_year", "metric", "key", "value"])
    for rep in sorted(reports, key=lambda r: r["stage_year"]):
        year = int(rep["stage_year"])
        writer.writerow([year, "buildings", "total", int(rep["n_buildings"])])
        writer.writerow([year, "buildings", "solved", int(rep["n_solved"])])
        for metric, kind in METRICS.items():
            for key, value in sorted(rep[metric].items()):
                writer.writerow([year, metric, key, kind(value)])
    text = buf.getvalue()
    if sink is not None:
        write_text(sink, text)
    return text


def stage_geojson(stage: StageResult, cat: Catalog) -> dict:
    """RFC 7946 FeatureCollection of the stage's building stock.

    One Point per building with its committed state and, where solved,
    the stage's cost and emission outcome.
    """
    features = []
    grid = stage.twin_after.grid
    for b in sorted(stage.twin_after.buildings, key=lambda b: b.id):
        heat_demand = sum(
            b.annual_demand(v, grid) for v in HEAT_VECTORS if v in b.demand)
        props = {
            "id": b.id,
            "building_type": b.building_type,
            "construction_year": b.construction_year,
            "refurbished": sorted(variant_components(b.variant_index)),
            "primary_heating": primary_heating(b, cat),
            "installed": [[i.tech_id, i.size, i.install_year]
                          for i in sorted(b.installed,
                                          key=lambda i: (i.tech_id, i.install_year))],
            "heat_demand_kwh": round(heat_demand, 3),
        }
        sol = stage.solutions.get(b.id)
        if sol is not None:
            props["annual_cost_eur"] = round(sol.breakdown.objective, 2)
            props["annual_emissions_kg"] = round(sol.emissions["total"], 2)
        if b.id in stage.infeasible:
            props["infeasible"] = stage.infeasible[b.id]
        if b.id in stage.failed:
            props["failed"] = stage.failed[b.id]
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point",
                         "coordinates": [b.location[0], b.location[1]]},
            "properties": props,
        })
    return {
        "type": "FeatureCollection",
        "features": features,
        "stage_year": stage.target_year,
    }


def path_document(path_obj: TransformationPath, cat: Catalog) -> dict:
    """The run's document (``path.json``): plan plus per-stage report and
    map data, so downstream exports never need to re-solve anything."""
    return {
        "twin_id": path_obj.twin_id,
        "stage_years": list(path_obj.stage_years),
        "scenario_id": path_obj.scenario_id,
        "catalog_id": path_obj.catalog_id,
        "options": dict(sorted(path_obj.options.items())),
        "stages": [_stage_dict(st, cat) for st in path_obj.stages],
    }


def _stage_dict(st: StageResult, cat: Catalog) -> dict:
    return {
        "target_year": st.target_year,
        "period_years": st.period_years,
        "budgets": dict(sorted(st.budgets.items())),
        "realized_rates": dict(sorted(st.realized_rates.items())),
        "denied": [list(d) for d in sorted(st.denied)],
        "infeasible": dict(sorted(st.infeasible.items())),
        # only where a solve failed, so that documents of clean runs keep
        # their bytes
        **({"failed": dict(sorted(st.failed.items()))} if st.failed else {}),
        "measures": [asdict(mm) for mm in sorted(
            st.measures, key=lambda mm: (mm.implementation_year, mm.building_id, mm.kind))],
        "buildings": {
            bid: _solution_dict(sol) for bid, sol in sorted(st.solutions.items())
        },
        "report": aggregate_stage(st, cat),
        "geojson": stage_geojson(st, cat),
    }


def _solution_dict(sol: BuildingSolution) -> dict:
    # status and gap only where optimality was not proven, so that documents
    # of fully solved runs keep their bytes; a gap without a finite bound
    # (the limit came before the root LP) is null
    proof = {} if sol.status is SolveStatus.OPTIMAL else {
        "status": sol.status.value,
        "gap": sol.gap if sol.gap is not None and math.isfinite(sol.gap) else None}
    return {
        **proof,
        "objective": sol.objective,
        "variant_index": sol.variant_index,
        "new_components": list(sol.new_components),
        "kept": [inst.to_dict() for inst in sol.kept],
        "dropped": [inst.to_dict() for inst in sol.dropped],
        "installed": [[t, s] for t, s in sol.installed],
        "imports": dict(sorted(sol.imports.items())),
        "export": sol.export,
        "pv_generation": sol.pv_generation,
        "self_consumption": sol.self_consumption,
        "breakdown": sol.breakdown.to_dict(),
        "emissions": dict(sorted(sol.emissions.items())),
        "demand_after": dict(sorted(sol.demand_after.items())),
    }


def reports_from_document(doc: dict) -> list[dict]:
    return [sd["report"] for sd in doc["stages"]]


def geojson_from_document(doc: dict, stage_year: int) -> str:
    for sd in doc["stages"]:
        if sd["target_year"] == stage_year:
            return dumps(sd["geojson"])
    raise KeyError(stage_year)
