"""Technology and refurbishment catalog plus the cost algebra.

All monetary results are annual equivalents in EUR per year: one-time
payments (investment, dismantling, refurbishment) are spread with an annuity
factor so that operating costs and capital costs live on the same axis and
stage objectives stay comparable across differently long stages.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field, replace
from importlib import resources

import numpy as np

from .docio import dumps, given_defaults, read_text, write_text
from .twin import (
    COMPONENTS,
    HEAT_VECTORS,
    Building,
    TechnologyInstance,
    remaining_lifetime,
    variant_components,
)

PRICED_CARRIERS = ("electricity", "gas", "oil", "pellets", "woodchips", "heat_network")
FREE_CARRIERS = ("solar", "ambient")
SEASONS = ("winter", "transition", "summer")

KIND_CONVERTER = "converter"
KIND_STORAGE = "storage"
KIND_CONNECTION = "connection"

# Share of a unit's embodied emissions booked at installation; the rest is
# booked when the unit is dismantled.
EMBODIED_INSTALL_SHARE = 0.8


# TechnologySpec fields that only storage documents carry
_STORAGE_KEYS = ("charge_efficiency", "discharge_efficiency", "loss_per_hour",
                 "power_per_capacity")


class CatalogError(Exception):
    """The catalog document is malformed or breaks an invariant."""


@dataclass(frozen=True)
class TechnologySpec:
    """One installable plant technology.

    Sizes are kW of main output, except storage where size is kWh of
    capacity.  ``efficiency`` is main output per unit of carrier input and
    may be a per-season table (heat pumps).  For solar-driven techs the
    availability profile caps output and ``efficiency`` stays 1.
    """

    id: str
    name: str
    kind: str
    carrier: str | None
    output: str | None
    efficiency: float | dict[str, float] = 1.0
    byproduct: tuple[str, float] | None = None  # (vector, units per main output)
    capex_fix: float = 0.0  # EUR per installation event
    capex_var: float = 0.0  # EUR per kW (EUR per kWh for storage)
    opex_fixed: float = 0.0  # EUR per kW per year
    opex_var: float = 0.0  # EUR per kWh of main output
    lifetime: int = 20
    deconstruction: float = 0.0  # EUR per kW on removal
    embodied: float = 0.0  # kgCO2eq per kW, cradle to site plus disposal
    subsidy_rate: float = 0.0
    roof_area_per_kw: float = 0.0
    open_area_per_kw: float = 0.0
    min_size: float = 0.0
    max_size: float = math.inf
    requires_heat_network: bool = False
    charge_efficiency: float = 1.0
    discharge_efficiency: float = 1.0
    loss_per_hour: float = 0.0
    power_per_capacity: float = 1.0  # kW per kWh, storage only

    def efficiency_at(self, season: str) -> float:
        if isinstance(self.efficiency, dict):
            return self.efficiency[season]
        return self.efficiency

    def capex_total(self, size: float) -> float:
        return self.capex_fix + self.capex_var * size

    @property
    def is_heat_converter(self) -> bool:
        """A converter whose main output is heat: installing or dropping one
        is a heating conversion."""
        return self.output == "heat" and self.kind == KIND_CONVERTER

    def to_dict(self) -> dict:
        d = asdict(self)
        if not math.isfinite(self.max_size):
            d["max_size"] = None
        if self.kind != KIND_STORAGE:
            for key in _STORAGE_KEYS:
                del d[key]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TechnologySpec":
        kw = given_defaults(cls, d, skip=("efficiency", "byproduct", "max_size"))
        eff = d.get("efficiency")
        if isinstance(eff, dict):
            kw["efficiency"] = {str(k): float(v) for k, v in eff.items()}
        elif "efficiency" in d:
            kw["efficiency"] = float(eff)
        byp = d.get("byproduct")
        if byp:
            kw["byproduct"] = (str(byp[0]), float(byp[1]))
        if d.get("max_size") is not None:  # null means unbounded
            kw["max_size"] = float(d["max_size"])
        return cls(
            id=str(d["id"]),
            name=str(d.get("name", d["id"])),
            kind=str(d["kind"]),
            carrier=d.get("carrier"),
            output=d.get("output"),
            **kw,
        )


@dataclass(frozen=True)
class RefurbComponentSpec:
    """One envelope component that can be refurbished exactly once."""

    name: str
    cost_per_m2: float
    area_factor: float  # component area as a multiple of the roof footprint
    demand_factor: dict[str, float]  # per heat vector, multiplier once done
    lifetime: int
    embodied_per_m2: float = 0.0  # kgCO2eq per m2

    def area(self, building: Building) -> float:
        return self.area_factor * building.roof_area

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RefurbComponentSpec":
        return cls(
            name=str(d["name"]),
            cost_per_m2=float(d["cost_per_m2"]),
            area_factor=float(d["area_factor"]),
            demand_factor={str(k): float(v) for k, v in d["demand_factor"].items()},
            lifetime=int(d["lifetime"]),
            **given_defaults(cls, d),
        )


@dataclass(frozen=True)
class Catalog:
    techs: dict[str, TechnologySpec]
    refurb: dict[str, RefurbComponentSpec]
    discount_rate: float = 0.03
    meta: dict = field(default_factory=dict)

    def tech(self, tech_id: str) -> TechnologySpec:
        try:
            return self.techs[tech_id]
        except KeyError:
            raise CatalogError(f"unknown technology {tech_id!r}") from None

    def validate(self) -> None:
        for t in self.techs.values():
            if t.kind not in (KIND_CONVERTER, KIND_STORAGE, KIND_CONNECTION):
                raise CatalogError(f"{t.id}: unknown kind {t.kind!r}")
            if t.kind == KIND_CONVERTER:
                if t.carrier is None or t.output is None:
                    raise CatalogError(f"{t.id}: converter needs carrier and output")
                if t.carrier not in PRICED_CARRIERS + FREE_CARRIERS:
                    raise CatalogError(f"{t.id}: unknown carrier {t.carrier!r}")
            effs = t.efficiency.values() if isinstance(t.efficiency, dict) else [t.efficiency]
            if any(e <= 0 for e in effs):
                raise CatalogError(f"{t.id}: efficiency must be positive")
            if isinstance(t.efficiency, dict) and set(t.efficiency) != set(SEASONS):
                raise CatalogError(f"{t.id}: seasonal efficiency must cover {SEASONS}")
            if not 0.0 <= t.subsidy_rate <= 1.0:
                raise CatalogError(f"{t.id}: subsidy_rate outside [0, 1]")
            if t.lifetime <= 0:
                raise CatalogError(f"{t.id}: lifetime must be positive")
            if t.min_size < 0 or t.max_size < t.min_size:
                raise CatalogError(f"{t.id}: size bounds inverted")
            if min(t.capex_fix, t.capex_var, t.opex_fixed, t.deconstruction) < 0:
                raise CatalogError(f"{t.id}: negative cost entry")
        if set(self.refurb) != set(COMPONENTS):
            raise CatalogError(f"refurb catalog must define exactly {COMPONENTS}")
        for r in self.refurb.values():
            if r.cost_per_m2 < 0 or r.area_factor < 0 or r.lifetime <= 0:
                raise CatalogError(f"refurb {r.name}: bad numbers")
            for v, f in r.demand_factor.items():
                if v not in HEAT_VECTORS or not 0.0 < f <= 1.0:
                    raise CatalogError(f"refurb {r.name}: factor {v}={f} out of range")
        if not 0.0 <= self.discount_rate < 1.0:
            raise CatalogError("discount_rate outside [0, 1)")

    def to_dict(self) -> dict:
        return {
            "meta": dict(self.meta),
            "discount_rate": self.discount_rate,
            "technologies": [self.techs[k].to_dict() for k in sorted(self.techs)],
            "refurbishment": [self.refurb[k].to_dict() for k in sorted(self.refurb)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Catalog":
        techs = {t["id"]: TechnologySpec.from_dict(t) for t in d["technologies"]}
        refurb = {r["name"]: RefurbComponentSpec.from_dict(r) for r in d["refurbishment"]}
        cat = cls(
            techs=techs,
            refurb=refurb,
            meta=dict(d.get("meta", {})),
            **given_defaults(cls, d),
        )
        cat.validate()
        return cat


def load_catalog(source) -> Catalog:
    """Read a catalog from a path or from the document's own text."""
    try:
        return Catalog.from_dict(json.loads(read_text(source)[0]))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CatalogError(f"malformed catalog: {exc}") from exc


def save_catalog(cat: Catalog, sink) -> None:
    write_text(sink, dumps(cat.to_dict()))


# ---------------------------------------------------------------------------
# Cost algebra


def annuity_factor(rate: float, years: float) -> float:
    """Annual payment per unit of present value over ``years`` at ``rate``."""
    if years <= 0:
        raise ValueError("annuity needs a positive horizon")
    if rate == 0.0:
        return 1.0 / years
    q = (1.0 + rate) ** years
    return rate * q / (q - 1.0)


def residual_value(capex_total: float, lifetime: float, remaining_years: float) -> float:
    """Straight-line book value of an asset with ``remaining_years`` left."""
    if lifetime <= 0:
        return 0.0
    frac = min(max(remaining_years, 0.0), lifetime) / lifetime
    return capex_total * frac


@dataclass(frozen=True)
class CostBreakdown:
    """Objective components, each an annual equivalent in EUR per year.

    ``objective`` reproduces the solved objective: investment net of
    subsidies plus operation plus removal, minus the value still bound in
    kept plant.  The building model keeps its per-column coefficients in
    one whose fields are arrays, so this is also where its cost objective
    is defined.
    """

    capex: float = 0.0
    capex_subsidy: float = 0.0
    opex: float = 0.0
    deconstruction: float = 0.0
    residual_value: float = 0.0

    @property
    def objective(self) -> float:
        return (self.capex - self.capex_subsidy + self.opex
                + self.deconstruction - self.residual_value)

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(*(a + b for a, b in zip(astuple(self), astuple(other))))

    def to_dict(self) -> dict:
        return {**asdict(self), "objective": self.objective}


# ---------------------------------------------------------------------------
# Refurbishment variants

def variant_heat_factor(cat: Catalog, variant_index: int, vector: str) -> float:
    """Demand multiplier of a variant relative to the untouched envelope."""
    factor = 1.0
    for name in variant_components(variant_index):
        factor *= cat.refurb[name].demand_factor.get(vector, 1.0)
    return factor


def variant_delta_factor(cat: Catalog, from_index: int, to_index: int, vector: str) -> float:
    """Demand multiplier of moving a building from one variant to a superset.

    Measured profiles describe the current state, so only the newly added
    components scale them.
    """
    if to_index & from_index != from_index:
        raise ValueError(f"variant {to_index} does not contain current state {from_index}")
    return (variant_heat_factor(cat, to_index, vector)
            / variant_heat_factor(cat, from_index, vector))


def effective_demand(building: Building, variant_index: int,
                     cat: Catalog) -> dict[str, np.ndarray]:
    """Demand profiles the building would show under a refurbishment variant.

    Heat vectors shrink by the factors of the newly added components;
    electricity and cooling are untouched.
    """
    out: dict[str, np.ndarray] = {}
    for vector, values in building.demand.items():
        arr = np.asarray(values, dtype=float)
        if vector in HEAT_VECTORS:
            arr = arr * variant_delta_factor(cat, building.variant_index, variant_index, vector)
        out[vector] = arr
    return out


def in_service(instances, cat: Catalog, year: int) -> list[TechnologyInstance]:
    """The units that still have service life left at ``year``."""
    return [inst for inst in instances
            if remaining_lifetime(inst, cat.tech(inst.tech_id).lifetime, year) > 0]


# ---------------------------------------------------------------------------
# Default catalog

def default_catalog() -> Catalog:
    """Built-in synthetic catalog used by fixtures, demos, and tests."""
    data = resources.files(__package__) / "data" / "catalog.json"
    return load_catalog(data.read_text(encoding="utf-8"))


def restrict_catalog(cat: Catalog, tech_ids: list[str]) -> Catalog:
    """Catalog reduced to a subset of technologies (tests, toy instances)."""
    return replace(cat, techs={tid: cat.tech(tid) for tid in tech_ids})
