"""Digital twin of an existing building stock.

The twin is the brownfield starting point of every planning stage: buildings
with their demand profiles, envelope refurbishment state, and the plant that
is already installed.  All types are immutable values; loaders establish the
invariants once and everything downstream may share objects freely.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .docio import dumps, read_text, write_text

# Envelope states and refurbishment variants are bitmasks over COMPONENTS:
# bit 0 roof, 1 wall, 2 window, 3 cellar.  Variant 0 is the untouched envelope.
COMPONENTS = ("roof", "wall", "window", "cellar")
VECTORS = ("electricity", "space_heat", "hot_water", "cooling")
HEAT_VECTORS = ("space_heat", "hot_water")

BUILDING_TYPES = ("residential", "commercial", "public")

# Daylight hours and seasonal shape used for the synthetic solar availability.
_SOLAR_SCALE = 0.55


def variant_components(variant_index: int) -> tuple[str, ...]:
    if not 0 <= variant_index < 16:
        raise ValueError(f"variant index {variant_index} out of range")
    return tuple(name for bit, name in enumerate(COMPONENTS) if variant_index >> bit & 1)


def variant_of(components) -> int:
    """The variant bitmask of the named components (the inverse of variant_components)."""
    return sum(1 << COMPONENTS.index(name) for name in set(components))


class TwinError(Exception):
    """Base class for twin ingestion problems."""


class TwinParseError(TwinError):
    """The document is not a well-formed twin file."""


class TwinValidationError(TwinError):
    """An invariant is broken; carries the offending building and field."""

    def __init__(self, message: str, building_id: str | None = None, field: str | None = None):
        super().__init__(message)
        self.building_id = building_id
        self.field = field


class DuplicateIdError(TwinError):
    def __init__(self, building_id: str):
        super().__init__(f"duplicate building id {building_id!r}")
        self.building_id = building_id


@dataclass(frozen=True)
class TimeGrid:
    """Dispatch time axis: either a full year or weighted representative days.

    Each represented day contributes ``steps_per_day`` consecutive steps; its
    weight is the number of calendar days it stands for, so annual quantities
    are step sums weighted per day.
    """

    resolution_minutes: int
    days: tuple[tuple[int, float], ...]  # (day_of_year, weight)

    def __post_init__(self):
        if self.resolution_minutes <= 0 or 1440 % self.resolution_minutes != 0:
            raise ValueError("resolution must divide 1440 minutes")
        if not self.days:
            raise ValueError("time grid needs at least one day")
        if not all(0 < w < math.inf for _, w in self.days):
            raise ValueError("every day weight must be finite and > 0")

    @property
    def steps_per_day(self) -> int:
        return 1440 // self.resolution_minutes

    @property
    def steps(self) -> int:
        return self.steps_per_day * len(self.days)

    @property
    def hours_per_step(self) -> float:
        return self.resolution_minutes / 60.0

    def step_weights(self) -> np.ndarray:
        """Per-step annual weights (calendar days represented by each step)."""
        return np.repeat([w for _, w in self.days], self.steps_per_day)

    def day_of_year(self) -> np.ndarray:
        return np.repeat([d for d, _ in self.days], self.steps_per_day)

    def hour_of_day(self) -> np.ndarray:
        hours = np.arange(self.steps_per_day) * self.hours_per_step
        return np.tile(hours, len(self.days))

    def cyclic_blocks(self) -> list[slice]:
        """Slices within which storage state must close on itself.

        Weighted representative days are independent, so each day cycles on
        its own; an unweighted contiguous year cycles once globally.
        """
        if all(w == 1.0 for _, w in self.days):
            return [slice(0, self.steps)]
        n = self.steps_per_day
        return [slice(i * n, (i + 1) * n) for i in range(len(self.days))]

    def solar_availability(self) -> np.ndarray:
        """Normalized irradiance in [0, 1]: diurnal sine over 06-18h, scaled
        by season so clear summer noon approaches 1 and winter stays low."""
        h = self.hour_of_day()
        d = self.day_of_year()
        diurnal = np.clip(np.sin(np.pi * (h - 6.0) / 12.0), 0.0, None)
        diurnal[(h < 6.0) | (h >= 18.0)] = 0.0
        seasonal = 0.4 + 0.6 * 0.5 * (1.0 - np.cos(2.0 * np.pi * (d - 172.0) / 365.0 + np.pi))
        return _SOLAR_SCALE * diurnal * seasonal

    def season_of_step(self) -> np.ndarray:
        """'winter' / 'transition' / 'summer' label per step."""
        d = self.day_of_year()
        out = np.where((d < 60) | (d >= 305), "winter", "transition")
        out = np.where((d >= 135) & (d < 245), "summer", out)
        return out

    def to_dict(self) -> dict:
        return {
            "resolution_minutes": self.resolution_minutes,
            "days": [[int(d), float(w)] for d, w in self.days],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimeGrid":
        return cls(
            resolution_minutes=int(data["resolution_minutes"]),
            days=tuple((int(d), float(w)) for d, w in data["days"]),
        )

    @classmethod
    def full_year(cls, resolution_minutes: int = 60) -> "TimeGrid":
        return cls(resolution_minutes, tuple((d, 1.0) for d in range(1, 366)))

    @classmethod
    def representative_days(cls, resolution_minutes: int = 60) -> "TimeGrid":
        """Four season-typical days weighted to cover the year."""
        return cls(resolution_minutes, ((15, 92.0), (105, 91.0), (196, 91.0), (288, 91.0)))


@dataclass(frozen=True)
class TechnologyInstance:
    tech_id: str
    size: float  # kW (kWh for storage, m² handled via per-kW area factors)
    install_year: int

    def to_dict(self) -> dict:
        return {"tech_id": self.tech_id, "size": float(self.size),
                "install_year": self.install_year}


@dataclass(frozen=True)
class Building:
    id: str
    location: tuple[float, float]  # (lon, lat) WGS84
    building_type: str
    construction_year: int
    roof_area: float
    open_space_area: float
    demand: dict[str, tuple[float, ...]] = field(default_factory=dict)  # kWh per grid step
    variant_index: int = 0  # envelope components already refurbished
    installed: tuple[TechnologyInstance, ...] = ()
    heat_network_access: bool = False

    def annual_demand(self, vector: str, grid: TimeGrid) -> float:
        values = self.demand.get(vector)
        if values is None:
            return 0.0
        return float(np.asarray(values, dtype=float) @ grid.step_weights())

    def to_dict(self, resolution: int) -> dict:
        """The building's document; ``resolution`` is its grid's step in minutes."""
        return {
            "id": self.id,
            "location": [float(self.location[0]), float(self.location[1])],
            "building_type": self.building_type,
            "construction_year": self.construction_year,
            "roof_area": float(self.roof_area),
            "open_space_area": float(self.open_space_area),
            "heat_network_access": self.heat_network_access,
            "refurb_state": {name: bool(self.variant_index >> bit & 1)
                             for bit, name in enumerate(COMPONENTS)},
            "installed": [inst.to_dict() for inst in self.installed],
            "demand": {
                v: {"values": [float(x) for x in values], "resolution": resolution}
                for v, values in sorted(self.demand.items())
            },
        }


@dataclass(frozen=True)
class EnergyTwin:
    meta: dict
    grid: TimeGrid
    buildings: tuple[Building, ...]

    @property
    def twin_id(self) -> str:
        return str(self.meta.get("id", "unnamed"))

    def building(self, building_id: str) -> Building:
        for b in self.buildings:
            if b.id == building_id:
                return b
        raise KeyError(building_id)

    def to_dict(self) -> dict:
        meta = dict(self.meta)
        meta["timegrid"] = self.grid.to_dict()
        return {"meta": meta, "buildings": [b.to_dict(self.grid.resolution_minutes)
                                          for b in self.buildings]}


# ---------------------------------------------------------------------------
# Ingestion / serialization


def _parse_profile(entry, grid: TimeGrid, base_dir: str | None, building_id: str,
                   vector: str) -> tuple[float, ...]:
    if isinstance(entry, dict):
        resolution = int(entry.get("resolution", grid.resolution_minutes))
        if resolution != grid.resolution_minutes:
            raise TwinValidationError(
                f"building {building_id!r}: {vector} profile resolution {resolution} != grid "
                f"{grid.resolution_minutes}", building_id=building_id, field="demand")
    if isinstance(entry, dict) and "csv" in entry:
        if base_dir is None:
            raise TwinParseError(
                f"building {building_id!r}: sidecar profile reference needs a file path source"
            )
        path = os.path.join(base_dir, entry["csv"])
        try:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            raise TwinParseError(f"cannot read sidecar profile {path!r}: {exc}") from exc
        if not rows or vector not in rows[0]:
            raise TwinParseError(f"sidecar {path!r} lacks a {vector!r} column")
        return tuple(float(r[vector]) for r in rows)
    if isinstance(entry, dict):
        entry = entry["values"]
    return tuple(float(v) for v in entry)


def _parse_building(data: dict, grid: TimeGrid, base_dir: str | None) -> Building:
    try:
        bid = str(data["id"])
        loc = data["location"]
        building = Building(
            id=bid,
            location=(float(loc[0]), float(loc[1])),
            building_type=str(data["building_type"]),
            construction_year=int(data["construction_year"]),
            roof_area=float(data["roof_area"]),
            open_space_area=float(data["open_space_area"]),
            heat_network_access=bool(data.get("heat_network_access", False)),
            variant_index=variant_of(
                k for k, v in data.get("refurb_state", {}).items() if k in COMPONENTS and v),
            installed=tuple(
                TechnologyInstance(str(i["tech_id"]), float(i["size"]), int(i["install_year"]))
                for i in data.get("installed", [])
            ),
            demand={
                str(v): _parse_profile(p, grid, base_dir, str(data.get("id", "?")), str(v))
                for v, p in data.get("demand", {}).items()
            },
        )
    except TwinError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise TwinParseError(f"malformed building record: {exc}") from exc
    return building


def _validate_building(b: Building, grid: TimeGrid) -> None:
    def bad(field: str, msg: str):
        raise TwinValidationError(f"building {b.id!r}: {msg}", building_id=b.id, field=field)

    for name in ("roof_area", "open_space_area"):
        if not 0 <= getattr(b, name) < math.inf:
            bad(name, f"{name} must be finite and >= 0, got {getattr(b, name)}")
    if b.building_type not in BUILDING_TYPES:
        bad("building_type", f"unknown building_type {b.building_type!r}")
    if not -180.0 <= b.location[0] <= 180.0 or not -90.0 <= b.location[1] <= 90.0:
        bad("location", f"location {b.location} outside WGS84 bounds")
    for vector, values in b.demand.items():
        if vector not in VECTORS:
            bad("demand", f"unknown demand vector {vector!r}")
        arr = np.asarray(values, dtype=float)
        if arr.size and float(arr.min()) < 0.0:
            bad("demand", f"{vector} profile: negative demand value")
        if not math.isfinite(float(arr.sum())):
            bad("demand", f"{vector} profile: non-finite demand sum")
        if len(values) != grid.steps:
            bad("demand", f"{vector} profile has {len(values)} steps, grid has {grid.steps}")
    for inst in b.installed:
        if not 0 < inst.size < math.inf:
            bad("installed",
                f"instance {inst.tech_id}: size must be finite and > 0, got {inst.size}")


def load_twin(source) -> EnergyTwin:
    """Parse and validate a twin document.

    ``source`` is a path or the document's own text.  Sidecar CSV profile
    references resolve relative to the document's directory, so they need
    a path source.
    """
    try:
        text, base_dir = read_text(source)
    except (OSError, UnicodeDecodeError) as exc:
        raise TwinParseError(f"cannot read twin document: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TwinParseError(f"invalid twin document: {exc}") from exc
    if not (isinstance(doc, dict) and isinstance(doc.get("meta"), dict)
            and isinstance(doc.get("buildings"), list)):
        raise TwinParseError("twin document needs a top-level 'meta' object and "
                             "'buildings' list")
    meta = dict(doc["meta"])
    try:
        grid = TimeGrid.from_dict(meta.pop("timegrid"))
    except (KeyError, TypeError, ValueError) as exc:
        raise TwinParseError(f"bad or missing meta.timegrid: {exc}") from exc

    buildings = []
    seen: set[str] = set()
    for raw in doc["buildings"]:
        b = _parse_building(raw, grid, base_dir)
        if b.id in seen:
            raise DuplicateIdError(b.id)
        seen.add(b.id)
        _validate_building(b, grid)
        buildings.append(b)
    return EnergyTwin(meta=meta, grid=grid, buildings=tuple(buildings))


def save_twin(twin: EnergyTwin, sink) -> None:
    """Write the twin as a document that load_twin reads back identically."""
    write_text(sink, dumps(twin.to_dict()))


# ---------------------------------------------------------------------------
# Operations


def remaining_lifetime(inst: TechnologyInstance, lifetime: float, at_year: int) -> float:
    """Years of service left at ``at_year``; 0 means expired.

    Caller guarantees at_year >= install_year.
    """
    return max(0.0, inst.install_year + lifetime - at_year)


def admissible_refurb_variants(b: Building) -> set[int]:
    """Variant indices still reachable: supersets of the current state.

    Componentwise monotone: a refurbished component cannot be un-refurbished,
    so any variant lacking one of the current components is ruled out.
    """
    current = b.variant_index
    return {ir for ir in range(16) if ir & current == current}
