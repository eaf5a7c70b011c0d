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
from dataclasses import asdict, dataclass, field

import numpy as np

from .docio import dumps, read_text, write_text

COMPONENTS = ("roof", "wall", "window", "cellar")
VECTORS = ("electricity", "space_heat", "hot_water", "cooling")
HEAT_VECTORS = ("space_heat", "hot_water")

BUILDING_TYPES = ("residential", "commercial", "public")

# Daylight hours and seasonal shape used for the synthetic solar availability.
_SOLAR_SCALE = 0.55


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


class MissingProfileError(TwinError):
    def __init__(self, building_id: str, vector: str):
        super().__init__(f"building {building_id!r} has no {vector!r} demand profile")
        self.building_id = building_id
        self.vector = vector


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

    def block_slices(self) -> list[slice]:
        """One slice per represented day."""
        n = self.steps_per_day
        return [slice(i * n, (i + 1) * n) for i in range(len(self.days))]

    def cyclic_blocks(self) -> list[slice]:
        """Slices within which storage state must close on itself.

        Weighted representative days are independent, so each day cycles on
        its own; an unweighted contiguous year cycles once globally.
        """
        if all(w == 1.0 for _, w in self.days):
            return [slice(0, self.steps)]
        return self.block_slices()

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
class DemandProfile:
    values: tuple[float, ...]  # kWh per timestep
    resolution: int  # minutes per step

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def peak_kw(self) -> float:
        if not self.values:
            return 0.0
        return max(self.values) / (self.resolution / 60.0)

    def validate(self) -> str | None:
        """Returns a complaint string or None."""
        if self.resolution <= 0 or 1440 % self.resolution != 0:
            return "resolution must divide 1440"
        arr = self.as_array()
        if arr.size and float(arr.min()) < 0.0:
            return "negative demand value"
        if not math.isfinite(float(arr.sum())):
            return "non-finite demand sum"
        return None


@dataclass(frozen=True)
class RefurbState:
    """Which envelope components are already refurbished."""

    roof: bool = False
    wall: bool = False
    window: bool = False
    cellar: bool = False

    @property
    def variant_index(self) -> int:
        idx = 0
        for bit, name in enumerate(COMPONENTS):
            if getattr(self, name):
                idx |= 1 << bit
        return idx

    @classmethod
    def from_index(cls, index: int) -> "RefurbState":
        if not 0 <= index < 16:
            raise ValueError(f"variant index {index} out of range")
        return cls(**{name: bool(index >> bit & 1) for bit, name in enumerate(COMPONENTS)})

    def components(self) -> frozenset[str]:
        return frozenset(name for name in COMPONENTS if getattr(self, name))

    def to_dict(self) -> dict:
        return asdict(self)


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
    demand: dict[str, DemandProfile] = field(default_factory=dict)
    refurb_state: RefurbState = RefurbState()
    installed: tuple[TechnologyInstance, ...] = ()
    heat_network_access: bool = False

    def annual_demand(self, vector: str, grid: TimeGrid) -> float:
        prof = self.demand.get(vector)
        if prof is None:
            return 0.0
        return float(prof.as_array() @ grid.step_weights())

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "location": [float(self.location[0]), float(self.location[1])],
            "building_type": self.building_type,
            "construction_year": self.construction_year,
            "roof_area": float(self.roof_area),
            "open_space_area": float(self.open_space_area),
            "heat_network_access": self.heat_network_access,
            "refurb_state": self.refurb_state.to_dict(),
            "installed": [inst.to_dict() for inst in self.installed],
            "demand": {
                v: {"values": [float(x) for x in p.values], "resolution": p.resolution}
                for v, p in sorted(self.demand.items())
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
        return {"meta": meta, "buildings": [b.to_dict() for b in self.buildings]}


# ---------------------------------------------------------------------------
# Ingestion / serialization


def _parse_profile(entry, grid: TimeGrid, base_dir: str | None, building_id: str,
                   vector: str) -> DemandProfile:
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
        values = tuple(float(r[vector]) for r in rows)
        resolution = int(entry.get("resolution", grid.resolution_minutes))
        return DemandProfile(values=values, resolution=resolution)
    if isinstance(entry, dict):
        return DemandProfile(
            values=tuple(float(v) for v in entry["values"]),
            resolution=int(entry.get("resolution", grid.resolution_minutes)),
        )
    # bare array
    return DemandProfile(values=tuple(float(v) for v in entry), resolution=grid.resolution_minutes)


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
            refurb_state=RefurbState(**{
                k: bool(v) for k, v in data.get("refurb_state", {}).items() if k in COMPONENTS
            }),
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
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise TwinParseError(f"malformed building record: {exc}") from exc
    return building


def _validate_building(b: Building, grid: TimeGrid) -> None:
    def bad(field: str, msg: str):
        raise TwinValidationError(f"building {b.id!r}: {msg}", building_id=b.id, field=field)

    if b.roof_area < 0:
        bad("roof_area", f"roof_area must be >= 0, got {b.roof_area}")
    if b.open_space_area < 0:
        bad("open_space_area", f"open_space_area must be >= 0, got {b.open_space_area}")
    if b.building_type not in BUILDING_TYPES:
        bad("building_type", f"unknown building_type {b.building_type!r}")
    if not -180.0 <= b.location[0] <= 180.0 or not -90.0 <= b.location[1] <= 90.0:
        bad("location", f"location {b.location} outside WGS84 bounds")
    for vector, prof in b.demand.items():
        if vector not in VECTORS:
            bad("demand", f"unknown demand vector {vector!r}")
        complaint = prof.validate()
        if complaint:
            bad("demand", f"{vector} profile: {complaint}")
        if len(prof.values) != grid.steps:
            bad("demand", f"{vector} profile has {len(prof.values)} steps, grid has {grid.steps}")
        if prof.resolution != grid.resolution_minutes:
            bad("demand", f"{vector} profile resolution {prof.resolution} != grid "
                          f"{grid.resolution_minutes}")
    for inst in b.installed:
        if inst.size <= 0:
            bad("installed", f"instance {inst.tech_id}: size must be > 0, got {inst.size}")


def load_twin(source) -> EnergyTwin:
    """Parse and validate a twin document.

    ``source`` is any form ``docio.read_text`` takes.  Sidecar CSV profile
    references resolve relative to the document path.
    """
    try:
        text, base_dir = read_text(source)
    except OSError as exc:
        raise TwinParseError(f"cannot read twin document: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TwinParseError(f"invalid twin document: {exc}") from exc
    if not isinstance(doc, dict) or "meta" not in doc or "buildings" not in doc:
        raise TwinParseError("twin document needs top-level 'meta' and 'buildings'")
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
    current = b.refurb_state.variant_index
    return {ir for ir in range(16) if ir & current == current}


def peak_demand(b: Building, vector: str) -> float:
    """Largest per-step power draw in kW for one energy vector."""
    prof = b.demand.get(vector)
    if prof is None:
        raise MissingProfileError(b.id, vector)
    return prof.peak_kw()
