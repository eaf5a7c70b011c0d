"""Scenario frame: price and emission trajectories plus stock-wide limits.

Trajectories are sampled at anchor years and interpolated linearly in
between; outside the anchors the nearest value holds.  Prices are stored in
ct/kWh as commonly tabulated, the carbon price in EUR/t, emission factors in
gCO2eq/kWh.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .docio import dumps, given_defaults, read_text, write_text

# the measure kinds whose yearly rate a scenario caps, each by its
# ``<kind>_rate_cap`` field
BUDGETED_KINDS = ("renovation", "conversion")


class ScenarioError(Exception):
    """Scenario document malformed or inconsistent."""


@dataclass(frozen=True)
class ScenarioFrame:
    years: tuple[int, ...]
    prices: dict[str, tuple[float, ...]]  # ct/kWh per carrier
    feed_in_tariff: tuple[float, ...]  # ct/kWh for exported electricity
    emission_factors: dict[str, tuple[float, ...]]  # gCO2eq/kWh per carrier
    co2_price: tuple[float, ...]  # EUR per tCO2eq
    renovation_rate_cap: float = 0.02  # share of stock per year
    conversion_rate_cap: float = 0.045
    max_parallel_retrofits: int = 6
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.years:
            raise ScenarioError("scenario needs at least one anchor year")
        if list(self.years) != sorted(set(self.years)):
            raise ScenarioError("anchor years must be strictly increasing")
        n = len(self.years)
        labelled = [(f"series {name!r}", series) for name, series
                    in [*self.prices.items(), *self.emission_factors.items()]]
        labelled += [("feed_in_tariff", self.feed_in_tariff), ("co2_price", self.co2_price)]
        for label, series in labelled:
            if len(series) != n:
                raise ScenarioError(f"{label} has {len(series)} values, expected {n}")
            if not all(math.isfinite(x) for x in series):
                raise ScenarioError(f"{label} has a non-finite value")
        for kind, cap in self.rate_caps.items():
            if not 0.0 <= cap <= 1.0:
                raise ScenarioError(f"{kind}_rate_cap outside [0, 1]")
        if self.max_parallel_retrofits < 1:
            raise ScenarioError("max_parallel_retrofits must be >= 1")

    @property
    def rate_caps(self) -> dict[str, float]:
        """Each budgeted measure kind's cap, as a share of the stock per year."""
        return {kind: getattr(self, f"{kind}_rate_cap") for kind in BUDGETED_KINDS}

    # -- interpolation ------------------------------------------------------

    def _interp(self, series: tuple[float, ...], year: float) -> float:
        return float(np.interp(year, self.years, series))

    def price_at(self, carrier: str, year: float) -> float:
        """Carrier price in ct/kWh at a year (clamped linear interpolation)."""
        try:
            series = self.prices[carrier]
        except KeyError:
            raise ScenarioError(f"no price series for carrier {carrier!r}") from None
        return self._interp(series, year)

    def emission_factor_at(self, carrier: str, year: float) -> float:
        """Carrier emission factor in gCO2eq/kWh at a year."""
        try:
            series = self.emission_factors[carrier]
        except KeyError:
            raise ScenarioError(f"no emission series for carrier {carrier!r}") from None
        return self._interp(series, year)

    def feed_in_at(self, year: float) -> float:
        return self._interp(self.feed_in_tariff, year)

    def co2_price_at(self, year: float) -> float:
        return self._interp(self.co2_price, year)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioFrame":
        try:
            return cls(
                years=tuple(int(y) for y in d["years"]),
                prices={str(k): tuple(float(x) for x in v) for k, v in d["prices"].items()},
                feed_in_tariff=tuple(float(x) for x in d["feed_in_tariff"]),
                emission_factors={str(k): tuple(float(x) for x in v)
                                  for k, v in d["emission_factors"].items()},
                co2_price=tuple(float(x) for x in d["co2_price"]),
                meta=dict(d.get("meta", {})),
                **given_defaults(cls, d),
            )
        except ScenarioError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ScenarioError(f"malformed scenario: {exc}") from exc


def load_scenario(source) -> ScenarioFrame:
    """Read a scenario from a path or from the document's own text."""
    try:
        doc = json.loads(read_text(source)[0])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    return ScenarioFrame.from_dict(doc)


def save_scenario(frame: ScenarioFrame, sink) -> None:
    write_text(sink, dumps(frame.to_dict()))


def retrofit_budgets(frame: ScenarioFrame, n_buildings: int,
                     period_years: int) -> dict[str, int]:
    """Whole-measure budgets for one planning period: the cumulative quota
    at the period's end.

    Rounding is down: a cap that yields less than one measure over the whole
    period allows none.
    """
    if n_buildings < 0 or period_years < 0:
        raise ValueError("counts must be non-negative")
    return {kind: cumulative_quota(cap, n_buildings, period_years)
            for kind, cap in frame.rate_caps.items()}


def cumulative_quota(rate_cap: float, n_buildings: int, years_elapsed: int) -> int:
    """Measures allowed within the first ``years_elapsed`` years of a period."""
    return math.floor(rate_cap * n_buildings * years_elapsed)


# ---------------------------------------------------------------------------
# Default scenario


def default_scenario() -> ScenarioFrame:
    """Built-in price and emission outlook for 2023 through 2045."""
    data = resources.files(__package__) / "data" / "scenario.json"
    return load_scenario(data.read_text(encoding="utf-8"))
