"""Price/emission trajectories, rate caps, and retrofit budgets."""

import hashlib
import json
import math

import pytest

from munipath.scenario import (
    ScenarioError,
    ScenarioFrame,
    cumulative_quota,
    load_scenario,
    retrofit_budgets,
    save_scenario,
)


# ---------------------------------------------------------------------------
# Anchored price values


def test_gas_price_anchors(scen):
    assert scen.price_at("gas", 2025) == pytest.approx(13.94)
    assert scen.price_at("gas", 2030) == pytest.approx(14.63)
    assert scen.price_at("gas", 2045) == pytest.approx(27.68)


def test_electricity_price_anchors(scen):
    assert scen.price_at("electricity", 2023) == pytest.approx(49.39)
    assert scen.price_at("electricity", 2030) == pytest.approx(31.62)
    assert scen.price_at("electricity", 2045) == pytest.approx(23.59)


def test_interpolated_gas_price_2028(scen):
    # three fifths of the way from 13.94 (2025) to 14.63 (2030)
    expected = 13.94 + (14.63 - 13.94) * 3.0 / 5.0
    assert expected == pytest.approx(14.354)
    assert scen.price_at("gas", 2028) == pytest.approx(expected)


def test_co2_price_trajectory(scen):
    assert scen.co2_price_at(2023) == pytest.approx(80.0)
    assert scen.co2_price_at(2045) == pytest.approx(200.0)
    assert scen.co2_price_at(2030) > scen.co2_price_at(2023)


def test_electricity_emission_factor_2045(scen):
    assert scen.emission_factor_at("electricity", 2045) == pytest.approx(37.5)
    # the grid decarbonizes monotonically
    series = [scen.emission_factor_at("electricity", y) for y in range(2023, 2046)]
    assert all(a >= b for a, b in zip(series, series[1:]))


def test_feed_in_tariff_declines(scen):
    assert scen.feed_in_at(2023) == pytest.approx(8.0)
    assert scen.feed_in_at(2045) == pytest.approx(5.0)


def test_prices_clamp_outside_anchor_range(scen):
    assert scen.price_at("gas", 1990) == scen.price_at("gas", scen.years[0])
    assert scen.price_at("gas", 2100) == scen.price_at("gas", scen.years[-1])
    assert scen.co2_price_at(2100) == pytest.approx(200.0)


def test_interpolation_is_linear_between_anchors(scen):
    years = scen.years
    for carrier in scen.prices:
        for y0, y1 in zip(years, years[1:]):
            mid = (y0 + y1) / 2.0
            expected = 0.5 * (scen.price_at(carrier, y0) + scen.price_at(carrier, y1))
            assert scen.price_at(carrier, mid) == pytest.approx(expected, rel=1e-12)


def test_unknown_carrier_raises(scen):
    with pytest.raises(ScenarioError):
        scen.price_at("antimatter", 2030)
    with pytest.raises(ScenarioError):
        scen.emission_factor_at("antimatter", 2030)


# ---------------------------------------------------------------------------
# Budgets and quotas


def test_retrofit_budget_worked_example(scen):
    budgets = retrofit_budgets(scen, 3127, 5)
    assert budgets["renovation"] == math.floor(0.02 * 3127 * 5) == 312
    assert budgets["conversion"] == math.floor(0.045 * 3127 * 5) == 703


def test_retrofit_budget_single_building_rounds_to_zero(scen):
    budgets = retrofit_budgets(scen, 1, 5)
    assert budgets["renovation"] == 0
    assert budgets["conversion"] == 0


def test_retrofit_budget_monotone_in_stock_and_period(scen):
    prev = -1
    for n in (10, 100, 1000, 10000):
        cur = retrofit_budgets(scen, n, 5)["renovation"]
        assert cur >= prev
        prev = cur
    prev = -1
    for period in (1, 2, 5, 10):
        cur = retrofit_budgets(scen, 500, period)["conversion"]
        assert cur >= prev
        prev = cur


def test_retrofit_budget_rejects_negative(scen):
    with pytest.raises(ValueError):
        retrofit_budgets(scen, -1, 5)
    with pytest.raises(ValueError):
        retrofit_budgets(scen, 10, -2)


def test_cumulative_quota_monotone_and_closes_budget():
    cap, n = 0.045, 321
    quotas = [cumulative_quota(cap, n, k) for k in range(0, 8)]
    assert quotas[0] == 0
    assert all(a <= b for a, b in zip(quotas, quotas[1:]))
    assert quotas[7] == math.floor(cap * n * 7)


def test_cumulative_quota_matches_stage_budget(scen):
    n, period = 444, 6
    assert cumulative_quota(scen.conversion_rate_cap, n, period) \
        == retrofit_budgets(scen, n, period)["conversion"]


# ---------------------------------------------------------------------------
# Frame validation and serialization


def test_frame_validation_errors(scen):
    with pytest.raises(ScenarioError):
        ScenarioFrame(years=(), prices={}, feed_in_tariff=(),
                      emission_factors={}, co2_price=())
    with pytest.raises(ScenarioError):
        ScenarioFrame(years=(2030, 2025), prices={"gas": (1.0, 2.0)},
                      feed_in_tariff=(1.0, 1.0),
                      emission_factors={"gas": (1.0, 1.0)}, co2_price=(1.0, 1.0))
    with pytest.raises(ScenarioError):
        ScenarioFrame(years=(2025, 2030), prices={"gas": (1.0,)},
                      feed_in_tariff=(1.0, 1.0),
                      emission_factors={"gas": (1.0, 1.0)}, co2_price=(1.0, 1.0))
    with pytest.raises(ScenarioError):
        ScenarioFrame(years=(2025, 2030), prices={"gas": (1.0, 2.0)},
                      feed_in_tariff=(1.0, 1.0),
                      emission_factors={"gas": (1.0, 1.0)}, co2_price=(1.0, 1.0),
                      renovation_rate_cap=1.5)
    with pytest.raises(ScenarioError):
        ScenarioFrame(years=(2025, 2030), prices={"gas": (1.0, 2.0)},
                      feed_in_tariff=(1.0, 1.0),
                      emission_factors={"gas": (1.0, 1.0)}, co2_price=(1.0, 1.0),
                      max_parallel_retrofits=0)


def test_default_caps(scen):
    assert scen.renovation_rate_cap == pytest.approx(0.02)
    assert scen.conversion_rate_cap == pytest.approx(0.045)
    assert scen.max_parallel_retrofits >= 1


def test_scenario_round_trip(scen, tmp_path):
    p1 = tmp_path / "scen.json"
    save_scenario(scen, p1)
    again = load_scenario(p1)
    assert again.to_dict() == scen.to_dict()
    p2 = tmp_path / "scen2.json"
    save_scenario(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_default_scenario_content_is_pinned(scen):
    digest = hashlib.sha256(json.dumps(scen.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == "f68589995c07ef08e08d688e5aebff8e08482a06e4653fd308fd5606e4b8bcb4"


def test_from_dict_rejects_malformed():
    with pytest.raises(ScenarioError):
        ScenarioFrame.from_dict({"years": [2025, 2030]})
    with pytest.raises(ScenarioError):
        load_scenario("{not json")
