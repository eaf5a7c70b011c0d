"""Shared fixtures.

The 20-building planning run is expensive, so it is computed once per
session and reused by every test that inspects a finished pathway.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from munipath import (  # noqa: E402
    default_catalog,
    default_scenario,
    make_fixture_twin,
    plan_pathway,
)

STAGE_YEARS = [2023, 2030, 2045]


@pytest.fixture(scope="session")
def child_env():
    """The environment for a child Python process that imports this
    checkout's munipath, whatever the working directory."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [os.path.abspath(p) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


@pytest.fixture(scope="session")
def cat():
    return default_catalog()


@pytest.fixture(scope="session")
def scen():
    return default_scenario()


@pytest.fixture(scope="session")
def twin20():
    return make_fixture_twin(20, seed=11)


@pytest.fixture(scope="session")
def planned_path(twin20, cat, scen):
    return plan_pathway(twin20, cat, scen, STAGE_YEARS, params={"mip_gap": 1e-4})
