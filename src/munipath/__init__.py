"""Staged expansion-and-operation planning for municipal building stocks."""

__version__ = "0.1.0"

from .catalog import (  # noqa: F401
    Catalog,
    CostBreakdown,
    RefurbComponentSpec,
    TechnologySpec,
    annuity_factor,
    default_catalog,
    effective_demand,
    load_catalog,
    residual_value,
    variant_heat_factor,
)
from .model import (  # noqa: F401
    BuildingSolution,
    InfeasibleBuildingError,
    ModelArtifacts,
    build_model,
    check_solution,
    extract_solution,
    optimize_building,
)
from .fixtures import make_fixture_twin  # noqa: F401
from .pathway import (  # noqa: F401
    Measure,
    PathwayError,
    StageResult,
    TransformationPath,
    plan_pathway,
    plan_stage,
)
from .report import (  # noqa: F401
    aggregate_stage,
    export_csv,
    path_document,
    pathway_deltas,
)
from .scenario import (  # noqa: F401
    ScenarioError,
    ScenarioFrame,
    default_scenario,
    load_scenario,
    retrofit_budgets,
)
from .solver import (  # noqa: F401
    LinearModel,
    SolveOutcome,
    SolveRequest,
    SolveStatus,
    solve,
)
from .twin import (  # noqa: F401
    Building,
    DuplicateIdError,
    EnergyTwin,
    TechnologyInstance,
    TimeGrid,
    TwinError,
    TwinParseError,
    TwinValidationError,
    admissible_refurb_variants,
    load_twin,
    remaining_lifetime,
    save_twin,
)
