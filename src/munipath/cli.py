"""Command-line front end.

Wires ingestion, planning, and reporting into reproducible runs.  Inputs
are never mutated; everything lands in the chosen output directory.

Exit codes: 0 success, 1 invalid input data, 2 I/O or usage failure,
3 solver failure across the whole stock.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .catalog import CatalogError, default_catalog, load_catalog
from .fixtures import make_fixture_twin
from .pathway import PathwayError, plan_pathway
from .report import geojson_from_document, reports_from_document
from .report import export_csv, path_document
from .scenario import ScenarioError, default_scenario, load_scenario
from .solver import SolverError
from .twin import TimeGrid, TwinError, load_twin, save_twin

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_SOLVER = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="munipath",
        description="Multi-stage transformation pathways for municipal building stocks.",
    )
    parser.add_argument("--version", action="version", version=f"munipath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a twin (and optional catalog/scenario)")
    p.add_argument("twin", help="twin JSON document")
    _add_data_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pathway", help="plan a transformation pathway")
    p.add_argument("twin", help="twin JSON document")
    _add_data_args(p)
    p.add_argument("--periods", required=True,
                   help="comma-separated stage years, first is the status quo "
                        "(e.g. 2023,2030,2045)")
    p.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p.add_argument("--objective", default="cost",
                   choices=("cost", "emission", "weighted"))
    p.add_argument("--backend", default=None, type=_backend_arg,
                   help="solver backend (highs, reference, external:<cmd>); "
                        "MUNIPATH_SOLVER applies only when this is not given")
    p.add_argument("--mip-gap", type=float, default=1e-4,
                   help="relative MIP gap (default 1e-4)")
    p.add_argument("--time-limit", type=_positive_seconds, default=None,
                   help="per-solve time limit in seconds; MUNIPATH_TIME_LIMIT overrides")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="parallel building solves (default: CPU count)")
    p.set_defaults(func=cmd_pathway)

    p = sub.add_parser("report", help="regenerate CSV/GeoJSON from a stored pathway")
    p.add_argument("document", help="pathway JSON document written by `pathway`")
    p.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p.add_argument("--year", type=int, default=None,
                   help="emit only this stage year's files")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen-fixture", help="generate a synthetic twin")
    p.add_argument("--out", default="twin.json", help="output path (default: twin.json)")
    p.add_argument("--buildings", type=int, default=20)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--resolution", type=int, default=60, help="minutes per step")
    p.add_argument("--full-year", action="store_true",
                   help="365-day hourly grid instead of 4 representative days")
    p.set_defaults(func=cmd_gen_fixture)
    return parser


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--catalog", default=None,
                   help="technology catalog JSON (default: built-in)")
    p.add_argument("--scenario", default=None,
                   help="scenario frame JSON (default: built-in)")


def _backend_arg(value: str) -> str:
    if value in ("highs", "reference") or (
            value.startswith("external:") and value[len("external:"):].strip()):
        return value
    raise argparse.ArgumentTypeError(
        f"unknown backend {value!r} (expected highs, reference or external:<cmd>)")


def _positive_seconds(value: str) -> float:
    try:
        if float(value) > 0:
            return float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {value!r}")


def _positive_int(value: str) -> int:
    try:
        if int(value) >= 1:
            return int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {value!r}")


def _require_file(path: str) -> None:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no such file: {path}")


def _load_inputs(args):
    _require_file(args.twin)
    twin = load_twin(args.twin)
    if args.catalog:
        _require_file(args.catalog)
        cat = load_catalog(args.catalog)
    else:
        cat = default_catalog()
    if args.scenario:
        _require_file(args.scenario)
        scenario = load_scenario(args.scenario)
    else:
        scenario = default_scenario()
    return twin, cat, scenario


def cmd_validate(args) -> int:
    twin, cat, scenario = _load_inputs(args)
    n_profiles = sum(len(b.demand) for b in twin.buildings)
    print(f"twin {twin.twin_id}: {len(twin.buildings)} buildings, "
          f"{twin.grid.steps} timesteps, {n_profiles} demand profiles")
    print(f"catalog {cat.meta.get('id', '?')}: {len(cat.techs)} technologies")
    print(f"scenario {scenario.meta.get('id', '?')}: "
          f"{scenario.years[0]}-{scenario.years[-1]}")
    print("OK")
    return EXIT_OK


def cmd_pathway(args) -> int:
    twin, cat, scenario = _load_inputs(args)
    try:
        years = [int(y) for y in args.periods.split(",") if y.strip()]
    except ValueError:
        print(f"cannot parse --periods {args.periods!r}", file=sys.stderr)
        return EXIT_IO
    params = {"mip_gap": args.mip_gap}
    time_limit = args.time_limit
    if "MUNIPATH_TIME_LIMIT" in os.environ:
        try:
            time_limit = _positive_seconds(os.environ["MUNIPATH_TIME_LIMIT"])
        except argparse.ArgumentTypeError as exc:
            print(f"MUNIPATH_TIME_LIMIT: {exc}", file=sys.stderr)
            return EXIT_IO
    if time_limit is not None:
        params["time_limit_s"] = time_limit
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)

    path_obj = plan_pathway(
        twin, cat, scenario, years,
        objective_mode=args.objective, backend=args.backend,
        params=params, workers=workers,
    )
    doc = path_document(path_obj, cat)
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "path.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1))
    _emit_outputs(doc, args.out_dir, year=None)

    print(f"{'stage':>6}  {'measures':>8}  {'cost EUR/a':>14}  {'emissions kg/a':>15}")
    for sd in doc["stages"]:
        rep = sd["report"]
        print(f"{sd['target_year']:>6}  {len(sd['measures']):>8}  "
              f"{rep['cost_breakdown']['objective']:>14.2f}  "
              f"{rep['emissions'].get('total', 0.0):>15.1f}")
    return EXIT_OK


def cmd_report(args) -> int:
    _require_file(args.document)
    with open(args.document, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "stages" not in doc or "stage_years" not in doc:
        print(f"{args.document} is not a pathway document", file=sys.stderr)
        return EXIT_IO
    if args.year is not None and args.year not in doc["stage_years"]:
        print(f"no stage {args.year} in document", file=sys.stderr)
        return EXIT_IO
    os.makedirs(args.out_dir, exist_ok=True)
    _emit_outputs(doc, args.out_dir, year=args.year)
    return EXIT_OK


def _emit_outputs(doc: dict, out_dir: str, year: int | None) -> None:
    """CSV and GeoJSON per stage, plus the combined CSV on full runs."""
    reports = reports_from_document(doc)
    if year is None:
        export_csv(reports, os.path.join(out_dir, "report.csv"))
    for rep in reports:
        if year is not None and rep.stage_year != year:
            continue
        export_csv([rep], os.path.join(out_dir, f"report_{rep.stage_year}.csv"))
        geo = geojson_from_document(doc, rep.stage_year)
        path = os.path.join(out_dir, f"stock_{rep.stage_year}.geojson")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(geo)


def cmd_gen_fixture(args) -> int:
    if args.full_year:
        grid = TimeGrid.full_year(args.resolution)
    else:
        grid = TimeGrid.representative_days(args.resolution)
    twin = make_fixture_twin(args.buildings, seed=args.seed, grid=grid)
    save_twin(twin, args.out)
    print(f"wrote {args.out}: {len(twin.buildings)} buildings, {grid.steps} timesteps")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TwinError, CatalogError, ScenarioError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except json.JSONDecodeError as exc:
        print(f"I/O failure: corrupt document: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, KeyError, TypeError) as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (PathwayError, SolverError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
