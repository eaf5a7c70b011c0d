"""Command-line front end.

Wires ingestion, planning, and reporting into reproducible runs.  Inputs
are never mutated; everything lands in the chosen output directory.

Exit codes: 0 success, 1 invalid input data, 2 I/O or usage failure,
3 solver failure across the whole stock.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
from concurrent.futures import BrokenExecutor

from . import __version__
from .catalog import CatalogError, default_catalog, load_catalog
from .docio import dumps, read_text, write_text
from .fixtures import make_fixture_twin
from .model import OBJECTIVE_MODES
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
    p.add_argument("twin", type=pathlib.Path, help="twin JSON document")
    _add_data_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pathway", help="plan a transformation pathway")
    p.add_argument("twin", type=pathlib.Path, help="twin JSON document")
    _add_data_args(p)
    p.add_argument("--periods", required=True, type=_checked(
                       lambda v: [int(y) for y in v.split(",") if y.strip()],
                       lambda ys: len(ys) >= 2 and all(a < b for a, b in zip(ys, ys[1:])),
                       "at least two strictly increasing years"),
                   help="comma-separated stage years, first is the status quo "
                        "(e.g. 2023,2030,2045)")
    p.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p.add_argument("--objective", default="cost", choices=OBJECTIVE_MODES)
    p.add_argument("--mip-gap", default=1e-4, type=_checked(
                       float, lambda g: g >= 0 and math.isfinite(g),
                       "a finite number of at least 0"),
                   help="relative MIP gap (default 1e-4)")
    p.add_argument("--time-limit", default=None, type=_checked(
                       float, lambda t: t > 0, "a positive number of seconds"),
                   help="per-solve time limit in seconds (default: none); the LP "
                        "solves that find a free plan's starting incumbent fall "
                        "outside it")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="parallel building solves (default: usable CPUs)")
    p.set_defaults(func=cmd_pathway)

    p = sub.add_parser("report", help="regenerate CSV/GeoJSON from a stored pathway")
    p.add_argument("document", type=pathlib.Path,
                   help="pathway JSON document written by `pathway`")
    p.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p.add_argument("--year", type=int, default=None,
                   help="emit only this stage year's files")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen-fixture", help="generate a synthetic twin")
    p.add_argument("--out", default="twin.json", help="output path (default: twin.json)")
    p.add_argument("--buildings", type=_positive_int, default=20)
    p.add_argument("--seed", type=_checked(int, lambda n: n >= 0, "an integer of at least 0"),
                   default=11)
    p.add_argument("--resolution", default=60, type=_checked(
                       int, lambda n: n >= 1 and 1440 % n == 0, "a divisor of 1440 minutes"),
                   help="minutes per step, a divisor of 1440 (default 60)")
    p.add_argument("--full-year", action="store_true",
                   help="365-day hourly grid instead of 4 representative days")
    p.set_defaults(func=cmd_gen_fixture)
    return parser


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--catalog", type=pathlib.Path, default=None,
                   help="technology catalog JSON (default: built-in)")
    p.add_argument("--scenario", type=pathlib.Path, default=None,
                   help="scenario frame JSON (default: built-in)")


def _checked(convert, ok, expected: str):
    """An argparse type: ``convert`` the text and accept the value where
    ``ok`` holds; otherwise the error names what was ``expected``."""
    def check(value: str):
        try:
            result = convert(value)
            if ok(result):
                return result
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")
    return check


_positive_int = _checked(int, lambda n: n >= 1, "an integer of at least 1")


def _require_file(path: pathlib.Path) -> None:
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
    params = {"mip_gap": args.mip_gap}
    if args.time_limit is not None:
        params["time_limit_s"] = args.time_limit
    workers = args.workers if args.workers is not None else _usable_cpus()

    path_obj = plan_pathway(
        twin, cat, scenario, args.periods,
        objective_mode=args.objective, params=params, workers=workers,
    )
    doc = path_document(path_obj, cat)
    os.makedirs(args.out_dir, exist_ok=True)
    write_text(os.path.join(args.out_dir, "path.json"), dumps(doc))
    _emit_outputs(doc, args.out_dir, year=None)

    # a plan whose solve stopped at a limit carries its status in path.json;
    # an infeasible or failed building has no plan, so the totals omit it
    print(f"{'stage':>6}  {'measures':>8}  {'not optimal':>11}  {'unsolved':>8}  "
          f"{'cost EUR/a':>14}  {'emissions kg/a':>15}")
    for sd in doc["stages"]:
        rep = sd["report"]
        unproven = sum("status" in b for b in sd["buildings"].values())
        unsolved = len(sd["infeasible"]) + len(sd.get("failed", {}))
        print(f"{sd['target_year']:>6}  {len(sd['measures']):>8}  {unproven:>11}  "
              f"{unsolved:>8}  {rep['cost_breakdown']['objective']:>14.2f}  "
              f"{rep['emissions'].get('total', 0.0):>15.1f}")
    return EXIT_OK


def _usable_cpus() -> int:
    """The CPUs this process may run on: under ``taskset`` or a cpuset
    that is fewer than ``os.cpu_count()``, which counts the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_report(args) -> int:
    _require_file(args.document)
    try:
        doc = json.loads(read_text(args.document)[0])
        if "stages" not in doc or "stage_years" not in doc:
            print(f"{args.document} is not a pathway document", file=sys.stderr)
            return EXIT_IO
        if args.year is not None and args.year not in doc["stage_years"]:
            print(f"no stage {args.year} in document", file=sys.stderr)
            return EXIT_IO
        os.makedirs(args.out_dir, exist_ok=True)
        _emit_outputs(doc, args.out_dir, year=args.year)
    except (KeyError, TypeError, ValueError) as exc:
        # not UTF-8 or JSON, or a field missing, of the wrong type or no number
        print(f"I/O failure: malformed pathway document: {exc!r}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _emit_outputs(doc: dict, out_dir: str, year: int | None) -> None:
    """CSV and GeoJSON per stage, plus the combined CSV on full runs."""
    reports = reports_from_document(doc)
    if year is None:
        export_csv(reports, os.path.join(out_dir, "report.csv"))
    for rep in reports:
        if year is not None and rep["stage_year"] != year:
            continue
        export_csv([rep], os.path.join(out_dir, f"report_{rep['stage_year']}.csv"))
        write_text(os.path.join(out_dir, f"stock_{rep['stage_year']}.geojson"),
                   geojson_from_document(doc, rep["stage_year"]))


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
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PathwayError, SolverError, BrokenExecutor) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
