"""Solver abstraction: model builder and the HiGHS solve.

A ``SolveRequest`` is the problem and nothing else: objective, triplet
matrix, row and column bounds, integrality.  A (row, column) pair may occur
in the triplets more than once; its terms sum wherever the matrix is read
(``_colwise``, the single summing step before HiGHS, and
``SolveRequest.row_activity``).  ``LinearModel`` assembles a request in
blocks of keyed columns, rows and terms.  ``solve(request, params,
start=None)`` takes the settings (MIP gap, time limit) and solves the
request with HiGHS, from ``start`` as a first incumbent if one is given.
``Relaxation`` holds a request's LP relaxation in one HiGHS object and
solves it again from the last basis after column bounds change; it is
how a start is found (``model.lp_guided_start``).  HiGHS runs through
the extension module that scipy bundles, which ``load_highs`` loads from
its file at the first solve, so ``scipy.optimize`` and ``scipy.sparse``
are never imported.  Presolve is on, restarts are off, and branching
uses pseudo-costs without a strong-branching warm-up (reliability
threshold 0); these settings, and the measurements behind them, are
given beside its options in ``solve``.

All problems are minimization.  Row activities are two-sided
(``row_lb <= A x <= row_ub``), variable bounds likewise.
"""

from __future__ import annotations

import enum
import importlib.util
import math
import os
import sys
import time
from collections.abc import Hashable
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from dataclasses import dataclass

import numpy as np

INF = math.inf

# Relative MIP gap when ``solve``'s params give none.
DEFAULT_MIP_GAP = 1e-6
# the keys ``solve``'s params may give
SOLVE_PARAMS = ("mip_gap", "time_limit_s")


class SolverError(Exception):
    """Base class for solver failures."""


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # incumbent found, optimality not proven
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FAILED = "failed"


@dataclass(frozen=True)
class SolveRequest:
    """One minimization problem in triplet form."""

    obj: np.ndarray  # (n,)
    a_rows: np.ndarray  # (nnz,) int
    a_cols: np.ndarray  # (nnz,) int
    a_vals: np.ndarray  # (nnz,) float
    row_lb: np.ndarray  # (m,)
    row_ub: np.ndarray  # (m,)
    var_lb: np.ndarray  # (n,)
    var_ub: np.ndarray  # (n,)
    integrality: np.ndarray  # (n,) bool

    @property
    def n_vars(self) -> int:
        return int(self.obj.shape[0])

    @property
    def n_rows(self) -> int:
        return int(self.row_lb.shape[0])

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        act = np.zeros(self.n_rows)
        np.add.at(act, self.a_rows, self.a_vals * x[self.a_cols])
        return act


@dataclass(frozen=True)
class SolveOutcome:
    status: SolveStatus
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float | None = None
    gap: float | None = None
    nodes: int | None = None  # branch-and-bound nodes (MIPs only)
    lp_iterations: int | None = None  # simplex iterations, strong branching included
    wall_time_s: float = 0.0
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE) and self.x is not None


class LinearModel:
    """Block-wise builder for a SolveRequest.

    Every column and row is identified by a hashable key, such as
    ``("out", unit, step)``; ``var_keys`` and ``row_keys`` list them in
    index order.  ``add_vars`` and ``add_rows`` append a block of keys with
    bounds broadcast over it and return the block's indices; ``add_terms``
    appends matrix terms, broadcast likewise.  Terms are stored as given
    and never summed here: a (row, column) pair may receive several, which
    sum where the matrix is read, so balance rows can be assembled
    piecewise.  A column's bounds are final when it is added.
    """

    def __init__(self):
        self._var_index: dict[Hashable, int] = {}
        self._row_index: dict[Hashable, int] = {}
        # appended blocks: (lb, ub, integer) per column block, (lb, ub) per
        # row block, (rows, cols, vals) per term block
        self._vars: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rows: list[tuple[np.ndarray, np.ndarray]] = []
        self._terms: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    @property
    def var_keys(self) -> tuple:
        return tuple(self._var_index)

    @property
    def row_keys(self) -> tuple:
        return tuple(self._row_index)

    def add_vars(self, keys: list, lb=0.0, ub=INF, integer=False) -> np.ndarray:
        """Append one column per key; returns their indices."""
        n = len(keys)
        lb, ub = np.full(n, lb, dtype=float), np.full(n, ub, dtype=float)
        bad = lb > ub
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(f"variable {keys[j]!r}: lb {lb[j]} > ub {ub[j]}")
        ids = _register(self._var_index, keys, "variable")
        self._vars.append((lb, ub, np.full(n, integer, dtype=bool)))
        return ids

    def add_rows(self, keys: list, lb=-INF, ub=INF) -> np.ndarray:
        """Append one row per key; returns their indices."""
        n = len(keys)
        lb, ub = np.full(n, lb, dtype=float), np.full(n, ub, dtype=float)
        ids = _register(self._row_index, keys, "row")
        self._rows.append((lb, ub))
        return ids

    def add_row(self, key: Hashable, lb: float = -INF, ub: float = INF) -> int:
        return int(self.add_rows([key], lb, ub)[0])

    def add_terms(self, rows, cols, coefs) -> None:
        """Append the terms ``coefs`` at (``rows``, ``cols``), broadcast
        against each other; zero coefficients are dropped."""
        shape = np.broadcast(rows, cols, coefs).shape
        coefs = np.full(shape, coefs, dtype=float)
        keep = coefs != 0.0
        self._terms.append((np.full(shape, rows, dtype=np.int64)[keep],
                            np.full(shape, cols, dtype=np.int64)[keep], coefs[keep]))

    def build(self, obj: np.ndarray) -> SolveRequest:
        """The request minimizing ``obj``, one coefficient per column."""
        obj = np.asarray(obj, dtype=float)
        n = len(self._var_index)
        if obj.shape != (n,):
            raise ValueError(f"objective of shape {obj.shape} for {n} columns")
        var_lb, var_ub, integrality = _stack(self._vars, (float, float, bool))
        row_lb, row_ub = _stack(self._rows, (float, float))
        a_rows, a_cols, a_vals = _stack(self._terms, (np.int64, np.int64, float))
        return SolveRequest(
            obj=obj, a_rows=a_rows, a_cols=a_cols, a_vals=a_vals,
            row_lb=row_lb, row_ub=row_ub,
            var_lb=var_lb, var_ub=var_ub, integrality=integrality,
        )


def _register(index: dict, keys: list, what: str) -> np.ndarray:
    """Number ``keys`` on from the end of ``index`` and add them; a key
    already there, or twice in ``keys``, raises and adds nothing."""
    start = len(index)
    block = dict(zip(keys, range(start, start + len(keys))))
    for i, key in enumerate(keys):
        if key in index or block[key] != start + i:
            raise ValueError(f"duplicate {what} {key!r}")
    index.update(block)
    return np.arange(start, start + len(keys), dtype=np.int64)


def _stack(blocks: list[tuple], dtypes: tuple) -> list[np.ndarray]:
    """The blocks' arrays joined field by field."""
    return [np.concatenate([np.empty(0, dtype), *(b[k] for b in blocks)])
            for k, dtype in enumerate(dtypes)]


# ---------------------------------------------------------------------------
# HiGHS (scipy's bundled extension)


_HIGHS_MODULE = "scipy.optimize._highspy._core"

# HiGHS model statuses by name; every status not listed is FAILED.  A time
# or iteration limit is FEASIBLE only with an incumbent, and
# kUnboundedOrInfeasible is solved once more without presolve before it
# counts as FAILED.
_HIGHS_STATUS = {
    "kOptimal": SolveStatus.OPTIMAL,
    "kInfeasible": SolveStatus.INFEASIBLE,
    "kUnbounded": SolveStatus.UNBOUNDED,
    "kTimeLimit": SolveStatus.FEASIBLE,
    "kIterationLimit": SolveStatus.FEASIBLE,
}


def load_highs():
    """scipy's bundled HiGHS extension module, loaded at the first call.

    ``import scipy.optimize._highspy._core`` would run
    ``scipy/optimize/__init__.py`` first, which costs about 0.4 s and pulls
    in ``scipy.sparse``.  The extension is loaded from its file instead and
    registered in ``sys.modules`` under its own name, so that a later
    ``import scipy.optimize`` reuses it, and an entry already there (from
    such an import) is reused here.
    """
    core = sys.modules.get(_HIGHS_MODULE)
    if core is not None:
        return core
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise SolverError("scipy, which bundles HiGHS, is not installed")
    folder = os.path.join(spec.submodule_search_locations[0], "optimize", "_highspy")
    paths = [os.path.join(folder, "_core" + suffix) for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise SolverError(f"scipy's bundled HiGHS extension (_core) is not in {folder!r}")
    loader = ExtensionFileLoader(_HIGHS_MODULE, path)
    core = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_HIGHS_MODULE, path, loader=loader))
    sys.modules[_HIGHS_MODULE] = core
    try:
        loader.exec_module(core)
    except ImportError as exc:
        del sys.modules[_HIGHS_MODULE]
        raise SolverError(f"cannot load HiGHS from {path!r}: {exc}") from exc
    return core


def _colwise(request: SolveRequest) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The request's matrix in column-wise form (start, index, value), with
    repeated (row, column) pairs summed: HiGHS rejects duplicate entries."""
    order = np.lexsort((request.a_rows, request.a_cols))
    rows, cols = request.a_rows[order], request.a_cols[order]
    vals = request.a_vals[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (np.diff(cols) != 0) | (np.diff(rows) != 0)
    if not new.all():
        first = np.flatnonzero(new)
        rows, cols, vals = rows[first], cols[first], np.add.reduceat(vals, first)
    start = np.searchsorted(cols, np.arange(request.n_vars))
    return start.astype(np.int32), rows.astype(np.int32), vals.astype(float)


def _set_option(core, highs, name: str, value) -> None:
    if highs.setOptionValue(name, value) != core.HighsStatus.kOk:
        raise SolverError(f"HiGHS refused option {name} = {value!r}")


def _load(core, request: SolveRequest, options: dict, integrality: np.ndarray):
    """A new ``_Highs`` object holding the request under ``options``, with
    ``integrality`` (one int32 per column) in place of the request's; None
    when HiGHS rejects the model."""
    # HiGHS reads a NaN or infinite cost or coefficient as some number and
    # may call the result optimal
    if not (np.isfinite(request.obj).all() and np.isfinite(request.a_vals).all()):
        raise SolverError("the objective or the matrix has a non-finite coefficient")
    highs = core._Highs()
    for name, value in options.items():
        _set_option(core, highs, name, value)
    col_start, index, value = _colwise(request)
    passed = highs.passModel(
        request.n_vars, request.n_rows, len(value),
        int(core.MatrixFormat.kColwise), int(core.ObjSense.kMinimize), 0.0,
        request.obj, request.var_lb, request.var_ub, request.row_lb, request.row_ub,
        col_start, index, value, integrality)
    return None if passed == core.HighsStatus.kError else highs


_QUIET = {"output_flag": False, "log_to_console": False}


def solve(request: SolveRequest, params: dict | None = None, *,
          start: np.ndarray | None = None) -> SolveOutcome:
    """Solve a request with HiGHS.

    ``params`` may give ``mip_gap`` (relative, default ``DEFAULT_MIP_GAP``)
    and ``time_limit_s`` (per solve, default none).  ``start``, one value
    per column, is handed to HiGHS as a first incumbent.  HiGHS keeps a
    start's integer values and solves for its continuous ones where those
    break a row; a start whose integer values cannot be completed is
    dropped, and the search runs as without one.  A start HiGHS cannot
    take at all (of the wrong length), and any other key in ``params``,
    raise ``SolverError``.
    """
    p = params or {}
    unknown = [key for key in p if key not in SOLVE_PARAMS]
    if unknown:
        raise SolverError(f"unknown solver params {unknown}; known are {list(SOLVE_PARAMS)}")
    core = load_highs()
    t0 = time.monotonic()
    # Measured on the benchmark fixtures (two 5-building stocks) with scipy
    # 1.17.1 and HiGHS 1.12.0; every setting left the optima unchanged.
    # * Presolve on and restarts off on every model.  With presolve, HiGHS
    #   restarts the root search of a free per-building MILP several times,
    #   which made presolve a loss at 240-minute steps (3.54 s against
    #   3.28 s without it).  Without restarts, the 23 free MILPs and
    #   re-solves of the benchmark fixtures replayed in 2.53 s against 2.98 s
    #   with presolve off (215 branch-and-bound nodes against 244), and in
    #   14.20 s against 19.20 s at 60-minute steps (363 nodes against 517).
    # * The RENS, RINS, root reduced-cost and feasibility-jump heuristics
    #   pay off on hard MILPs, not on these models of about 30 binaries,
    #   where they find nothing branch and bound does not.  Feasibility jump
    #   took over 40 % of the fixed-integer solve time.  Without the root
    #   reduced-cost sub-MIP the free MILPs and re-solves replayed in 3.66 s
    #   against 4.69 s (median of 6 interleaved rounds), with 244
    #   branch-and-bound nodes against 45.
    # * Pseudo-cost branching without a strong-branching warm-up
    #   (``mip_pscost_minreliable`` 0; HiGHS's reliability branching
    #   strong-branches on a binary until it has 8 pseudo-cost observations
    #   by default).  With about 30 binaries and trees of 0 to 30 nodes, the
    #   warm-up costs more simplex iterations than the tree it saves.  On
    #   the 23 free MILPs and re-solves of the benchmark fixtures, LP
    #   iterations fell from 22,161 to 15,351 (nodes rose from 215 to 411)
    #   and CPU time by 15 % (6 of 6 interleaved rounds).  At 60-minute
    #   steps iterations fell by 29 % and time by 10 %, and on two held-out
    #   fixtures both by 4 %.  Thresholds 1, 2 and 4 left more iterations.
    options = {
        **_QUIET,
        "presolve": "on",
        "mip_allow_restart": False,
        "mip_rel_gap": float(p.get("mip_gap", DEFAULT_MIP_GAP)),
        "mip_heuristic_run_rens": False,
        "mip_heuristic_run_rins": False,
        "mip_heuristic_run_root_reduced_cost": False,
        "mip_heuristic_run_feasibility_jump": False,
        "mip_pscost_minreliable": 0,
    }
    if p.get("time_limit_s") is not None:
        options["time_limit"] = float(p["time_limit_s"])
    highs = _load(core, request, options, request.integrality.astype(np.int32))
    if highs is None:
        return SolveOutcome(status=SolveStatus.FAILED, wall_time_s=time.monotonic() - t0,
                            message="HiGHS rejected the model")
    if start is not None:
        incumbent = core.HighsSolution()
        incumbent.col_value = np.asarray(start, dtype=float)
        incumbent.value_valid = True
        if highs.setSolution(incumbent) == core.HighsStatus.kError:
            raise SolverError(f"HiGHS rejected a start of {len(incumbent.col_value)} "
                              f"values for {request.n_vars} columns")
    ran = highs.run()
    model_status = highs.getModelStatus()
    if model_status.name == "kUnboundedOrInfeasible":
        # MIP presolve does not tell the two apart; the search without it does.
        _set_option(core, highs, "presolve", "off")
        ran = highs.run()
        model_status = highs.getModelStatus()
    wall = time.monotonic() - t0
    status = _HIGHS_STATUS.get(model_status.name, SolveStatus.FAILED)
    if ran == core.HighsStatus.kError:
        status = SolveStatus.FAILED
    info = highs.getInfo()
    is_mip = bool(request.integrality.any())
    # an LP's solution is read only at the optimum; a MIP's at a limit too,
    # if it has an incumbent
    if status is SolveStatus.FEASIBLE and not (
            is_mip and math.isfinite(info.objective_function_value)):
        status = SolveStatus.FAILED
    message = highs.modelStatusToString(model_status)
    if status not in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
        return SolveOutcome(status=status, wall_time_s=wall, message=message)
    iterations = int(info.simplex_iteration_count)  # -1 when no simplex ran
    return SolveOutcome(
        status=status,
        x=np.array(highs.getSolution().col_value, dtype=float),
        objective=float(info.objective_function_value),
        bound=float(info.mip_dual_bound) if is_mip else None,
        gap=float(info.mip_gap) if is_mip else None,
        nodes=int(info.mip_node_count) if is_mip else None,
        lp_iterations=iterations if iterations >= 0 else None,
        wall_time_s=wall, message=message,
    )


class Relaxation:
    """The LP relaxation of a request, kept in one HiGHS object.

    ``bound`` changes column bounds and ``run`` solves again, from the
    last basis: after the first solve HiGHS skips presolve and runs the
    dual simplex from where it stopped, so a run after a few bound
    changes costs a few pivots.  There is no time limit.
    """

    def __init__(self, request: SolveRequest):
        self._core = load_highs()
        self._highs = _load(self._core, request, _QUIET, np.zeros(request.n_vars, np.int32))
        if self._highs is None:
            raise SolverError("HiGHS rejected the model")

    def bound(self, cols: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> None:
        """Set the bounds of columns ``cols`` to [``lb``, ``ub``]."""
        changed = self._highs.changeColsBounds(
            len(cols), np.asarray(cols, dtype=np.int32),
            np.asarray(lb, dtype=float), np.asarray(ub, dtype=float))
        if changed == self._core.HighsStatus.kError:
            raise SolverError("HiGHS refused a column bound")

    def run(self) -> tuple[float, np.ndarray] | None:
        """The optimal objective and solution, or None when the LP has
        none (infeasible, unbounded or failed)."""
        self._highs.run()
        if self._highs.getModelStatus() != self._core.HighsModelStatus.kOptimal:
            return None
        return (float(self._highs.getInfo().objective_function_value),
                np.array(self._highs.getSolution().col_value, dtype=float))
