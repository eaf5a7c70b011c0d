"""Solver abstraction: model builder and backends.

A ``SolveRequest`` is the problem and nothing else: objective, triplet
matrix, row and column bounds, integrality.  ``solve(request, backend,
params)`` takes the backend and the settings (MIP gap, time limit).  Two
backends sit behind it:

* ``highs``: the HiGHS MILP solver, the default.  It runs through the
  extension module that scipy bundles, which ``load_highs`` loads from its
  file at the first solve, so ``scipy.optimize`` and ``scipy.sparse`` are
  never imported.  Presolve is on and restarts are off; these settings,
  and the measurements behind them, are given beside its options in
  ``_solve_highs``.
* ``reference``: a self-contained dense two-phase primal simplex plus
  branch and bound.  Slow but transparent; every LP solve is certified
  against its dual, so it doubles as the trust anchor in tests.

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

# The reference branch and bound enumerates by bisection; beyond this many
# integer variables it refuses instead of pretending to scale.
MAX_REFERENCE_INTEGERS = 60

DUALITY_TOL = 1e-7

# The reference branch and bound takes a value this close to an integer as one.
INTEGRALITY_TOL = 1e-6

# Relative MIP gap when ``solve``'s params give none.
DEFAULT_MIP_GAP = 1e-6

# Every name ``solve`` accepts as a backend.
BACKENDS = ("highs", "reference")


class SolverError(Exception):
    """Base class for solver failures."""


class SolverCapacityError(SolverError):
    """Problem exceeds what the reference solver is built for."""


class SolverNumericsError(SolverError):
    """A certificate check failed; the result cannot be trusted."""


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

    def dense_matrix(self) -> np.ndarray:
        a = np.zeros((self.n_rows, self.n_vars))
        np.add.at(a, (self.a_rows, self.a_cols), self.a_vals)
        return a

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
    nodes: int | None = None  # branch-and-bound nodes (highs only)
    wall_time_s: float = 0.0
    backend: str = ""
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE) and self.x is not None

    def value(self, index: int) -> float:
        if self.x is None:
            raise SolverError("no solution vector available")
        return float(self.x[index])


class LinearModel:
    """Incremental builder for a SolveRequest.

    Every column and row is identified by a hashable key, such as
    ``("out", unit, step)``; ``var_keys`` and ``row_keys`` list them in
    index order.  Duplicate terms on the same (row, var) pair sum up, so
    balance rows can be assembled piecewise.
    """

    def __init__(self):
        self._var_index: dict[Hashable, int] = {}
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integer: list[bool] = []
        self._row_index: dict[Hashable, int] = {}
        self._row_lb: list[float] = []
        self._row_ub: list[float] = []
        self._terms: dict[tuple[int, int], float] = {}

    @property
    def var_keys(self) -> tuple:
        return tuple(self._var_index)

    @property
    def row_keys(self) -> tuple:
        return tuple(self._row_index)

    # -- variables ----------------------------------------------------------

    def add_var(self, key: Hashable, lb: float = 0.0, ub: float = INF,
                integer: bool = False) -> int:
        if key in self._var_index:
            raise ValueError(f"duplicate variable {key!r}")
        if lb > ub:
            raise ValueError(f"variable {key!r}: lb {lb} > ub {ub}")
        idx = len(self._lb)
        self._var_index[key] = idx
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._integer.append(bool(integer))
        return idx

    def fix_var(self, var: int, value: float) -> None:
        self._lb[var] = float(value)
        self._ub[var] = float(value)

    @property
    def n_vars(self) -> int:
        return len(self._lb)

    # -- rows ---------------------------------------------------------------

    def add_row(self, key: Hashable, lb: float = -INF, ub: float = INF) -> int:
        if key in self._row_index:
            raise ValueError(f"duplicate row {key!r}")
        idx = len(self._row_lb)
        self._row_index[key] = idx
        self._row_lb.append(float(lb))
        self._row_ub.append(float(ub))
        return idx

    def add_term(self, row: int, var: int, coef: float) -> None:
        if coef == 0.0:
            return
        key = (row, var)
        self._terms[key] = self._terms.get(key, 0.0) + float(coef)

    @property
    def n_rows(self) -> int:
        return len(self._row_lb)

    # -- assembly -----------------------------------------------------------

    def build(self, obj: np.ndarray) -> SolveRequest:
        """The request minimizing ``obj``, one coefficient per column."""
        obj = np.asarray(obj, dtype=float)
        if obj.shape != (self.n_vars,):
            raise ValueError(f"objective of shape {obj.shape} for {self.n_vars} columns")
        keys = sorted(self._terms)
        rows = np.array([k[0] for k in keys], dtype=np.int64)
        cols = np.array([k[1] for k in keys], dtype=np.int64)
        vals = np.array([self._terms[k] for k in keys], dtype=float)
        return SolveRequest(
            obj=obj,
            a_rows=rows, a_cols=cols, a_vals=vals,
            row_lb=np.array(self._row_lb, dtype=float),
            row_ub=np.array(self._row_ub, dtype=float),
            var_lb=np.array(self._lb, dtype=float),
            var_ub=np.array(self._ub, dtype=float),
            integrality=np.array(self._integer, dtype=bool),
        )


# ---------------------------------------------------------------------------
# Backend dispatch


def solve(request: SolveRequest, backend: str | None = None,
          params: dict | None = None) -> SolveOutcome:
    """Solve a request with a backend (``None`` means ``highs``).

    ``params`` may give ``mip_gap`` (relative, default ``DEFAULT_MIP_GAP``)
    and ``time_limit_s`` (per solve, default none).
    """
    params = params or {}
    if backend is None or backend == "highs":
        return _solve_highs(request, params)
    if backend == "reference":
        return _solve_reference(request, params)
    raise SolverError(f"unknown solver backend {backend!r}")


# ---------------------------------------------------------------------------
# HiGHS backend (scipy's bundled extension)


_HIGHS_MODULE = "scipy.optimize._highspy._core"

# HiGHS model statuses by name.  A time or iteration limit is FEASIBLE only
# with an incumbent, and kUnboundedOrInfeasible is solved once more without
# presolve before it counts as FAILED.
_HIGHS_STATUS = {
    "kNotset": SolveStatus.FAILED,
    "kLoadError": SolveStatus.FAILED,
    "kModelError": SolveStatus.FAILED,
    "kPresolveError": SolveStatus.FAILED,
    "kSolveError": SolveStatus.FAILED,
    "kPostsolveError": SolveStatus.FAILED,
    "kModelEmpty": SolveStatus.FAILED,
    "kOptimal": SolveStatus.OPTIMAL,
    "kInfeasible": SolveStatus.INFEASIBLE,
    "kUnboundedOrInfeasible": SolveStatus.FAILED,
    "kUnbounded": SolveStatus.UNBOUNDED,
    "kObjectiveBound": SolveStatus.FAILED,
    "kObjectiveTarget": SolveStatus.FAILED,
    "kTimeLimit": SolveStatus.FEASIBLE,
    "kIterationLimit": SolveStatus.FEASIBLE,
    "kUnknown": SolveStatus.FAILED,
    "kSolutionLimit": SolveStatus.FAILED,
    "kInterrupt": SolveStatus.FAILED,
    "kMemoryLimit": SolveStatus.FAILED,
    "kHighsInterrupt": SolveStatus.FAILED,
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


def _solve_highs(request: SolveRequest, p: dict) -> SolveOutcome:
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
    options = {
        "output_flag": False,
        "log_to_console": False,
        "presolve": "on",
        "mip_allow_restart": False,
        "mip_rel_gap": float(p.get("mip_gap", DEFAULT_MIP_GAP)),
        "mip_heuristic_run_rens": False,
        "mip_heuristic_run_rins": False,
        "mip_heuristic_run_root_reduced_cost": False,
        "mip_heuristic_run_feasibility_jump": False,
    }
    if p.get("time_limit_s") is not None:
        options["time_limit"] = float(p["time_limit_s"])
    # HiGHS reads a NaN or infinite cost or coefficient as some number and
    # may call the result optimal
    if not (np.isfinite(request.obj).all() and np.isfinite(request.a_vals).all()):
        raise SolverError("the objective or the matrix has a non-finite coefficient")
    highs = core._Highs()

    def set_option(name, value):
        if highs.setOptionValue(name, value) != core.HighsStatus.kOk:
            raise SolverError(f"HiGHS refused option {name} = {value!r}")

    for name, value in options.items():
        set_option(name, value)
    start, index, value = _colwise(request)
    passed = highs.passModel(
        request.n_vars, request.n_rows, len(value),
        int(core.MatrixFormat.kColwise), int(core.ObjSense.kMinimize), 0.0,
        request.obj, request.var_lb, request.var_ub, request.row_lb, request.row_ub,
        start, index, value, request.integrality.astype(np.int32))
    if passed == core.HighsStatus.kError:
        return SolveOutcome(status=SolveStatus.FAILED, wall_time_s=time.monotonic() - t0,
                            backend="highs", message="HiGHS rejected the model")
    ran = highs.run()
    model_status = highs.getModelStatus()
    if model_status.name == "kUnboundedOrInfeasible":
        # MIP presolve does not tell the two apart; the search without it does.
        set_option("presolve", "off")
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
        return SolveOutcome(status=status, wall_time_s=wall, backend="highs",
                            message=message)
    return SolveOutcome(
        status=status,
        x=np.array(highs.getSolution().col_value, dtype=float),
        objective=float(info.objective_function_value),
        bound=float(info.mip_dual_bound) if is_mip else None,
        gap=float(info.mip_gap) if is_mip else None,
        nodes=int(info.mip_node_count) if is_mip else None,
        wall_time_s=wall, backend="highs", message=message,
    )


# ---------------------------------------------------------------------------
# Reference backend: two-phase primal simplex with certificates


@dataclass
class _StandardForm:
    """Equality-form problem min c.z, M z = b, z >= 0 plus the affine map
    back to the original variables."""

    m_eq: np.ndarray
    b: np.ndarray
    c: np.ndarray
    const: float  # objective constant picked up by variable shifts
    # per original var: ("shift", col, lb) | ("flip", col, ub) | ("split", col_pos, col_neg)
    var_map: list[tuple]


def _standardize(obj, dense_a, row_lb, row_ub, var_lb, var_ub) -> _StandardForm:
    n = obj.shape[0]
    var_map: list[tuple] = []
    cols: list[np.ndarray] = []
    c_t: list[float] = []
    shift = np.zeros(n)
    col_sign_of = []  # (orig var, sign) per transformed column

    for j in range(n):
        lb, ub = var_lb[j], var_ub[j]
        if math.isfinite(lb):
            var_map.append(("shift", len(c_t), lb))
            col_sign_of.append((j, 1.0))
            c_t.append(obj[j])
            shift[j] = lb
        elif math.isfinite(ub):
            var_map.append(("flip", len(c_t), ub))
            col_sign_of.append((j, -1.0))
            c_t.append(-obj[j])
            shift[j] = ub
        else:
            var_map.append(("split", len(c_t), len(c_t) + 1))
            col_sign_of.append((j, 1.0))
            col_sign_of.append((j, -1.0))
            c_t.append(obj[j])
            c_t.append(-obj[j])

    n_t = len(c_t)
    const = float(obj @ shift)

    # Transformed structural matrix: columns are +/- original columns.
    a_t = np.zeros((dense_a.shape[0], n_t))
    for k, (j, sign) in enumerate(col_sign_of):
        a_t[:, k] = sign * dense_a[:, j]
    rhs_shift = dense_a @ shift

    # Collect one-sided inequalities and equalities over transformed vars.
    ineqs: list[tuple[np.ndarray, str, float]] = []  # (coefs, sense, rhs)
    for i in range(dense_a.shape[0]):
        lo = row_lb[i] - rhs_shift[i]
        hi = row_ub[i] - rhs_shift[i]
        if math.isfinite(row_lb[i]) and row_lb[i] == row_ub[i]:
            ineqs.append((a_t[i], "=", lo))
            continue
        if math.isfinite(row_lb[i]):
            ineqs.append((a_t[i], ">", lo))
        if math.isfinite(row_ub[i]):
            ineqs.append((a_t[i], "<", hi))

    # Upper bounds of shifted variables become explicit rows.
    for j in range(n):
        kind = var_map[j]
        if kind[0] == "shift" and math.isfinite(var_ub[j]):
            row = np.zeros(n_t)
            row[kind[1]] = 1.0
            ineqs.append((row, "<", var_ub[j] - var_lb[j]))

    m = len(ineqs)
    n_slack = sum(1 for _, sense, _ in ineqs if sense != "=")
    m_eq = np.zeros((m, n_t + n_slack))
    b = np.zeros(m)
    c_full = np.concatenate([np.array(c_t), np.zeros(n_slack)])
    slack_at = n_t
    for i, (coefs, sense, rhs) in enumerate(ineqs):
        m_eq[i, :n_t] = coefs
        b[i] = rhs
        if sense == "<":
            m_eq[i, slack_at] = 1.0
            slack_at += 1
        elif sense == ">":
            m_eq[i, slack_at] = -1.0
            slack_at += 1
        if b[i] < 0:
            m_eq[i] = -m_eq[i]
            b[i] = -b[i]

    return _StandardForm(m_eq=m_eq, b=b, c=c_full, const=const, var_map=var_map)


def _simplex_phase(m_eq, b, c, basis, *, allowed, tol, max_iter):
    """Run primal simplex iterations on an equality-form problem.

    ``basis`` is modified in place.  ``allowed`` masks columns that may
    enter.  Returns (status, z) where status is "optimal" or "unbounded".
    """
    m, n_all = m_eq.shape
    if m == 0:
        z = np.zeros(n_all)
        neg = np.flatnonzero((c < -tol) & allowed)
        return ("unbounded" if neg.size else "optimal"), z

    stall = 0
    last_obj = INF
    bland = False
    for _ in range(max_iter):
        basis_arr = np.asarray(basis, dtype=np.int64)
        b_mat = m_eq[:, basis_arr]
        try:
            x_b = np.linalg.solve(b_mat, b)
            y = np.linalg.solve(b_mat.T, c[basis_arr])
        except np.linalg.LinAlgError as exc:
            raise SolverNumericsError(f"singular basis: {exc}") from exc
        reduced = c - m_eq.T @ y
        reduced[basis_arr] = 0.0
        candidates = np.flatnonzero((reduced < -tol) & allowed)
        if candidates.size == 0:
            z = np.zeros(n_all)
            z[basis_arr] = x_b
            return "optimal", z
        if bland:
            enter = int(candidates[0])
        else:
            enter = int(candidates[np.argmin(reduced[candidates])])
        d = np.linalg.solve(b_mat, m_eq[:, enter])
        pos = np.flatnonzero(d > tol)
        if pos.size == 0:
            return "unbounded", np.zeros(n_all)
        ratios = x_b[pos] / d[pos]
        best = ratios.min()
        ties = pos[np.flatnonzero(ratios <= best + tol * (1.0 + abs(best)))]
        # leaving rule: among ties take the one whose basic variable has the
        # lowest index, which together with Bland entering prevents cycling
        leave_row = int(ties[np.argmin(basis_arr[ties])])
        basis[leave_row] = enter

        obj = float(c[basis_arr] @ x_b)
        if obj < last_obj - tol * (1.0 + abs(last_obj)):
            last_obj = obj
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > 40:
                bland = True
    raise SolverNumericsError(f"simplex exceeded {max_iter} iterations")


_DUALITY_CHECKS = {"count": 0}


def duality_check_count() -> int:
    """Number of LP certificates verified since import (reference backend)."""
    return _DUALITY_CHECKS["count"]


def _verify_certificate(sf: _StandardForm, z, basis, tol=DUALITY_TOL):
    """Weak/strong duality and feasibility check of a finished LP solve."""
    m_eq, b, c = sf.m_eq, sf.b, sf.c
    scale_b = 1.0 + (float(np.abs(b).max()) if b.size else 0.0)
    scale_c = 1.0 + (float(np.abs(c).max()) if c.size else 0.0)
    if z.min(initial=0.0) < -tol:
        raise SolverNumericsError(f"primal negativity {z.min():g}")
    if b.size:
        resid = float(np.abs(m_eq @ z - b).max())
        if resid > tol * scale_b * 10:
            raise SolverNumericsError(f"primal residual {resid:g}")
        basis_arr = np.asarray(basis, dtype=np.int64)
        y = np.linalg.solve(m_eq[:, basis_arr].T, c[basis_arr])
    else:
        y = np.zeros(0)
    reduced = c - (m_eq.T @ y if b.size else 0.0)
    if float(reduced.min(initial=0.0)) < -tol * scale_c * 10:
        raise SolverNumericsError(f"dual infeasibility {reduced.min():g}")
    primal_obj = float(c @ z)
    dual_obj = float(b @ y) if b.size else 0.0
    # weak duality: any dual-feasible y bounds the primal from below
    if dual_obj > primal_obj + tol * (1.0 + abs(primal_obj)) * 10:
        raise SolverNumericsError(
            f"weak duality violated: dual {dual_obj:g} > primal {primal_obj:g}")
    if abs(dual_obj - primal_obj) > tol * (1.0 + abs(primal_obj)) * 100:
        raise SolverNumericsError(
            f"strong duality gap {dual_obj - primal_obj:g} at optimum")
    _DUALITY_CHECKS["count"] += 1


def _reference_lp(request: SolveRequest, var_lb=None, var_ub=None):
    """Certified LP solve.  Returns (status, x, objective)."""
    lb = request.var_lb if var_lb is None else var_lb
    ub = request.var_ub if var_ub is None else var_ub
    if np.any(lb > ub):
        return SolveStatus.INFEASIBLE, None, None
    sf = _standardize(request.obj, request.dense_matrix(),
                      request.row_lb, request.row_ub, lb, ub)
    m, n_all = sf.m_eq.shape
    scale = 1.0 + max(
        float(np.abs(sf.b).max()) if sf.b.size else 0.0,
        float(np.abs(sf.c).max()) if sf.c.size else 0.0,
    )
    tol = 1e-9 * scale
    max_iter = 2000 + 60 * (m + n_all)

    if m == 0:
        z = np.zeros(n_all)
        if np.any(sf.c < -tol):
            return SolveStatus.UNBOUNDED, None, None
        _verify_certificate(sf, z, [])
        x = _recover_x(sf, z, request.n_vars)
        return SolveStatus.OPTIMAL, x, float(sf.c @ z) + sf.const

    # Phase 1: artificial start
    m1 = np.hstack([sf.m_eq, np.eye(m)])
    c1 = np.concatenate([np.zeros(n_all), np.ones(m)])
    basis = list(range(n_all, n_all + m))
    allowed = np.ones(n_all + m, dtype=bool)
    status, z1 = _simplex_phase(m1, sf.b, c1, basis, allowed=allowed,
                                tol=tol, max_iter=max_iter)
    if status != "optimal":
        raise SolverNumericsError("phase 1 cannot be unbounded")
    if float(c1 @ z1) > tol * 1e3:
        # certify: the phase-1 dual bounds the artificial sum away from zero,
        # proving no feasible point exists
        sf1 = _StandardForm(m_eq=m1, b=sf.b, c=c1, const=0.0, var_map=sf.var_map)
        _verify_certificate(sf1, z1, basis)
        return SolveStatus.INFEASIBLE, None, None

    # Pivot artificials out of the basis; drop dependent rows.
    keep_rows = list(range(m))
    for row_pos in range(m):
        if basis[row_pos] < n_all:
            continue
        basis_arr = np.asarray(basis, dtype=np.int64)
        b_mat = m1[:, basis_arr]
        pivoted = False
        for j in range(n_all):
            if j in basis:
                continue
            d = np.linalg.solve(b_mat, m1[:, j])
            if abs(d[row_pos]) > 1e-7:
                basis[row_pos] = j
                pivoted = True
                break
        if not pivoted:
            keep_rows[row_pos] = -1  # redundant equality
    if any(r == -1 for r in keep_rows):
        rows = [r for r in keep_rows if r != -1]
        sf = _StandardForm(
            m_eq=sf.m_eq[rows], b=sf.b[rows], c=sf.c, const=sf.const, var_map=sf.var_map)
        basis = [basis[r] for r in rows]
        m = len(rows)
        m1 = np.hstack([sf.m_eq, np.eye(m)])

    # Phase 2: real objective, artificials barred
    allowed2 = np.zeros(n_all + m, dtype=bool)
    allowed2[:n_all] = True
    c2 = np.concatenate([sf.c, np.zeros(m)])
    status, z2 = _simplex_phase(m1, sf.b, c2, basis, allowed=allowed2,
                                tol=tol, max_iter=max_iter)
    if status == "unbounded":
        return SolveStatus.UNBOUNDED, None, None
    z = z2[:n_all]
    basis_struct = [bi for bi in basis]
    # the pivot-out step leaves only structural columns basic, so the
    # certificate is checked on the original columns; artificial columns
    # would flag any y_i > 0 as a spurious dual infeasibility
    if any(bi >= n_all for bi in basis_struct):
        raise SolverNumericsError("artificial column left in final basis")
    _verify_certificate(sf, z, basis_struct)
    x = _recover_x(sf, z, request.n_vars)
    obj = float(sf.c @ z) + sf.const
    return SolveStatus.OPTIMAL, x, obj


def _recover_x(sf: _StandardForm, z, n_vars) -> np.ndarray:
    x = np.zeros(n_vars)
    for j, kind in enumerate(sf.var_map):
        if kind[0] == "shift":
            x[j] = kind[2] + z[kind[1]]
        elif kind[0] == "flip":
            x[j] = kind[2] - z[kind[1]]
        else:
            x[j] = z[kind[1]] - z[kind[2]]
    return x


def _solve_reference(request: SolveRequest, params: dict) -> SolveOutcome:
    t0 = time.monotonic()
    ints = np.flatnonzero(request.integrality)
    if ints.size == 0:
        status, x, obj = _reference_lp(request)
        return SolveOutcome(
            status=status, x=x, objective=obj, bound=obj, gap=0.0 if obj is not None else None,
            wall_time_s=time.monotonic() - t0, backend="reference",
        )
    if ints.size > MAX_REFERENCE_INTEGERS:
        raise SolverCapacityError(
            f"reference solver handles at most {MAX_REFERENCE_INTEGERS} integer "
            f"variables, got {ints.size}")
    bad = [int(j) for j in ints
           if not (math.isfinite(request.var_lb[j]) and math.isfinite(request.var_ub[j]))]
    if bad:
        raise SolverCapacityError(f"integer variables need finite bounds: {bad}")
    return _branch_and_bound(request, params, ints, t0)


def _branch_and_bound(request: SolveRequest, p: dict, int_idx: np.ndarray,
                      t0: float) -> SolveOutcome:
    import heapq

    mip_gap = float(p.get("mip_gap", DEFAULT_MIP_GAP))
    time_limit = p.get("time_limit_s")

    incumbent_x = None
    incumbent_obj = INF

    status, x, obj = _reference_lp(request)
    if status is SolveStatus.INFEASIBLE:
        return SolveOutcome(status=status, wall_time_s=time.monotonic() - t0,
                            backend="reference")
    if status is SolveStatus.UNBOUNDED:
        return SolveOutcome(status=status, wall_time_s=time.monotonic() - t0,
                            backend="reference", message="relaxation unbounded")

    counter = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray, float]] = []
    heapq.heappush(heap, (obj, counter, request.var_lb.copy(), request.var_ub.copy(),
                          x, obj))
    timed_out = False

    def integral(xv) -> bool:
        return all(abs(xv[j] - round(xv[j])) <= INTEGRALITY_TOL for j in int_idx)

    def accept(xv, lb, ub):
        nonlocal incumbent_x, incumbent_obj
        # re-solve with integers pinned so the incumbent is exact
        lb2, ub2 = lb.copy(), ub.copy()
        for j in int_idx:
            v = round(xv[j])
            lb2[j] = ub2[j] = v
        st, x2, obj2 = _reference_lp(request, lb2, ub2)
        if st is SolveStatus.OPTIMAL and obj2 < incumbent_obj:
            incumbent_x, incumbent_obj = x2, obj2

    while heap:
        if time_limit is not None and time.monotonic() - t0 > float(time_limit):
            timed_out = True
            break
        bound, _, lb, ub, x_rel, obj_rel = heapq.heappop(heap)
        if incumbent_obj < INF and bound >= incumbent_obj - max(
                1e-12, mip_gap * abs(incumbent_obj)):
            continue
        if integral(x_rel):
            accept(x_rel, lb, ub)
            continue
        # most fractional variable, ties to the lowest index
        frac_j, frac_val = -1, -1.0
        for j in int_idx:
            f = abs(x_rel[j] - round(x_rel[j]))
            dist = min(x_rel[j] - math.floor(x_rel[j]), math.ceil(x_rel[j]) - x_rel[j])
            if f <= INTEGRALITY_TOL:
                continue
            if dist > frac_val + 1e-12:
                frac_j, frac_val = int(j), dist
        if frac_j < 0:
            accept(x_rel, lb, ub)
            continue
        for child in ("down", "up"):
            lb2, ub2 = lb.copy(), ub.copy()
            if child == "down":
                ub2[frac_j] = math.floor(x_rel[frac_j])
            else:
                lb2[frac_j] = math.ceil(x_rel[frac_j])
            st, x2, obj2 = _reference_lp(request, lb2, ub2)
            if st is not SolveStatus.OPTIMAL:
                continue
            if incumbent_obj < INF and obj2 >= incumbent_obj - max(
                    1e-12, mip_gap * abs(incumbent_obj)):
                continue
            counter += 1
            heapq.heappush(heap, (obj2, counter, lb2, ub2, x2, obj2))

    wall = time.monotonic() - t0
    best_bound = min([h[0] for h in heap], default=incumbent_obj)
    if incumbent_x is None:
        if timed_out:
            return SolveOutcome(status=SolveStatus.FAILED, wall_time_s=wall,
                                backend="reference", message="time limit, no incumbent")
        return SolveOutcome(status=SolveStatus.INFEASIBLE, wall_time_s=wall,
                            backend="reference")
    gap = (incumbent_obj - best_bound) / max(1.0, abs(incumbent_obj))
    status = SolveStatus.FEASIBLE if timed_out else SolveStatus.OPTIMAL
    return SolveOutcome(
        status=status, x=incumbent_x, objective=incumbent_obj,
        bound=best_bound, gap=max(0.0, gap), wall_time_s=wall, backend="reference",
    )

