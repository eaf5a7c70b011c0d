"""Solver abstraction: model builder, backends, and file exchange.

Three backends sit behind one request type:

* ``highs``: scipy's interface to the HiGHS MILP solver, the default.
  It runs with the RENS, RINS and feasibility-jump heuristics switched
  off: on the per-building models (about 30 binaries) they find nothing
  that branch and bound does not, and feasibility jump alone took over
  40 % of the time of the solves whose integers are all fixed.  Presolve
  runs only when no integer column is free.  On a free per-building MILP
  it restarts the root search several times: the 23 free MILPs of the
  benchmark fixtures took 4.8 s without it and 7.4 s with it, same
  optima.  The 21 models whose integers are all fixed (status quo, frozen
  plan) keep it (0.100 s with it, 0.111 s without).  Restarts cannot be
  switched off on their own, because scipy's HiGHS binding does not
  expose ``mip_allow_restart``.  Measured with scipy 1.17.1, HiGHS 1.12.0.
* ``reference``: a self-contained dense two-phase primal simplex plus
  branch and bound.  Slow but transparent; every LP solve is certified
  against its dual, so it doubles as the trust anchor in tests.
* ``external:<command>``: writes an LP file, runs the command with the
  LP path and a result path as arguments, reads the JSON result back.

All problems are minimization.  Row activities are two-sided
(``row_lb <= A x <= row_ub``), variable bounds likewise.
"""

from __future__ import annotations

import enum
import json
import math
import os
import re
import shlex
import subprocess
import tempfile
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

INF = math.inf

# The reference branch and bound enumerates by bisection; beyond this many
# integer variables it refuses instead of pretending to scale.
MAX_REFERENCE_INTEGERS = 60

DUALITY_TOL = 1e-7

# Relative MIP gap when the request's params give none.
DEFAULT_MIP_GAP = 1e-6


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
    obj_offset: float
    a_rows: np.ndarray  # (nnz,) int
    a_cols: np.ndarray  # (nnz,) int
    a_vals: np.ndarray  # (nnz,) float
    row_lb: np.ndarray  # (m,)
    row_ub: np.ndarray  # (m,)
    var_lb: np.ndarray  # (n,)
    var_ub: np.ndarray  # (n,)
    integrality: np.ndarray  # (n,) bool
    var_names: tuple[str, ...]
    row_names: tuple[str, ...]
    name: str = "model"
    params: dict = field(default_factory=dict)

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

    def with_bounds(self, var_lb: np.ndarray, var_ub: np.ndarray) -> "SolveRequest":
        return SolveRequest(
            obj=self.obj, obj_offset=self.obj_offset,
            a_rows=self.a_rows, a_cols=self.a_cols, a_vals=self.a_vals,
            row_lb=self.row_lb, row_ub=self.row_ub,
            var_lb=var_lb, var_ub=var_ub,
            integrality=self.integrality,
            var_names=self.var_names, row_names=self.row_names,
            name=self.name, params=self.params,
        )


@dataclass(frozen=True)
class SolveOutcome:
    status: SolveStatus
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float | None = None
    gap: float | None = None
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

    Duplicate terms on the same (row, var) pair sum up, so balance rows can
    be assembled piecewise.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._integer: list[bool] = []
        self._row_names: list[str] = []
        self._row_index: dict[str, int] = {}
        self._row_lb: list[float] = []
        self._row_ub: list[float] = []
        self._terms: dict[tuple[int, int], float] = {}
        self.obj_offset = 0.0

    # -- variables ----------------------------------------------------------

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                obj: float = 0.0, integer: bool = False) -> int:
        if name in self._var_index:
            raise ValueError(f"duplicate variable name {name!r}")
        if lb > ub:
            raise ValueError(f"variable {name!r}: lb {lb} > ub {ub}")
        idx = len(self._var_names)
        self._var_index[name] = idx
        self._var_names.append(name)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._obj.append(float(obj))
        self._integer.append(bool(integer))
        return idx

    def var(self, name: str) -> int:
        return self._var_index[name]

    def add_obj(self, var: int, delta: float) -> None:
        self._obj[var] += float(delta)

    def fix_var(self, var: int, value: float) -> None:
        self._lb[var] = float(value)
        self._ub[var] = float(value)

    @property
    def n_vars(self) -> int:
        return len(self._var_names)

    # -- rows ---------------------------------------------------------------

    def add_row(self, name: str, lb: float = -INF, ub: float = INF) -> int:
        if name in self._row_index:
            raise ValueError(f"duplicate row name {name!r}")
        idx = len(self._row_names)
        self._row_index[name] = idx
        self._row_names.append(name)
        self._row_lb.append(float(lb))
        self._row_ub.append(float(ub))
        return idx

    def add_term(self, row: int, var: int, coef: float) -> None:
        if coef == 0.0:
            return
        key = (row, var)
        self._terms[key] = self._terms.get(key, 0.0) + float(coef)

    def add_constraint(self, name: str, terms, lb: float = -INF, ub: float = INF) -> int:
        row = self.add_row(name, lb, ub)
        items = terms.items() if isinstance(terms, dict) else terms
        for var, coef in items:
            self.add_term(row, var, coef)
        return row

    @property
    def n_rows(self) -> int:
        return len(self._row_names)

    # -- assembly -----------------------------------------------------------

    def build(self, params: dict | None = None) -> SolveRequest:
        keys = sorted(self._terms)
        rows = np.array([k[0] for k in keys], dtype=np.int64)
        cols = np.array([k[1] for k in keys], dtype=np.int64)
        vals = np.array([self._terms[k] for k in keys], dtype=float)
        return SolveRequest(
            obj=np.array(self._obj, dtype=float),
            obj_offset=float(self.obj_offset),
            a_rows=rows, a_cols=cols, a_vals=vals,
            row_lb=np.array(self._row_lb, dtype=float),
            row_ub=np.array(self._row_ub, dtype=float),
            var_lb=np.array(self._lb, dtype=float),
            var_ub=np.array(self._ub, dtype=float),
            integrality=np.array(self._integer, dtype=bool),
            var_names=tuple(self._var_names),
            row_names=tuple(self._row_names),
            name=self.name,
            params=dict(params or {}),
        )


# ---------------------------------------------------------------------------
# Backend dispatch


def solve(request: SolveRequest, backend: str | None = None) -> SolveOutcome:
    """Solve a request with the chosen backend.

    ``backend`` falls back to the MUNIPATH_SOLVER environment variable and
    then to ``highs``.
    """
    if backend is None:
        backend = os.environ.get("MUNIPATH_SOLVER", "highs")
    if backend == "highs":
        return _solve_highs(request)
    if backend == "reference":
        return _solve_reference(request)
    if backend.startswith("external:"):
        return _solve_external(request, backend[len("external:"):])
    raise SolverError(f"unknown solver backend {backend!r}")


# ---------------------------------------------------------------------------
# HiGHS backend (scipy)


_HIGHS_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.FEASIBLE,  # iteration or time limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


def _solve_highs(request: SolveRequest) -> SolveOutcome:
    from scipy import optimize, sparse

    t0 = time.monotonic()
    p = request.params
    # Presolve only where no integer column is free (status-quo and
    # frozen-plan models, LPs in all but name).  With a free integer column
    # it restarts the root search several times on the per-building MILPs:
    # 7.4 s with it against 4.8 s without for the 23 free MILPs of the
    # benchmark fixtures, same optima (scipy 1.17.1, HiGHS 1.12.0).
    free_integers = request.integrality & (request.var_lb < request.var_ub)
    options = {
        "mip_rel_gap": float(p.get("mip_gap", DEFAULT_MIP_GAP)),
        "presolve": not free_integers.any(),
        # HiGHS names outside milp's documented set: the sub-MIP neighbourhood
        # searches and feasibility jump pay off on hard MILPs, not on the
        # small per-building models, where they find nothing branch and
        # bound does not (feasibility jump took over 40 % of the fixed-integer
        # solve time).  Restarts cannot be switched off on their own: scipy's
        # HighsOptions binding lacks mip_allow_restart.
        "mip_heuristic_run_rens": False,
        "mip_heuristic_run_rins": False,
        "mip_heuristic_run_feasibility_jump": False,
    }
    if p.get("time_limit_s") is not None:
        options["time_limit"] = float(p["time_limit_s"])
    constraints = None
    if request.n_rows:
        a = sparse.csc_array(
            (request.a_vals, (request.a_rows, request.a_cols)),
            shape=(request.n_rows, request.n_vars),
        )
        constraints = optimize.LinearConstraint(a, request.row_lb, request.row_ub)
    with warnings.catch_warnings():
        # milp forwards option names it does not document to HiGHS verbatim
        # and says so; HiGHS itself still warns about names it does not know.
        warnings.filterwarnings(
            "ignore", category=RuntimeWarning,
            message="Unrecognized options detected: .* passed to HiGHS verbatim")
        res = optimize.milp(
            c=request.obj,
            constraints=constraints,
            integrality=request.integrality.astype(np.int8),
            bounds=optimize.Bounds(request.var_lb, request.var_ub),
            options=options,
        )
    wall = time.monotonic() - t0
    status = _HIGHS_STATUS.get(res.status, SolveStatus.FAILED)
    if status is SolveStatus.FEASIBLE and res.x is None:
        status = SolveStatus.FAILED
    x = np.asarray(res.x, dtype=float) if res.x is not None else None
    objective = float(res.fun) + request.obj_offset if res.fun is not None else None
    bound = getattr(res, "mip_dual_bound", None)
    if bound is not None:
        bound = float(bound) + request.obj_offset
    gap = getattr(res, "mip_gap", None)
    return SolveOutcome(
        status=status, x=x, objective=objective, bound=bound,
        gap=float(gap) if gap is not None else None,
        wall_time_s=wall, backend="highs", message=str(res.message),
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
        return SolveStatus.OPTIMAL, x, float(sf.c @ z) + sf.const + request.obj_offset

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
    obj = float(sf.c @ z) + sf.const + request.obj_offset
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


def _solve_reference(request: SolveRequest) -> SolveOutcome:
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
    return _branch_and_bound(request, ints, t0)


def _branch_and_bound(request: SolveRequest, int_idx: np.ndarray, t0: float) -> SolveOutcome:
    import heapq

    p = request.params
    mip_gap = float(p.get("mip_gap", DEFAULT_MIP_GAP))
    int_tol = float(p.get("integrality_tol", 1e-6))
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
        return all(abs(xv[j] - round(xv[j])) <= int_tol for j in int_idx)

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
            if f <= int_tol:
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


# ---------------------------------------------------------------------------
# LP file exchange (CPLEX LP dialect)

_LP_UNSAFE = re.compile(r"[^A-Za-z0-9_]")
_NUM_FMT = "%.12g"


def lp_var_names(request: SolveRequest) -> list[str]:
    """Deterministic LP-safe variable names for a request."""
    return _sanitize_names(request.var_names, "v")


def _sanitize_names(names, prefix) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    for i, raw in enumerate(names):
        s = _LP_UNSAFE.sub("_", raw) or prefix
        if (not s[0].isalpha() or re.match(r"^[eE][0-9.]", s)
                or re.fullmatch(r"(?i)inf(inity)?", s)):
            s = f"{prefix}_{s}"
        if s in seen:
            s = f"{s}__{i}"
        while s in seen:  # the suffixed name may be taken too
            s += "_"
        seen.add(s)
        out.append(s)
    return out


def _fmt_terms(names, cols, coefs) -> str:
    parts: list[str] = []
    for col, coef in zip(cols, coefs):
        mag = _NUM_FMT % abs(coef)
        sign = "-" if coef < 0 else "+"
        if not parts:
            parts.append(f"{'-' if coef < 0 else ''}{mag} {names[col]}")
        else:
            parts.append(f"{sign} {mag} {names[col]}")
    return " ".join(parts) if parts else "0 " + names[0]


def _wrap(line: str, indent: str = "   ") -> str:
    words = line.split(" ")
    lines: list[str] = []
    cur: list[str] = []
    width = 0
    for w in words:
        if cur and width + len(w) + 1 > 76:
            lines.append(" ".join(cur))
            cur, width = [w], len(w)
        else:
            cur.append(w)
            width += len(w) + 1
    if cur:
        lines.append(" ".join(cur))
    return ("\n" + indent).join(lines)


def write_lp_file(request: SolveRequest, path) -> None:
    """Serialize a request as a CPLEX-style LP file.

    Range rows are split into __lo/__hi pairs; a header comment preserves
    the variable order and objective offset so our reader round-trips.
    """
    if request.n_vars == 0:
        raise SolverError("cannot write an LP file without variables")
    vnames = lp_var_names(request)
    rnames = _sanitize_names(request.row_names, "c")
    # rows grouped by row index
    by_row: dict[int, list[tuple[int, float]]] = {}
    for r, c, v in zip(request.a_rows, request.a_cols, request.a_vals):
        by_row.setdefault(int(r), []).append((int(c), float(v)))
    lines = [
        f"\\ model: {request.name}",
        f"\\ vars: {' '.join(vnames)}",
        f"\\ objective_offset: {_NUM_FMT % request.obj_offset}",
        "Minimize",
    ]
    obj_cols = [j for j in range(request.n_vars) if request.obj[j] != 0.0]
    obj_expr = _fmt_terms(vnames, obj_cols, [float(request.obj[j]) for j in obj_cols])
    lines.append(" " + _wrap(f"obj: {obj_expr}"))
    lines.append("Subject To")
    for i in range(request.n_rows):
        terms = sorted(by_row.get(i, []))
        lo, hi = float(request.row_lb[i]), float(request.row_ub[i])
        if not terms:
            if math.isfinite(lo) or math.isfinite(hi):
                if not (lo <= 0.0 <= hi):
                    raise SolverError(f"row {request.row_names[i]!r} has bounds but no terms")
            continue
        cols = [t[0] for t in terms]
        coefs = [t[1] for t in terms]
        expr = _fmt_terms(vnames, cols, coefs)
        if math.isfinite(lo) and lo == hi:
            lines.append(" " + _wrap(f"{rnames[i]}: {expr} = {_NUM_FMT % lo}"))
            continue
        if math.isfinite(lo) and math.isfinite(hi):
            lines.append(" " + _wrap(f"{rnames[i]}__lo: {expr} >= {_NUM_FMT % lo}"))
            lines.append(" " + _wrap(f"{rnames[i]}__hi: {expr} <= {_NUM_FMT % hi}"))
            continue
        if math.isfinite(lo):
            lines.append(" " + _wrap(f"{rnames[i]}: {expr} >= {_NUM_FMT % lo}"))
        elif math.isfinite(hi):
            lines.append(" " + _wrap(f"{rnames[i]}: {expr} <= {_NUM_FMT % hi}"))
    lines.append("Bounds")
    for j, nm in enumerate(vnames):
        lo, hi = float(request.var_lb[j]), float(request.var_ub[j])
        if not math.isfinite(lo) and not math.isfinite(hi):
            lines.append(f" {nm} free")
        elif math.isfinite(lo) and math.isfinite(hi):
            lines.append(f" {_NUM_FMT % lo} <= {nm} <= {_NUM_FMT % hi}")
        elif math.isfinite(lo):
            lines.append(f" {nm} >= {_NUM_FMT % lo}")
        else:
            lines.append(f" -infinity <= {nm} <= {_NUM_FMT % hi}")
    generals = [vnames[j] for j in range(request.n_vars) if request.integrality[j]]
    if generals:
        lines.append("General")
        for nm in generals:
            lines.append(f" {nm}")
    lines.append("End")
    payload = "\n".join(lines) + "\n"
    if isinstance(path, (str, os.PathLike)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        path.write(payload)


_SECTION_RE = re.compile(
    r"^\s*(minimize|minimum|min|maximize|maximum|max|subject\s+to|such\s+that|st|s\.t\.|"
    r"bounds?|generals?|gen|binar(?:y|ies)|bin|end)\s*$",
    re.IGNORECASE,
)
_TOKEN_RE = re.compile(
    r"(?P<rel><=|>=|=)|(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|"
    r"(?P<inf>[+-]?(?:infinity|inf)(?![A-Za-z0-9_]))|(?P<sign>[+-])|"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<label>:)"
)


def _parse_linear_expr(tokens, names_index, register):
    """Consume (coef, var) terms from a token list; returns dict col->coef."""
    terms: dict[int, float] = {}
    sign = 1.0
    pending: float | None = None
    for kind, val in tokens:
        if kind == "sign":
            if pending is not None:
                raise SolverError("dangling coefficient in LP expression")
            sign *= 1.0 if val == "+" else -1.0
        elif kind == "num":
            pending = (pending if pending is not None else 1.0) * float(val)
        elif kind == "name":
            col = names_index.get(val)
            if col is None:
                col = register(val)
            coef = sign * (pending if pending is not None else 1.0)
            terms[col] = terms.get(col, 0.0) + coef
            sign, pending = 1.0, None
        else:
            raise SolverError(f"unexpected token {val!r} in LP expression")
    if pending is not None:
        raise SolverError("trailing number in LP expression")
    return terms


def _tokenize(text: str):
    out = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        between = text[pos:m.start()]
        if between.strip():
            raise SolverError(f"cannot tokenize LP fragment {between.strip()!r}")
        pos = m.end()
        for kind in ("rel", "num", "inf", "sign", "name", "label"):
            val = m.group(kind)
            if val is not None:
                out.append((kind, val))
                break
    if text[pos:].strip():
        raise SolverError(f"cannot tokenize LP fragment {text[pos:].strip()!r}")
    return out


def _num_of(kind, val) -> float:
    if kind == "num":
        return float(val)
    v = val.lower().lstrip("+")
    return -INF if v.startswith("-") else INF


def read_lp_file(source) -> SolveRequest:
    """Parse the LP dialect written by write_lp_file (plus common variants)."""
    if isinstance(source, (str, os.PathLike)) and "\n" not in str(source):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()

    name = "model"
    offset = 0.0
    preordered: list[str] = []
    body_lines: list[str] = []
    for line in text.splitlines():
        if line.lstrip().startswith("\\"):
            comment = line.lstrip()[1:].strip()
            if comment.startswith("model:"):
                name = comment[len("model:"):].strip()
            elif comment.startswith("vars:"):
                preordered = comment[len("vars:"):].split()
            elif comment.startswith("objective_offset:"):
                offset = float(comment[len("objective_offset:"):].strip())
            continue
        body_lines.append(line)

    sections: dict[str, list[str]] = {}
    current = None
    for line in body_lines:
        m = _SECTION_RE.match(line)
        if m:
            key = re.sub(r"\s+", " ", m.group(1).lower())
            if key in ("minimize", "minimum", "min"):
                current = "objective"
            elif key in ("maximize", "maximum", "max"):
                raise SolverError("maximization LP files are not supported")
            elif key in ("subject to", "such that", "st", "s.t."):
                current = "rows"
            elif key in ("bounds", "bound"):
                current = "bounds"
            elif key in ("general", "generals", "gen"):
                current = "general"
            elif key in ("binary", "binaries", "bin"):
                current = "binary"
            elif key == "end":
                current = None
            sections.setdefault(current or "end", [])
            continue
        if current:
            sections.setdefault(current, []).append(line)

    names_index: dict[str, int] = {}
    var_names: list[str] = []

    def register(nm: str) -> int:
        idx = len(var_names)
        names_index[nm] = idx
        var_names.append(nm)
        return idx

    for nm in preordered:
        if nm not in names_index:
            register(nm)

    def split_label(tokens):
        # label is "name :" prefix
        if len(tokens) >= 2 and tokens[0][0] == "name" and tokens[1][0] == "label":
            return tokens[0][1], tokens[2:]
        return None, tokens

    # objective
    obj_terms: dict[int, float] = {}
    obj_text = " ".join(sections.get("objective", []))
    tokens = _tokenize(obj_text)
    _, tokens = split_label(tokens)
    if tokens:
        obj_terms = _parse_linear_expr(tokens, names_index, register)

    # constraints
    rows: list[tuple[str, dict[int, float], float, float]] = []
    row_text = " ".join(sections.get("rows", []))
    tokens = _tokenize(row_text)
    # split statements at label tokens
    statements: list[list[tuple[str, str]]] = []
    i = 0
    while i < len(tokens):
        if (i + 1 < len(tokens) and tokens[i][0] == "name" and tokens[i + 1][0] == "label"):
            statements.append([])
        if not statements:
            statements.append([])
        statements[-1].append(tokens[i])
        i += 1
    for stmt in statements:
        if not stmt:
            continue
        label, rest = split_label(stmt)
        rel_positions = [k for k, (kind, _) in enumerate(rest) if kind == "rel"]
        if not rel_positions:
            raise SolverError(f"constraint {label!r} lacks a relation")
        if len(rel_positions) == 1:
            k = rel_positions[0]
            expr = _parse_linear_expr(rest[:k], names_index, register)
            rel = rest[k][1]
            rhs_tokens = rest[k + 1:]
            rhs = _rhs_value(rhs_tokens)
            if rel == "<=":
                lo, hi = -INF, rhs
            elif rel == ">=":
                lo, hi = rhs, INF
            else:
                lo = hi = rhs
        else:
            k1, k2 = rel_positions[0], rel_positions[1]
            lo = _rhs_value(rest[:k1])
            expr = _parse_linear_expr(rest[k1 + 1:k2], names_index, register)
            hi = _rhs_value(rest[k2 + 1:])
        rows.append((label or f"c{len(rows)}", expr, lo, hi))

    # bounds
    explicit_bounds: dict[int, tuple[float, float]] = {}
    for line in sections.get("bounds", []):
        if not line.strip():
            continue
        tokens = _tokenize(line)
        if len(tokens) == 2 and tokens[0][0] == "name" and tokens[1] == ("name", "free"):
            j = names_index.get(tokens[0][1])
            if j is None:
                j = register(tokens[0][1])
            explicit_bounds[j] = (-INF, INF)
            continue
        rel_positions = [k for k, (kind, _) in enumerate(tokens) if kind == "rel"]
        if len(rel_positions) == 1:
            k = rel_positions[0]
            left, right = tokens[:k], tokens[k + 1:]
            rel = tokens[k][1]
            if len(left) == 1 and left[0][0] == "name":
                j = names_index.get(left[0][1])
                if j is None:
                    j = register(left[0][1])
                val = _rhs_value(right)
                cur = explicit_bounds.get(j, (0.0, INF))
                if rel == ">=":
                    explicit_bounds[j] = (val, cur[1])
                elif rel == "<=":
                    explicit_bounds[j] = (cur[0], val)
                else:
                    explicit_bounds[j] = (val, val)
            else:
                raise SolverError(f"unsupported bounds line {line!r}")
        elif len(rel_positions) == 2:
            k1, k2 = rel_positions
            lo = _rhs_value(tokens[:k1])
            mid = tokens[k1 + 1:k2]
            hi = _rhs_value(tokens[k2 + 1:])
            if len(mid) != 1 or mid[0][0] != "name":
                raise SolverError(f"unsupported bounds line {line!r}")
            j = names_index.get(mid[0][1])
            if j is None:
                j = register(mid[0][1])
            explicit_bounds[j] = (lo, hi)
        else:
            raise SolverError(f"unsupported bounds line {line!r}")

    integer_names = set()
    binary_names = set()
    for line in sections.get("general", []):
        integer_names.update(line.split())
    for line in sections.get("binary", []):
        binary_names.update(line.split())
    for nm in sorted(integer_names | binary_names):
        if nm not in names_index:
            register(nm)

    n = len(var_names)
    obj = np.zeros(n)
    for j, coef in obj_terms.items():
        obj[j] = coef
    var_lb = np.zeros(n)
    var_ub = np.full(n, INF)
    for j in range(n):
        if j in explicit_bounds:
            var_lb[j], var_ub[j] = explicit_bounds[j]
        elif var_names[j] in binary_names:
            var_lb[j], var_ub[j] = 0.0, 1.0
    integrality = np.array(
        [nm in integer_names or nm in binary_names for nm in var_names], dtype=bool)

    a_rows, a_cols, a_vals = [], [], []
    row_lb, row_ub, row_names = [], [], []
    for ridx, (label, expr, lo, hi) in enumerate(rows):
        row_names.append(label)
        row_lb.append(lo)
        row_ub.append(hi)
        for j, coef in sorted(expr.items()):
            a_rows.append(ridx)
            a_cols.append(j)
            a_vals.append(coef)

    return SolveRequest(
        obj=obj, obj_offset=offset,
        a_rows=np.array(a_rows, dtype=np.int64),
        a_cols=np.array(a_cols, dtype=np.int64),
        a_vals=np.array(a_vals, dtype=float),
        row_lb=np.array(row_lb, dtype=float),
        row_ub=np.array(row_ub, dtype=float),
        var_lb=var_lb, var_ub=var_ub, integrality=integrality,
        var_names=tuple(var_names), row_names=tuple(row_names), name=name,
    )


def _rhs_value(tokens) -> float:
    vals = [t for t in tokens if t[0] in ("num", "inf")]
    signs = [t for t in tokens if t[0] == "sign"]
    if len(vals) != 1 or len(vals) + len(signs) != len(tokens):
        raise SolverError(f"expected a single number, got {tokens!r}")
    v = _num_of(*vals[0])
    for _, s in signs:
        if s == "-":
            v = -v
    return v


# ---------------------------------------------------------------------------
# Result file exchange


def write_result_file(outcome: SolveOutcome, request: SolveRequest, path) -> None:
    """JSON result document keyed by LP-safe variable names."""
    doc: dict = {
        "status": outcome.status.value,
        "objective": outcome.objective,
        "bound": outcome.bound,
        "message": outcome.message,
        "values": {},
    }
    if outcome.x is not None:
        for nm, v in zip(lp_var_names(request), outcome.x):
            doc["values"][nm] = float(v)
    payload = json.dumps(doc, sort_keys=True, indent=1)
    if isinstance(path, (str, os.PathLike)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        path.write(payload)


def read_result_file(source, request: SolveRequest) -> SolveOutcome:
    """Read a result document and map values back onto request variables."""
    if isinstance(source, (str, os.PathLike)) and not str(source).lstrip().startswith("{"):
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    elif isinstance(source, str):
        doc = json.loads(source)
    else:
        doc = json.load(source)
    try:
        status = SolveStatus(str(doc["status"]).lower())
    except ValueError:
        status = SolveStatus.FAILED
    values = doc.get("values") or {}
    x = None
    if values:
        x = np.zeros(request.n_vars)
        lookup = {nm: j for j, nm in enumerate(lp_var_names(request))}
        for j, nm in enumerate(request.var_names):
            if nm in values:  # raw names take precedence
                x[j] = float(values[nm])
        for nm, v in values.items():
            if nm in lookup:
                x[lookup[nm]] = float(v)
    objective = doc.get("objective")
    bound = doc.get("bound")
    return SolveOutcome(
        status=status, x=x,
        objective=float(objective) if objective is not None else None,
        bound=float(bound) if bound is not None else None,
        backend="external", message=str(doc.get("message", "")),
    )


def _solve_external(request: SolveRequest, command: str) -> SolveOutcome:
    t0 = time.monotonic()
    args = shlex.split(command)
    if not args:
        raise SolverError("empty external solver command")
    limit = request.params.get("time_limit_s")
    timeout = float(limit) + 30.0 if limit is not None else None
    with tempfile.TemporaryDirectory(prefix="munipath_lp_") as tmp:
        lp_path = os.path.join(tmp, "problem.lp")
        out_path = os.path.join(tmp, "result.json")
        write_lp_file(request, lp_path)
        try:
            proc = subprocess.run(
                args + [lp_path, out_path],
                capture_output=True, text=True, timeout=timeout, check=False,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return SolveOutcome(status=SolveStatus.FAILED, backend="external",
                                wall_time_s=time.monotonic() - t0,
                                message=f"external solver failed: {exc}")
        if proc.returncode != 0 or not os.path.exists(out_path):
            return SolveOutcome(
                status=SolveStatus.FAILED, backend="external",
                wall_time_s=time.monotonic() - t0,
                message=f"external solver exit {proc.returncode}: {proc.stderr[-500:]}")
        outcome = read_result_file(out_path, request)
    return SolveOutcome(
        status=outcome.status, x=outcome.x, objective=outcome.objective,
        bound=outcome.bound, backend="external",
        wall_time_s=time.monotonic() - t0, message=outcome.message,
    )
