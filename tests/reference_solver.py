"""Reference MILP solver: the trust anchor the tests check HiGHS against.

A self-contained dense two-phase primal simplex plus branch and bound.
Slow but transparent: every LP solve is certified against its dual, and
``duality_check_count`` counts the certificates.  ``reference_solve(request)`` takes the same ``SolveRequest``
as ``munipath.solver.solve`` and returns the same ``SolveOutcome``, with
the relative MIP gap fixed at ``DEFAULT_MIP_GAP`` and no time limit.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from munipath.solver import (
    DEFAULT_MIP_GAP,
    INF,
    SolveOutcome,
    SolveRequest,
    SolverError,
    SolveStatus,
)

# The reference branch and bound enumerates by bisection; beyond this many
# integer variables it refuses instead of pretending to scale.
MAX_REFERENCE_INTEGERS = 60

DUALITY_TOL = 1e-7

# The reference branch and bound takes a value this close to an integer as one.
INTEGRALITY_TOL = 1e-6


class SolverCapacityError(SolverError):
    """Problem exceeds what the reference solver is built for."""


class SolverNumericsError(SolverError):
    """A certificate check failed; the result cannot be trusted."""


def dense_matrix(request: SolveRequest) -> np.ndarray:
    a = np.zeros((request.n_rows, request.n_vars))
    np.add.at(a, (request.a_rows, request.a_cols), request.a_vals)
    return a


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
    """Number of LP certificates verified since import."""
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
    sf = _standardize(request.obj, dense_matrix(request),
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


def reference_solve(request: SolveRequest) -> SolveOutcome:
    """Solve a request to a certified optimum, or prove it infeasible or
    unbounded.  Integer columns need finite bounds, at most
    ``MAX_REFERENCE_INTEGERS`` of them."""
    t0 = time.monotonic()
    ints = np.flatnonzero(request.integrality)
    if ints.size == 0:
        status, x, obj = _reference_lp(request)
        return SolveOutcome(
            status=status, x=x, objective=obj, bound=obj, gap=0.0 if obj is not None else None,
            wall_time_s=time.monotonic() - t0,
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


def _branch_and_bound(request: SolveRequest, int_idx: np.ndarray,
                      t0: float) -> SolveOutcome:
    mip_gap = DEFAULT_MIP_GAP

    incumbent_x = None
    incumbent_obj = INF

    status, x, obj = _reference_lp(request)
    if status is SolveStatus.INFEASIBLE:
        return SolveOutcome(status=status, wall_time_s=time.monotonic() - t0)
    if status is SolveStatus.UNBOUNDED:
        return SolveOutcome(status=status, wall_time_s=time.monotonic() - t0,
                            message="relaxation unbounded")

    counter = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray, float]] = []
    heapq.heappush(heap, (obj, counter, request.var_lb.copy(), request.var_ub.copy(),
                          x, obj))

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

    # every node was explored or pruned, so the incumbent is optimal
    wall = time.monotonic() - t0
    if incumbent_x is None:
        return SolveOutcome(status=SolveStatus.INFEASIBLE, wall_time_s=wall)
    return SolveOutcome(
        status=SolveStatus.OPTIMAL, x=incumbent_x, objective=incumbent_obj,
        bound=incumbent_obj, gap=0.0, wall_time_s=wall,
    )
