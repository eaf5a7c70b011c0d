"""Independent oracles used by the unit and acceptance suites.

Everything here deliberately avoids the code paths it is checking:
dispatch LPs go through scipy.optimize.linprog, discrete choices are
enumerated outright, and random problems carry their own reference
answers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

from munipath.catalog import restrict_catalog
from munipath.model import build_model
from munipath.twin import Building, TechnologyInstance, TimeGrid, variant_of

INF = math.inf


# ---------------------------------------------------------------------------
# LP solving straight from a SolveRequest, with chosen variables pinned


def scipy_lp(request, fixed: dict[int, float] | None = None):
    """Solve the request's continuous relaxation with scipy's HiGHS LP.

    ``fixed`` pins variables (used to enumerate integer patterns).
    Returns (status, objective); status one of 'optimal', 'infeasible',
    'unbounded' or 'failed'.
    """
    fixed = fixed or {}
    n = request.n_vars
    a = csr_array(
        (np.asarray(request.a_vals, dtype=float),
         (np.asarray(request.a_rows), np.asarray(request.a_cols))),
        shape=(request.n_rows, n),
    ).toarray()
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for i in range(request.n_rows):
        lo, hi = request.row_lb[i], request.row_ub[i]
        if lo == hi:
            a_eq.append(a[i])
            b_eq.append(lo)
            continue
        if hi < INF:
            a_ub.append(a[i])
            b_ub.append(hi)
        if lo > -INF:
            a_ub.append(-a[i])
            b_ub.append(-lo)
    bounds = []
    for j in range(n):
        if j in fixed:
            bounds.append((fixed[j], fixed[j]))
        else:
            lo, hi = request.var_lb[j], request.var_ub[j]
            bounds.append((None if lo == -INF else lo, None if hi == INF else hi))
    res = linprog(
        c=np.asarray(request.obj, dtype=float),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    if not res.success:
        return "failed", None
    return "optimal", float(res.fun)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of a building model's discrete decisions


def enumerate_building_optimum(arts) -> float | None:
    """Best objective over all integer patterns, LP dispatch per pattern.

    Returns None when no pattern is feasible.  Each existing unit is either
    kept or dropped; a candidate is skipped, installed at one of its size
    grid levels, or installed with its size left to the LP.
    """
    req = arts.request
    keep_idx: dict[int, int] = {}
    drop_idx: dict[int, int] = {}
    inst_idx: dict[str, int] = {}
    picks: dict[str, list[int]] = {}
    variant_idx: dict[int, int] = {}
    for j, kind in enumerate(arts.var_keys):
        tag = kind[0]
        if tag == "keep":
            keep_idx[kind[1]] = j
        elif tag == "drop":
            drop_idx[kind[1]] = j
        elif tag == "inst":
            inst_idx[kind[1]] = j
        elif tag == "pick":
            picks.setdefault(kind[1], []).append(j)
        elif tag == "variant":
            variant_idx[kind[1]] = j
    for tid in picks:
        picks[tid].sort()  # creation order == sorted size levels

    admissible = [ir for ir, j in variant_idx.items() if req.var_ub[j] > 0.5]
    unit_ids = sorted(keep_idx)
    cand_ids = sorted(inst_idx)

    # per candidate: skip it, install at a grid level, or install with the
    # size left to the LP when the candidate has no grid
    cand_options: list[list[tuple[float, int | None]]] = []
    for tid in cand_ids:
        opts: list[tuple[float, int | None]] = [(0.0, None)]
        if picks.get(tid):
            opts.extend((1.0, k) for k in range(len(picks[tid])))
        else:
            opts.append((1.0, None))
        cand_options.append(opts)

    best = None
    for ir in sorted(admissible):
        for keeps in itertools.product((1.0, 0.0), repeat=len(unit_ids)):
            for combo in itertools.product(*cand_options):
                fixed: dict[int, float] = {}
                for jr, j in variant_idx.items():
                    fixed[j] = 1.0 if jr == ir else 0.0
                for u, kv in zip(unit_ids, keeps):
                    fixed[keep_idx[u]] = kv
                    fixed[drop_idx[u]] = 1.0 - kv
                for tid, (inst_v, level) in zip(cand_ids, combo):
                    fixed[inst_idx[tid]] = inst_v
                    for k, j in enumerate(picks.get(tid, [])):
                        fixed[j] = 1.0 if level == k else 0.0
                status, obj = scipy_lp(req, fixed)
                if status == "optimal" and (best is None or obj < best):
                    best = obj
    return best


# ---------------------------------------------------------------------------
# Randomized toy building instances (small enough to enumerate)


def toy_grid() -> TimeGrid:
    """24 steps: two 12-step days (winter and summer) covering the year."""
    return TimeGrid(120, ((15, 182.0), (196, 183.0)))


def make_toy_instance(rng: np.random.Generator, cat):
    """A random small building plus matching catalog subset and size grids."""
    grid = toy_grid()
    steps = grid.steps

    existing_kind = rng.choice(["gas_boiler", "direct_electric"])
    n_cands = int(rng.integers(1, 3))
    cand_pool = ["air_source_heat_pump", "gas_boiler", "pv"]
    cands = list(rng.choice(cand_pool, size=n_cands, replace=False))
    tech_ids = sorted(set(cands) | {existing_kind, "grid_connection"})

    sh_annual = float(rng.uniform(8_000, 30_000))
    el_annual = float(rng.uniform(1_500, 4_000))
    base = 0.3 + rng.random(steps)
    season = np.where(grid.day_of_year() < 100, 1.0, 0.25)
    sh = base * season
    sh = sh * (sh_annual / float(sh @ grid.step_weights()))
    el = 0.5 + 0.5 * rng.random(steps)
    el = el * (el_annual / float(el @ grid.step_weights()))

    peak_kw = float(sh.max()) / grid.hours_per_step
    heat_size = max(5.0, round(peak_kw * float(rng.uniform(1.0, 1.4)), 1))

    # three of four components already done: exactly two admissible variants
    done = rng.permutation(["roof", "wall", "window", "cellar"])[:3]
    state = variant_of(done)

    building = Building(
        id="toy",
        location=(10.0, 51.0),
        building_type="residential",
        construction_year=1975,
        roof_area=float(rng.uniform(80, 160)),
        open_space_area=0.0,
        demand={
            "space_heat": tuple(float(v) for v in sh),
            "electricity": tuple(float(v) for v in el),
        },
        variant_index=state,
        installed=(
            TechnologyInstance(existing_kind, heat_size,
                               int(rng.integers(2010, 2020))),
            TechnologyInstance("grid_connection", 80.0, 2012),
        ),
        heat_network_access=False,
    )
    toy_cat = restrict_catalog(cat, tech_ids)

    size_grid = {}
    for tid in cands:
        spec = toy_cat.tech(tid)
        lo = max(spec.min_size, peak_kw * 0.5)
        levels = (round(lo, 2), round(lo * 1.6, 2), round(lo * 2.4, 2))
        size_grid[tid] = levels
    return building, toy_cat, grid, size_grid


def build_toy_model(building, toy_cat, grid, size_grid, scen, year=2030):
    return build_model(
        building, toy_cat, scen, grid,
        target_year=year, period_years=7,
        size_grid=size_grid,
    )


# ---------------------------------------------------------------------------
# Random small MIPs with enumerated reference answers


def make_random_mip(rng: np.random.Generator):
    """Random MIP: ≤10 binaries, occasionally plus continuous variables.

    Returns (c, a, row_lb, row_ub, var_lb, var_ub, integrality).
    """
    n_bin = int(rng.integers(1, 11))
    n_cont = int(rng.integers(0, 3)) if n_bin <= 6 else 0
    n = n_bin + n_cont
    m = int(rng.integers(1, 7))
    a = np.where(rng.random((m, n)) < 0.6, rng.integers(-4, 5, (m, n)), 0).astype(float)
    c = rng.integers(-10, 11, n).astype(float)
    row_lb = np.full(m, -INF)
    row_ub = np.full(m, INF)
    for i in range(m):
        kind = rng.random()
        rhs = float(rng.integers(-3, 9))
        if kind < 0.45:
            row_ub[i] = rhs
        elif kind < 0.9:
            row_lb[i] = rhs - float(rng.integers(0, 6))
            if rng.random() < 0.5:
                row_ub[i] = rhs
        else:
            row_lb[i] = row_ub[i] = rhs
    var_lb = np.zeros(n)
    var_ub = np.ones(n)
    var_ub[n_bin:] = rng.integers(2, 8, n_cont).astype(float)
    integrality = [True] * n_bin + [False] * n_cont
    return c, a, row_lb, row_ub, var_lb, var_ub, integrality


def enumerate_mip_optimum(c, a, row_lb, row_ub, var_lb, var_ub, integrality,
                          tol=1e-9):
    """Reference answer by trying all 2^n binary assignments.

    Continuous remainders are dispatched with scipy linprog.  Returns
    (status, objective).
    """
    n = len(c)
    bin_cols = [j for j in range(n) if integrality[j]]
    cont_cols = [j for j in range(n) if not integrality[j]]
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(bin_cols)):
        x_bin = dict(zip(bin_cols, bits))
        if not cont_cols:
            x = np.array([x_bin[j] for j in range(n)])
            act = a @ x
            if np.all(act >= row_lb - tol) and np.all(act <= row_ub + tol):
                val = float(c @ x)
                if best is None or val < best:
                    best = val
            continue
        a_eq, b_eq, a_ub, b_ub = [], [], [], []
        shift = a[:, bin_cols] @ np.array(bits) if bin_cols else 0.0
        sub = a[:, cont_cols]
        for i in range(len(row_lb)):
            lo = row_lb[i] - (shift[i] if bin_cols else 0.0)
            hi = row_ub[i] - (shift[i] if bin_cols else 0.0)
            if lo == hi:
                a_eq.append(sub[i])
                b_eq.append(lo)
            else:
                if hi < INF:
                    a_ub.append(sub[i])
                    b_ub.append(hi)
                if lo > -INF:
                    a_ub.append(-sub[i])
                    b_ub.append(-lo)
        res = linprog(
            c=c[cont_cols],
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(var_lb[j], var_ub[j]) for j in cont_cols],
            method="highs",
        )
        if res.success:
            val = float(res.fun) + float(c[bin_cols] @ np.array(bits)) if bin_cols \
                else float(res.fun)
            if best is None or val < best:
                best = val
    if best is None:
        return "infeasible", None
    return "optimal", best
