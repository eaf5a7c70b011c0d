"""Solver layer: HiGHS against the reference oracle, certificates, capacity guards."""

import dataclasses
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from munipath.solver import (
    LinearModel,
    Relaxation,
    SolveRequest,
    SolveStatus,
    SolverError,
    _colwise,
    solve,
)

from oracles import enumerate_mip_optimum, make_random_mip, scipy_lp
from reference_solver import (
    MAX_REFERENCE_INTEGERS,
    SolverCapacityError,
    dense_matrix,
    duality_check_count,
    reference_solve,
)

INF = float("inf")


def _request(c, a, row_lb, row_ub, var_lb, var_ub, integrality) -> SolveRequest:
    a = np.asarray(a, dtype=float)
    if a.size:
        rows, cols = np.nonzero(a)
        vals = a[rows, cols]
    else:
        rows = cols = np.zeros(0, dtype=int)
        vals = np.zeros(0)
    return SolveRequest(
        obj=np.asarray(c, dtype=float),
        a_rows=rows, a_cols=cols, a_vals=vals,
        row_lb=np.asarray(row_lb, dtype=float),
        row_ub=np.asarray(row_ub, dtype=float),
        var_lb=np.asarray(var_lb, dtype=float),
        var_ub=np.asarray(var_ub, dtype=float),
        integrality=np.asarray(integrality, dtype=bool),
    )


def _tiny_lp() -> SolveRequest:
    # min -x - 2y  s.t.  x + y <= 4,  0 <= x,y <= 3   ->  x=1, y=3, obj -7
    return _request([-1.0, -2.0], [[1.0, 1.0]], [-INF], [4.0],
                    [0.0, 0.0], [3.0, 3.0], [False, False])


def _tiny_mip() -> SolveRequest:
    # knapsack: min -(5a + 4b + 3c)  s.t.  2a + 3b + c <= 4  ->  a=c=1, obj -8
    return _request([-5.0, -4.0, -3.0], [[2.0, 3.0, 1.0]], [-INF], [4.0],
                    [0.0] * 3, [1.0] * 3, [True] * 3)


# ---------------------------------------------------------------------------
# Small worked problems


# HiGHS and the reference oracle side by side
solvers = pytest.mark.parametrize("solver", [solve, reference_solve],
                                  ids=["highs", "reference"])


@solvers
def test_tiny_lp(solver):
    out = solver(_tiny_lp())
    assert out.status is SolveStatus.OPTIMAL
    assert out.objective == pytest.approx(-7.0, abs=1e-9)
    assert out.x[0] == pytest.approx(1.0, abs=1e-9)
    assert out.x[1] == pytest.approx(3.0, abs=1e-9)


@solvers
def test_tiny_mip(solver):
    out = solver(_tiny_mip())
    assert out.status is SolveStatus.OPTIMAL
    assert out.objective == pytest.approx(-8.0, abs=1e-9)
    assert list(np.round(out.x)) == [1.0, 0.0, 1.0]


def _branching_mip() -> SolveRequest:
    # a two-row knapsack over 8 items that presolve and the root leave open
    weights = [[34, 14, 8, 15, 19, 33, 20, 8], [16, 26, 33, 30, 39, 11, 35, 6]]
    values = [24, 14, 12, 28, 15, 24, 14, 10]
    return _request([-v for v in values], weights, [-INF, -INF], [75.0, 98.0],
                    [0.0] * 8, [1.0] * 8, [True] * 8)


def test_highs_reports_node_count():
    out = solve(_branching_mip())
    assert out.nodes >= 1
    assert out.lp_iterations >= 1
    assert out.objective == pytest.approx(reference_solve(_branching_mip()).objective,
                                          abs=1e-9)
    assert reference_solve(_tiny_mip()).nodes is None


def test_highs_refuses_a_start_of_the_wrong_length():
    with pytest.raises(SolverError, match="start of 2 values for 3 columns"):
        solve(_tiny_mip(), start=np.zeros(2))


def test_highs_keeps_the_optimum_from_any_start():
    want = solve(_branching_mip())
    for start in (want.x, np.zeros(8), np.ones(8)):  # optimal, feasible, infeasible
        out = solve(_branching_mip(), start=start)
        assert out.status is SolveStatus.OPTIMAL
        assert out.objective == pytest.approx(want.objective, abs=1e-9)


def test_relaxation_solves_again_after_bound_changes():
    lp = Relaxation(_tiny_mip())
    objective, x = lp.run()
    # the LP optimum takes a and c whole and b fractionally: 2 + 3/3 + 1 = 4
    assert objective == pytest.approx(-5.0 - 4.0 / 3.0 - 3.0, abs=1e-9)
    assert x == pytest.approx([1.0, 1.0 / 3.0, 1.0], abs=1e-9)
    lp.bound(np.array([1]), [0.0], [0.0])
    assert lp.run()[0] == pytest.approx(-8.0, abs=1e-9)
    lp.bound(np.array([0, 1]), [1.0, 1.0], [1.0, 1.0])  # 2 + 3 > 4
    assert lp.run() is None


@solvers
def test_unbounded(solver):
    req = _request([-1.0], np.zeros((0, 1)), [], [], [0.0], [INF], [False])
    assert solver(req).status is SolveStatus.UNBOUNDED
    if solver is solve:  # the reference oracle needs bounded integers
        # HiGHS's MIP presolve finds this "unbounded or infeasible"
        mip = dataclasses.replace(req, integrality=np.array([True]))
        assert solver(mip).status is SolveStatus.UNBOUNDED


@solvers
def test_infeasible(solver):
    # row demands x >= 2 while the bound caps x at 1
    req = _request([1.0], [[1.0]], [2.0], [INF], [0.0], [1.0], [False])
    assert solver(req).status is SolveStatus.INFEASIBLE
    mip = dataclasses.replace(req, integrality=np.array([True]))
    assert solver(mip).status is SolveStatus.INFEASIBLE


def test_highs_status_table_names_every_model_status():
    # the table lists only real HiGHS statuses, and every one it leaves out
    # is looked up as FAILED
    from munipath.solver import _HIGHS_STATUS, load_highs

    names = set(load_highs().HighsModelStatus.__members__)
    assert set(_HIGHS_STATUS) < names
    assert {n: _HIGHS_STATUS.get(n, SolveStatus.FAILED) for n in names} == {
        **dict.fromkeys(names, SolveStatus.FAILED),
        "kOptimal": SolveStatus.OPTIMAL, "kInfeasible": SolveStatus.INFEASIBLE,
        "kUnbounded": SolveStatus.UNBOUNDED, "kTimeLimit": SolveStatus.FEASIBLE,
        "kIterationLimit": SolveStatus.FEASIBLE}


def test_highs_files_a_rejected_model_as_failed():
    # HiGHS rejects a NaN bound when the model is passed
    req = dataclasses.replace(_tiny_lp(), var_ub=np.array([np.nan, 3.0]))
    out = solve(req)
    assert out.status is SolveStatus.FAILED
    assert out.x is None


def test_highs_refuses_non_finite_coefficients():
    # HiGHS itself calls both of these optimal
    for field, value in (("obj", [np.inf, -2.0]), ("a_vals", [np.nan, 1.0])):
        req = dataclasses.replace(_tiny_lp(), **{field: np.array(value)})
        with pytest.raises(SolverError, match="non-finite"):
            solve(req)


def test_highs_sums_repeated_matrix_entries():
    # x + y <= 4 given as x + 0.5 y + 0.5 y; HiGHS itself rejects duplicates
    req = dataclasses.replace(
        _tiny_lp(), a_rows=np.array([0, 0, 0]), a_cols=np.array([1, 0, 1]),
        a_vals=np.array([0.5, 1.0, 0.5]))
    out = solve(req)
    assert out.status is SolveStatus.OPTIMAL
    assert out.objective == pytest.approx(-7.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Randomized cross-checks


def _random_lp(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    a = np.where(rng.random((m, n)) < 0.7, rng.integers(-5, 6, (m, n)), 0).astype(float)
    c = rng.integers(-8, 9, n).astype(float)
    row_lb = np.full(m, -INF)
    row_ub = np.full(m, INF)
    for i in range(m):
        u = rng.random()
        rhs = float(rng.integers(-4, 10))
        if u < 0.4:
            row_ub[i] = rhs
        elif u < 0.8:
            row_lb[i] = rhs - float(rng.integers(0, 7))
            if rng.random() < 0.6:
                row_ub[i] = rhs
        else:
            row_lb[i] = row_ub[i] = rhs
    var_lb = np.zeros(n)
    var_ub = np.full(n, INF)
    for j in range(n):
        u = rng.random()
        if u < 0.2:
            var_lb[j] = -INF  # free below
        elif u < 0.35:
            var_lb[j] = float(rng.integers(-3, 1))
        if rng.random() < 0.6:
            base = var_lb[j] if np.isfinite(var_lb[j]) else -2.0
            var_ub[j] = base + float(rng.integers(1, 9))
    return _request(c, a, row_lb, row_ub, var_lb, var_ub, [False] * n)


def test_reference_lp_agrees_with_scipy_on_random_instances():
    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(40):
        req = _random_lp(rng)
        status, objective = scipy_lp(req)
        if status == "failed":
            continue
        out = reference_solve(req)
        assert out.status.value == status, f"instance {checked}"
        if status == "optimal":
            assert out.objective == pytest.approx(objective, rel=1e-6, abs=1e-6)
        checked += 1
    assert checked >= 35


def test_reference_mip_agrees_with_enumeration():
    rng = np.random.default_rng(77)
    for k in range(30):
        c, a, row_lb, row_ub, var_lb, var_ub, integrality = make_random_mip(rng)
        req = _request(c, a, row_lb, row_ub, var_lb, var_ub, integrality)
        status, best = enumerate_mip_optimum(
            c, a, row_lb, row_ub, var_lb, var_ub, integrality)
        out = reference_solve(req)
        assert out.status.value == status, f"instance {k}"
        if status == "optimal":
            assert out.objective == pytest.approx(best, rel=1e-6, abs=1e-6), \
                f"instance {k}"


def test_highs_mip_agrees_with_enumeration():
    rng = np.random.default_rng(78)
    for k in range(15):
        c, a, row_lb, row_ub, var_lb, var_ub, integrality = make_random_mip(rng)
        req = _request(c, a, row_lb, row_ub, var_lb, var_ub, integrality)
        status, best = enumerate_mip_optimum(
            c, a, row_lb, row_ub, var_lb, var_ub, integrality)
        out = solve(req)
        assert out.status.value == status, f"instance {k}"
        if status == "optimal":
            assert out.objective == pytest.approx(best, rel=1e-6, abs=1e-6)


def test_lp_relaxation_bounds_mip():
    rng = np.random.default_rng(91)
    for _ in range(20):
        c, a, row_lb, row_ub, var_lb, var_ub, integrality = make_random_mip(rng)
        req = _request(c, a, row_lb, row_ub, var_lb, var_ub, integrality)
        out = reference_solve(req)
        if out.status is not SolveStatus.OPTIMAL:
            continue
        relaxed = _request(c, a, row_lb, row_ub, var_lb, var_ub,
                           [False] * len(c))
        lp_status, lp_obj = scipy_lp(relaxed)
        assert lp_status == "optimal"
        assert lp_obj <= out.objective + 1e-7


def test_reference_solves_are_deterministic():
    rng = np.random.default_rng(5150)
    c, a, row_lb, row_ub, var_lb, var_ub, integrality = make_random_mip(rng)
    req = _request(c, a, row_lb, row_ub, var_lb, var_ub, integrality)
    out1 = reference_solve(req)
    out2 = reference_solve(req)
    assert out1.objective == out2.objective
    assert np.array_equal(out1.x, out2.x)


def test_every_reference_solve_is_certified():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        req = _random_lp(rng)
        before = duality_check_count()
        reference_solve(req)
        assert duality_check_count() > before


# ---------------------------------------------------------------------------
# Guards


def test_reference_rejects_too_many_integers():
    n = MAX_REFERENCE_INTEGERS + 1
    req = _request(np.ones(n), np.zeros((0, n)), [], [],
                   np.zeros(n), np.ones(n), [True] * n)
    with pytest.raises(SolverCapacityError):
        reference_solve(req)


def test_reference_rejects_unbounded_integer():
    req = _request([1.0], np.zeros((0, 1)), [], [], [0.0], [INF], [True])
    with pytest.raises(SolverCapacityError):
        reference_solve(req)


def test_time_limit_param_accepted():
    out = solve(_tiny_mip(), params={"time_limit_s": 10.0})
    assert out.status is SolveStatus.OPTIMAL


def test_unknown_params_are_refused():
    # misspelt keys used to be ignored: the default gap, and no time limit
    with pytest.raises(SolverError, match=re.escape("['mip_gp', 'time_limit']")):
        solve(_tiny_mip(), params={"mip_gap": 1e-4, "mip_gp": 0.5, "time_limit": 1})


def _tiny_mip_fixed() -> SolveRequest:
    # the knapsack with every integer column fixed at its optimum
    req = _tiny_mip()
    x = np.array([1.0, 0.0, 1.0])
    return dataclasses.replace(req, var_lb=x, var_ub=x)


@pytest.mark.parametrize("make_request", [_tiny_mip, _tiny_mip_fixed], ids=["free", "fixed"])
def test_highs_runs_without_sub_mip_heuristics(monkeypatch, make_request):
    from munipath import solver

    core = solver.load_highs()
    built = []

    class Spy(core._Highs):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(core, "_Highs", Spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solve(make_request(), params={"mip_gap": 0.02, "time_limit_s": 7.5})
    assert out.status is SolveStatus.OPTIMAL
    assert out.objective == pytest.approx(-8.0, abs=1e-9)
    (highs,) = built

    def option(name):
        status, value = highs.getOptionValue(name)
        assert status == core.HighsStatus.kOk, name
        return value

    assert option("mip_heuristic_run_rens") is False
    assert option("mip_heuristic_run_rins") is False
    assert option("mip_heuristic_run_root_reduced_cost") is False
    assert option("mip_heuristic_run_feasibility_jump") is False
    assert option("mip_allow_restart") is False
    assert option("mip_pscost_minreliable") == 0
    assert option("presolve") == "on"
    assert option("mip_rel_gap") == 0.02
    assert option("time_limit") == 7.5
    assert option("output_flag") is False


def test_highs_refuses_an_out_of_range_option():
    with pytest.raises(SolverError, match="mip_rel_gap"):
        solve(_tiny_mip(), params={"mip_gap": -1.0})
    with pytest.raises(SolverError, match="time_limit"):
        solve(_tiny_mip(), params={"time_limit_s": -1.0})


# ---------------------------------------------------------------------------
# Model assembly


def test_linear_model_accumulates_duplicate_terms():
    lm = LinearModel()
    (x,) = lm.add_vars([("x",)], 0.0, 5.0)
    (r,) = lm.add_rows([("cap",)], -INF, 4.0)
    lm.add_terms(r, x, 1.0)
    lm.add_terms(r, x, 2.0)
    req = lm.build([0.0])
    assert dense_matrix(req)[0, 0] == pytest.approx(3.0)
    assert _colwise(req)[2].tolist() == [3.0]  # one entry reaches HiGHS


def test_linear_model_objective_and_bounds():
    lm = LinearModel()
    x, y = lm.add_vars([("x",), ("y",)], lb=[0.0, 4.0], ub=[10.0, 4.0],
                       integer=[False, True])
    (tie,) = lm.add_rows([("tie",)], 1.0, 1.0)
    lm.add_terms(tie, [x, y], [1.0, -1.0])
    with pytest.raises(ValueError, match="objective"):
        lm.build([3.0])  # one coefficient per column
    req = lm.build([3.0, -3.0])
    assert lm.var_keys == (("x",), ("y",))
    assert lm.row_keys == (("tie",),)
    assert list(req.obj) == [3.0, -3.0]
    assert req.var_lb[1] == req.var_ub[1] == 4.0
    assert bool(req.integrality[1]) and not bool(req.integrality[0])
    out = reference_solve(req)
    assert out.status is SolveStatus.OPTIMAL
    assert out.x[0] == pytest.approx(5.0)


def test_linear_model_blocks_broadcast_and_fail_whole():
    lm = LinearModel()
    cols = lm.add_vars([("out", s) for s in range(3)], ub=[1.0, 2.0, 3.0], integer=True)
    rows = lm.add_rows([("cap", s) for s in range(3)], ub=0.0)
    assert cols.tolist() == rows.tolist() == [0, 1, 2]
    lm.add_terms(rows, cols, [1.0, 0.0, -2.0])  # the zero is dropped
    lm.add_terms(rows[1], [], 5.0)  # an empty block adds nothing
    req = lm.build(np.zeros(3))
    assert req.var_lb.tolist() == [0.0] * 3 and req.var_ub.tolist() == [1.0, 2.0, 3.0]
    assert req.integrality.tolist() == [True] * 3
    assert req.row_lb.tolist() == [-INF] * 3 and req.row_ub.tolist() == [0.0] * 3
    assert list(zip(req.a_rows.tolist(), req.a_cols.tolist(), req.a_vals.tolist())) \
        == [(0, 0, 1.0), (2, 2, -2.0)]
    # a bad block raises naming its key and adds none of its keys or bounds
    for keys in ([("in",), ("in",)], [("new",), ("out", 1)]):
        with pytest.raises(ValueError, match=re.escape(f"duplicate variable {keys[1]!r}")):
            lm.add_vars(keys)
    with pytest.raises(ValueError, match=re.escape("duplicate row ('cap', 0)")):
        lm.add_rows([("extra",), ("cap", 0)])
    with pytest.raises(ValueError, match=re.escape("variable ('bad', 1): lb 2.0 > ub 1.0")):
        lm.add_vars([("bad", 0), ("bad", 1)], lb=[0.0, 2.0], ub=1.0)
    assert lm.var_keys == tuple(("out", s) for s in range(3))
    assert lm.row_keys == tuple(("cap", s) for s in range(3))
    req = lm.build(np.zeros(3))
    assert req.var_ub.tolist() == [1.0, 2.0, 3.0] and req.row_ub.tolist() == [0.0] * 3


def test_linear_model_rejects_duplicate_keys():
    lm = LinearModel()
    lm.add_vars([("size", "pv")])
    lm.add_row(("size", "pv"))  # rows and columns have separate key spaces
    with pytest.raises(ValueError, match="duplicate variable"):
        lm.add_vars([("size", "pv")])
    with pytest.raises(ValueError, match="duplicate row"):
        lm.add_row(("size", "pv"))


def test_scipy_optimize_reuses_the_loaded_extension(child_env):
    # load_highs registers the extension under its own name, so importing
    # scipy.optimize afterwards neither loads it twice nor breaks linprog
    script = (
        "import sys\n"
        "from munipath.solver import load_highs\n"
        "core = load_highs()\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "assert _core is core\n"
        "res = scipy.optimize.linprog([1.0], bounds=[(2.0, 3.0)])\n"
        "assert res.status == 0 and res.x[0] == 2.0\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=child_env, timeout=120)
    assert res.returncode == 0, res.stderr
