"""Solver layer: backends, certificates, LP/result files, capacity guards."""

import dataclasses
import io
import os
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from munipath.solver import (
    MAX_REFERENCE_INTEGERS,
    LinearModel,
    SolveRequest,
    SolveStatus,
    SolverCapacityError,
    SolverError,
    duality_check_count,
    lp_var_names,
    read_lp_file,
    read_result_file,
    solve,
    write_lp_file,
    write_result_file,
)

from oracles import enumerate_mip_optimum, make_random_mip, scipy_lp

INF = float("inf")
BACKENDS = ("highs", "reference")


def _request(c, a, row_lb, row_ub, var_lb, var_ub, integrality,
             params=None, name="t") -> SolveRequest:
    a = np.asarray(a, dtype=float)
    if a.size:
        rows, cols = np.nonzero(a)
        vals = a[rows, cols]
    else:
        rows = cols = np.zeros(0, dtype=int)
        vals = np.zeros(0)
    return SolveRequest(
        obj=np.asarray(c, dtype=float), obj_offset=0.0,
        a_rows=rows, a_cols=cols, a_vals=vals,
        row_lb=np.asarray(row_lb, dtype=float),
        row_ub=np.asarray(row_ub, dtype=float),
        var_lb=np.asarray(var_lb, dtype=float),
        var_ub=np.asarray(var_ub, dtype=float),
        integrality=np.asarray(integrality, dtype=bool),
        var_names=tuple(f"x{j}" for j in range(len(c))),
        row_names=tuple(f"r{i}" for i in range(len(row_lb))),
        name=name, params=dict(params or {}),
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_tiny_lp(backend):
    out = solve(_tiny_lp(), backend=backend)
    assert out.status is SolveStatus.OPTIMAL
    assert out.objective == pytest.approx(-7.0, abs=1e-9)
    assert out.x[0] == pytest.approx(1.0, abs=1e-9)
    assert out.x[1] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("backend", BACKENDS)
def test_tiny_mip(backend):
    out = solve(_tiny_mip(), backend=backend)
    assert out.status is SolveStatus.OPTIMAL
    assert out.objective == pytest.approx(-8.0, abs=1e-9)
    assert list(np.round(out.x)) == [1.0, 0.0, 1.0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_unbounded(backend):
    req = _request([-1.0], np.zeros((0, 1)), [], [], [0.0], [INF], [False])
    assert solve(req, backend=backend).status is SolveStatus.UNBOUNDED


@pytest.mark.parametrize("backend", BACKENDS)
def test_infeasible(backend):
    # row demands x >= 2 while the bound caps x at 1
    req = _request([1.0], [[1.0]], [2.0], [INF], [0.0], [1.0], [False])
    assert solve(req, backend=backend).status is SolveStatus.INFEASIBLE


def test_objective_offset_carried():
    req = _tiny_lp()
    shifted = SolveRequest(
        obj=req.obj, obj_offset=100.0, a_rows=req.a_rows, a_cols=req.a_cols,
        a_vals=req.a_vals, row_lb=req.row_lb, row_ub=req.row_ub,
        var_lb=req.var_lb, var_ub=req.var_ub, integrality=req.integrality,
        var_names=req.var_names, row_names=req.row_names)
    for backend in BACKENDS:
        assert solve(shifted, backend=backend).objective == pytest.approx(93.0)


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
        out = solve(req, backend="reference")
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
        out = solve(req, backend="reference")
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
        out = solve(req, backend="highs")
        assert out.status.value == status, f"instance {k}"
        if status == "optimal":
            assert out.objective == pytest.approx(best, rel=1e-6, abs=1e-6)


def test_lp_relaxation_bounds_mip():
    rng = np.random.default_rng(91)
    for _ in range(20):
        c, a, row_lb, row_ub, var_lb, var_ub, integrality = make_random_mip(rng)
        req = _request(c, a, row_lb, row_ub, var_lb, var_ub, integrality)
        out = solve(req, backend="reference")
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
    out1 = solve(req, backend="reference")
    out2 = solve(req, backend="reference")
    assert out1.objective == out2.objective
    assert np.array_equal(out1.x, out2.x)


def test_every_reference_solve_is_certified():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        req = _random_lp(rng)
        before = duality_check_count()
        solve(req, backend="reference")
        assert duality_check_count() > before


# ---------------------------------------------------------------------------
# Guards and selection


def test_reference_rejects_too_many_integers():
    n = MAX_REFERENCE_INTEGERS + 1
    req = _request(np.ones(n), np.zeros((0, n)), [], [],
                   np.zeros(n), np.ones(n), [True] * n)
    with pytest.raises(SolverCapacityError):
        solve(req, backend="reference")


def test_reference_rejects_unbounded_integer():
    req = _request([1.0], np.zeros((0, 1)), [], [], [0.0], [INF], [True])
    with pytest.raises(SolverCapacityError):
        solve(req, backend="reference")


def test_backend_env_fallback(monkeypatch):
    monkeypatch.setenv("MUNIPATH_SOLVER", "reference")
    out = solve(_tiny_lp())
    assert out.backend == "reference"
    monkeypatch.delenv("MUNIPATH_SOLVER")
    assert solve(_tiny_lp()).backend == "highs"


def test_unknown_backend_raises():
    with pytest.raises(SolverError):
        solve(_tiny_lp(), backend="simplexatron")


def test_time_limit_param_accepted():
    for backend in BACKENDS:
        out = solve(
            _request([-5.0, -4.0, -3.0], [[2.0, 3.0, 1.0]], [-INF], [4.0],
                     [0.0] * 3, [1.0] * 3, [True] * 3,
                     params={"time_limit_s": 10.0}),
            backend=backend)
        assert out.status is SolveStatus.OPTIMAL


def _tiny_mip_fixed() -> SolveRequest:
    # the knapsack with every integer column fixed at its optimum
    req = _tiny_mip()
    x = np.array([1.0, 0.0, 1.0])
    return req.with_bounds(x, x)


@pytest.mark.parametrize("make_request, presolve", [
    (_tiny_mip, False),  # a free integer column: presolve would restart
    (_tiny_mip_fixed, True),  # integers all fixed: an LP, presolve pays off
], ids=["free", "fixed"])
def test_highs_runs_without_sub_mip_heuristics(monkeypatch, make_request, presolve):
    from scipy import optimize

    seen = []
    real_milp = optimize.milp

    def spy(*args, options=None, **kw):
        seen.append(dict(options))  # milp pops keys from the dict it gets
        return real_milp(*args, options=options, **kw)

    monkeypatch.setattr(optimize, "milp", spy)
    req = dataclasses.replace(
        make_request(), params={"mip_gap": 0.02, "time_limit_s": 7.5})
    with warnings.catch_warnings():
        # An option name HiGHS does not know draws a warning and is dropped.
        # A name HiGHS knows but scipy's HighsOptions binding does not expose
        # (mip_allow_restart, say) makes milp raise AttributeError instead.
        warnings.simplefilter("error")
        out = solve(req, backend="highs")
    assert out.status is SolveStatus.OPTIMAL
    assert out.objective == pytest.approx(-8.0, abs=1e-9)
    (options,) = seen
    assert options["mip_heuristic_run_rens"] is False
    assert options["mip_heuristic_run_rins"] is False
    assert options["mip_heuristic_run_feasibility_jump"] is False
    assert options["presolve"] is presolve
    assert options["mip_rel_gap"] == 0.02
    assert options["time_limit"] == 7.5


# ---------------------------------------------------------------------------
# Model assembly


def test_linear_model_accumulates_duplicate_terms():
    lm = LinearModel("dup")
    x = lm.add_var("x", 0.0, 5.0)
    r = lm.add_row("cap", -INF, 4.0)
    lm.add_term(r, x, 1.0)
    lm.add_term(r, x, 2.0)
    req = lm.build()
    assert req.dense_matrix()[0, 0] == pytest.approx(3.0)


def test_linear_model_objective_and_bounds():
    lm = LinearModel("m")
    x = lm.add_var("x", 0.0, 10.0)
    y = lm.add_var("y", 0.0, 10.0, integer=True)
    lm.add_obj(x, 2.0)
    lm.add_obj(x, 1.0)  # accumulates
    lm.add_obj(y, -3.0)
    lm.add_constraint("tie", [(x, 1.0), (y, -1.0)], 1.0, 1.0)
    lm.fix_var(y, 4.0)
    req = lm.build()
    assert list(req.obj) == [3.0, -3.0]
    assert req.var_lb[1] == req.var_ub[1] == 4.0
    assert bool(req.integrality[1]) and not bool(req.integrality[0])
    out = solve(req, backend="reference")
    assert out.status is SolveStatus.OPTIMAL
    assert out.x[0] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# LP files, result files, external backend


def _messy_request() -> SolveRequest:
    lm = LinearModel("messy model")
    v0 = lm.add_var("heat bal[0] ü", 0.0, 4.0)
    v1 = lm.add_var("1st size", -2.0, 3.0)
    v2 = lm.add_var("free var", -INF, INF)
    v3 = lm.add_var("pick", 0.0, 1.0, integer=True)
    lm.add_obj(v0, 1.5)
    lm.add_obj(v1, -2.0)
    lm.add_obj(v2, 0.25)
    lm.add_obj(v3, 4.0)
    lm.add_constraint("range row", [(v0, 1.0), (v1, 2.0)], -1.0, 6.0)
    lm.add_constraint("eq row", [(v2, 1.0), (v3, 2.0)], 1.0, 1.0)
    lm.add_constraint("ub row", [(v0, 1.0), (v2, 1.0)], -INF, 5.0)
    lm.add_constraint("lb row", [(v1, 1.0), (v3, -1.0)], -3.0, INF)
    return lm.build({})


def test_lp_var_names_are_sanitized_and_unique():
    req = _messy_request()
    names = lp_var_names(req)
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", nm) for nm in names)


def test_lp_file_round_trip(tmp_path):
    req = _messy_request()
    path = tmp_path / "problem.lp"
    write_lp_file(req, path)
    again = read_lp_file(path)
    assert again.n_vars == req.n_vars
    assert np.allclose(again.obj, req.obj)
    assert again.obj_offset == req.obj_offset
    assert np.array_equal(again.integrality, req.integrality)
    assert np.allclose(again.var_lb, req.var_lb)
    assert np.allclose(again.var_ub, req.var_ub)
    a = solve(req, backend="highs")
    b = solve(again, backend="highs")
    assert a.status is b.status is SolveStatus.OPTIMAL
    assert a.objective == pytest.approx(b.objective, rel=1e-9)


_LOWER = st.sampled_from([-INF, -2.5, 0.0, 1.0, 4.0])
_UPPER = st.sampled_from([-2.5, 0.0, 1.0, 4.0, INF])


@st.composite
def _small_requests(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 4))
    coef = st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5, -0.125, 3e-4, 1234.5])
    a = np.array(draw(st.lists(st.lists(coef, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float).reshape(m, n)
    row_lb, row_ub, var_lb, var_ub = [], [], [], []
    for lbs, ubs, size in ((row_lb, row_ub, m), (var_lb, var_ub, n)):
        for _ in range(size):
            lo, hi = sorted(draw(st.tuples(_LOWER, _UPPER)))
            lbs.append(lo)
            ubs.append(hi)
    for i in range(m):
        if not a[i].any():  # the writer drops empty rows, which bind nothing
            row_lb[i], row_ub[i] = -INF, INF
    req = _request(draw(st.lists(coef, min_size=n, max_size=n)), a, row_lb, row_ub,
                   var_lb, var_ub, draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    names = draw(st.lists(st.text("ab _1.", min_size=1, max_size=4)
                          | st.sampled_from(["inf", "Infinity", "info", "e1", "x__1"]),
                          min_size=n, max_size=n, unique=True))
    return dataclasses.replace(req, var_names=tuple(names),
                               obj_offset=draw(st.sampled_from([0.0, -3.5, 17.0])))


def _one_sided_rows(req):
    """Rows as (terms, lb, ub) with range rows split in two, the LP file's form."""
    dense = req.dense_matrix()
    out = []
    for i in range(req.n_rows):
        terms = tuple(dense[i])
        lo, hi = float(req.row_lb[i]), float(req.row_ub[i])
        if not any(terms) or (lo == -INF and hi == INF):
            continue
        if lo == hi or lo == -INF or hi == INF:
            out.append((terms, lo, hi))
        else:
            out += [(terms, lo, INF), (terms, -INF, hi)]
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(req=_small_requests())
@example(req=dataclasses.replace(  # "c?" sanitizes to "c_", then suffixes to "c___2"
    _request([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], [-INF], [4.0], [0.0] * 3,
             [1.0] * 3, [False] * 3), var_names=("c___2", "c_", "c?")))
@example(req=dataclasses.replace(_tiny_mip(), var_names=("inf", "infinity", "info")))
def test_lp_file_round_trip_on_random_requests(req):
    buf = io.StringIO()
    write_lp_file(req, buf)
    again = read_lp_file(buf.getvalue())
    assert again.var_names == tuple(lp_var_names(req))
    assert again.obj_offset == req.obj_offset
    assert np.array_equal(again.obj, req.obj)
    assert np.array_equal(again.var_lb, req.var_lb)
    assert np.array_equal(again.var_ub, req.var_ub)
    assert np.array_equal(again.integrality, req.integrality)
    assert _one_sided_rows(again) == _one_sided_rows(req)


def test_result_file_round_trip(tmp_path):
    req = _tiny_mip()
    out = solve(req, backend="reference")
    path = tmp_path / "result.json"
    write_result_file(out, req, path)
    again = read_result_file(path, req)
    assert again.status is SolveStatus.OPTIMAL
    assert again.objective == pytest.approx(out.objective)
    assert np.allclose(again.x, out.x)


def test_external_backend_runs_subprocess():
    shim = os.path.join(os.path.dirname(__file__), "external_solver.py")
    backend = f"external:{sys.executable} {shim}"
    for req, expected in ((_tiny_mip(), -8.0), (_tiny_lp(), -7.0)):
        out = solve(req, backend=backend)
        assert out.status is SolveStatus.OPTIMAL
        assert out.backend == "external"
        assert out.objective == pytest.approx(expected, abs=1e-7)
    bad = _request([1.0], [[1.0]], [2.0], [INF], [0.0], [1.0], [False])
    assert solve(bad, backend=backend).status is SolveStatus.INFEASIBLE


def test_external_backend_failure_is_reported():
    out = solve(_tiny_lp(), backend="external:/nonexistent/solver-binary")
    assert out.status is SolveStatus.FAILED
    assert "external solver" in out.message
