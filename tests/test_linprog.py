import numpy as np
import pytest

from oracles import brute_force_lp, random_bounded_lp
from winoctx import linprog
from winoctx.linprog import LpNumericalError, LpProblem, solve


def lp(objective, lhs, rhs):
    return LpProblem(
        objective=np.asarray(objective, dtype=float),
        lhs=np.asarray(lhs, dtype=float),
        rhs=np.asarray(rhs, dtype=float),
    )


def test_single_upper_bound():
    sol = solve(lp([1.0], [[1.0]], [1.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)


def test_simplex_stops_at_the_iteration_cap(monkeypatch):
    # max x s.t. x <= 1 takes one pivot: a cap of 1 lets it finish, 0 stops it
    problem = lp([1.0], [[1.0]], [1.0])
    monkeypatch.setattr(linprog, "MAX_ITER", 1)
    assert solve(problem).iterations == 1
    monkeypatch.setattr(linprog, "MAX_ITER", 0)
    with pytest.raises(LpNumericalError, match="^simplex exceeded the iteration cap$"):
        solve(problem)


def test_unbounded():
    # x can grow forever: the only row bounds it from below
    sol = solve(lp([1.0], [[-1.0]], [1.0]))
    assert sol.status == "unbounded"


def test_zero_rhs_degenerate():
    sol = solve(lp([1.0, -1.0], [[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)


def test_dual_reported_and_gap_small():
    problem = lp(
        [3.0, 2.0],
        [[2.0, 1.0], [1.0, 3.0]],
        [4.0, 6.0],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.gap <= 1e-7
    # dual feasibility for a max problem with <= rows: y >= 0, A^T y >= c
    assert np.all(sol.dual >= -1e-9)
    assert np.all(problem.lhs.T @ sol.dual >= problem.objective - 1e-9)


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(200):
        problem = random_bounded_lp(rng)
        expected = brute_force_lp(problem)
        assert expected is not None, "generator promised feasibility"
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(expected, abs=1e-8)
        # weak duality on every reported solution
        assert sol.objective_value <= float(problem.rhs @ sol.dual) + 1e-7
        assert sol.gap <= 1e-7
        checked += 1
    assert checked == 200


def test_deterministic_replay():
    rng = np.random.default_rng(7)
    problem = random_bounded_lp(rng)
    first = solve(problem)
    second = solve(problem)
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.dual, second.dual)
    assert first.objective_value == second.objective_value
    assert first.iterations == second.iterations


def test_solutions_are_primal_feasible():
    rng = np.random.default_rng(99)
    for _ in range(20):
        problem = random_bounded_lp(rng)
        sol = solve(problem)
        assert sol.status == "optimal"
        assert np.all(problem.lhs @ sol.x <= problem.rhs + 1e-8)
        assert np.all(sol.x >= -1e-9)

