import numpy as np
import pytest

from oracles import brute_force_lp, random_bounded_lp
from winoctx.linprog import (
    LpError,
    LpNumericalError,
    LpProblem,
    LpSizeError,
    recertify,
    solve,
)


def lp(objective, lhs, rhs, relations):
    return LpProblem(
        objective=np.asarray(objective, dtype=float),
        lhs=np.asarray(lhs, dtype=float),
        rhs=np.asarray(rhs, dtype=float),
        relations=tuple(relations),
    )


def test_single_upper_bound():
    sol = solve(lp([1.0], [[1.0]], [1.0], ["<="]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)


def test_equality_split():
    sol = solve(lp([1.0, 1.0], [[1.0, 1.0]], [2.0], ["="]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(2.0, abs=1e-12)


def test_contradictory_equalities_infeasible():
    sol = solve(lp([1.0], [[1.0], [1.0]], [1.0, 2.0], ["=", "="]))
    assert sol.status == "infeasible"


def test_unbounded():
    # x can grow forever: the only row bounds it from below
    sol = solve(lp([1.0], [[-1.0]], [1.0], ["<="]))
    assert sol.status == "unbounded"


def test_negative_rhs_requires_phase_one():
    # -x <= -3 means x >= 3; max -x puts x at the bound
    sol = solve(lp([-1.0], [[-1.0]], [-3.0], ["<="]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_zero_rhs_degenerate():
    sol = solve(lp([1.0, -1.0], [[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0], ["<=", "<="]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)


def test_dual_reported_and_gap_small():
    problem = lp(
        [3.0, 2.0],
        [[2.0, 1.0], [1.0, 3.0]],
        [4.0, 6.0],
        ["<=", "<="],
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


def test_dimension_cap():
    n = 1025
    with pytest.raises(LpSizeError):
        lp(np.ones(n), np.ones((1, n)), [1.0], ["<="])


def test_rejects_nonfinite_rhs():
    with pytest.raises(LpError):
        lp([1.0], [[1.0]], [np.inf], ["<="])


def test_rejects_shape_mismatch():
    with pytest.raises(LpError):
        lp([1.0, 2.0], [[1.0]], [1.0], ["<="])


def test_rejects_unknown_relation():
    with pytest.raises(LpError):
        lp([1.0], [[1.0]], [1.0], [">="])


def test_primal_residual_small_on_equalities():
    rng = np.random.default_rng(99)
    for _ in range(20):
        problem = random_bounded_lp(rng)
        sol = solve(problem)
        assert sol.status == "optimal"
        lhs = problem.lhs @ sol.x
        for i, rel in enumerate(problem.relations):
            if rel == "=":
                assert abs(lhs[i] - problem.rhs[i]) <= 1e-8
            else:
                assert lhs[i] <= problem.rhs[i] + 1e-8
        assert np.all(sol.x >= -1e-9)


def test_basis_only_for_all_leq_programs_with_nonnegative_rhs():
    sol = solve(lp([3.0, 2.0], [[2.0, 1.0], [1.0, 3.0]], [4.0, 6.0], ["<=", "<="]))
    assert sol.basis is not None
    # B^-1 applied to b reproduces the basic values of the solve
    x_basic = (sol.basis.inverse * np.array([4.0, 6.0])).sum(axis=1)
    assert np.allclose(x_basic, sol.x[list(sol.basis.columns)], atol=1e-12)
    assert solve(lp([1.0, 1.0], [[1.0, 1.0]], [2.0], ["="])).basis is None
    assert solve(lp([-1.0], [[-1.0]], [-3.0], ["<="])).basis is None


def test_recertify_covers_rhs_the_basis_still_solves():
    problem = lp([3.0, 2.0], [[2.0, 1.0], [1.0, 3.0]], [4.0, 6.0], ["<=", "<="])
    sol = solve(problem)
    # b itself, 2b and 0 keep the basis {x, y}; at (4, 1) its vertex has y < 0
    batch = np.array([[4.0, 6.0], [8.0, 12.0], [4.0, 1.0], [0.0, 0.0]])
    covered, objective, gap = recertify(sol.basis, sol.dual, batch)
    assert covered.tolist() == [True, True, False, True]
    x_basic = (sol.basis.inverse * batch[2]).sum(axis=1)
    assert x_basic.min() < 0
    assert np.isnan(objective[2]) and np.isnan(gap[2])
    assert objective[0] == pytest.approx(sol.objective_value, abs=1e-12)
    assert objective[1] == pytest.approx(2.0 * sol.objective_value, abs=1e-12)
    assert objective[3] == 0.0
    assert np.all(gap[covered] <= 1e-12)


def test_recertify_agrees_with_cold_solves():
    rng = np.random.default_rng(2024)
    checked = uncovered = 0
    for _ in range(30):
        m, n = rng.integers(2, 7, size=2)
        lhs = rng.integers(0, 2, size=(m, n)).astype(float)
        lhs[rng.integers(m, size=n), np.arange(n)] = 1.0  # keeps it bounded
        objective = rng.random(n) + 0.1
        base = rng.random(m)
        sol = solve(lp(objective, lhs, base, ["<="] * m))
        batch = np.abs(base + 0.3 * rng.standard_normal((20, m)))
        covered, value, gap = recertify(sol.basis, sol.dual, batch)
        for b, ok, z, g in zip(batch, covered, value, gap):
            if ok:
                cold = solve(lp(objective, lhs, b, ["<="] * m))
                assert z == pytest.approx(cold.objective_value, abs=1e-9)
                assert g <= 1e-9
                checked += 1
            else:
                assert (sol.basis.inverse * b).sum(axis=1).min() < -1e-12
                uncovered += 1
    assert checked > 100 and uncovered > 50


def test_recertify_rows_do_not_depend_on_the_batch():
    problem = lp([3.0, 2.0], [[2.0, 1.0], [1.0, 3.0]], [4.0, 6.0], ["<=", "<="])
    sol = solve(problem)
    batch = np.random.default_rng(5).random((50, 2)) * 6.0
    whole = recertify(sol.basis, sol.dual, batch)
    for i in range(50):
        one = recertify(sol.basis, sol.dual, batch[i:i + 1])
        for a, b in zip(whole, one):
            assert a[i:i + 1].tobytes() == b.tobytes()


def test_recertify_refuses_bad_rhs_and_loose_certificates():
    sol = solve(lp([3.0, 2.0], [[2.0, 1.0], [1.0, 3.0]], [4.0, 6.0], ["<=", "<="]))
    with pytest.raises(LpError, match="rhs batch"):
        recertify(sol.basis, sol.dual, np.array([4.0, 6.0]))
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(LpError, match=">= 0"):
            recertify(sol.basis, sol.dual, np.array([[4.0, bad]]))
    # a dual that does not certify the basis's optimum is refused, not kept
    with pytest.raises(LpNumericalError, match="gap"):
        recertify(sol.basis, 2.0 * sol.dual, np.array([[4.0, 6.0]]))
