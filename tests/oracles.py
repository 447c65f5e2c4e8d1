"""Independent reference implementations used as test oracles.

Deliberately dumb and slow: the point is that they cannot share a bug
with the code under test.
"""

import itertools

import numpy as np

from winoctx.linprog import LpProblem
from winoctx.scenario import maximal_contexts


def brute_force_lp(problem: LpProblem):
    """Optimum of a small LP by enumerating vertices of the standard form.

    Adds a slack column per inequality row.  Without equality rows the
    slack block gives full row rank, so every vertex extends to a square
    basis and trying all size-m column subsets is enough.  Equality rows
    can be redundant (rank < m), so there we enumerate every column
    subset up to size m as a candidate support instead.  Returns the best
    feasible candidate objective, or None when none exists (infeasible,
    since x >= 0 keeps the region pointed).  Only meaningful for problems
    known to be bounded.
    """
    lhs = np.asarray(problem.lhs, dtype=float)
    rhs = np.asarray(problem.rhs, dtype=float)
    m, n = lhs.shape
    ineq_rows = [i for i, rel in enumerate(problem.relations) if rel == "<="]
    full = np.zeros((m, n + len(ineq_rows)))
    full[:, :n] = lhs
    for j, i in enumerate(ineq_rows):
        full[i, n + j] = 1.0
    cost = np.zeros(n + len(ineq_rows))
    cost[:n] = problem.objective
    ncols = full.shape[1]

    def candidate(cols):
        sub = full[:, cols]
        if len(cols) == m:
            try:
                x_sub = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                return None
        else:
            x_sub = np.linalg.lstsq(sub, rhs, rcond=None)[0]
        if len(cols) and np.min(x_sub) < -1e-9:
            return None
        x = np.zeros(ncols)
        x[list(cols)] = x_sub
        if np.max(np.abs(full @ x - rhs)) > 1e-7:
            return None
        return float(cost @ x)

    if "=" in problem.relations:
        sizes = range(min(m, ncols) + 1)
    else:
        sizes = [m]
    best = None
    for k in sizes:
        for cols in itertools.combinations(range(ncols), k):
            value = candidate(cols)
            if value is not None and (best is None or value > best):
                best = value
    return best


def random_bounded_lp(rng: np.random.Generator, max_vars: int = 6, max_rows: int = 5):
    """A random LP that is feasible and bounded by construction.

    x = 0 satisfies every inequality row (rhs >= 0), equality rows are
    anchored on a known feasible point, and a final box row sum(x) <= U
    bounds the feasible region.
    """
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    lhs = rng.uniform(-1.0, 1.0, size=(m, n))
    relations = ["<="] * m
    anchor = rng.uniform(0.0, 1.0, size=n)
    rhs = np.empty(m)
    for i in range(m):
        if rng.random() < 0.25:
            relations[i] = "="
            rhs[i] = float(lhs[i] @ anchor)
        else:
            rhs[i] = float(rng.uniform(0.0, 2.0))
    if "=" in relations:
        # keep the anchor inside every inequality row so the system stays feasible
        for i in range(m):
            if relations[i] == "<=":
                rhs[i] = max(rhs[i], float(lhs[i] @ anchor))
    box = float(rng.uniform(float(np.sum(anchor)) + 0.5, float(np.sum(anchor)) + 3.0))
    lhs = np.vstack([lhs, np.ones((1, n))])
    rhs = np.append(rhs, box)
    relations.append("<=")
    objective = rng.uniform(-1.0, 1.0, size=n)
    return LpProblem(
        objective=objective, lhs=lhs, rhs=rhs, relations=tuple(relations)
    )


def s_odd_by_enumeration(values) -> float:
    """Max of sigma . values over sign vectors with an odd number of -1s,
    built from itertools directly rather than bit tricks."""
    best = None
    for signs in itertools.product((1.0, -1.0), repeat=len(values)):
        if signs.count(-1.0) % 2 == 0:
            continue
        total = float(np.sum(np.multiply(signs, values)))
        if best is None or total > best:
            best = total
    return best


def chsh_patterns_by_enumeration(vectors) -> np.ndarray:
    """Per row of `vectors`, the odd-parity sign vector with the largest
    sum; among ties the lowest bitmask (bit j set when entry j is negated).

    Candidates are listed in increasing bitmask order and argmax keeps the
    first maximum.  Ties are exact only where the row sums are exact in
    floating point, e.g. on a grid of multiples of 0.5.
    """
    vectors = np.asarray(vectors, dtype=float)
    k = vectors.shape[1]
    signs = np.array([
        [-1 if mask >> j & 1 else 1 for j in range(k)]
        for mask in range(1 << k)
        if bin(mask).count("1") % 2 == 1
    ])
    return signs[np.argmax(vectors @ signs.T, axis=1)]


def incidence_by_loop(scenario):
    """(rows, assignments, matrix) of the cf program, one cell at a time:
    every assignment restricted to every (context, joint outcome) row."""
    order = {obs: i for i, obs in enumerate(scenario.observables)}
    assignments = list(itertools.product(scenario.outcomes, repeat=len(order)))
    rows = [
        (ctx, joint)
        for ctx in maximal_contexts(scenario)
        for joint in itertools.product(scenario.outcomes, repeat=len(ctx))
    ]
    matrix = np.zeros((len(rows), len(assignments)))
    for g, assignment in enumerate(assignments):
        for r, (ctx, joint) in enumerate(rows):
            if tuple(assignment[order[obs]] for obs in ctx) == joint:
                matrix[r, g] = 1.0
    return tuple(rows), tuple(assignments), matrix
