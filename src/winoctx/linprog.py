"""Dense one-phase simplex for small linear programs.

Solves   max c.x   subject to   A x <= b,   x >= 0,   with b >= 0.

That is the one shape this package poses: `sheaf`'s contextual fraction,
max 1.w s.t. M w <= b, w >= 0, where b stacks probabilities.  With b >= 0
the origin is a vertex, so the simplex starts at the slack basis, and the
program is never infeasible.  `LpProblem` refuses a negative rhs rather
than assume it away.

The tableau is [A | I | b] over the objective row [-c | 0 | 0].  The
programs are small (a few hundred rows) and dense, so a tableau method is
fine.  Bland's rule is used for both the entering and leaving choice,
which rules out cycling.  At the optimum the objective row holds the duals
under the slack columns, so every optimum ships with a certificate;
callers are expected to check `LpSolution.gap`.

Problems beyond 1024 rows or 1024 structural variables are refused by
`check_size`, the package's one limit on LP size.  `sheaf` solves its
program only for signalling, non-binary and non-cyclic models: a
non-signalling binary cycle has its cf in closed form (`cbd`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .scenario import Frozen

PIVOT_TOL = 1e-10
MAX_SIZE = 1024
MAX_ITER = 200_000

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class LpError(ValueError):
    pass


class LpSizeError(LpError):
    """Problem exceeds the documented size cap."""


class LpNumericalError(LpError):
    """The solve finished in a state that fails its own sanity checks."""


def check_size(m: int, n: int) -> None:
    """Refuse a problem of m rows and n structural variables beyond the cap."""
    if m > MAX_SIZE or n > MAX_SIZE:
        raise LpSizeError(f"{m}x{n} problem exceeds the {MAX_SIZE}x{MAX_SIZE} cap")


class LpProblem(Frozen):
    """max objective.x  s.t.  lhs x <= rhs,  x >= 0,  rhs >= 0; each held
    as a float array."""

    def __init__(self, objective: np.ndarray, lhs: np.ndarray, rhs: np.ndarray):
        obj = np.asarray(objective, dtype=float)
        lhs = np.asarray(lhs, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if lhs.ndim != 2:
            raise LpError("lhs must be a 2-d matrix")
        m, n = lhs.shape
        if obj.shape != (n,):
            raise LpError(f"objective has shape {obj.shape}, expected ({n},)")
        if rhs.shape != (m,):
            raise LpError(f"rhs has shape {rhs.shape}, expected ({m},)")
        check_size(m, n)
        if not (np.isfinite(obj).all() and np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise LpError("non-finite coefficients")
        if (rhs < 0).any():
            raise LpError("rhs must be >= 0: the slack basis is the starting vertex")
        super().__init__(objective=obj, lhs=lhs, rhs=rhs)


class LpSolution(NamedTuple):
    status: str
    x: Optional[np.ndarray]
    dual: Optional[np.ndarray]  # row multipliers, >= 0 at the optimum
    objective_value: Optional[float]
    gap: Optional[float]        # |primal - dual| objective mismatch
    residual: Optional[float]   # worst primal constraint violation
    iterations: int


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] = T[row] / T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    # keep the pivot column an exact unit vector; stops error creep
    T[:, col] = 0.0
    T[row, col] = 1.0


def _run_simplex(T: np.ndarray, basis: list[int]) -> tuple[int, str]:
    """Iterate to optimality or unboundedness.  Bland's rule both ways."""
    m = T.shape[0] - 1
    last = T.shape[1] - 1
    iterations = 0
    while True:
        entering = np.flatnonzero(T[m, :last] < -PIVOT_TOL)
        if entering.size == 0:
            return iterations, OPTIMAL
        j = int(entering[0])  # smallest eligible index enters
        col = T[:m, j]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return iterations, UNBOUNDED
        ratios = T[rows, last] / col[rows]
        best = ratios.min()
        ties = rows[ratios == best]
        leave = int(min(ties, key=lambda r: basis[r]))  # smallest basic index leaves
        _pivot(T, leave, j)
        basis[leave] = j
        iterations += 1
        if iterations > MAX_ITER:
            raise LpNumericalError("simplex exceeded the iteration cap")


def solve(problem: LpProblem) -> LpSolution:
    c = problem.objective
    m, n = problem.lhs.shape

    # [A | I | b] over [-c | 0 | 0]; the slack basis is the starting vertex.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = problem.lhs
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = problem.rhs
    T[m] = -np.concatenate([c, np.zeros(m + 1)])
    basis = list(range(n, n + m))

    iterations, status = _run_simplex(T, basis)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, None, None, None, iterations)

    full = np.zeros(n + m)
    full[basis] = T[:m, -1]
    x = full[:n].copy()
    y = T[m, n:n + m].copy()  # duals: the objective row under the slacks

    z = float(c @ x)
    gap = abs(z - float(problem.rhs @ y))

    viol = max(0.0, float((problem.lhs @ x - problem.rhs).max(initial=0.0)),
               float(-x.min(initial=0.0)))
    scale = 1.0 + float(problem.rhs.max(initial=0.0))
    if viol > 1e-6 * scale:
        raise LpNumericalError(f"primal residual {viol:.3e} after optimal finish")

    return LpSolution(OPTIMAL, x, y, z, gap, viol, iterations)
