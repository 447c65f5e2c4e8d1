"""Dense two-phase simplex for small linear programs.

Solves   max c.x   subject to   A x {<=, =} b,   x >= 0.

The consistency programs in this package are small (a few hundred rows) and
dense, so a tableau method is fine.  Bland's rule is used for both the
entering and leaving choice, which rules out cycling.  Duals are read off
the final objective row so every optimum ships with a certificate; callers
are expected to check `LpSolution.gap`.

Problems beyond 1024 rows or 1024 structural variables are refused by
`check_size`, the package's one limit on LP size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
MAX_SIZE = 1024
MAX_ITER = 200_000

LEQ = "<="
EQ = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(Exception):
    pass


class LpSizeError(LpError):
    """Problem exceeds the documented size cap."""


class LpNumericalError(LpError):
    """The solve finished in a state that fails its own sanity checks."""


def check_size(m: int, n: int) -> None:
    """Refuse a problem of m rows and n structural variables beyond the cap."""
    if m > MAX_SIZE or n > MAX_SIZE:
        raise LpSizeError(f"{m}x{n} problem exceeds the {MAX_SIZE}x{MAX_SIZE} cap")


@dataclass(frozen=True)
class LpProblem:
    """max objective.x  s.t.  lhs x (relations) rhs,  x >= 0."""

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    relations: tuple[str, ...]

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        lhs = np.asarray(self.lhs, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if lhs.ndim != 2:
            raise LpError("lhs must be a 2-d matrix")
        m, n = lhs.shape
        if obj.shape != (n,):
            raise LpError(f"objective has shape {obj.shape}, expected ({n},)")
        if rhs.shape != (m,):
            raise LpError(f"rhs has shape {rhs.shape}, expected ({m},)")
        rels = tuple(self.relations)
        if len(rels) != m:
            raise LpError("need exactly one relation per constraint row")
        bad = set(rels) - {LEQ, EQ}
        if bad:
            raise LpError(f"unsupported relations: {sorted(bad)}")
        check_size(m, n)
        if not (np.isfinite(obj).all() and np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise LpError("non-finite coefficients")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "relations", rels)


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: Optional[np.ndarray]
    dual: Optional[np.ndarray]  # multipliers for the rows as given (<= rows: >= 0 at a max)
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


def _run_simplex(T: np.ndarray, basis: list[int], allowed: np.ndarray) -> tuple[int, str]:
    """Iterate to optimality or unboundedness.  Bland's rule both ways."""
    m = T.shape[0] - 1
    last = T.shape[1] - 1
    iterations = 0
    while True:
        reduced = T[m, :last]
        entering = np.flatnonzero(allowed & (reduced < -PIVOT_TOL))
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

    # Normalize to nonnegative rhs; remember the per-row sign for dual readback.
    sigma = np.where(problem.rhs < 0, -1.0, 1.0)
    A = problem.lhs * sigma[:, None]
    b = problem.rhs * sigma

    # Column layout: structural | slack or surplus | artificial.
    slack_col = [-1] * m
    art_col = [-1] * m
    cols = n
    for i, rel in enumerate(problem.relations):
        if rel == LEQ:
            slack_col[i] = cols
            cols += 1
    for i, rel in enumerate(problem.relations):
        if rel == EQ or sigma[i] < 0:
            art_col[i] = cols
            cols += 1

    T = np.zeros((m + 1, cols + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis = [-1] * m
    unit_col = [-1] * m  # the initial identity column of each row
    for i in range(m):
        if slack_col[i] >= 0:
            # surplus gets -1 on rows that were sign-flipped (they read >= now)
            T[i, slack_col[i]] = 1.0 if sigma[i] > 0 else -1.0
        if art_col[i] >= 0:
            T[i, art_col[i]] = 1.0
            basis[i] = art_col[i]
            unit_col[i] = art_col[i]
        else:
            basis[i] = slack_col[i]
            unit_col[i] = slack_col[i]

    art_cols = [j for j in art_col if j >= 0]
    art_set = set(art_cols)
    iterations = 0

    if art_cols:
        # Phase 1: maximize -(sum of artificials).
        art_rows = [i for i in range(m) if art_col[i] >= 0]
        T[m] = -T[art_rows].sum(axis=0)
        T[m, art_cols] += 1.0
        allowed = np.ones(cols, dtype=bool)
        it, status = _run_simplex(T, basis, allowed)
        iterations += it
        if status != OPTIMAL:
            raise LpNumericalError("phase 1 reported unbounded; cannot happen")
        scale = 1.0 + float(np.abs(b).max(initial=0.0))
        if T[m, -1] < -FEAS_TOL * scale:
            return LpSolution(INFEASIBLE, None, None, None, None, None, iterations)
        # Degenerate-pivot any leftover basic artificials onto real columns.
        # A row with no usable entry is redundant; its artificial stays at 0.
        real = np.ones(cols, dtype=bool)
        real[art_cols] = False
        for i in range(m):
            if basis[i] in art_set:
                usable = np.flatnonzero(real & (np.abs(T[i, :cols]) > PIVOT_TOL))
                if usable.size:
                    j = int(usable[0])
                    _pivot(T, i, j)
                    basis[i] = j

    # Phase 2 objective row: r = c_B B^-1 [A|b] - [c|0], rebuilt from scratch.
    c_ext = np.zeros(cols + 1)
    c_ext[:n] = c
    row = -c_ext.copy()
    for i in range(m):
        coef = c_ext[basis[i]]
        if coef != 0.0:
            row = row + coef * T[i]
    T[m] = row

    allowed = np.ones(cols, dtype=bool)
    for j in art_cols:
        allowed[j] = False  # artificials never re-enter
    it, status = _run_simplex(T, basis, allowed)
    iterations += it
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, None, None, None, iterations)

    full = np.zeros(cols)
    for i in range(m):
        full[basis[i]] = T[i, -1]
    x = full[:n].copy()

    # Duals off the objective row, under each row's initial unit column,
    # mapped back through the sign flips.
    y = np.array([sigma[i] * T[m, unit_col[i]] for i in range(m)])

    z = float(c @ x)
    gap = abs(z - float(problem.rhs @ y))

    ax = problem.lhs @ x
    viol = 0.0
    for i, rel in enumerate(problem.relations):
        diff = ax[i] - problem.rhs[i]
        viol = max(viol, diff if rel == LEQ else abs(diff))
    viol = max(viol, float(-x.min(initial=0.0)))
    scale = 1.0 + float(np.abs(problem.rhs).max(initial=0.0))
    if viol > 1e-6 * scale:
        raise LpNumericalError(f"primal residual {viol:.3e} after optimal finish")

    return LpSolution(OPTIMAL, x, y, z, gap, viol, iterations)
