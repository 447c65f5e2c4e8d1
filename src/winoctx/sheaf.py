"""Global-assignment analysis of empirical models.

A model is noncontextual when one distribution over global outcome
assignments reproduces every context's distribution at once.  The
contextual fraction asks the quantitative version: how much probability
mass can such a global distribution explain?

    maximize  sum(w)   s.t.   M w <= b,  w >= 0

where M is the 0/1 incidence of assignments against (context, outcome)
rows and b stacks the empirical probabilities.  cf = 1 - optimum.  Since
b >= 0 (`_rhs` floors rounding noise at 0), w = 0 is a vertex, and
`linprog` solves in one phase from the slack basis.  Every solve carries a
dual certificate; `CfResult.gap` reports how tight it is.
Both counts, rows and assignments, must stay within `linprog.MAX_SIZE`
(1024, so binary cycles up to rank 10); `incidence` checks them first.
The same program answers the yes/no question too: a non-signalling model
is noncontextual iff cf = 0, so `is_noncontextual` reads its verdict and
witness off this solve.

Reports and the bootstrap do not solve this program for a non-signalling
binary cycle: there cf = max(0, (s_odd - (n - 2)) / 2) in closed form
(`cbd`, with its proof), at any rank up to 16.  The program answers
signalling, non-binary and non-cyclic models, within the cap.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .empirical import PROB_TOL, EmpiricalModel, outcome_tuples, signalling
from .linprog import OPTIMAL, LpProblem, check_size, solve
from .scenario import Context, MeasurementScenario, maximal_contexts


class SignallingModelError(ValueError):
    """The question needs consistent marginals and the model has none."""


def global_assignments(scenario: MeasurementScenario) -> list[tuple[str, ...]]:
    """Every total outcome assignment, aligned with scenario.observables.

    Enumerated lexicographically in outcome declaration order.
    """
    return outcome_tuples(scenario.outcomes, len(scenario.observables))


class IncidenceSystem(NamedTuple):
    """Rows are (context, joint outcome) pairs in a fixed order; columns are
    global assignments.  matrix[r, g] = 1 when assignment g restricts to
    row r's outcome."""

    rows: tuple[tuple[Context, tuple[str, ...]], ...]
    assignments: tuple[tuple[str, ...], ...]
    matrix: np.ndarray


def incidence(scenario: MeasurementScenario) -> IncidenceSystem:
    """The cf program's matrix.  Its shape is checked against the LP cap
    before any row or assignment is enumerated."""
    contexts = maximal_contexts(scenario)
    k = len(scenario.outcomes)
    n = len(scenario.observables)
    m = sum(k ** len(ctx) for ctx in contexts)
    check_size(m, k**n)
    assignments = global_assignments(scenario)
    # digits[i, g] is observable i's outcome index under assignment g, in
    # the lexicographic order of `global_assignments`
    digits = np.indices((k,) * n).reshape(n, -1)
    columns = np.arange(k**n)
    rows: list[tuple[Context, tuple[str, ...]]] = []
    matrix = np.zeros((m, k**n))
    for ctx in contexts:
        # each assignment's joint outcome on ctx, numbered from ctx's first row
        joint = np.ravel_multi_index(digits[[scenario.index[obs] for obs in ctx]],
                                     (k,) * len(ctx))
        matrix[len(rows) + joint, columns] = 1.0
        rows.extend((ctx, outcome) for outcome in outcome_tuples(scenario.outcomes, len(ctx)))
    return IncidenceSystem(
        rows=tuple(rows), assignments=tuple(assignments), matrix=matrix
    )


class CfResult(NamedTuple):
    """The consistency program's optimum and its certificate.

    Meaningful (in [0, 1], convex, 0 iff noncontextual) only for
    non-signalling input; the LP value is returned regardless, and callers
    that may see signalling models check `empirical.signalling` themselves.
    """

    cf: float
    ncf_weight: float                      # LP optimum, the explainable mass
    witness: np.ndarray                    # sub-distribution over assignments
    assignments: tuple[tuple[str, ...], ...]
    dual_certificate: np.ndarray           # row multipliers proving optimality
    gap: float                             # |primal - dual|, should be <= 1e-7


def _rhs(model: EmpiricalModel, system: IncidenceSystem) -> np.ndarray:
    b = np.array([model.distribution(ctx).prob(joint) for ctx, joint in system.rows])
    # model validation admits entries down to -tol; those are rounding noise,
    # and `LpProblem` refuses a negative rhs, so floor at zero
    return np.maximum(b, 0.0)


def contextual_fraction(model: EmpiricalModel) -> CfResult:
    """Largest sub-probability explainable by global assignments; cf is the
    rest."""
    system = incidence(model.scenario)
    b = _rhs(model, system)
    n = system.matrix.shape[1]
    problem = LpProblem(
        objective=np.ones(n),
        lhs=system.matrix,
        rhs=b,
    )
    solution = solve(problem)
    if solution.status != OPTIMAL:
        # M w <= b with w >= 0 always admits w = 0 and sum(w) <= 1.
        raise RuntimeError(f"consistency program ended {solution.status}; cannot happen")
    explained = min(solution.objective_value, 1.0)
    return CfResult(
        cf=1.0 - explained,
        ncf_weight=explained,
        witness=solution.x,
        assignments=system.assignments,
        dual_certificate=solution.dual,
        gap=solution.gap,
    )


def is_noncontextual(
    model: EmpiricalModel, tol: float = PROB_TOL
) -> tuple[bool, Optional[dict[tuple[str, ...], float]]]:
    """Does some global distribution reproduce every context exactly?

    Read off the contextual fraction: a non-signalling model is
    noncontextual iff cf = 0 (Abramsky, Barbosa, Mansfield, PRL 119,
    050504, 2017), decided here as cf <= tol so that honest float rounding
    does not flip the verdict.  The witness is the LP's explaining
    sub-distribution rescaled to total mass 1.  Signalling models are
    refused: no global distribution can match marginals that disagree with
    each other.
    """
    sig = signalling(model).max_discrepancy
    if sig > tol:
        raise SignallingModelError(
            f"marginals disagree by {sig:.3e} (> {tol:.1e}); "
            "global-distribution question is void"
        )
    result = contextual_fraction(model)
    if result.cf > tol:
        return False, None
    weights = {
        assignment: float(w) / result.ncf_weight
        for assignment, w in zip(result.assignments, result.witness)
        if w > 0.0
    }
    return True, weights
