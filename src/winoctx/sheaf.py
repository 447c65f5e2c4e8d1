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
dual certificate; `CfResult.gap` reports how tight it is.  Columns, and so
the witness w, are the global assignments (one outcome per observable,
in `scenario.observables` order) in lexicographic order of the declared
outcomes.  Both counts, rows and assignments, must stay within
`linprog.MAX_SIZE` (1024, so binary cycles up to rank 10); `incidence`
checks them first.  A non-signalling model is noncontextual iff cf = 0
(Abramsky, Barbosa and Mansfield, PRL 119, 050504, 2017); `report` calls
a model sheaf-contextual when cf > tol.

Reports and the bootstrap do not solve this program for a non-signalling
binary cycle: there cf = max(0, (s_odd - (n - 2)) / 2) in closed form
(`cbd`, with its proof), at any rank up to 16.  The program answers
signalling, non-binary and non-cyclic models, within the cap.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# signalling is bound only for benchmarks/spans.py::HOOKS, until its next change (ROADMAP item 4)
from .empirical import EmpiricalModel, outcome_tuples, signalling  # noqa: F401
from .linprog import OPTIMAL, LpProblem, check_size, solve
from .scenario import Context, MeasurementScenario, maximal_contexts


class IncidenceSystem(NamedTuple):
    """Rows are (context, joint outcome) pairs in a fixed order; columns are
    the global assignments in lexicographic order of the declared outcomes.
    matrix[r, g] = 1 when assignment g restricts to row r's outcome."""

    rows: tuple[tuple[Context, tuple[str, ...]], ...]
    matrix: np.ndarray


def incidence(scenario: MeasurementScenario) -> IncidenceSystem:
    """The cf program's matrix.  Its shape is checked against the LP cap
    before any row or assignment is enumerated."""
    contexts = maximal_contexts(scenario)
    k = len(scenario.outcomes)
    n = len(scenario.observables)
    m = sum(k ** len(ctx) for ctx in contexts)
    check_size(m, k**n)
    # digits[i, g] is observable i's outcome index under assignment g, in
    # lexicographic order
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
    return IncidenceSystem(rows=tuple(rows), matrix=matrix)


class CfResult(NamedTuple):
    """The consistency program's optimum and its certificate.

    Meaningful (in [0, 1], convex, 0 iff noncontextual) only for
    non-signalling input; the LP value is returned regardless, and callers
    that may see signalling models check `empirical.signalling` themselves.
    `witness` is aligned with the columns of `incidence(model.scenario)`.
    """

    cf: float
    ncf_weight: float                      # LP optimum, the explainable mass
    witness: np.ndarray                    # sub-distribution over assignments
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
        dual_certificate=solution.dual,
        gap=solution.gap,
    )
