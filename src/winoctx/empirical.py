"""Empirical models: one outcome distribution per maximal context.

A model is made only valid, as a scenario is: one table per context, over
its scenario's joint outcomes, kept in its scenario's context order, so
equality ignores the order they were listed in.

All probability sums go through math.fsum so that algebraically-zero
quantities (marginal mismatches of models built from tallies) come out
exactly 0.0 rather than merely small; `cbd` sums expectations the same way.
"""

from __future__ import annotations

import math
from itertools import product
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .scenario import MAX_TABLE_ENTRIES, Context, Frozen, MeasurementScenario, maximal_contexts

PROB_TOL = 1e-9


class EmpiricalModelError(ValueError):
    """Construction or use of an empirical model violated an invariant."""


def outcome_tuples(outcome_set: tuple[str, ...], arity: int) -> list[tuple[str, ...]]:
    """All joint outcomes for `arity` observables, in declaration order."""
    return list(product(outcome_set, repeat=arity))


class Distribution(Frozen):
    """A probability table over joint outcomes of one context.

    The table is dense: every joint outcome has an entry, missing input
    entries are filled with 0.0 by `from_mapping`.
    """

    def __init__(self, context: Context, table: Mapping[tuple[str, ...], float]):
        super().__init__(context=context, table=table)

    @classmethod
    def from_mapping(
        cls,
        context: Context,
        outcome_set: tuple[str, ...],
        probs: Mapping[tuple[str, ...], float],
    ) -> "Distribution":
        if len(outcome_set) ** len(context) > MAX_TABLE_ENTRIES:  # checked before it is built
            raise EmpiricalModelError(f"context {context!r} has {len(outcome_set)}^{len(context)} "
                                      f"joint outcomes, over the supported {MAX_TABLE_ENTRIES}")
        full = outcome_tuples(outcome_set, len(context))
        known = set(full)
        for key in probs:
            if key not in known:
                raise EmpiricalModelError(
                    f"outcome {key!r} is not a joint outcome of context {context!r}"
                )
        table = {o: float(probs.get(o, 0.0)) for o in full}
        for o, p in table.items():
            if not -PROB_TOL <= p <= 1.0 + PROB_TOL:  # written so that NaN fails it
                raise EmpiricalModelError(
                    f"probability {p!r} for {o!r} in context {context!r} out of range"
                )
        total = math.fsum(table.values())
        if abs(total - 1.0) > PROB_TOL:
            raise EmpiricalModelError(
                f"context {context!r} probabilities sum to {total!r}, not 1"
            )
        return cls(context=context, table=table)

    def prob(self, outcome: tuple[str, ...]) -> float:
        return self.table[outcome]


def _marginal(
    table: Mapping[tuple[str, ...], float], positions: list[int], outcome_set: tuple[str, ...]
) -> list[float]:
    """The math.fsum of the table's entries per joint outcome at `positions`
    (non-empty), in outcome_tuples order; exact sums, so the table's order
    does not matter."""
    project = itemgetter(*positions)
    keys = outcome_set if len(positions) == 1 else outcome_tuples(outcome_set, len(positions))
    buckets: dict = {key: [] for key in keys}
    for joint, p in table.items():
        buckets[project(joint)].append(p)
    return list(map(math.fsum, buckets.values()))


class EmpiricalModel(Frozen):
    """Exactly one distribution per context of `scenario`: construction
    refuses a missing, a foreign or a repeated context and a table not over
    the scenario's joint outcomes, and keeps the distributions in
    `scenario.maximal` order, however they were listed."""

    def __init__(self, scenario: MeasurementScenario, distributions: Iterable[Distribution]):
        by_context: dict[Context, Distribution] = {}
        for dist in distributions:
            if dist.context in by_context:
                raise EmpiricalModelError(f"context {dist.context!r} has two distributions")
            by_context[dist.context] = dist
        contexts = maximal_contexts(scenario)
        expected = set(contexts)
        if parts := [f"{what} {sorted(found)}" for what, found in (
                ("missing distributions for", expected - by_context.keys()),
                ("distributions for non-contexts", by_context.keys() - expected)) if found]:
            raise EmpiricalModelError("; ".join(parts))
        for ctx in contexts:
            if by_context[ctx].table.keys() != set(outcome_tuples(scenario.outcomes, len(ctx))):
                raise EmpiricalModelError(f"context {ctx!r} has a table not keyed by the joint "
                                          f"outcomes of {list(scenario.outcomes)}")
        super().__init__(scenario=scenario,
                         distributions=tuple([by_context[ctx] for ctx in contexts]),
                         _by_context=by_context)  # no field: kept for `distribution`

    @classmethod
    def build(
        cls,
        scenario: MeasurementScenario,
        tables: Mapping[Context, Mapping[tuple[str, ...], float]],
    ) -> "EmpiricalModel":
        return cls(scenario, [Distribution.from_mapping(ctx, scenario.outcomes, table)
                              for ctx, table in tables.items()])

    def distribution(self, context: Context) -> Distribution:
        try:
            return self._by_context[context]
        except KeyError:
            raise EmpiricalModelError(f"no distribution for context {context!r}") from None


class SignallingReport(NamedTuple):
    max_discrepancy: float


def signalling(model: EmpiricalModel) -> SignallingReport:
    """Largest L1 distance between two contexts' marginals on their
    intersection.

    Walks the scenario's `shared_faces`, which the scenario computes once,
    with their pairs, and keeps.  Each holder of a face is marginalised
    onto it once per call and compared with the face's first holder, so a
    model that does not signal costs one marginal per (context, shared
    face), one comparison per holder after the first and no pair.  Only
    the pairs of a face whose holders differ are measured.  An n-cycle
    costs n comparisons and 2n marginals, and contexts that share nothing
    cost none.

    Marginalising never increases L1 distance, so no shared sub-face of an
    intersection can show more.  0.0 exactly means every pair of contexts
    agrees bit-for-bit on what they share.
    """
    contexts = model.scenario.maximal
    dists = model.distributions  # in the order of `contexts`
    outcomes = model.scenario.outcomes
    largest = 0.0
    for face, holders, pairs in model.scenario.shared_faces:
        sums = [_marginal(dists[k].table, [contexts[k].index(obs) for obs in face], outcomes)
                for k in holders]
        if sums.count(sums[0]) == len(sums):  # every holder agrees with the first
            continue
        at = dict(zip(holders, sums))
        for i, j in pairs:
            largest = max(largest, math.fsum([abs(x - y) for x, y in zip(at[i], at[j])]))
    return SignallingReport(max_discrepancy=largest)


def is_non_signalling(model: EmpiricalModel, tol: float = PROB_TOL) -> bool:
    return signalling(model).max_discrepancy <= tol


def is_outcome_symmetric(model: EmpiricalModel, tol: float = PROB_TOL) -> bool:
    """True when every distribution is invariant under exchanging the two
    outcomes (binary only)."""
    outcomes = model.scenario.outcomes
    if len(outcomes) != 2:
        raise EmpiricalModelError("outcome flip needs a binary outcome set")
    flip = dict(zip(outcomes, reversed(outcomes)))
    return all(abs(p - dist.table[tuple(flip[label] for label in joint)]) <= tol
               for dist in model.distributions for joint, p in dist.table.items())
