"""Empirical models: one outcome distribution per maximal context.

A model is made only valid, as a scenario is, and its constructor is the one
check of its tables: it refuses a context listed twice, then a missing or a
foreign context before it reads any table, then reads each context's table
once into a dense one over its scenario's joint outcomes, in outcome_tuples
order.  It keeps them in its scenario's context order, so equality ignores
the order they were listed in.  The scenario's cap on joint outcomes bounds
every table read.  Reports rely on that dense order: they read a table's
values as a list, and sum them by index plans that depend on the table's
shape alone (outcome count, arity, positions), built once per process.

All probability sums go through math.fsum so that algebraically-zero
quantities (marginal mismatches of models built from tallies) come out
exactly 0.0 rather than merely small; `cbd` sums expectations the same way.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .scenario import Context, Frozen, MeasurementScenario, maximal_contexts

PROB_TOL = 1e-9


class EmpiricalModelError(ValueError):
    """Construction or use of an empirical model violated an invariant."""


def outcome_tuples(outcome_set: tuple[str, ...], arity: int) -> list[tuple[str, ...]]:
    """All joint outcomes for `arity` observables, in declaration order."""
    return list(product(outcome_set, repeat=arity))


class Distribution(NamedTuple):
    """A probability table over the joint outcomes of one context.

    A model makes the ones it holds: dense, an entry for every joint
    outcome in `outcome_tuples` order.  A (context, table) pair, so a
    model's distributions, in any order, make the model again.
    """

    context: Context
    table: Mapping[tuple[str, ...], float]

    def prob(self, outcome: tuple[str, ...]) -> float:
        return self.table[outcome]


@lru_cache(maxsize=64)  # holds every face of a 6-member context; caps the memory held
def _index_groups(k: int, arity: int, positions: tuple[int, ...]) -> tuple[itemgetter, ...]:
    """Per joint outcome at `positions`, in outcome_tuples order, a getter
    of the values of a dense `arity`-member, `k`-outcome table that it sums."""
    groups: dict = {key: [] for key in product(range(k), repeat=len(positions))}
    for i, joint in enumerate(product(range(k), repeat=arity)):
        groups[tuple([joint[at] for at in positions])].append(i)
    # a getter of one index returns a value, so a group of one gets a slice
    return tuple([itemgetter(*g) if len(g) > 1 else itemgetter(slice(g[0], g[0] + 1))
                  for g in groups.values()])


def _marginal(values: list[float], groups: tuple[itemgetter, ...]) -> list[float]:
    """The math.fsum of each `_index_groups` group of a table's values."""
    return [math.fsum(group(values)) for group in groups]


class EmpiricalModel(Frozen):
    """Exactly one distribution per context of `scenario`, made from
    (context, table) pairs: `Distribution`s or a mapping's items.

    Construction refuses a context listed twice, then a missing or a
    foreign one, before it reads a table; then it reads each context's
    table once, into a dense table over the scenario's joint outcomes with
    0.0 where none is given, and refuses a joint outcome the context does
    not have, a probability outside [0, 1] or a sum off 1 (within
    PROB_TOL).  The distributions are kept in `scenario.maximal` order,
    however they were listed."""

    def __init__(self, scenario: MeasurementScenario,
                 distributions: Iterable[tuple[Context, Mapping[tuple[str, ...], float]]]):
        given: dict[Context, Mapping[tuple[str, ...], float]] = {}
        for ctx, probs in distributions:
            if ctx in given:
                raise EmpiricalModelError(f"context {ctx!r} has two distributions")
            given[ctx] = probs
        contexts = maximal_contexts(scenario)
        expected = set(contexts)
        if parts := [f"{what} {sorted(found)}" for what, found in (
                ("missing distributions for", expected - given.keys()),
                ("distributions for non-contexts", given.keys() - expected)) if found]:
            raise EmpiricalModelError("; ".join(parts))
        by_context: dict[Context, Distribution] = {}
        for ctx in contexts:  # the scenario caps each table's size
            table = dict.fromkeys(outcome_tuples(scenario.outcomes, len(ctx)), 0.0)
            for outcome, p in given[ctx].items():
                if outcome not in table:
                    raise EmpiricalModelError(
                        f"outcome {outcome!r} is not a joint outcome of context {ctx!r}")
                table[outcome] = float(p)
            for outcome, p in table.items():
                if not -PROB_TOL <= p <= 1.0 + PROB_TOL:  # written so that NaN fails it
                    raise EmpiricalModelError(
                        f"probability {p!r} for {outcome!r} in context {ctx!r} out of range")
            if abs((total := math.fsum(table.values())) - 1.0) > PROB_TOL:
                raise EmpiricalModelError(f"context {ctx!r} probabilities sum to {total!r}, not 1")
            by_context[ctx] = Distribution(ctx, table)
        super().__init__(scenario=scenario, distributions=tuple(by_context.values()),
                         _by_context=by_context)  # no field: kept for `distribution`

    @classmethod
    def build(
        cls,
        scenario: MeasurementScenario,
        tables: Mapping[Context, Mapping[tuple[str, ...], float]],
    ) -> "EmpiricalModel":
        return cls(scenario, tables.items())

    def distribution(self, context: Context) -> Distribution:
        try:
            return self._by_context[context]
        except KeyError:
            raise EmpiricalModelError(f"no distribution for context {context!r}") from None


def signalling(model: EmpiricalModel) -> float:
    """Largest L1 distance between two contexts' marginals on their
    intersection.

    Walks the scenario's `shared_faces`, which the scenario computes once,
    with their pairs, and keeps.  Each holder of a face is marginalised
    onto it once per call and compared with the face's first holder, so a
    model that does not signal costs one marginal per (context, shared
    face), one comparison per holder after the first and no pair.  Only
    the pairs of a face whose holders differ are measured.  An n-cycle
    costs n comparisons and 2n marginals, and contexts that share nothing
    cost no marginal.  A marginal sums a table's values, read once per
    call, over `_index_groups`, which are built once per process.

    Marginalising never increases L1 distance, so no shared sub-face of an
    intersection can show more.  0.0 exactly means every pair of contexts
    agrees bit-for-bit on what they share.
    """
    contexts = model.scenario.maximal
    k = len(model.scenario.outcomes)
    values = [list(dist.table.values()) for dist in model.distributions]  # `contexts` order
    largest = 0.0
    for face, holders, pairs in model.scenario.shared_faces:
        sums = [_marginal(values[h], _index_groups(k, len(contexts[h]), tuple(
            [contexts[h].index(obs) for obs in face]))) for h in holders]
        if sums.count(sums[0]) == len(sums):  # every holder agrees with the first
            continue
        at = dict(zip(holders, sums))
        for i, j in pairs:
            largest = max(largest, math.fsum([abs(x - y) for x, y in zip(at[i], at[j])]))
    return largest


def is_non_signalling(model: EmpiricalModel, tol: float = PROB_TOL) -> bool:
    return signalling(model) <= tol


def is_outcome_symmetric(model: EmpiricalModel, tol: float = PROB_TOL) -> bool:
    """True when every distribution is invariant under exchanging the two
    outcomes (binary only).  In outcome_tuples order the exchange maps
    entry i of a table of N to entry N - 1 - i: it reverses the values."""
    if len(model.scenario.outcomes) != 2:
        raise EmpiricalModelError("outcome flip needs a binary outcome set")
    return all(abs(p - q) <= tol for dist in model.distributions
               for p, q in zip(dist.table.values(), reversed(dist.table.values())))
