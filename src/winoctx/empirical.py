"""Empirical models: one outcome distribution per maximal context.

All probability sums go through math.fsum so that algebraically-zero
quantities (marginal mismatches of models built from tallies) come out
exactly 0.0 rather than merely small; `cbd` sums expectations the same way.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import product
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional

from .scenario import Context, Frozen, MeasurementScenario, maximal_contexts

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

    def __init__(self, context: Context, outcome_set: tuple[str, ...],
                 table: Mapping[tuple[str, ...], float]):
        super().__init__(context=context, outcome_set=outcome_set, table=table)

    @classmethod
    def from_mapping(
        cls,
        context: Context,
        outcome_set: Iterable[str],
        probs: Mapping[tuple[str, ...], float],
    ) -> "Distribution":
        outcome_set = tuple(outcome_set)
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
        return cls(context=context, outcome_set=outcome_set, table=table)

    def prob(self, outcome: tuple[str, ...]) -> float:
        return self.table[outcome]

    def marginalize(self, keep: Iterable[str]) -> "Distribution":
        """Marginal over a subset of the context's observables."""
        keep = set(keep)
        missing = keep.difference(self.context)
        if missing:
            raise EmpiricalModelError(f"{sorted(missing)} not in context {self.context!r}")
        keep = tuple(k for k in self.context if k in keep)
        if not keep:
            raise EmpiricalModelError("cannot marginalize onto the empty face")
        positions = [self.context.index(k) for k in keep]
        sums = _marginal(self.table, positions, self.outcome_set)
        table = dict(zip(outcome_tuples(self.outcome_set, len(keep)), sums))
        return Distribution(context=keep, outcome_set=self.outcome_set, table=table)


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
    def __init__(self, scenario: MeasurementScenario, distributions: tuple[Distribution, ...]):
        # at most one distribution per context of the scenario; `build`
        # also refuses a missing one
        contexts, seen = set(scenario.maximal), set()
        for dist in distributions:
            if dist.context not in contexts:
                raise EmpiricalModelError(
                    f"distribution for {dist.context!r}, which is not a context of the scenario")
            if dist.context in seen:
                raise EmpiricalModelError(f"context {dist.context!r} has two distributions")
            seen.add(dist.context)
        super().__init__(scenario=scenario, distributions=distributions)

    @classmethod
    def build(
        cls,
        scenario: MeasurementScenario,
        tables: Mapping[Context, Mapping[tuple[str, ...], float]],
    ) -> "EmpiricalModel":
        contexts = maximal_contexts(scenario)
        given = set(tables)
        expected = set(contexts)
        if given != expected:
            missing = sorted(expected - given)
            extra = sorted(given - expected)
            parts = []
            if missing:
                parts.append(f"missing distributions for {missing}")
            if extra:
                parts.append(f"distributions for non-contexts {extra}")
            raise EmpiricalModelError("; ".join(parts))
        dists = tuple(
            Distribution.from_mapping(ctx, scenario.outcomes, tables[ctx])
            for ctx in contexts
        )
        return cls(scenario=scenario, distributions=dists)

    @cached_property
    def _by_context(self) -> dict[Context, Distribution]:
        return {d.context: d for d in self.distributions}

    @property
    def contexts(self) -> tuple[Context, ...]:
        return tuple(d.context for d in self.distributions)

    def distribution(self, context: Context) -> Distribution:
        try:
            return self._by_context[context]
        except KeyError:
            raise EmpiricalModelError(f"no distribution for context {context!r}") from None


class SignallingReport(NamedTuple):
    max_discrepancy: float
    worst: Optional[tuple[tuple[str, ...], Context, Context]]  # intersection, two contexts


def signalling(model: EmpiricalModel) -> SignallingReport:
    """Largest L1 distance between two contexts' marginals on their
    intersection.

    Walks the scenario's `shared_faces`, which the scenario computes once,
    with their pairs, and keeps.  Each holder of a face is marginalised
    onto it once per call and compared with the face's first holder, so a
    model that does not signal costs one marginal per (context, shared
    face), one comparison per holder after the first and no pair.  Only
    the pairs of a face whose holders differ are measured.  `worst` is the
    first pair, in the order (i, j), i < j, of the scenario's contexts,
    whose distance is the maximum, i.e. strictly above every pair before
    it; a model that does not signal has max_discrepancy 0.0 and no worst
    pair.  An n-cycle costs n comparisons and 2n marginals, and contexts
    that share nothing cost none.

    Marginalising never increases L1 distance, so no shared sub-face of an
    intersection can show more.  0.0 exactly means every pair of contexts
    agrees bit-for-bit on what they share.
    """
    contexts = model.scenario.maximal
    dists = list(map(model.distribution, contexts))
    worst = None
    worst_val = 0.0
    worst_at = (0, 0)  # no pair comes before it, so a tie with 0.0 sets no worst
    for face, holders, pairs in model.scenario.shared_faces:
        sums = [_marginal(dists[k].table, [contexts[k].index(obs) for obs in face],
                          dists[k].outcome_set) for k in holders]
        if sums.count(sums[0]) == len(sums):  # every holder agrees with the first
            continue
        at = dict(zip(holders, sums))
        for i, j in pairs:
            dist = math.fsum([abs(x - y) for x, y in zip(at[i], at[j])])
            if dist > worst_val or dist == worst_val and (i, j) < worst_at:
                worst_val = dist
                worst_at = (i, j)
                worst = (face, contexts[i], contexts[j])
    return SignallingReport(max_discrepancy=worst_val, worst=worst)


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


def from_global_weights(
    scenario: MeasurementScenario,
    weights: Mapping[tuple[str, ...], float],
) -> EmpiricalModel:
    """Model induced by a distribution on global assignments.

    Assignment tuples follow scenario.observables order.  Models built this
    way are non-signalling and noncontextual by construction, which makes
    this the reference generator for property tests.
    """
    total = math.fsum(weights.values())
    if abs(total - 1.0) > PROB_TOL:
        raise EmpiricalModelError(f"global weights sum to {total!r}, not 1")
    if any(w < -PROB_TOL for w in weights.values()):
        raise EmpiricalModelError("negative global weight")
    tables: dict[Context, dict[tuple[str, ...], float]] = {}
    for ctx in maximal_contexts(scenario):
        idx = [scenario.index[obs] for obs in ctx]
        buckets: dict[tuple[str, ...], list[float]] = {}
        for assignment, w in weights.items():
            if len(assignment) != len(scenario.observables):
                raise EmpiricalModelError(
                    f"assignment {assignment!r} does not cover every observable"
                )
            key = tuple(assignment[i] for i in idx)
            buckets.setdefault(key, []).append(w)
        tables[ctx] = {key: math.fsum(ws) for key, ws in buckets.items()}
    return EmpiricalModel.build(scenario, tables)
