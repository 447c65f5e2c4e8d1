"""Empirical models: one outcome distribution per maximal context.

All probability sums go through math.fsum so that algebraically-zero
quantities (symmetric-model expectations, marginal mismatches of models
built from tallies) come out exactly 0.0 rather than merely small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Optional

from .scenario import (
    Context,
    InvalidScenarioError,
    MeasurementScenario,
    maximal_contexts,
)

PROB_TOL = 1e-9


class EmpiricalModelError(ValueError):
    """Construction or use of an empirical model violated an invariant."""


def outcome_tuples(outcome_set: tuple[str, ...], arity: int) -> list[tuple[str, ...]]:
    """All joint outcomes for `arity` observables, in declaration order."""
    return list(product(outcome_set, repeat=arity))


@dataclass(frozen=True)
class Distribution:
    """A probability table over joint outcomes of one context.

    The table is dense: every joint outcome has an entry, missing input
    entries are filled with 0.0 by `from_mapping`.
    """

    context: Context
    outcome_set: tuple[str, ...]
    table: Mapping[tuple[str, ...], float]

    @classmethod
    def from_mapping(
        cls,
        context: Context,
        outcome_set: Iterable[str],
        probs: Mapping[tuple[str, ...], float],
        tol: float = PROB_TOL,
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
            if not -tol <= p <= 1.0 + tol:  # written so that NaN fails it
                raise EmpiricalModelError(
                    f"probability {p!r} for {o!r} in context {context!r} out of range"
                )
        total = math.fsum(table.values())
        if abs(total - 1.0) > tol:
            raise EmpiricalModelError(
                f"context {context!r} probabilities sum to {total!r}, not 1"
            )
        return cls(context=context, outcome_set=outcome_set, table=table)

    def prob(self, outcome: tuple[str, ...]) -> float:
        return self.table[outcome]

    def marginalize(self, keep: Iterable[str]) -> "Distribution":
        """Marginal over a subset of the context's observables."""
        keep = tuple(k for k in self.context if k in set(keep))
        if not keep:
            raise EmpiricalModelError("cannot marginalize onto the empty face")
        missing = set(keep) - set(self.context)
        if missing:
            raise EmpiricalModelError(f"{sorted(missing)} not in context {self.context!r}")
        idx = [self.context.index(k) for k in keep]
        buckets: dict[tuple[str, ...], list[float]] = {
            o: [] for o in outcome_tuples(self.outcome_set, len(keep))
        }
        for joint, p in self.table.items():
            buckets[tuple(joint[i] for i in idx)].append(p)
        table = {o: math.fsum(ps) for o, ps in buckets.items()}
        return Distribution(context=keep, outcome_set=self.outcome_set, table=table)

    def expectation(self, observable: str, sign: Mapping[str, float]) -> float:
        """<x> under the +-1 encoding given by `sign`."""
        if observable not in self.context:
            raise EmpiricalModelError(f"{observable!r} not in context {self.context!r}")
        i = self.context.index(observable)
        return math.fsum(p * sign[joint[i]] for joint, p in self.table.items())

    def correlation(self, sign: Mapping[str, float]) -> float:
        """<product of all context members> under the +-1 encoding."""
        terms = []
        for joint, p in self.table.items():
            s = 1.0
            for label in joint:
                s *= sign[label]
            terms.append(p * s)
        return math.fsum(terms)


@dataclass(frozen=True)
class EmpiricalModel:
    scenario: MeasurementScenario
    distributions: tuple[Distribution, ...]

    @classmethod
    def build(
        cls,
        scenario: MeasurementScenario,
        tables: Mapping[Context, Mapping[tuple[str, ...], float]],
        tol: float = PROB_TOL,
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
            Distribution.from_mapping(ctx, scenario.outcomes, tables[ctx], tol=tol)
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

    @cached_property
    def sign(self) -> dict[str, float]:
        """First declared outcome -> +1, second -> -1 (binary scenarios)."""
        return {label: self.scenario.outcome_sign(label) for label in self.scenario.outcomes}


@dataclass(frozen=True)
class SignallingReport:
    max_discrepancy: float
    worst: Optional[tuple[tuple[str, ...], Context, Context]]  # face, two contexts

    def ok(self, tol: float = PROB_TOL) -> bool:
        return self.max_discrepancy <= tol


def signalling(model: EmpiricalModel) -> SignallingReport:
    """Largest L1 distance between marginals of a shared face.

    0.0 exactly means every pair of contexts agrees bit-for-bit on every
    shared sub-face.
    """
    scenario = model.scenario
    contexts = model.contexts
    worst = None
    worst_val = 0.0
    maximal = {frozenset(c) for c in contexts}
    shared = sorted(
        (f for f in scenario.faces if f and f not in maximal),
        key=lambda f: (len(f), sorted(f)),
    )
    for face in shared:
        holders = [ctx for ctx in contexts if face <= set(ctx)]
        if len(holders) < 2:
            continue
        margs = [model.distribution(ctx).marginalize(face) for ctx in holders]
        for i in range(len(margs)):
            for j in range(i + 1, len(margs)):
                a, b = margs[i], margs[j]
                dist = math.fsum(abs(a.table[o] - b.table[o]) for o in a.table)
                if dist > worst_val:
                    worst_val = dist
                    worst = (a.context, holders[i], holders[j])
    return SignallingReport(max_discrepancy=worst_val, worst=worst)


def is_non_signalling(model: EmpiricalModel, tol: float = PROB_TOL) -> bool:
    return signalling(model).ok(tol)


def is_outcome_symmetric(model: EmpiricalModel, tol: float = PROB_TOL) -> bool:
    """True when every distribution is invariant under flipping every outcome."""
    scenario = model.scenario
    for dist in model.distributions:
        for joint, p in dist.table.items():
            flipped = tuple(scenario.flip_outcome(label) for label in joint)
            if abs(p - dist.table[flipped]) > tol:
                return False
    return True


def from_global_weights(
    scenario: MeasurementScenario,
    weights: Mapping[tuple[str, ...], float],
    tol: float = PROB_TOL,
) -> EmpiricalModel:
    """Model induced by a distribution on global assignments.

    Assignment tuples follow scenario.observables order.  Models built this
    way are non-signalling and noncontextual by construction, which makes
    this the reference generator for property tests.
    """
    total = math.fsum(weights.values())
    if abs(total - 1.0) > tol:
        raise EmpiricalModelError(f"global weights sum to {total!r}, not 1")
    if any(w < -tol for w in weights.values()):
        raise EmpiricalModelError("negative global weight")
    order = {obs: i for i, obs in enumerate(scenario.observables)}
    tables: dict[Context, dict[tuple[str, ...], float]] = {}
    for ctx in maximal_contexts(scenario):
        idx = [order[obs] for obs in ctx]
        buckets: dict[tuple[str, ...], list[float]] = {}
        for assignment, w in weights.items():
            if len(assignment) != len(scenario.observables):
                raise EmpiricalModelError(
                    f"assignment {assignment!r} does not cover every observable"
                )
            key = tuple(assignment[i] for i in idx)
            buckets.setdefault(key, []).append(w)
        tables[ctx] = {key: math.fsum(ws) for key, ws in buckets.items()}
    return EmpiricalModel.build(scenario, tables, tol=tol)
