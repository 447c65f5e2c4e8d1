"""Measurement scenarios: observables, a simplicial complex of jointly
measurable subsets, and an outcome set.

A scenario is the static backdrop of an experiment.  Each *face* of the
complex is a set of observables that can be measured together; a *context*
is a maximal face.  Scenario files declare only the maximal faces and the
complex is completed downward on load (see :meth:`MeasurementScenario.from_maximal`).

Sign convention used throughout: for binary outcome sets the first declared
outcome label maps to +1 and the second to -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional

Observable = str
# A context is a tuple of observables ordered by scenario declaration order.
Context = tuple[Observable, ...]

Face = frozenset

# Cap on observables per scenario and members per face (2**members subsets)
MAX_OBSERVABLES = 16


class InvalidScenarioError(ValueError):
    """An operation required a well-formed scenario and got an invalid one."""


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CyclicStructure:
    """A cyclic arrangement of contents: consecutive pairs along `ordering`
    (wrapping around) are exactly the maximal contexts of the scenario.

    contexts[i] is the pair (ordering[i], ordering[i+1]) with its members in
    scenario declaration order, the same tuple the scenario's models key
    their distributions by.
    """

    rank: int
    ordering: tuple[Observable, ...]
    contexts: tuple[Context, ...]


def complete_downward(faces: Iterable[Iterable[Observable]]) -> frozenset[Face]:
    """Close a set of faces under taking subsets (including the empty face).
    A face over MAX_OBSERVABLES members is refused before enumeration."""
    completed: set[Face] = {frozenset()}
    for face in faces:
        members = tuple(face)
        if len(members) > MAX_OBSERVABLES:
            raise InvalidScenarioError(
                f"face of {len(members)} members exceeds the supported {MAX_OBSERVABLES}"
            )
        for r in range(1, len(members) + 1):
            completed.update(frozenset(c) for c in combinations(members, r))
    return frozenset(completed)


@dataclass(frozen=True)
class MeasurementScenario:
    """Observables, a complex of faces, and an ordered outcome set.

    `faces` is stored exactly as given; use :meth:`from_maximal` to build a
    scenario from maximal faces only (the normal path for scenario files).
    """

    observables: tuple[Observable, ...]
    faces: frozenset[Face]
    outcomes: tuple[str, ...]

    @classmethod
    def from_maximal(
        cls,
        observables: Iterable[Observable],
        maximal_faces: Iterable[Iterable[Observable]],
        outcomes: Iterable[str],
    ) -> "MeasurementScenario":
        return cls(
            observables=tuple(observables),
            faces=complete_downward(maximal_faces),
            outcomes=tuple(outcomes),
        )

    @cached_property
    def _index(self) -> dict[Observable, int]:
        return {obs: i for i, obs in enumerate(self.observables)}

    def order_face(self, face: Iterable[Observable]) -> Context:
        """Order the members of a face by scenario declaration order."""
        return tuple(sorted(face, key=self._index.__getitem__))

    def outcome_sign(self, label: str) -> float:
        """+1 for the first declared outcome, -1 for the second (binary only)."""
        if len(self.outcomes) != 2:
            raise InvalidScenarioError(
                f"sign convention needs a binary outcome set, got {len(self.outcomes)}"
            )
        if label == self.outcomes[0]:
            return 1.0
        if label == self.outcomes[1]:
            return -1.0
        raise KeyError(f"unknown outcome label {label!r}")

    def flip_outcome(self, label: str) -> str:
        """Exchange the two outcome labels (binary only)."""
        if len(self.outcomes) != 2:
            raise InvalidScenarioError("outcome flip needs a binary outcome set")
        first, second = self.outcomes
        if label == first:
            return second
        if label == second:
            return first
        raise KeyError(f"unknown outcome label {label!r}")


def validate(scenario: MeasurementScenario) -> ValidationReport:
    """Check every scenario invariant and report all violations found."""
    problems: list[str] = []

    seen: set[Observable] = set()
    for obs in scenario.observables:
        if not obs:
            problems.append("observable with empty id")
        if obs in seen:
            problems.append(f"duplicate observable {obs!r}")
        seen.add(obs)
    if not scenario.observables:
        problems.append("scenario declares no observables")
    if len(scenario.observables) > MAX_OBSERVABLES:
        problems.append(
            f"{len(scenario.observables)} observables exceed the supported {MAX_OBSERVABLES}"
        )

    if len(set(scenario.outcomes)) < 2:
        problems.append(
            f"outcome set needs >= 2 distinct labels, got {list(scenario.outcomes)}"
        )
    if len(set(scenario.outcomes)) != len(scenario.outcomes):
        problems.append("duplicate outcome labels")

    declared = set(scenario.observables)
    for face in scenario.faces:
        unknown = face - declared
        if unknown:
            problems.append(
                f"face {sorted(face)} uses undeclared observables {sorted(unknown)}"
            )

    # Downward closure.  Checking one level down suffices: if every face is
    # missing none of its co-dimension-1 subsets, induction closes the rest.
    missing: set[Face] = set()
    if scenario.faces and frozenset() not in scenario.faces:
        missing.add(frozenset())
    for face in scenario.faces:
        for drop in face:
            sub = face - {drop}
            if sub not in scenario.faces:
                missing.add(sub)
    for face in sorted(missing, key=lambda f: (len(f), sorted(f))):
        problems.append(f"closure violation: missing face {sorted(face)}")

    covered = set().union(*scenario.faces) if scenario.faces else set()
    for obs in scenario.observables:
        if obs not in covered:
            problems.append(f"uncovered observable {obs!r} (appears in no face)")

    return ValidationReport(tuple(problems))


def maximal_contexts(scenario: MeasurementScenario) -> list[Context]:
    """All maximal faces, ordered lexicographically by observable indices."""
    report = validate(scenario)
    if not report.ok:
        raise InvalidScenarioError("; ".join(report.problems))
    faces = [f for f in scenario.faces if f]
    maximal = [
        f for f in faces if not any(f < other for other in faces)
    ]
    index = scenario._index
    return sorted(
        (scenario.order_face(f) for f in maximal),
        key=lambda ctx: tuple(index[o] for o in ctx),
    )


def cyclic_structure(scenario: MeasurementScenario) -> Optional[CyclicStructure]:
    """Detect a cyclic arrangement: every context has exactly 2 members, every
    observable lies in exactly 2 contexts, and the contexts form one cycle.

    Returns the canonical ordering (starting from the least observable in
    declaration order, stepping toward its lesser neighbor) with its contexts
    in cycle order, or None.
    """
    contexts = maximal_contexts(scenario)
    if any(len(ctx) != 2 for ctx in contexts):
        return None

    neighbors: dict[Observable, list[Observable]] = {o: [] for o in scenario.observables}
    for a, b in contexts:
        neighbors[a].append(b)
        neighbors[b].append(a)
    if any(len(adj) != 2 for adj in neighbors.values()):
        return None
    if len(contexts) != len(scenario.observables):
        return None

    index = scenario._index
    start = min(scenario.observables, key=index.__getitem__)
    ordering = [start]
    current = min(neighbors[start], key=index.__getitem__)
    while current != start:
        ordering.append(current)
        prev = ordering[-2]
        nxt = [o for o in neighbors[current] if o != prev]
        if len(nxt) != 1:
            return None
        current = nxt[0]
    if len(ordering) != len(scenario.observables):
        return None  # more than one cycle component
    n = len(ordering)
    return CyclicStructure(
        rank=n,
        ordering=tuple(ordering),
        contexts=tuple(
            scenario.order_face((ordering[i], ordering[(i + 1) % n])) for i in range(n)
        ),
    )
