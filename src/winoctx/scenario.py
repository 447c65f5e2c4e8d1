"""Measurement scenarios: observables, the maximal contexts of a
downward-closed complex of jointly measurable subsets, and an outcome set.

A scenario is the static backdrop of an experiment.  A *context* is a
maximal set of observables that can be measured together; every subset of a
context is measurable too, so the contexts alone determine the complex (its
measurement cover).  A scenario keeps the maximal faces it is given: its
constructor drops the empty face and every face another one contains.
Outcome labels are declared in order (`cbd` reads the first as +1) and may
not contain SEPARATOR, which joins them into joint-outcome keys.
Invariants are checked when a scenario is made, so an invalid one never
exists and the code that uses a scenario trusts it.

A scenario computes what depends on it alone once, on first use, and keeps
it: its ordered maximal contexts (`maximal`), each face that pairs of them
share (`shared_faces`) and its cycle (`cycle`).  These are not fields: they
take no part in equality, hashing, `repr` or a pickle or copy.

`Frozen`, the base of the package's validated value types, lives here, in
the module every other one imports.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from typing import Iterable, NamedTuple, Optional, Sequence

Observable = str
# A context is a tuple of observables ordered by scenario declaration order.
Context = tuple[Observable, ...]

Face = frozenset
# (face, holders, pairs): see MeasurementScenario.shared_faces
SharedFace = tuple[Context, tuple[int, ...], tuple[tuple[int, int], ...]]

# Cap on observables per scenario; a context's joint-outcome table may hold
# as many entries as a binary context over all of them.
MAX_OBSERVABLES = 16
MAX_TABLE_ENTRIES = 2 ** MAX_OBSERVABLES
MAX_FACES = 1024  # listed faces, as linprog.MAX_SIZE: an LP-sized cf program has <= 512
SEPARATOR = "|"  # between the labels of a joint outcome in file keys


class InvalidScenarioError(ValueError):
    """A scenario broke its invariants; `problems` lists every one."""

    def __init__(self, problems: tuple[str, ...]):
        super().__init__("; ".join(problems))
        self.problems = problems


class Frozen:
    """An immutable value over its fields: the positional parameters of its
    subclass's `__init__`, in order, which `_fields` names.

    A subclass checks its arguments in `__init__` and hands them to this
    one, which sets them once.  Instances compare equal only to instances
    of the same class with equal fields, and hash and print by those fields
    (`Name(field=value, ...)`).  Assigning or deleting any attribute raises
    AttributeError; `functools.cached_property` still works, as it writes
    the instance `__dict__` directly.  A pickle or copy is rebuilt from the
    fields alone, through `__init__`, so cached values never travel with it.
    """

    def __init_subclass__(cls):
        # read off the code object: `inspect` would cost every process its import
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class CyclicStructure(NamedTuple):
    """A cyclic arrangement of contents: consecutive pairs along `ordering`
    (wrapping around) are exactly the maximal contexts of the scenario.

    contexts[i] is the pair (ordering[i], ordering[i+1]) with its members in
    scenario declaration order, the same tuple the scenario's models key
    their distributions by.
    """

    rank: int
    ordering: tuple[Observable, ...]
    contexts: tuple[Context, ...]


class MeasurementScenario(Frozen):
    """Observables, the maximal contexts of a complex, and an ordered outcome
    set.

    Made only valid: construction keeps the maximal faces of `contexts` (at
    most MAX_FACES, counted before any is compared) and raises
    InvalidScenarioError with every problem `validate` finds.
    :meth:`from_maximal` builds one from a list of faces (scenario files).
    """

    def __init__(self, observables: tuple[Observable, ...], contexts: frozenset[Face],
                 outcomes: tuple[str, ...]):
        faces = contexts - {frozenset()}
        if len(faces) > MAX_FACES:
            raise InvalidScenarioError(
                (f"{len(faces)} faces exceed the supported {MAX_FACES}",))
        super().__init__(observables=observables, contexts=frozenset(maximal_only(faces)),
                         outcomes=outcomes)
        if problems := validate(self):
            raise InvalidScenarioError(problems)

    @classmethod
    def from_maximal(
        cls,
        observables: Iterable[Observable],
        maximal_faces: Iterable[Iterable[Observable]],
        outcomes: Iterable[str],
    ) -> "MeasurementScenario":
        """A scenario on the listed faces; the constructor keeps the maximal ones."""
        faces = frozenset(map(frozenset, maximal_faces))
        return cls(tuple(observables), faces, tuple(outcomes))

    @cached_property
    def index(self) -> dict[Observable, int]:
        """Each observable's position in declaration order."""
        return {obs: i for i, obs in enumerate(self.observables)}

    def order_face(self, face: Iterable[Observable]) -> Context:
        """Order the members of a face by scenario declaration order."""
        return tuple(sorted(face, key=self.index.__getitem__))

    @cached_property
    def maximal(self) -> tuple[Context, ...]:
        """The contexts, members in declaration order, sorted
        lexicographically by observable indices."""
        index = self.index
        return tuple(sorted(
            (self.order_face(f) for f in self.contexts),
            key=lambda ctx: tuple(index[o] for o in ctx),
        ))

    @cached_property
    def shared_faces(self) -> tuple[SharedFace, ...]:
        """(face, holders, pairs) for each face that some pair i < j of
        `maximal` contexts share exactly: `pairs` lists every such (i, j) in
        (i, j) order, `holders` the contexts in them, ascending, and the
        face lists its members in declaration order.  Faces come in the
        order of their first pair."""
        return _shared_faces(self.maximal)

    @cached_property
    def cycle(self) -> Optional[CyclicStructure]:
        """The canonical cycle through the contexts (`cycle_through`), or
        None when they do not form one."""
        # through the module function, so that benchmarks/spans.py still sees it called
        return cycle_through(self, maximal_contexts(self))


def maximal_only(faces: Iterable[Face]) -> list[Face]:
    """The faces that no other face strictly contains.  Largest first, each
    face is tested only against the larger faces kept so far (a face inside
    any face lies inside a maximal one), up to the first that contains it."""
    kept: list[Face] = []
    for _, group in groupby(sorted(faces, key=len, reverse=True), key=len):
        kept += [face for face in group if not any(face < other for other in kept)]
    return kept


def validate(scenario: MeasurementScenario) -> tuple[str, ...]:
    """Every violated scenario invariant, one problem each; () when there are
    none.  Construction runs this, so a scenario that exists has none."""
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
    problems += separator_problems("outcome label", scenario.outcomes)

    declared = set(scenario.observables)
    contexts = sorted(scenario.contexts, key=sorted)
    k = len(scenario.outcomes)
    for face in contexts:
        unknown = face - declared
        if unknown:
            problems.append(
                f"face {sorted(face)} uses undeclared observables {sorted(unknown)}"
            )
        if k ** len(face) > MAX_TABLE_ENTRIES:
            problems.append(
                f"context {sorted(face)} has {k}^{len(face)} joint outcomes, over "
                f"the supported {MAX_TABLE_ENTRIES}"
            )

    covered = set().union(*contexts)
    for obs in scenario.observables:
        if obs not in covered:
            problems.append(f"uncovered observable {obs!r} (appears in no face)")

    return tuple(problems)


def separator_problems(what: str, labels: Iterable[str]) -> list[str]:
    """One problem per label that contains SEPARATOR."""
    return [f"{what} {label!r} contains {SEPARATOR!r}, the joint-outcome separator"
            for label in labels if SEPARATOR in label]


def maximal_contexts(scenario: MeasurementScenario) -> list[Context]:
    """The scenario's `maximal` contexts, as a list of its own."""
    return list(scenario.maximal)


def cyclic_structure(scenario: MeasurementScenario) -> Optional[CyclicStructure]:
    """The scenario's `cycle`: every context has exactly 2 members, every
    observable lies in exactly 2 contexts, and the contexts form one cycle;
    None otherwise."""
    return scenario.cycle


def _shared_faces(contexts: Sequence[Context]) -> tuple[SharedFace, ...]:
    """`MeasurementScenario.shared_faces` of `contexts`: the pairs that
    share an observable are found through an index from observable to
    contexts, and grouped by what they share."""
    containing: dict[Observable, list[int]] = {}
    for k, ctx in enumerate(contexts):
        for obs in ctx:
            containing.setdefault(obs, []).append(k)
    pairs: dict[Context, list[tuple[int, int]]] = {}
    for i, first in enumerate(contexts):
        for j in sorted({j for obs in first for j in containing[obs] if j > i}):
            second = contexts[j]
            face = tuple([obs for obs in first if obs in second])
            at = pairs.get(face)
            if at is None:
                pairs[face] = [(i, j)]
            else:
                at.append((i, j))
    # a face that one pair shares is held by that pair alone
    return tuple([(face, at[0] if len(at) == 1 else tuple(sorted({k for ij in at for k in ij})),
                   tuple(at)) for face, at in pairs.items()])


def cycle_through(
    scenario: MeasurementScenario, contexts: Sequence[Context]
) -> Optional[CyclicStructure]:
    """The canonical cycle through `contexts`, the scenario's maximal
    contexts in any order, or None when they do not form one cycle.

    The ordering starts from the first declared observable and steps toward
    its neighbor declared first; the structure's contexts are the given
    tuples, in cycle order.  A scenario's `cycle` is this walk, which
    `cyclic_structure` and `cbd.CyclicSystem.from_model` both read, so the
    cycle a bootstrap arranges its tallies along is the one a report reads.
    """
    if any(len(ctx) != 2 for ctx in contexts):
        return None
    links: dict[Observable, list[tuple[Observable, Context]]] = {
        o: [] for o in scenario.observables}
    for ctx in contexts:
        a, b = ctx
        links[a].append((b, ctx))
        links[b].append((a, ctx))
    if any(len(adj) != 2 for adj in links.values()):
        return None

    index = scenario.index
    start = scenario.observables[0]
    left, right = links[start]
    current, ctx = left if index[left[0]] < index[right[0]] else right
    ordering, cycle = [start], [ctx]
    while current != start:
        ordering.append(current)
        left, right = links[current]
        current, ctx = right if left[1] == ctx else left
        cycle.append(ctx)
    if len(ordering) != len(scenario.observables):
        return None  # more than one cycle component
    return CyclicStructure(rank=len(ordering), ordering=tuple(ordering), contexts=tuple(cycle))
