"""Ambiguous-discourse schemas and their compilation to measurement scenarios.

A schema has one or two pronoun slots, each with a special and an alternate
word.  A version of the discourse picks one word per slot, and its context
is the version's (pronoun, word) observables, so the contexts are the
product of the slots' word choices.  One slot gives two observables that
can never be measured together (two disjoint singleton contexts): a judge
sees either the special or the alternate wording, never both.  Two slots
pair each slot-1 wording with each slot-2 wording, which yields four
two-element contexts arranged in a cycle of rank 4.

Observables are identified as "(pronoun,word)".  Outcomes are the two noun
phrases the pronouns can refer to, first phrase mapping to +1 (the sign
convention of `cbd`), so neither may contain `scenario.SEPARATOR`.  Templates
carry slot markers ${word1}/${word2} and pronoun markers ${pron1}/${pron2},
read as `string.Template` placeholders: construction refuses a stray '$' and
any other placeholder, so every schema instantiates.
"""

from __future__ import annotations

from itertools import product
from string import Template

from .scenario import Context, Frozen, MeasurementScenario, ProblemsError, separator_problems

# slot counts spelled out; a schema has 1 to MAX_SLOTS pronoun slots
_COUNTS = ("one", "two")
MAX_SLOTS = len(_COUNTS)


class SchemaError(ProblemsError):
    """The schema violates a structural requirement."""


def flavor_of(slots: int) -> str:
    """'one-pronoun' or 'two-pronoun'."""
    return f"{_COUNTS[slots - 1]}-pronoun"


class WinogradSchema(Frozen):
    """Slot i has pronoun pronouns[i] and words special[i]/alternate[i].
    Made only valid: construction raises SchemaError listing every problem."""

    def __init__(self, noun_phrases: tuple[str, str], pronouns: tuple[str, ...],
                 special: tuple[str, ...], alternate: tuple[str, ...], template: str):
        shape = (len(pronouns), len(special), len(alternate))
        if not 1 <= shape[0] <= MAX_SLOTS or len(set(shape)) != 1:
            raise SchemaError(f"pronouns, special and alternate need the same "
                              f"number of entries, 1 to {MAX_SLOTS}; got {shape}")
        super().__init__(noun_phrases=noun_phrases, pronouns=pronouns, special=special,
                         alternate=alternate, template=template)
        if problems := _validate_ws(self):
            raise SchemaError(*problems)

    @property
    def flavor(self) -> str:
        return flavor_of(len(self.pronouns))


def observable_id(pronoun: str, word: str) -> str:
    return f"({pronoun},{word})"


def _observables(schema: WinogradSchema) -> list[str]:
    """Slot by slot, the special word's observable before the alternate's."""
    return [
        observable_id(pronoun, word)
        for pronoun, special, alternate in zip(schema.pronouns, schema.special,
                                               schema.alternate)
        for word in (special, alternate)
    ]


def _check_pair(label: str, pair: tuple[str, str], problems: list[str]) -> None:
    a, b = pair
    if not a or not b:
        problems.append(f"{label} entries must be non-empty")
    if a == b:
        problems.append(f"{label} entries must differ, both are {a!r}")


def _validate_ws(schema: WinogradSchema) -> list[str]:
    problems: list[str] = []
    _check_pair("noun_phrases", schema.noun_phrases, problems)
    problems += separator_problems("noun phrase", schema.noun_phrases)
    # the two pronouns may be the same surface string (subscripts in print);
    # only the (pronoun, word) ids must stay distinct
    if not all(schema.pronouns):
        problems.append("pronouns must be non-empty")
    for slot, pair in enumerate(zip(schema.special, schema.alternate), start=1):
        _check_pair(f"slot{slot} special/alternate words", pair, problems)
    ids = _observables(schema)
    if len(set(ids)) != len(ids):
        problems.append(f"observable ids collide: {ids}")
    want = {f"{kind}{slot}": int(slot <= len(schema.pronouns))
            for kind in ("word", "pron") for slot in range(1, MAX_SLOTS + 1)}
    # placeholders as `instantiate` reads them: it fills these markers only
    found = dict.fromkeys(want, 0)
    for match in Template.pattern.finditer(schema.template):
        name = match["named"] or match["braced"]
        if name in found:
            found[name] += 1
        elif match["escaped"] is None:
            problems.append(f"template has {match[0]!r}, not a marker "
                            "(write $$ for a literal $)")
    problems += [f"template has {got} of ${{{name}}}, needs exactly {want[name]}"
                 for name, got in found.items() if got != want[name]]
    return problems


def version_contexts(schema: WinogradSchema) -> dict[tuple[str, ...], Context]:
    """Each version of the discourse (one word per slot) and its context."""
    return {
        words: tuple(observable_id(p, w) for p, w in zip(schema.pronouns, words))
        for words in product(*zip(schema.special, schema.alternate))
    }


def ws_scenario(schema: WinogradSchema) -> MeasurementScenario:
    """One maximal context per version: two singletons for one slot, a
    rank-4 cycle for two."""
    return MeasurementScenario.from_maximal(
        observables=_observables(schema),
        maximal_faces=tuple(version_contexts(schema).values()),
        outcomes=schema.noun_phrases,
    )


def instantiate(schema: WinogradSchema, *words: str) -> str:
    """The discourse text for one version (one word per slot)."""
    n = len(schema.pronouns)
    if len(words) != n:
        count = f"{_COUNTS[n - 1]} word" + ("s" if n > 1 else "")
        raise SchemaError(f"{schema.flavor} schema takes exactly {count}")
    slots = {}
    for slot, (pronoun, special, alternate, word) in enumerate(
        zip(schema.pronouns, schema.special, schema.alternate, words), start=1
    ):
        if word not in (special, alternate):
            raise SchemaError(
                f"{word!r} is not the slot-{slot} special ({special!r}) "
                f"or alternate ({alternate!r}) word"
            )
        slots[f"word{slot}"] = word
        slots[f"pron{slot}"] = pronoun
    return Template(schema.template).substitute(slots)
