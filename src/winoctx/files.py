"""Reading the JSON-shaped file formats, and writing scenarios.

Three kinds of documents are read; only scenarios are written, as
`winoctx schema --compile --out` does:

  scenario  {"observables": [..], "contexts": [[..]], "outcomes": [..]}
  model     {"scenario": <inline scenario or relative path>,
             "distributions": [{"context": [..], "probs": {"A|B": 0.25, ..}}]}
  schema    {"noun_phrases": [..], "pronouns": [..],
             "words": {"slot1": {"special":.., "alternate":..}, "slot2": {..}},
             "template": ".."}

Joint-outcome keys join outcome labels with scenario.SEPARATOR "|" in
context member order.
Structural problems (wrong shapes, bad keys, unparseable JSON, a key
repeated in one object, a document of one kind read where another belongs)
raise FileFormatError; semantic problems (oversized contexts, too many
faces, bad probabilities) surface from the domain modules so callers can
tell the two apart.  Scenarios, schemas and models are checked when
made, so their problems surface on load; a model's scenario is made before
its distributions are read, so an invalid one is the fault a model names.
Files are UTF-8, with or without a leading byte-order mark.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .empirical import PROB_TOL, EmpiricalModel
from .scenario import SEPARATOR, MeasurementScenario, maximal_contexts

if TYPE_CHECKING:
    from .schema import WinogradSchema

RENORM_BAND = 1e-2  # rows off by at most this much are rescaled on load


class FileFormatError(ValueError):
    """Structural problem: the document does not have the advertised shape."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FileFormatError(message)


def _string_list(value: Any, what: str) -> list[str]:
    _require(isinstance(value, list), f"{what} must be a list")
    _require(all(isinstance(v, str) for v in value), f"{what} must hold strings")
    return list(value)


def load_json(path) -> dict:
    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        doc = dict(pairs)  # keeps only the last value of a repeated key
        if len(doc) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise FileFormatError(f"{path}: key {key!r} repeated in one object")
        return doc

    try:
        fh = open(path, encoding="utf-8-sig")
    except ValueError as exc:  # a path holding a NUL byte, which no file has
        raise FileFormatError(f"{exc}: {str(path)!r}") from exc
    with fh:
        try:
            doc = json.load(fh, object_pairs_hook=unique_keys)
        except FileFormatError:  # a repeated key
            raise
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc
        except ValueError as exc:  # malformed, or an integer too long to convert
            raise FileFormatError(f"{path}: not parseable as JSON: {exc}") from exc
        except RecursionError:
            raise FileFormatError(f"{path}: nested too deeply to parse") from None
    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    return doc


def detect_kind(doc: dict) -> str:
    if "distributions" in doc:
        return "model"
    if "template" in doc or "words" in doc:
        return "schema"
    if "observables" in doc and "contexts" in doc:
        return "scenario"
    raise FileFormatError(
        "cannot tell what this document is: expected distributions (model), "
        "template/words (schema), or observables+contexts (scenario)"
    )


def require_kind(doc: dict, kind: str, path) -> dict:
    """`doc`, read from `path` where a `kind` document belongs, unless
    `detect_kind` tells it is another kind.  One it cannot tell is returned,
    so that its reader names the key it lacks."""
    try:
        found = detect_kind(doc)
    except FileFormatError:
        return doc
    _require(found == kind, f"{path} is a {found} document, not a {kind} document")
    return doc


# -- scenarios ---------------------------------------------------------------

def scenario_from_dict(doc: dict) -> MeasurementScenario:
    for key in ("observables", "contexts", "outcomes"):
        _require(key in doc, f"scenario document lacks {key!r}")
    observables = _string_list(doc["observables"], "observables")
    outcomes = _string_list(doc["outcomes"], "outcomes")
    _require(isinstance(doc["contexts"], list), "contexts must be a list of lists")
    faces = [_string_list(face, "each context") for face in doc["contexts"]]
    return MeasurementScenario.from_maximal(observables, faces, outcomes)


def scenario_to_dict(scenario: MeasurementScenario) -> dict:
    return {
        "observables": list(scenario.observables),
        "contexts": [list(ctx) for ctx in maximal_contexts(scenario)],
        "outcomes": list(scenario.outcomes),
    }


def load_scenario(path) -> MeasurementScenario:
    return scenario_from_dict(require_kind(load_json(path), "scenario", path))


def save_scenario(scenario: MeasurementScenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")


# -- models ------------------------------------------------------------------

def _parse_probs(raw: Any, context: tuple[str, ...]) -> dict[tuple[str, ...], float]:
    _require(isinstance(raw, dict), f"probs of context {context} must be an object")
    probs: dict[tuple[str, ...], float] = {}
    for key, value in raw.items():
        _require(isinstance(key, str), f"prob key {key!r} must be a string")
        joint = tuple(key.split(SEPARATOR))
        _require(
            len(joint) == len(context),
            f"prob key {key!r} has {len(joint)} outcomes for the "
            f"{len(context)}-member context {context}",
        )
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"prob {key!r} of context {context} is not a number",
        )
        try:
            prob = float(value)
        except OverflowError:
            raise FileFormatError(
                f"prob {key!r} of context {context} is too large for a float"
            ) from None
        _require(math.isfinite(prob), f"prob {key!r} of context {context} is not finite")
        probs[joint] = prob
    return probs


def _renormalize(probs: dict[tuple[str, ...], float]) -> dict[tuple[str, ...], float]:
    """Rescale rows that miss 1 by a rounding-artifact amount (published
    tables often sum to 0.998); rows already within validation tolerance
    are left untouched bit-for-bit."""
    try:
        total = math.fsum(probs.values())
    except OverflowError:  # entries near the float limit; the range check rejects them
        return probs
    if total > 0 and PROB_TOL < abs(total - 1.0) <= RENORM_BAND:
        return {k: v / total for k, v in probs.items()}
    return probs


def model_from_dict(doc: dict, base_dir=None) -> EmpiricalModel:
    _require("scenario" in doc, "model document lacks 'scenario'")
    _require("distributions" in doc, "model document lacks 'distributions'")
    raw_scenario = doc["scenario"]
    if isinstance(raw_scenario, str):
        base = Path(base_dir) if base_dir is not None else Path(".")
        scenario = load_scenario(base / raw_scenario)
    elif isinstance(raw_scenario, dict):
        scenario = scenario_from_dict(raw_scenario)
    else:
        raise FileFormatError("'scenario' must be an inline object or a path string")

    _require(isinstance(doc["distributions"], list), "'distributions' must be a list")
    index = scenario.index
    tables = {}
    for entry in doc["distributions"]:
        _require(isinstance(entry, dict), "each distribution must be an object")
        _require("context" in entry and "probs" in entry,
                 "each distribution needs 'context' and 'probs'")
        listed = tuple(_string_list(entry["context"], "distribution context"))
        probs = _renormalize(_parse_probs(entry["probs"], listed))
        # prob keys follow the order the file listed the context in; store
        # under the scenario's declaration order, permuting keys to match
        order = sorted(range(len(listed)), key=lambda i: index.get(listed[i], len(index)))
        context = tuple(listed[i] for i in order)
        if context != listed:
            probs = {tuple(joint[i] for i in order): p for joint, p in probs.items()}
        _require(context not in tables, f"two distributions for context {context}")
        tables[context] = probs
    return EmpiricalModel.build(scenario, tables)


def distributions_to_list(model: EmpiricalModel) -> list[dict]:
    """The "distributions" rows of a model document."""
    return [
        {"context": list(dist.context),
         "probs": {SEPARATOR.join(joint): p for joint, p in dist.table.items()}}
        for dist in model.distributions
    ]


def load_model(path) -> EmpiricalModel:
    return model_from_dict(require_kind(load_json(path), "model", path),
                           base_dir=Path(path).parent)


# -- schemas -----------------------------------------------------------------

def _word_pair(doc: dict, slot: str) -> tuple[str, str]:
    raw = doc.get(slot)
    _require(isinstance(raw, dict), f"words.{slot} must be an object")
    for key in ("special", "alternate"):
        _require(key in raw, f"words.{slot} lacks {key!r}")
        _require(isinstance(raw[key], str), f"words.{slot}.{key} must be a string")
    return raw["special"], raw["alternate"]


def schema_from_dict(doc: dict) -> WinogradSchema:
    from .schema import MAX_SLOTS, WinogradSchema, flavor_of  # only schema files need it

    for key in ("noun_phrases", "pronouns", "words", "template"):
        _require(key in doc, f"schema document lacks {key!r}")
    nps = _string_list(doc["noun_phrases"], "noun_phrases")
    _require(len(nps) == 2, "noun_phrases must have exactly 2 entries")
    pronouns = _string_list(doc["pronouns"], "pronouns")
    _require(isinstance(doc["template"], str), "template must be a string")
    words = doc["words"]
    _require(isinstance(words, dict), "words must be an object")
    n = len(pronouns)
    _require(1 <= n <= MAX_SLOTS, f"pronouns must have 1 or {MAX_SLOTS} entries, got {n}")
    slots = [f"slot{i}" for i in range(1, n + 1)]
    needs = " and ".join(f"words.{slot}" for slot in slots)
    _require(set(words) == set(slots),
             f"{flavor_of(n)} schema needs {needs}" + (" only" if n == 1 else ""))
    special, alternate = zip(*(_word_pair(words, slot) for slot in slots))
    return WinogradSchema(
        noun_phrases=(nps[0], nps[1]),
        pronouns=tuple(pronouns),
        special=special,
        alternate=alternate,
        template=doc["template"],
    )


def load_schema(path) -> WinogradSchema:
    return schema_from_dict(require_kind(load_json(path), "schema", path))
