import re

import pytest

from winoctx.files import load_json, load_schema, schema_from_dict
from winoctx.fixtures import fixture_path
from winoctx.ingest import aggregate
from winoctx.scenario import cyclic_structure, maximal_contexts, validate
from winoctx.schema import SchemaError, WinogradSchema, instantiate, observable_id, ws_scenario


def rebuilt(schema, **changes):
    """A schema made anew from `schema`'s fields, with `changes` applied."""
    fields = dict(noun_phrases=schema.noun_phrases, pronouns=schema.pronouns,
                  special=schema.special, alternate=schema.alternate, template=schema.template)
    return WinogradSchema(**{**fields, **changes})


def problems_of(build, *args, **kwargs):
    """The problems of the SchemaError that build(*args, **kwargs) raises."""
    with pytest.raises(SchemaError) as caught:
        build(*args, **kwargs)
    assert str(caught.value) == "; ".join(caught.value.problems)
    return caught.value.problems


@pytest.fixture(scope="module")
def councilmen():
    return load_schema(fixture_path("councilmen_schema.json"))


@pytest.fixture(scope="module")
def trophy():
    return load_schema(fixture_path("trophy_schema.json"))


@pytest.fixture(scope="module")
def trophy_generalised():
    return load_schema(fixture_path("trophy_generalised_schema.json"))


@pytest.fixture(scope="module")
def cannibal():
    return load_schema(fixture_path("cannibal_schema.json"))


def test_noun_phrase_holding_the_separator_reported(cannibal):
    # joint outcomes (a, a|a) and (a|a, a) would both be written a|a|a
    assert problems_of(rebuilt, cannibal, noun_phrases=("a", "a|a")) == (
        "noun phrase 'a|a' contains '|', the joint-outcome separator",)


def test_councilmen_scenario(councilmen):
    assert len(councilmen.pronouns) == 1
    assert rebuilt(councilmen) == councilmen  # made without a problem
    scenario = ws_scenario(councilmen)
    assert set(scenario.observables) == {"(they,feared)", "(they,advocated)"}
    assert scenario.outcomes == ("the city councilmen", "the demonstrators")
    assert validate(scenario) == ()


def test_trophy_ws_two_singleton_contexts(trophy):
    scenario = ws_scenario(trophy)
    contexts = maximal_contexts(scenario)
    assert len(contexts) == 2
    assert all(len(c) == 1 for c in contexts)
    assert cyclic_structure(scenario) is None


def test_trophy_generalised_contexts(trophy_generalised):
    assert len(trophy_generalised.pronouns) == 2
    scenario = ws_scenario(trophy_generalised)
    contexts = {frozenset(c) for c in maximal_contexts(scenario)}
    assert contexts == {
        frozenset({"(it1,small)", "(it2,light)"}),
        frozenset({"(it1,small)", "(it2,heavy)"}),
        frozenset({"(it1,large)", "(it2,light)"}),
        frozenset({"(it1,large)", "(it2,heavy)"}),
    }


def test_gws_scenario_is_rank_four_cycle(cannibal, trophy_generalised):
    for schema in (cannibal, trophy_generalised):
        scenario = ws_scenario(schema)
        assert validate(scenario) == ()
        structure = cyclic_structure(scenario)
        assert structure is not None
        assert structure.rank == 4


def test_shared_pronoun_text_is_allowed(cannibal):
    # both pronouns print as "one of them"; the four observables stay
    # distinct because the word half of the id differs
    assert cannibal.pronouns == ("one of them", "one of them")
    assert rebuilt(cannibal) == cannibal  # made without a problem
    scenario = ws_scenario(cannibal)
    assert len(set(scenario.observables)) == 4


SID_MARK_PROBLEMS = (
    "slot2 special/alternate words entries must be non-empty",
    "slot2 special/alternate words entries must differ, both are ''",
    "observable ids collide: ['(he,convince)', '(he,understand)', '(him,)', '(him,)']",
    "template has 0 of ${word2}, needs exactly 1",
)


def test_sid_mark_flagged_non_conforming():
    path = fixture_path("sid_mark_schema.json")
    assert problems_of(load_schema, path) == SID_MARK_PROBLEMS
    assert problems_of(schema_from_dict, load_json(path)) == SID_MARK_PROBLEMS


def test_problem_list_of_templates_without_markers(cannibal, councilmen):
    def unmarked(schema):
        return WinogradSchema(schema.noun_phrases, schema.pronouns, schema.special,
                              schema.alternate, template="no markers at all")

    assert problems_of(unmarked, cannibal) == (
        "template has 0 of ${word1}, needs exactly 1",
        "template has 0 of ${word2}, needs exactly 1",
        "template has 0 of ${pron1}, needs exactly 1",
        "template has 0 of ${pron2}, needs exactly 1",
    )
    assert problems_of(unmarked, councilmen) == (
        "template has 0 of ${word1}, needs exactly 1",
        "template has 0 of ${pron1}, needs exactly 1",
    )


@pytest.mark.parametrize("tail, marker", [
    (" $", "$"),
    (" ${word3}", "${word3}"),
    (" $word", "$word"),
], ids=["stray-dollar", "unknown-braced", "unknown-bare"])
def test_placeholders_instantiate_cannot_fill_are_reported(cannibal, tail, marker):
    problem = f"template has {marker!r}, not a marker (write $$ for a literal $)"
    template = cannibal.template + tail
    assert problems_of(rebuilt, cannibal, template=template) == (problem,)
    doc = {**load_json(fixture_path("cannibal_schema.json")), "template": template}
    assert problems_of(schema_from_dict, doc) == (problem,)


def test_markers_are_counted_as_instantiate_fills_them(cannibal, councilmen):
    # $$ is a literal $, so $${word1} is no marker; $word1 is one
    escaped = cannibal.template.replace("${word1}", "$${word1}") + " $$5"
    assert problems_of(rebuilt, cannibal, template=escaped) == (
        "template has 0 of ${word1}, needs exactly 1",)
    bare = rebuilt(  # made without a problem
        cannibal, template=cannibal.template.replace("${word1}", "$word1") + " $$5")
    assert instantiate(bare, "herbivorous", "alive").startswith(
        "A and B are animals of one herbivorous species.")
    assert instantiate(bare, "herbivorous", "alive").endswith(" $5")
    assert problems_of(rebuilt, councilmen,
                       template=councilmen.template + " $word2") == (
        "template has 1 of ${word2}, needs exactly 0",)


def test_ws_validation_requires_distinct_words(councilmen):
    assert problems_of(
        WinogradSchema,
        noun_phrases=councilmen.noun_phrases,
        pronouns=councilmen.pronouns,
        special=("feared",),
        alternate=("feared",),
        template=councilmen.template,
    ) == (
        "slot1 special/alternate words entries must differ, both are 'feared'",
        "observable ids collide: ['(they,feared)', '(they,feared)']",
    )


def test_single_message_errors_keep_their_text(councilmen, cannibal, trophy):
    for build, args, text in (
        (WinogradSchema, (councilmen.noun_phrases, (), (), (), councilmen.template),
         "pronouns, special and alternate need the same number of entries, "
         "1 to 2; got (0, 0, 0)"),
        (instantiate, (cannibal, "herbivorous"), "two-pronoun schema takes exactly two words"),
        (instantiate, (trophy, "small", "light"), "one-pronoun schema takes exactly one word"),
        (instantiate, (cannibal, "ravenous", "alive"), "'ravenous' is not the slot-1 "
         "special ('cannibalistic') or alternate ('herbivorous') word"),
        (aggregate, ((), trophy), "aggregation needs a two-pronoun schema"),
    ):
        assert problems_of(build, *args) == (text,)


@pytest.mark.parametrize("pronouns, special, alternate, shape", [
    ("they", "feared", "advocated", (4, 6, 9)),  # strings, not one entry per slot
    ((), (), (), (0, 0, 0)),
    (("a", "b", "c"), ("x", "y", "z"), ("u", "v", "w"), (3, 3, 3)),
    (("they",), ("feared", "hungry"), ("advocated",), (1, 2, 1)),
])
def test_malformed_slots_raise_on_construction(councilmen, pronouns, special,
                                               alternate, shape):
    with pytest.raises(SchemaError, match=re.escape(f"1 to 2; got {shape}")):
        WinogradSchema(councilmen.noun_phrases, pronouns, special, alternate,
                       councilmen.template)


def test_instantiate_special_special(cannibal):
    text = instantiate(cannibal, "cannibalistic", "hungry")
    assert "cannibalistic" in text
    assert "hungry" in text
    assert "${" not in text


def test_instantiate_alternate_alternate(cannibal):
    text = instantiate(cannibal, "herbivorous", "alive")
    assert "herbivorous" in text
    assert "alive" in text


def test_instantiate_is_deterministic(cannibal):
    first = instantiate(cannibal, "cannibalistic", "alive")
    second = instantiate(cannibal, "cannibalistic", "alive")
    assert first == second


def test_instantiate_rejects_unknown_word(cannibal):
    with pytest.raises(SchemaError):
        instantiate(cannibal, "ravenous", "hungry")
    with pytest.raises(SchemaError):
        instantiate(cannibal, "cannibalistic", "sleepy")


def test_instantiate_ws(trophy):
    text = instantiate(trophy, "small")
    assert "small" in text
    assert "it" in text
    with pytest.raises(SchemaError):
        instantiate(trophy, "tiny")


def test_observable_id_format():
    assert observable_id("it1", "small") == "(it1,small)"
