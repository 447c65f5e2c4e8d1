import json

import pytest

from winoctx.empirical import EmpiricalModelError
from winoctx.files import (
    FileFormatError,
    detect_kind,
    distributions_to_list,
    load_json,
    load_model,
    load_scenario,
    model_from_dict,
    save_scenario,
    scenario_from_dict,
    schema_from_dict,
)
from winoctx.fixtures import fixture_path
from winoctx.report import build_report
from winoctx.scenario import InvalidScenarioError

CHSH = {
    "observables": ["a1", "b1", "a2", "b2"],
    "contexts": [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]],
    "outcomes": ["0", "1"],
}


def chsh_model_doc(tables):
    """tables: context tuple -> probs dict with '|'-joined keys."""
    return {
        "scenario": dict(CHSH),
        "distributions": [
            {"context": list(ctx), "probs": dict(probs)}
            for ctx, probs in tables.items()
        ],
    }


def uniform_probs():
    return {"0|0": 0.25, "0|1": 0.25, "1|0": 0.25, "1|1": 0.25}


def test_scenario_round_trip(tmp_path):
    scenario = load_scenario(fixture_path("chsh_scenario.json"))
    out = tmp_path / "scenario.json"
    save_scenario(scenario, out)
    assert load_scenario(out) == scenario


def test_model_and_report_write_the_same_distribution_rows():
    model = load_model(fixture_path("cannibal_judgment_model.json"))
    rows = distributions_to_list(model)
    assert rows[0] == {"context": ["(one of them,cannibalistic)", "(one of them,hungry)"],
                       "probs": {"A|A": 0.4025, "A|B": 0.0975, "B|A": 0.0975, "B|B": 0.4025}}
    assert build_report(model).to_dict()["distributions"] == rows


def test_outcome_label_holding_the_separator_is_named_before_prob_keys():
    # "x|y|x|y" would split into four labels; the scenario is the fault
    doc = {"scenario": {"observables": ["p", "q"], "contexts": [["p", "q"]],
                        "outcomes": ["x|y", "z"]},
           "distributions": [{"context": ["p", "q"],
                              "probs": {"x|y|x|y": 0.5, "z|z": 0.5}}]}
    with pytest.raises(InvalidScenarioError, match="joint-outcome separator"):
        model_from_dict(doc)


def test_detect_kind():
    assert detect_kind(chsh_model_doc({})) == "model"
    assert detect_kind(dict(CHSH)) == "scenario"
    assert detect_kind(load_json(fixture_path("councilmen_schema.json"))) == "schema"
    with pytest.raises(FileFormatError, match="cannot tell"):
        detect_kind({"contents": []})


def test_fixture_path_refuses_an_unknown_name_and_lists_the_bundled_ones():
    with pytest.raises(FileNotFoundError) as caught:
        fixture_path("no_such_fixture.json")
    bundled = sorted(p.name for p in fixture_path("chsh_scenario.json").parent.iterdir())
    assert str(caught.value) == (
        f"no fixture 'no_such_fixture.json'; bundled: {', '.join(bundled)}")


def test_rounding_artifact_rows_are_rescaled():
    rounded = {"0|0": 0.044, "0|1": 0.455, "1|0": 0.455, "1|1": 0.044}
    tables = {
        ("a1", "b1"): rounded,
        ("a1", "b2"): uniform_probs(),
        ("b1", "a2"): uniform_probs(),
        ("a2", "b2"): uniform_probs(),
    }
    model = model_from_dict(chsh_model_doc(tables))
    dist = model.distribution(("a1", "b1"))
    total = 0.044 + 0.455 + 0.455 + 0.044
    assert dist.prob(("0", "0")) == 0.044 / total
    assert dist.prob(("0", "1")) == 0.455 / total
    # rows already summing to 1 are not touched at all
    exact = model.distribution(("a1", "b2"))
    assert exact.prob(("0", "0")) == 0.25


def test_out_of_band_rows_are_not_repaired():
    bad = {"0|0": 0.5, "0|1": 0.2, "1|0": 0.1, "1|1": 0.1}  # sums to 0.9
    tables = {
        ("a1", "b1"): bad,
        ("a1", "b2"): uniform_probs(),
        ("b1", "a2"): uniform_probs(),
        ("a2", "b2"): uniform_probs(),
    }
    with pytest.raises(EmpiricalModelError):
        model_from_dict(chsh_model_doc(tables))


def test_scenario_path_resolves_relative_to_model_file(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "scn.json").write_text(json.dumps(CHSH))
    doc = chsh_model_doc(
        {ctx: uniform_probs() for ctx in (("a1", "b1"), ("a1", "b2"), ("b1", "a2"), ("a2", "b2"))}
    )
    doc["scenario"] = "scn.json"
    (sub / "model.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)  # not the directory holding scn.json
    model = load_model(sub / "model.json")
    assert model.scenario.observables == ("a1", "b1", "a2", "b2")


def test_sparse_probs_default_to_zero():
    half = {"0|0": 0.5, "1|1": 0.5}
    tables = {
        ("a1", "b1"): half,
        ("a1", "b2"): half,
        ("b1", "a2"): half,
        ("a2", "b2"): {"0|1": 0.5, "1|0": 0.5},
    }
    model = model_from_dict(chsh_model_doc(tables))
    assert model.distribution(("a1", "b1")).prob(("0", "1")) == 0.0
    assert model.distribution(("a2", "b2")).prob(("0", "0")) == 0.0


def test_context_listed_out_of_order_is_canonicalized():
    asym = {"0|0": 0.6, "0|1": 0.1, "1|0": 0.2, "1|1": 0.1}
    tables = {
        ("a1", "b1"): uniform_probs(),
        ("a1", "b2"): uniform_probs(),
        ("a2", "b1"): asym,  # declaration order is ("b1", "a2")
        ("a2", "b2"): uniform_probs(),
    }
    model = model_from_dict(chsh_model_doc(tables))
    dist = model.distribution(("b1", "a2"))
    # key "x|y" was (a2=x, b1=y); canonical table is keyed (b1, a2)
    assert dist.prob(("1", "0")) == 0.1
    assert dist.prob(("0", "1")) == 0.2
    assert dist.prob(("0", "0")) == 0.6


def test_same_context_twice_is_rejected_even_across_orderings():
    doc = chsh_model_doc(
        {
            ("a1", "b1"): uniform_probs(),
            ("a1", "b2"): uniform_probs(),
            ("b1", "a2"): uniform_probs(),
            ("a2", "b2"): uniform_probs(),
        }
    )
    doc["distributions"].append(
        {"context": ["b1", "a1"], "probs": uniform_probs()}
    )
    with pytest.raises(FileFormatError, match="two distributions"):
        model_from_dict(doc)


def test_garbled_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"observables": ["a1",')
    with pytest.raises(FileFormatError, match="JSON"):
        load_json(path)
    array = tmp_path / "array.json"
    array.write_text("[1, 2, 3]")
    with pytest.raises(FileFormatError, match="top level"):
        load_json(array)


def test_path_holding_a_nul_byte_is_a_format_error_naming_it(tmp_path):
    path = tmp_path / "a\x00b.json"
    with pytest.raises(FileFormatError) as exc:
        load_json(path)
    assert str(exc.value) == f"embedded null byte: {str(path)!r}"


def test_repeated_key_is_refused_in_every_kind_of_document(tmp_path):
    docs = {
        "model": ('{"scenario": "chsh.json", "distributions": [{"context": ["a1", "b1"], '
                  '"probs": {"x|x": 0.9, "x|x": 0.5, "y|y": 0.5}}]}', "x|x"),
        "scenario": ('{"observables": ["p"], "contexts": [["p"]], "contexts": [], '
                     '"outcomes": ["0", "1"]}', "contexts"),
        "schema": ('{"noun_phrases": ["a", "b"], "template": "x", "template": "y"}',
                   "template"),
    }
    for kind, (text, key) in docs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(text)
        with pytest.raises(FileFormatError) as exc:
            load_json(path)
        assert str(exc.value) == f"{path}: key {key!r} repeated in one object"
    # the same key in two objects is no repeat
    path.write_text('{"a": {"k": 1}, "b": {"k": 2}}')
    assert load_json(path) == {"a": {"k": 1}, "b": {"k": 2}}


def test_bad_prob_entries():
    base = {
        ("a1", "b1"): uniform_probs(),
        ("a1", "b2"): uniform_probs(),
        ("b1", "a2"): uniform_probs(),
        ("a2", "b2"): uniform_probs(),
    }
    doc = chsh_model_doc(base)
    doc["distributions"][0]["probs"] = {"0|0|0": 1.0}
    with pytest.raises(FileFormatError, match="outcomes for the"):
        model_from_dict(doc)
    doc = chsh_model_doc(base)
    doc["distributions"][0]["probs"] = {"0|0": "a quarter"}
    with pytest.raises(FileFormatError, match="not a number"):
        model_from_dict(doc)
    doc = chsh_model_doc(base)
    doc["distributions"][0]["probs"] = {"0|0": True}
    with pytest.raises(FileFormatError, match="not a number"):
        model_from_dict(doc)
    doc = chsh_model_doc(base)
    doc["scenario"] = 42
    with pytest.raises(FileFormatError, match="inline object or a path"):
        model_from_dict(doc)


def test_schema_dispatch_on_pronoun_count():
    ws = load_json(fixture_path("trophy_schema.json"))
    assert len(schema_from_dict(ws).pronouns) == 1
    gws = load_json(fixture_path("trophy_generalised_schema.json"))
    assert len(schema_from_dict(gws).pronouns) == 2
    three = dict(gws)
    three["pronouns"] = ["it", "it", "it"]
    with pytest.raises(FileFormatError, match="1 or 2"):
        schema_from_dict(three)
    wrong_slots = dict(ws)
    wrong_slots["words"] = {"slot1": {"special": "x", "alternate": "y"}, "slot2": {}}
    with pytest.raises(FileFormatError, match="slot1 only"):
        schema_from_dict(wrong_slots)


def test_missing_keys_are_reported_by_name():
    with pytest.raises(FileFormatError, match="'outcomes'"):
        scenario_from_dict({k: v for k, v in CHSH.items() if k != "outcomes"})
    with pytest.raises(FileFormatError, match="'distributions'"):
        model_from_dict({"scenario": dict(CHSH)})
    with pytest.raises(FileFormatError, match="'template'"):
        schema_from_dict({"noun_phrases": [], "pronouns": [], "words": {}})


def test_saved_files_end_with_newline(tmp_path):
    scenario = load_scenario(fixture_path("chsh_scenario.json"))
    out = tmp_path / "scenario.json"
    save_scenario(scenario, out)
    assert out.read_bytes().endswith(b"\n")
