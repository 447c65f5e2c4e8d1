"""The command line where a golden record cannot see.

tests/test_golden.py records the whole output of every command on its
table of inputs, and a behaviour one of its records pins is not asserted
again here.  This module holds what a record cannot see:

- commands on inputs that no golden case runs, built per test;
- call-through to the names `cli` binds for wrappers to replace (the
  hooked names);
- the modules, threads and collector state of a fresh process: one probe
  script runs each row of the table LOADED_BY in its own interpreter;
- monkeypatched proofs that nothing was drawn or enumerated before a
  refusal;
- statistical checks over many seeds.
"""

import ast
import gc
import itertools
import json
import os
import signal
import statistics
import sys
from pathlib import Path

import pytest

import winoctx
from conftest import SMALL_N_RESPONSES, python_process
from winoctx.bootstrap import MAX_RESAMPLES, BootstrapConfig, cycle_order_tallies, run
from winoctx.cli import main
from winoctx.files import FileFormatError, load_model, load_schema, scenario_from_dict
from winoctx.fixtures import fixture_path
from winoctx.ingest import aggregate, parse_responses
from winoctx.schema import ws_scenario


def fx(name):
    return str(fixture_path(name))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_reports_semantic_problems(tmp_path, capsys):
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps({
        "observables": ["a1", "b1", "x"],
        "contexts": [["a1", "b1"]],
        "outcomes": ["0", "1"],
    }))
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "uncovered observable 'x'" in err
    assert out == ""


def test_validate_and_instantiate_agree_on_a_stray_placeholder(tmp_path, capsys):
    doc = json.loads(fixture_path("cannibal_schema.json").read_text(encoding="utf-8"))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({**doc, "template": doc["template"] + " ${word3}"}),
                      encoding="utf-8")
    problem = "template has '${word3}', not a marker (write $$ for a literal $)"
    assert run_cli(capsys, "validate", str(schema)) == (1, "", problem + "\n")
    assert run_cli(capsys, "schema", str(schema), "--instantiate", "cannibalistic",
                   "alive") == (1, "", f"error: {problem}\n")


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_garbled_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "JSON" in err


def uniform_three_outcome_cycle(path):
    """Write the uniform model on a rank-4 cycle with three outcomes."""
    outcomes = ["0", "1", "2"]
    uniform = {f"{a}|{b}": 1 / 9 for a in outcomes for b in outcomes}
    contexts = [["a1", "b1"], ["b1", "a2"], ["a2", "b2"], ["a1", "b2"]]
    doc = {
        "scenario": {"observables": ["a1", "b1", "a2", "b2"],
                     "contexts": contexts, "outcomes": outcomes},
        "distributions": [{"context": c, "probs": uniform} for c in contexts],
    }
    path.write_text(json.dumps(doc))
    return path


def test_analyze_three_outcome_cycle_omits_cbd_with_notice(tmp_path, capsys):
    path = uniform_three_outcome_cycle(tmp_path / "model.json")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert "cyclic" not in report
    assert report["contextual_fraction"]["cf"] == 0.0
    assert any("binary outcome set" in n and "CbD measures omitted" in n
               for n in report["notices"])


@pytest.mark.parametrize("value, message", [
    ("NaN", "not finite"),
    ("1" + "0" * 400, "too large"),
])
def test_analyze_rejects_non_finite_probability(tmp_path, capsys, value, message):
    path = tmp_path / "model.json"
    path.write_text(
        fixture_path("uniform_model.json").read_text(encoding="utf-8")
        .replace("0.25", value, 1)
        .replace('"chsh_scenario.json"', json.dumps(fx("chsh_scenario.json")))
    )
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_must_be_finite_and_non_negative(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", fx("pr_box_model.json"), "--tol", tol])
    assert exc.value.code == 2
    assert "argument --tol" in capsys.readouterr().err


def test_zero_tol_still_reports(capsys):
    code, out, _ = run_cli(capsys, "analyze", fx("pr_box_model.json"), "--tol", "0")
    assert code == 0
    assert "(non-signalling at tol 0)" in out
    assert "sheaf contextual: yes" in out


@pytest.mark.parametrize("command", ["analyze-model", "analyze-responses", "bootstrap"])
def test_undecodable_input_is_unreadable(tmp_path, capsys, command):
    model = tmp_path / "model.json"
    model.write_bytes(b"\xff\xfe{}")
    responses = tmp_path / "responses.csv"
    responses.write_bytes(
        b"respondent_id,word1,word2,pick1,pick2\nr\xff,cannibalistic,hungry,AA,BB\n"
    )
    argv, bad = {
        "analyze-model": (["analyze", str(model)], model),
        "analyze-responses": (["analyze", "--responses", str(responses),
                               "--schema", fx("cannibal_schema.json")], responses),
        "bootstrap": (["bootstrap", str(responses), fx("cannibal_schema.json"),
                       "--samples", "10"], responses),
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: not UTF-8 text:")


def test_validate_refuses_oversized_face_without_completing_it(tmp_path, capsys):
    names = [f"x{i}" for i in range(17)]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"observables": names, "contexts": [names],
                                "outcomes": ["0", "1"]}))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert "17 observables exceed the supported 16" in err


def test_validate_refuses_a_scenario_over_the_face_cap(tmp_path, capsys):
    names = [f"x{i}" for i in range(16)]
    faces = [list(face) for face in itertools.combinations(names, 5)][:1025]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"observables": names, "contexts": faces,
                                "outcomes": ["0", "1"]}))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err == "1025 faces exceed the supported 1024\n"


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_oversized_table_exits_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                  command):
    def enumerate_outcomes(*args):
        raise AssertionError("joint outcomes of an oversized context were enumerated")

    monkeypatch.setattr("winoctx.empirical.outcome_tuples", enumerate_outcomes)
    names = [f"x{i}" for i in range(8)]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "scenario": {"observables": names, "contexts": [names],
                     "outcomes": list("abcdef")},
        "distributions": [{"context": names, "probs": {"|".join("a" * 8): 1.0}}],
    }))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err == (f"error: context {sorted(names)} has 6^8 joint outcomes, "
                   "over the supported 65536\n")


def nested(key, depth=200_000):
    return "{" + json.dumps(key) + ": " + "[" * depth + "]" * depth + "}"


@pytest.mark.parametrize("command", ["analyze-model", "validate-scenario-path",
                                     "bootstrap-schema"])
def test_deeply_nested_json_is_unreadable(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    if command == "analyze-model":
        deep.write_text(nested("distributions"))
        argv = ["analyze", str(deep)]
    elif command == "validate-scenario-path":
        deep.write_text(nested("observables"))
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"scenario": "deep.json", "distributions": []}))
        argv = ["validate", str(model)]
    else:
        deep.write_text(nested("words"))
        argv = ["bootstrap", fx("cannibal_responses.csv"), str(deep), "--samples", "10"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {deep}: nested too deeply to parse\n"


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                    reason="integer string conversion has no digit limit")
@pytest.mark.parametrize("command", ["validate-scenario", "analyze-model", "bootstrap-schema"])
def test_integer_over_the_digit_limit_is_unparseable(tmp_path, capsys, command):
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValueError) as limit:
        int(digits)
    big = tmp_path / "big.json"
    scenario = '{"observables": ["p"], "contexts": [["p"]], "outcomes": ["x", %s]}'
    if command == "validate-scenario":
        big.write_text(scenario % digits)
        argv = ["validate", str(big)]
    elif command == "analyze-model":
        big.write_text('{"scenario": %s, "distributions": [{"context": ["p"], '
                       '"probs": {"x": %s}}]}' % (scenario % '"y"', digits))
        argv = ["analyze", str(big)]
    else:
        schema = fixture_path("cannibal_schema.json").read_text(encoding="utf-8")
        big.write_text(schema.replace('"pronouns": [', '"pronouns": [%s, ' % digits, 1))
        argv = ["bootstrap", fx("cannibal_responses.csv"), str(big), "--samples", "10"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {big}: not parseable as JSON: {limit.value}\n"


@pytest.mark.parametrize("command", ["validate", "analyze", "bootstrap"])
def test_oversized_csv_field_is_unreadable(tmp_path, capsys, command):
    responses = tmp_path / "responses.csv"
    responses.write_text("respondent_id,word1,word2,pick1,pick2\n"
                         "r1,cannibalistic,hungry,AA,BB\n"
                         f"r2,{'c' * 200_000},hungry,AA,BB\n")
    argv = {
        "validate": ["validate", str(responses)],
        "analyze": ["analyze", "--responses", str(responses),
                    "--schema", fx("cannibal_schema.json")],
        "bootstrap": ["bootstrap", str(responses), fx("cannibal_schema.json"),
                      "--samples", "10"],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (f"error: {responses}: line 3: "
                   "field larger than field limit (131072)\n")


@pytest.fixture
def refuse_draws(monkeypatch):
    """Makes every block of bootstrap draws raise, and checks that a run draws
    through the patched function."""
    def draw(*args):
        raise AssertionError("resamples were drawn")

    monkeypatch.setattr("winoctx.bootstrap._draw_correlations", draw)
    with pytest.raises(AssertionError, match="resamples were drawn"):
        main(["bootstrap", fx("cannibal_responses.csv"), fx("cannibal_schema.json"),
              "--samples", "1"])


def test_bootstrap_samples_over_the_cap_exit_before_drawing(capsys, refuse_draws):
    code, out, err = run_cli(capsys, "bootstrap", fx("cannibal_responses.csv"),
                             fx("cannibal_schema.json"),
                             "--samples", str(MAX_RESAMPLES + 1))
    assert code == 1
    assert out == ""
    assert err == (f"error: n_resamples {MAX_RESAMPLES + 1} exceeds the cap of "
                   f"{MAX_RESAMPLES} draws\n")
    assert BootstrapConfig(n_resamples=MAX_RESAMPLES).n_resamples == MAX_RESAMPLES


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_byte_order_mark_is_accepted(tmp_path, capsys, fmt):
    fixtures = fixture_path("uniform_model.json").parent
    for name in ("cannibal_responses.csv", "cannibal_schema.json",
                 "uniform_model.json", "chsh_scenario.json"):
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (fixtures / name).read_bytes())
    for files in (("--responses", "cannibal_responses.csv", "--schema", "cannibal_schema.json"),
                  ("uniform_model.json",)):
        def analyze(base):
            return run_cli(capsys, "analyze", "--format", fmt,
                           *(f if f.startswith("--") else str(base / f) for f in files))

        original = analyze(fixtures)
        assert original[0] == 0
        assert analyze(tmp_path) == original


def test_compile_and_analyze_share_context_labels(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "schema", fx("cannibal_schema.json"), "--compile")
    assert code == 0
    compiled = json.loads(out)
    code, out, _ = run_cli(capsys, "analyze",
                           "--responses", fx("cannibal_responses.csv"),
                           "--schema", fx("cannibal_schema.json"),
                           "--format", "json")
    assert code == 0
    analyzed = json.loads(out)
    assert sorted(map(tuple, compiled["contexts"])) == sorted(
        tuple(d["context"]) for d in analyzed["distributions"]
    )


def test_analyze_refuses_model_plus_responses(capsys):
    code, _, err = run_cli(capsys, "analyze", fx("uniform_model.json"),
                           "--responses", fx("cannibal_responses.csv"))
    assert code == 2
    assert "either a model file or --responses" in err


def test_analyze_needs_some_input(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 2
    assert "need a model file" in err


# a document read where another kind belongs, and the message naming it,
# by a command (argv) or by a library loader (loader, path);
# {tmp}/names_X.json is a model whose scenario is the path X, and
# {tmp}/empty.json is "{}", which no kind claims, so its reader names the
# key it lacks
MODEL, SCENARIO = fx("cannibal_judgment_model.json"), fx("chsh_scenario.json")
SCHEMA, RESPONSES = fx("cannibal_schema.json"), fx("cannibal_responses.csv")
OF_ANOTHER_KIND = {
    "analyze-scenario": (["analyze", SCENARIO],
                         f"{SCENARIO} is a scenario document, not a model document"),
    "analyze-schema": (["analyze", SCHEMA],
                       f"{SCHEMA} is a schema document, not a model document"),
    "analyze-responses-model": (["analyze", "--responses", RESPONSES, "--schema", MODEL],
                                f"{MODEL} is a model document, not a schema document"),
    "bootstrap-model": (["bootstrap", RESPONSES, MODEL],
                        f"{MODEL} is a model document, not a schema document"),
    "schema-model": (["schema", MODEL, "--compile"],
                     f"{MODEL} is a model document, not a schema document"),
    "scenario-path-schema": (["analyze", "{tmp}/names_schema.json"],
                             f"{SCHEMA} is a schema document, not a scenario document"),
    "analyze-empty": (["analyze", "{tmp}/empty.json"], "model document lacks 'scenario'"),
    "schema-empty": (["schema", "{tmp}/empty.json", "--compile"],
                     "schema document lacks 'noun_phrases'"),
    "scenario-path-empty": (["analyze", "{tmp}/names_empty.json"],
                            "scenario document lacks 'observables'"),
}


def write_documents_of_another_kind(tmp_path):
    (tmp_path / "empty.json").write_text("{}", encoding="utf-8")
    for name, scenario in (("schema", SCHEMA), ("empty", "empty.json")):
        (tmp_path / f"names_{name}.json").write_text(
            json.dumps({"scenario": scenario, "distributions": []}), encoding="utf-8")


@pytest.mark.parametrize("case", sorted(OF_ANOTHER_KIND))
def test_a_document_of_another_kind_is_named_by_path_and_kind(tmp_path, capsys, case):
    argv, message = OF_ANOTHER_KIND[case]
    write_documents_of_another_kind(tmp_path)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


LOADED_OF_ANOTHER_KIND = {
    "model-scenario": (load_model, SCENARIO,
                       f"{SCENARIO} is a scenario document, not a model document"),
    "model-schema": (load_model, SCHEMA, f"{SCHEMA} is a schema document, not a model document"),
    "model-scenario-path-schema": (load_model, "{tmp}/names_schema.json",
                                   f"{SCHEMA} is a schema document, not a scenario document"),
    "model-empty": (load_model, "{tmp}/empty.json", "model document lacks 'scenario'"),
    "schema-model": (load_schema, MODEL, f"{MODEL} is a model document, not a schema document"),
    "schema-scenario": (load_schema, SCENARIO,
                        f"{SCENARIO} is a scenario document, not a schema document"),
    "schema-empty": (load_schema, "{tmp}/empty.json", "schema document lacks 'noun_phrases'"),
}


@pytest.mark.parametrize("case", sorted(LOADED_OF_ANOTHER_KIND))
def test_a_loader_names_a_document_of_another_kind(tmp_path, case):
    load, path, message = LOADED_OF_ANOTHER_KIND[case]
    write_documents_of_another_kind(tmp_path)
    with pytest.raises(FileFormatError) as caught:
        load(path.format(tmp=tmp_path))
    assert str(caught.value) == message


def test_a_model_file_with_a_long_foreign_context_exits_1(tmp_path, capsys, monkeypatch):
    # the foreign context's table would have 2^40 entries: the cover is
    # checked before any table is built
    def enumerate_outcomes(*args):
        raise AssertionError("joint outcomes were enumerated before the cover was checked")

    monkeypatch.setattr("winoctx.empirical.outcome_tuples", enumerate_outcomes)
    doc = json.loads(Path(MODEL).read_text(encoding="utf-8"))
    long_context = [f"x{i}" for i in range(40)]
    doc["scenario"] = str(Path(MODEL).parent / doc["scenario"])
    doc["distributions"].append({"context": long_context, "probs": {}})
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: distributions for non-contexts [{tuple(long_context)!r}]\n"


@pytest.mark.parametrize("command, caller", [
    (["analyze", "--responses", fx("cannibal_responses.csv"), "--schema"], "aggregation"),
])
def test_response_commands_name_the_one_pronoun_schema(capsys, command, caller):
    code, out, err = run_cli(capsys, *command, fx("trophy_schema.json"))
    assert (code, out, err) == (1, "", f"error: {caller} needs a two-pronoun schema\n")


def test_bootstrap_standard_errors_match_the_spread_over_seeds(capsys):
    docs = []
    for seed in range(200):
        code, out, _ = run_cli(capsys, "bootstrap", fx("cannibal_responses.csv"),
                               fx("cannibal_schema.json"), "--samples", "1000",
                               "--seed", str(seed), "--format", "json")
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0]["sampler"] == "walker-alias"
    # the spread of 200 estimates is itself known to about 5%, so 20% is 4 s.e.
    for field in ("mean", "fraction_positive"):
        values = [d[field] for d in docs]
        spread = statistics.pstdev(values)
        se = statistics.fmean(d[f"{field}_se"] for d in docs)
        assert abs(spread / se - 1.0) < 0.2, (field, spread, se)


def test_bootstrap_unwritable_out_exits_before_drawing(tmp_path, capsys, refuse_draws):
    target = tmp_path / "missing" / "hist.csv"
    code, out, err = run_cli(capsys, "bootstrap", fx("cannibal_responses.csv"),
                             fx("cannibal_schema.json"), "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


# --out -> the message it is refused with; "responses" and "schema" are the
# inputs, named relative to the working directory, and "link" points at the schema
REFUSED_OUTS = {
    "responses": "--out responses is the input file {responses}",
    "schema": "--out schema is the input file {schema}",
    "link": "--out link is the input file {schema}",
    "": "--out needs a file name",
}


@pytest.mark.parametrize("command, target", [
    *(("bootstrap", target) for target in REFUSED_OUTS),
    *(("schema", target) for target in REFUSED_OUTS if target != "responses"),
])
def test_out_naming_an_input_or_nothing_exits_before_drawing_or_writing(
        tmp_path, capsys, monkeypatch, refuse_draws, command, target):
    fixtures = {"responses": "cannibal_responses.csv", "schema": "cannibal_schema.json"}
    inputs = {name: tmp_path / name for name in fixtures}
    for name, fixture in fixtures.items():
        inputs[name].write_bytes(fixture_path(fixture).read_bytes())
    (tmp_path / "link").symlink_to("schema")
    monkeypatch.chdir(tmp_path)
    argv = {"bootstrap": ["bootstrap", str(inputs["responses"]), str(inputs["schema"])],
            "schema": ["schema", str(inputs["schema"]), "--compile"]}[command]
    code, out, err = run_cli(capsys, *argv, "--out", target)
    assert (code, out) == (2, "")
    assert err == "error: " + REFUSED_OUTS[target].format_map(inputs) + "\n"
    for name, fixture in fixtures.items():
        assert inputs[name].read_bytes() == fixture_path(fixture).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "responses", "schema"]


def test_bootstrap_tol_decides_cf_positivity(capsys):
    fractions = {}
    for tol in ("1e-9", "0.1"):
        code, out, _ = run_cli(
            capsys, "bootstrap", fx("cannibal_responses.csv"), fx("cannibal_schema.json"),
            "--samples", "300", "--statistic", "cf", "--tol", tol, "--format", "json",
        )
        assert code == 0
        fractions[tol] = json.loads(out)["fraction_positive"]
    schema = load_schema(fixture_path("cannibal_schema.json"))
    _, tallies = aggregate(parse_responses(fixture_path("cannibal_responses.csv")).records,
                           schema)
    ordered = cycle_order_tallies(ws_scenario(schema), tallies)
    samples = run(ordered, BootstrapConfig(n_resamples=300, statistic="cf")).samples
    assert fractions["1e-9"] == float((samples > 1e-9).mean())
    assert fractions["0.1"] == float((samples > 0.1).mean())
    assert fractions["0.1"] < fractions["1e-9"]


def test_bootstrap_statistics_agree_on_draws_at_the_facet(tmp_path, capsys):
    # every correlation -1/3, and many resamples land on s_odd = 2 exactly,
    # where violation reads 0 up to rounding and cf reads 0
    responses = tmp_path / "small_n.csv"
    responses.write_text(SMALL_N_RESPONSES, encoding="utf-8")
    for statistic in ("violation", "cf"):
        code, out, _ = run_cli(
            capsys, "bootstrap", str(responses), fx("cannibal_schema.json"),
            "--statistic", statistic, "--samples", "100000", "--seed", "0", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["fraction_positive"] == 0.24134


def test_bootstrap_runs_are_reproducible(tmp_path, capsys):
    paths = []
    for name in ("a.csv", "b.csv"):
        target = tmp_path / name
        code, out, _ = run_cli(
            capsys, "bootstrap", fx("cannibal_responses.csv"),
            fx("cannibal_schema.json"),
            "--samples", "1500", "--seed", "3", "--format", "json",
            "--out", str(target),
        )
        assert code == 0
        paths.append((target.read_bytes(), json.loads(out)))
    (bytes_a, doc_a), (bytes_b, doc_b) = paths
    assert bytes_a == bytes_b
    doc_a["histogram_file"] = doc_b["histogram_file"] = None
    assert doc_a == doc_b


def test_bootstrap_single_resample(capsys):
    code, out, _ = run_cli(
        capsys, "bootstrap", fx("cannibal_responses.csv"), fx("cannibal_schema.json"),
        "--samples", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_resamples"] == 1
    assert doc["std"] == 0.0


def test_schema_compile_to_file(tmp_path, capsys):
    target = tmp_path / "scenario.json"
    code, out, _ = run_cli(capsys, "schema", fx("cannibal_schema.json"),
                           "--compile", "--out", str(target))
    assert code == 0
    assert str(target) in out
    scenario = scenario_from_dict(json.loads(target.read_text()))
    assert len(scenario.observables) == 4


def test_schema_instantiate_unknown_word(capsys):
    code, _, err = run_cli(capsys, "schema", fx("cannibal_schema.json"),
                           "--instantiate", "ferocious", "alive")
    assert code == 1
    assert "ferocious" in err


def test_schema_instantiate_arity(capsys):
    code, _, err = run_cli(capsys, "schema", fx("cannibal_schema.json"),
                           "--instantiate", "herbivorous")
    assert code == 1
    assert "exactly two words" in err
    code, _, err = run_cli(capsys, "schema", fx("trophy_schema.json"),
                           "--instantiate", "small", "light")
    assert code == 1
    assert "exactly one word" in err


def test_schema_needs_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, "schema", fx("cannibal_schema.json"))
    assert code == 2
    assert "exactly one of" in err
    code, _, err = run_cli(capsys, "schema", fx("cannibal_schema.json"),
                           "--compile", "--instantiate", "herbivorous", "alive")
    assert code == 2


def test_schema_out_needs_compile(tmp_path, capsys):
    target = tmp_path / "text.txt"
    code, out, err = run_cli(capsys, "schema", fx("cannibal_schema.json"),
                             "--instantiate", "herbivorous", "alive", "--out", str(target))
    assert code == 2
    assert out == ""
    assert "--out needs --compile" in err
    assert not target.exists()


# inputs with two faults, one an invalid schema: a schema is refused when it
# is loaded, so its problems are the fault these commands name
SID_MARK_ERROR = (
    "error: slot2 special/alternate words entries must be non-empty; "
    "slot2 special/alternate words entries must differ, both are ''; "
    "observable ids collide: ['(he,convince)', '(he,understand)', '(him,)', '(him,)']; "
    "template has 0 of ${word2}, needs exactly 1\n")


def test_schema_instantiate_arity_on_an_invalid_schema_names_its_problems(capsys):
    assert run_cli(capsys, "schema", fx("sid_mark_schema.json"),
                   "--instantiate", "convince") == (1, "", SID_MARK_ERROR)


@pytest.mark.parametrize("command", [
    ["analyze", "--responses", fx("cannibal_responses.csv"), "--schema"],
    ["bootstrap", fx("cannibal_responses.csv")],
])
def test_response_commands_name_an_invalid_one_pronoun_schemas_problems(
        tmp_path, capsys, command):
    path = tmp_path / "schema.json"
    doc = json.loads(fixture_path("trophy_schema.json").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**doc, "template": "no markers"}), encoding="utf-8")
    assert run_cli(capsys, *command, str(path)) == (1, "", (
        "error: template has 0 of ${word1}, needs exactly 1; "
        "template has 0 of ${pron1}, needs exactly 1\n"))


@pytest.mark.parametrize("command", [
    ["analyze", "--responses", "{csv}", "--schema", fx("sid_mark_schema.json")],
    ["bootstrap", "{csv}", fx("sid_mark_schema.json")],
])
def test_invalid_schema_comes_before_repeated_id_warnings(tmp_path, capsys, command):
    csv = tmp_path / "responses.csv"
    rows = fixture_path("cannibal_responses.csv").read_text(encoding="utf-8")
    csv.write_text(rows + rows.splitlines(keepends=True)[1], encoding="utf-8")
    argv = [arg.replace("{csv}", str(csv)) for arg in command]
    assert run_cli(capsys, *argv) == (1, "", SID_MARK_ERROR)


@pytest.mark.parametrize("flags", [(), ("--instantiate", "a", "--out", "x.json")])
def test_schema_flags_are_checked_before_the_file_is_read(tmp_path, capsys, flags):
    code, out, err = run_cli(capsys, "schema", str(tmp_path / "missing.json"), *flags)
    message = "--out needs --compile" if flags else "pick exactly one of --compile or --instantiate"
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("schema", fx("cannibal_schema.json"), "--compile", "--format", "json"),
    ("schema", fx("cannibal_schema.json"), "--compile", "--tol", "5"),
    ("schema", fx("cannibal_schema.json"), "--compile", "--seed", "3"),
    ("validate", fx("cannibal_schema.json"), "--tol", "5"),
    ("validate", fx("cannibal_schema.json"), "--seed", "3"),
    ("analyze", fx("pr_box_model.json"), "--seed", "3"),
])
def test_subcommands_refuse_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_validate_names_repeated_ids_without_changing_its_verdict(tmp_path, capsys, fmt):
    responses = tmp_path / "dup.csv"
    rows = ("r1,cannibalistic,hungry,AA,BB\n" * 2 + "r2,herbivorous,alive,AA,BB\n"
            + "r2,herbivorous,hungry,AB,BA\n")
    responses.write_text("respondent_id,word1,word2,pick1,pick2\n" + rows, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(responses), "--format", fmt)
    assert code == 0
    assert out == ("OK: response file with 4 records\n" if fmt == "text" else
                   json.dumps({"kind": "responses", "valid": True, "records": 4},
                              indent=2) + "\n")
    assert err == ("warning: respondent id 'r1' appears more than once\n"
                   "warning: respondent id 'r2' appears more than once\n")
    # a malformed row still fails the file; the repeat follows its problem line
    responses.write_text("respondent_id,word1,word2,pick1,pick2\n" + rows + "r3,x\n",
                         encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(responses), "--format", fmt)
    assert (code, out) == (1, "")
    assert err == ("line 6: 2 fields, expected 5\n"
                   "warning: respondent id 'r1' appears more than once\n"
                   "warning: respondent id 'r2' appears more than once\n")


def test_bootstrap_negative_seed_is_named(capsys):
    code, out, err = run_cli(capsys, "bootstrap", fx("cannibal_responses.csv"),
                             fx("cannibal_schema.json"), "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


# the modules that only some commands run
ON_DISPATCH = ("csv", "winoctx.ingest", "winoctx.schema", "winoctx.report", "winoctx.bootstrap",
               "winoctx.sheaf", "winoctx.linprog", "numpy")
# class generation by `exec` and signature introspection: no command needs
# them, though numpy may load them itself
MACHINERY = ("dataclasses", "inspect")
RESPONSE_FILES = ("csv", "winoctx.ingest", "winoctx.schema")
BOOTSTRAP_ARGV = ["bootstrap", fx("cannibal_responses.csv"), fx("cannibal_schema.json")]
# name -> (what a fresh interpreter runs: a module to import, or an argv for
# `entry`, where {tmp} holds the uniform three-outcome model; its exit code;
# the modules of ON_DISPATCH and MACHINERY it loads)
LOADED_BY = {
    "import": ("winoctx.cli", 0, ()),
    "package": ("winoctx", 0, ()),
    # they name ContextTally only in annotations, so load no ingest or csv
    "import-report": ("winoctx.report", 0, ("winoctx.report",)),
    "import-bootstrap": ("winoctx.bootstrap", 0, ("winoctx.bootstrap", "numpy")),
    "analyze-model": (["analyze", fx("cannibal_judgment_model.json")], 0, ("winoctx.report",)),
    "analyze-responses": (["analyze", "--responses", fx("cannibal_responses.csv"),
                           "--schema", fx("cannibal_schema.json")],
                          0, (*RESPONSE_FILES, "winoctx.report")),
    # three outcomes: no CbD closed form, so cf comes from the LP
    "analyze-lp": (["analyze", "{tmp}/model.json"], 0,
                   ("winoctx.report", "winoctx.sheaf", "winoctx.linprog", "numpy")),
    "validate-model": (["validate", fx("cannibal_judgment_model.json")], 0, ()),
    "validate-scenario": (["validate", fx("chsh_scenario.json")], 0, ()),
    "validate-schema": (["validate", fx("cannibal_schema.json")], 0, ("winoctx.schema",)),
    "validate-responses": (["validate", fx("cannibal_responses.csv")], 0, RESPONSE_FILES),
    "schema": (["schema", fx("cannibal_schema.json"), "--compile"], 0, ("winoctx.schema",)),
    "schema-instantiate": (["schema", fx("cannibal_schema.json"), "--instantiate",
                            "herbivorous", "alive"], 0, ("winoctx.schema",)),
    **{f"bootstrap-{stat}": ([*BOOTSTRAP_ARGV, "--samples", "100", "--statistic", stat],
                             0, (*RESPONSE_FILES, "winoctx.bootstrap", "numpy"))
       for stat in ("violation", "cf")},
    # refused once its inputs load, before the resampler or numpy does
    "bootstrap-one-pronoun": (["bootstrap", fx("cannibal_responses.csv"),
                               fx("trophy_schema.json")], 1, RESPONSE_FILES),
}
# the same command under a caller's OPENBLAS_NUM_THREADS
LOADED_BY["bootstrap-violation-blas-2"] = LOADED_BY["bootstrap-violation"]
# name -> what a row adds to its environment; no row inherits the caller's
# OPENBLAS_NUM_THREADS
ENVIRONMENT = {"bootstrap-violation-blas-2": {"OPENBLAS_NUM_THREADS": "2"}}

# the names by which benchmarks/spans.py wraps the layers a command calls:
# each with its defining module and a command that calls it once
CLI_HOOKS = {
    "load_json": ("files", LOADED_BY["analyze-model"][0]),
    "model_from_dict": ("files", LOADED_BY["analyze-model"][0]),
    "parse_responses": ("ingest", LOADED_BY["analyze-responses"][0]),
    "aggregate": ("ingest", LOADED_BY["analyze-responses"][0]),
    "build_report": ("report", LOADED_BY["analyze-model"][0]),
    "run": ("bootstrap", LOADED_BY["bootstrap-violation"][0]),
}
# name -> {attribute of the row's module: the module that defines what it
# resolves to, None where it is refused}, read after the row's loads
RESOLVES = {
    "import": {**{name: f"winoctx.{module}" for name, (module, _) in CLI_HOOKS.items()},
               "no_such_name": None},
    "package": {**{name: getattr(winoctx, name).__module__ for name in winoctx.__all__},
                "is_noncontextual": None},
}

# one row in a fresh interpreter: its exit code and stdout, the watched
# modules loaded, then its OS thread count, OPENBLAS_NUM_THREADS, the
# collector passes `entry` ran, whether it froze the heap and left the
# collector on, and what the row's module resolves each name to
PROBE = """
import contextlib, gc, importlib, io, json, os, sys
run, names, watched = map(json.loads, sys.argv[1:])
code, out, passes = 0, io.StringIO(), []
if isinstance(run, str):
    module = importlib.import_module(run)
else:
    import winoctx.cli as module
    gc.callbacks.append(lambda phase, info: passes.append(info["generation"])
                        if phase == "start" else None)
    sys.argv = ["winoctx", *run]
    with contextlib.redirect_stdout(out):
        code = module.entry()
    gc.callbacks.clear()
loaded = [m for m in watched if m in sys.modules]
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
print(json.dumps({
    "code": code, "stdout": out.getvalue(), "loaded": loaded, "threads": threads,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"), "passes": passes,
    "frozen": gc.get_freeze_count() > 0, "collecting": gc.isenabled(),
    "resolved": {name: getattr(module, name).__module__ if hasattr(module, name) else None
                 for name in names},
}))
"""


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    """name -> what PROBE reports of that row of LOADED_BY."""
    tmp = tmp_path_factory.mktemp("probe")
    uniform_three_outcome_cycle(tmp / "model.json")
    watched, results = json.dumps(ON_DISPATCH + MACHINERY), {}
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        for name, (run, _, _) in LOADED_BY.items():
            if not isinstance(run, str):
                run = [arg.replace("{tmp}", str(tmp)) for arg in run]
            names = json.dumps([*RESOLVES.get(name, ())])
            proc = python_process("-c", PROBE, json.dumps(run), names, watched,
                                  **ENVIRONMENT.get(name, {}))
            assert proc.returncode == 0, proc.stderr
            results[name] = json.loads(proc.stdout)
    return results


def commands(probed):
    """The rows that run an argv through `entry`, with what PROBE reports."""
    return {name: probed[name] for name, (run, _, _) in LOADED_BY.items()
            if not isinstance(run, str)}


@pytest.mark.parametrize("command", sorted(LOADED_BY))
def test_each_command_loads_only_the_modules_it_runs(probed, command):
    _, code, loads = LOADED_BY[command]
    loaded = probed[command]["loaded"]
    if "numpy" in loaded:
        loaded = [m for m in loaded if m not in MACHINERY]
    assert (probed[command]["code"], sorted(loaded)) == (code, sorted(loads))


def test_numpy_loads_only_in_bootstrap_and_on_the_lp_path():
    assert sorted(name for name, (run, _, loads) in LOADED_BY.items()
                  if not isinstance(run, str) and "numpy" in loads) == [
        "analyze-lp", "bootstrap-cf", "bootstrap-violation", "bootstrap-violation-blas-2"]


def test_package_exports_resolve_and_load_the_lp_on_first_use(probed):
    # the "package" row loads neither sheaf nor numpy before the lookup
    assert probed["package"]["resolved"] == RESOLVES["package"]
    assert RESOLVES["package"]["contextual_fraction"] == "winoctx.sheaf"


def test_hooked_names_resolve_before_any_command_runs(probed):
    assert probed["import"]["resolved"] == RESOLVES["import"]


def test_every_command_runs_on_one_thread(probed):
    threads = 1 if Path("/proc/self/status").exists() else None
    runs = {name: result for name, result in commands(probed).items()
            if name not in ENVIRONMENT}
    assert dict.fromkeys(runs, (threads, "1")) == {
        name: (result["threads"], result["blas"]) for name, result in runs.items()}


@pytest.mark.parametrize("command", ["bootstrap", "lp"])
def test_numpy_loads_without_a_blas_thread_pool(probed, command):
    result = probed["bootstrap-violation" if command == "bootstrap" else "analyze-lp"]
    threads = 1 if Path("/proc/self/status").exists() else None
    assert (result["code"], "numpy" in result["loaded"], result["threads"], result["blas"]) == (
        0, True, threads, "1")


def test_a_callers_blas_thread_count_is_kept_and_changes_no_output(probed):
    kept, default = probed["bootstrap-violation-blas-2"], probed["bootstrap-violation"]
    assert (kept["code"], kept["blas"]) == (0, "2")
    assert kept["stdout"] == default["stdout"] != ""


@pytest.mark.parametrize("argv, numpy", [
    (LOADED_BY["bootstrap-violation"][0], True),
    (LOADED_BY["analyze-responses"][0], False),
])
def test_the_process_entry_runs_no_collection_and_freezes_the_heap(probed, argv, numpy):
    [result] = [probed[name] for name, (run, _, _) in LOADED_BY.items()
                if run == argv and name not in ENVIRONMENT]
    # numpy's import, inside the command, runs dozens of passes when collecting
    assert (result["code"], "numpy" in result["loaded"], result["passes"], result["frozen"],
            result["collecting"]) == (0, numpy, [], True, True)


def test_no_command_collects_in_the_process_entry(probed):
    runs = commands(probed)
    assert {name: (result["passes"], result["frozen"], result["collecting"])
            for name, result in runs.items()} == dict.fromkeys(runs, ([], True, True))


@pytest.mark.parametrize("name", sorted(CLI_HOOKS))
def test_main_calls_a_wrapper_set_on_the_cli_module(capsys, monkeypatch, name):
    import winoctx.cli

    original, calls = getattr(winoctx.cli, name), []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(winoctx.cli, name, wrapper)
    code, _, err = run_cli(capsys, *CLI_HOOKS[name][1])
    assert (code, err, calls) == (0, "", [name])


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_the_process_by_sigpipe(unbuffered):
    # a pipe with no reader from the start: the first write to it fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = python_process("-m", "winoctx.cli", "analyze", MODEL, "--format", "json",
                              stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, "")
COLLECTOR_CASES = {
    "ok": (["analyze", fx("cannibal_judgment_model.json")], 0),
    "exit-1": (["schema", fx("cannibal_schema.json"), "--instantiate", "nope", "never"], 1),
    "exit-2": (["analyze", "no-such-model.json"], 2),
    "usage": (["bootstrap", *BOOTSTRAP_ARGV[1:], "--statistic", "bogus"], SystemExit),
    "help": (["analyze", "--help"], SystemExit),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", sorted(COLLECTOR_CASES))
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, enabled, case):
    import winoctx.cli

    argv, outcome = COLLECTOR_CASES[case]
    seen = []
    parse = winoctx.cli.build_parser

    def build_parser():
        seen.append(gc.isenabled())
        return parse()

    monkeypatch.setattr(winoctx.cli, "build_parser", build_parser)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == outcome
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen == [False]  # paused for the whole command, its parsing included


def test_the_console_script_is_the_function_the_main_block_calls():
    import winoctx.cli

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["winoctx"]
    module, _, name = target.partition(":")
    assert (module, getattr(winoctx.cli, name)) == ("winoctx.cli", winoctx.cli.entry)
    tree = ast.parse(Path(winoctx.cli.__file__).read_text(encoding="utf-8"))
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(block) == f"if __name__ == '__main__':\n    sys.exit({name}())"
