import ast
import gc
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import winoctx
from conftest import SMALL_N_RESPONSES
from winoctx.bootstrap import MAX_RESAMPLES, BootstrapConfig, cycle_order_tallies, run
from winoctx.cli import main
from winoctx.files import FileFormatError, load_model, load_schema, scenario_from_dict
from winoctx.fixtures import fixture_path
from winoctx.ingest import aggregate, parse_responses
from winoctx.scenario import cyclic_structure
from winoctx.schema import ws_scenario


def fx(name):
    return str(fixture_path(name))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_good_files(capsys):
    for name, noun in (
        ("chsh_scenario.json", "scenario"),
        ("cannibal_judgment_model.json", "model"),
        ("cannibal_schema.json", "schema"),
        ("cannibal_responses.csv", "response"),
    ):
        code, out, err = run_cli(capsys, "validate", fx(name))
        assert code == 0, err
        assert out.startswith("OK:")
        assert noun in out


def test_validate_json_format(capsys):
    code, out, _ = run_cli(capsys, "validate", fx("chsh_scenario.json"),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "scenario", "valid": True, "observables": 4}


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


def test_validate_rejects_nonconforming_schema(capsys):
    code, _, err = run_cli(capsys, "validate", fx("sid_mark_schema.json"))
    assert code == 1
    assert err.strip() != ""


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


def test_analyze_text_report(capsys):
    code, out, _ = run_cli(capsys, "analyze", fx("cannibal_judgment_model.json"))
    assert code == 0
    assert "cnt1: 0.192000" in out
    assert "bell-chsh violation: 0.192000" in out
    assert "contextual fraction: 0.096000" in out
    assert "cyclic structure: rank 4" in out
    assert "delta: 0.000000" in out
    assert "CbD contextual: yes" in out
    assert "sheaf contextual: yes" in out


def test_analyze_json_report(capsys):
    code, out, _ = run_cli(capsys, "analyze", fx("cannibal_judgment_model.json"),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cyclic"]["violation"] == pytest.approx(0.192, abs=1e-3)
    assert doc["cyclic"]["cnt1"] == doc["cyclic"]["violation"]
    assert doc["contextual_fraction"]["cf"] == pytest.approx(0.096, abs=1e-12)
    assert doc["contextual_fraction"]["certificate_gap"] == 0.0
    assert doc["non_signalling"] is True
    assert doc["verdicts"] == {"cbd": True, "sheaf": True}


def test_analyze_text_and_json_agree(capsys):
    code, text, _ = run_cli(capsys, "analyze", fx("pr_box_model.json"))
    assert code == 0
    code, raw, _ = run_cli(capsys, "analyze", fx("pr_box_model.json"),
                           "--format", "json")
    assert code == 0
    doc = json.loads(raw)
    assert f"cnt1: {doc['cyclic']['cnt1']:.6f}" in text
    assert f"contextual fraction: {doc['contextual_fraction']['cf']:.6f}" in text
    assert doc["cyclic"]["cnt1"] == 2.0
    assert doc["contextual_fraction"]["cf"] == pytest.approx(1.0, abs=1e-9)


def test_analyze_noncontextual_model(capsys):
    code, out, _ = run_cli(capsys, "analyze", fx("uniform_model.json"))
    assert code == 0
    assert "contextual fraction: 0.000000" in out
    assert "CbD contextual: no" in out
    assert "sheaf contextual: no" in out


def test_analyze_from_responses(capsys):
    code, out, _ = run_cli(capsys, "analyze",
                           "--responses", fx("cannibal_responses.csv"),
                           "--schema", fx("cannibal_schema.json"))
    assert code == 0
    assert "tallies (total/valid/same/diff):" in out
    assert "bell-chsh violation:" in out


def test_analyze_non_cyclic_model_omits_cbd_with_notice(tmp_path, capsys):
    doc = {
        "scenario": {
            "observables": ["p", "q"],
            "contexts": [["p"], ["q"]],
            "outcomes": ["A", "B"],
        },
        "distributions": [
            {"context": ["p"], "probs": {"A": 0.5, "B": 0.5}},
            {"context": ["q"], "probs": {"A": 0.25, "B": 0.75}},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "cnt1" not in out
    assert "notice: " in out and "no cyclic structure" in out
    assert "contextual fraction: 0.000000" in out


def three_outcome_cycle(path):
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
    path = three_outcome_cycle(tmp_path / "model.json")
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
    (["bootstrap", fx("cannibal_responses.csv")], "bootstrap"),
])
def test_response_commands_name_the_one_pronoun_schema(capsys, command, caller):
    code, out, err = run_cli(capsys, *command, fx("trophy_schema.json"))
    assert (code, out, err) == (1, "", f"error: {caller} needs a two-pronoun schema\n")


def test_bootstrap_text_and_histogram(tmp_path, capsys):
    out_csv = tmp_path / "hist.csv"
    code, out, _ = run_cli(
        capsys, "bootstrap", fx("cannibal_responses.csv"), fx("cannibal_schema.json"),
        "--samples", "2000", "--seed", "7", "--out", str(out_csv),
    )
    assert code == 0
    assert "statistic: violation" in out
    assert "generator: philox4x64-10" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "bin_center,density"
    assert len(lines) > 2
    for line in lines[1:]:
        center, density = line.split(",")
        float(center), float(density)


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


def test_schema_compile(capsys):
    code, out, _ = run_cli(capsys, "schema", fx("cannibal_schema.json"), "--compile")
    assert code == 0
    scenario = scenario_from_dict(json.loads(out))
    structure = cyclic_structure(scenario)
    assert structure is not None and structure.rank == 4


def test_schema_compile_to_file(tmp_path, capsys):
    target = tmp_path / "scenario.json"
    code, out, _ = run_cli(capsys, "schema", fx("cannibal_schema.json"),
                           "--compile", "--out", str(target))
    assert code == 0
    assert str(target) in out
    scenario = scenario_from_dict(json.loads(target.read_text()))
    assert len(scenario.observables) == 4


def test_schema_instantiate(capsys):
    code, out, _ = run_cli(capsys, "schema", fx("cannibal_schema.json"),
                           "--instantiate", "herbivorous", "alive")
    assert code == 0
    assert "herbivorous" in out and "alive" in out
    assert "${" not in out


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


def python_process(*args, **env):
    """Run a fresh interpreter that imports this copy of the package."""
    src = str(Path(winoctx.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": src, **env},
                          capture_output=True, text=True, timeout=120)


def test_duplicate_respondent_id_is_a_warning_line(tmp_path):
    lines = fixture_path("cannibal_responses.csv").read_text(encoding="utf-8").splitlines()
    first = next(line for line in lines if line.startswith("r001,"))
    responses = tmp_path / "dup.csv"
    responses.write_text("\n".join(lines + [first]) + "\n", encoding="utf-8")
    proc = python_process("-m", "winoctx.cli", "analyze", "--responses", str(responses),
                          "--schema", fx("cannibal_schema.json"), PYTHONWARNINGS="error")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "warning: respondent id 'r001' appears more than once\n"
    assert "bell-chsh violation:" in proc.stdout


@pytest.mark.parametrize("command", [
    ["analyze", "--responses", "{csv}", "--schema", fx("cannibal_schema.json")],
    ["bootstrap", "{csv}", fx("cannibal_schema.json")],
])
def test_duplicate_id_warnings_precede_an_unknown_words_error(tmp_path, capsys, command):
    responses = tmp_path / "dup.csv"
    responses.write_text("respondent_id,word1,word2,pick1,pick2\n"
                         + "r1,cannibalistic,hungry,AA,BB\n" * 2
                         + "r2,herbivorous,alive,AA,BB\n" * 2
                         + "zz1,nope,never,AA,BB\n", encoding="utf-8")
    argv = [arg.replace("{csv}", str(responses)) for arg in command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("warning: respondent id 'r1' appears more than once\n"
                   "warning: respondent id 'r2' appears more than once\n"
                   "error: record 'zz1': words ('nope', 'never') match no context "
                   "of the schema\n")


@pytest.mark.parametrize("command", [
    ["analyze", "--responses", "{csv}", "--schema", fx("cannibal_schema.json")],
    ["bootstrap", "{csv}", fx("cannibal_schema.json")],
])
def test_duplicate_id_after_an_unknown_words_record_is_reported(tmp_path, capsys, command):
    responses = tmp_path / "dup.csv"
    responses.write_text("respondent_id,word1,word2,pick1,pick2\n"
                         "r1,cannibalistic,hungry,AA,BB\n"
                         "zz,nope,never,AA,BB\n"
                         "r1,cannibalistic,hungry,AA,BB\n", encoding="utf-8")
    argv = [arg.replace("{csv}", str(responses)) for arg in command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("warning: respondent id 'r1' appears more than once\n"
                   "error: record 'zz': words ('nope', 'never') match no context "
                   "of the schema\n")


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


NUMPY_PROBE = """
import contextlib, io, json, os, sys
from winoctx.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    threads = None
    if os.path.exists("/proc/self/status"):
        with open("/proc/self/status") as status:
            threads = next(int(line.split()[1]) for line in status
                           if line.startswith("Threads:"))
    print(json.dumps([code, "numpy" in sys.modules, out.getvalue(), threads,
                      os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def numpy_probe(*argvs, **env):
    """Run `main` on each argv in one fresh interpreter; per call its exit
    code, whether numpy is loaded, stdout, the process's OS thread count
    and OPENBLAS_NUM_THREADS after the call."""
    proc = python_process("-c", NUMPY_PROBE, json.dumps(argvs), **env)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_numpy_is_imported_only_for_the_lp(tmp_path):
    responses = ["--responses", fx("cannibal_responses.csv"),
                 "--schema", fx("cannibal_schema.json")]
    numpy_free = [
        ["analyze", fx("cannibal_judgment_model.json")],
        ["analyze", *responses],
        ["validate", fx("cannibal_responses.csv")],
        ["validate", fx("cannibal_scenario.json")],
        ["schema", fx("cannibal_schema.json"), "--compile"],
    ]
    lp = ["analyze", str(three_outcome_cycle(tmp_path / "model.json")), "--format", "json"]
    steps = numpy_probe(*numpy_free, lp)
    assert [step[0] for step in steps] == [0] * len(steps)
    assert [step[1] for step in steps] == [False] * len(numpy_free) + [True]
    assert json.loads(steps[-1][2])["contextual_fraction"]["cf"] == 0.0


# class generation by `exec` and signature introspection; no command needs them
MACHINERY = ("dataclasses", "inspect")

STARTUP_PROBE = """
import contextlib, io, json, sys
from winoctx.cli import main
MACHINERY = json.loads(sys.argv[2])
print(json.dumps([0, [m for m in MACHINERY if m in sys.modules]]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, [m for m in MACHINERY if m in sys.modules]]))
"""


def test_numpy_free_commands_start_without_the_dataclasses_machinery():
    numpy_free = [
        ["analyze", fx("cannibal_judgment_model.json"), "--format", "json"],
        ["analyze", "--responses", fx("cannibal_responses.csv"),
         "--schema", fx("cannibal_schema.json")],
        ["validate", fx("cannibal_responses.csv")],
        ["validate", fx("cannibal_judgment_model.json")],
        ["validate", fx("cannibal_schema.json")],
        ["schema", fx("cannibal_schema.json"), "--compile"],
        ["schema", fx("cannibal_schema.json"), "--instantiate", "herbivorous", "alive"],
    ]
    proc = python_process("-c", STARTUP_PROBE, json.dumps(numpy_free), json.dumps(MACHINERY))
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert steps == [[0, []]] * (1 + len(numpy_free))


@pytest.mark.parametrize("module", ["winoctx.report", "winoctx.bootstrap"])
def test_report_and_bootstrap_import_without_ingest(module):
    # they name ContextTally only in annotations
    probe = f"import sys, {module}; print(sorted({{'winoctx.ingest', 'csv'}} & set(sys.modules)))"
    proc = python_process("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


PACKAGE_PROBE = """
import json, sys
import winoctx
loaded = sorted({"winoctx.sheaf", "numpy"} & set(sys.modules))
unresolved = [name for name in winoctx.__all__ if not hasattr(winoctx, name)]
import winoctx.sheaf
try:
    winoctx.is_noncontextual
except AttributeError:
    refused = True
else:
    refused = False
print(json.dumps([loaded, unresolved,
                  winoctx.contextual_fraction is winoctx.sheaf.contextual_fraction, refused]))
"""


def test_package_exports_resolve_and_load_the_lp_on_first_use():
    proc = python_process("-c", PACKAGE_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], True, True]


# the modules that only some commands run
ON_DISPATCH = ("csv", "winoctx.ingest", "winoctx.schema", "winoctx.report", "winoctx.bootstrap",
               "winoctx.sheaf", "winoctx.linprog", "numpy")
RESPONSE_FILES = ("csv", "winoctx.ingest", "winoctx.schema")
# name -> (argv, its exit code, the modules of ON_DISPATCH it loads)
LOADED_BY = {
    "import": ([], 0, ()),
    "analyze-model": (["analyze", fx("cannibal_judgment_model.json")], 0, ("winoctx.report",)),
    "analyze-responses": (["analyze", "--responses", fx("cannibal_responses.csv"),
                           "--schema", fx("cannibal_schema.json")],
                          0, (*RESPONSE_FILES, "winoctx.report")),
    "validate-model": (["validate", fx("cannibal_judgment_model.json")], 0, ()),
    "validate-scenario": (["validate", fx("chsh_scenario.json")], 0, ()),
    "validate-schema": (["validate", fx("cannibal_schema.json")], 0, ("winoctx.schema",)),
    "validate-responses": (["validate", fx("cannibal_responses.csv")], 0, RESPONSE_FILES),
    "schema": (["schema", fx("cannibal_schema.json"), "--compile"], 0, ("winoctx.schema",)),
    **{f"bootstrap-{stat}": (["bootstrap", fx("cannibal_responses.csv"),
                              fx("cannibal_schema.json"), "--samples", "100",
                              "--statistic", stat], 0,
                             (*RESPONSE_FILES, "winoctx.bootstrap", "numpy"))
       for stat in ("violation", "cf")},
    # refused once its inputs load, before the resampler or numpy does
    "bootstrap-one-pronoun": (["bootstrap", fx("cannibal_responses.csv"),
                               fx("trophy_schema.json")], 1, RESPONSE_FILES),
}

LOAD_PROBE = """
import contextlib, io, json, sys
import winoctx.cli
argv, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
code = 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = winoctx.cli.main(argv)
print(json.dumps([code, sorted(m for m in watched if m in sys.modules)]))
"""


@pytest.mark.parametrize("command", sorted(LOADED_BY))
def test_each_command_loads_only_the_modules_it_runs(command):
    argv, code, loads = LOADED_BY[command]
    proc = python_process("-c", LOAD_PROBE, json.dumps(argv), json.dumps(ON_DISPATCH))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code, sorted(loads)]


# the names by which benchmarks/spans.py wraps the layers a command calls:
# each with its defining module and a command that calls it once
CLI_HOOKS = {
    "load_json": ("files", ["analyze", fx("cannibal_judgment_model.json")]),
    "model_from_dict": ("files", ["analyze", fx("cannibal_judgment_model.json")]),
    "parse_responses": ("ingest", LOADED_BY["analyze-responses"][0]),
    "aggregate": ("ingest", LOADED_BY["analyze-responses"][0]),
    "build_report": ("report", ["analyze", fx("cannibal_judgment_model.json")]),
    "run": ("bootstrap", LOADED_BY["bootstrap-violation"][0]),
}

HOOK_PROBE = """
import json, sys
import winoctx.cli
found = [getattr(winoctx.cli, name).__module__ for name in json.loads(sys.argv[1])]
print(json.dumps([found, hasattr(winoctx.cli, "no_such_name")]))
"""


def test_hooked_names_resolve_before_any_command_runs():
    names = sorted(CLI_HOOKS)
    proc = python_process("-c", HOOK_PROBE, json.dumps(names))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[f"winoctx.{CLI_HOOKS[n][0]}" for n in names], False]


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


BOOTSTRAP_ARGV =["bootstrap", fx("cannibal_responses.csv"), fx("cannibal_schema.json")]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("command", ["bootstrap", "lp"])
def test_numpy_loads_without_a_blas_thread_pool(tmp_path, monkeypatch, command):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    argv = (BOOTSTRAP_ARGV + ["--samples", "1000"] if command == "bootstrap" else
            ["analyze", str(three_outcome_cycle(tmp_path / "model.json"))])
    [(code, loaded, _, threads, value)] = numpy_probe(argv)
    assert (code, loaded, threads, value) == (0, True, 1, "1")


def test_a_callers_blas_thread_count_is_kept_and_changes_no_output(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    argv = BOOTSTRAP_ARGV + ["--samples", "3000", "--seed", "11", "--format", "json"]
    [(code, _, unset, _, _)] = numpy_probe(argv)
    [(code2, _, two, _, value)] = numpy_probe(argv, OPENBLAS_NUM_THREADS="2")
    assert (code, code2, value) == (0, 0, "2")
    assert json.loads(unset)["n_resamples"] == 3000
    assert two == unset


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


ENTRY_PROBE = """
import contextlib, gc, io, json, sys
import winoctx.cli
passes = []
gc.callbacks.append(lambda phase, info: passes.append(info["generation"])
                    if phase == "start" else None)
sys.argv = ["winoctx", *json.loads(sys.argv[1])]
numpy_before = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = winoctx.cli.entry()
print(json.dumps([code, numpy_before, "numpy" in sys.modules, passes,
                  gc.get_freeze_count() > 0, gc.isenabled()]))
"""


@pytest.mark.parametrize("argv, numpy", [
    (BOOTSTRAP_ARGV + ["--samples", "20000"], True),
    (LOADED_BY["analyze-responses"][0], False),
])
def test_the_process_entry_runs_no_collection_and_freezes_the_heap(argv, numpy):
    proc = python_process("-c", ENTRY_PROBE, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    # numpy's import, inside the command, runs dozens of passes when collecting
    assert json.loads(proc.stdout) == [0, False, numpy, [], True, True]


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
