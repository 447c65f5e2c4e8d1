import json

import pytest

from winoctx.cli import main
from winoctx.files import scenario_from_dict
from winoctx.fixtures import fixture_path
from winoctx.scenario import cyclic_structure


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
    assert doc["contextual_fraction"]["cf"] == pytest.approx(0.096, abs=1e-3)
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


def test_analyze_three_outcome_cycle_omits_cbd_with_notice(tmp_path, capsys):
    outcomes = ["0", "1", "2"]
    uniform = {f"{a}|{b}": 1 / 9 for a in outcomes for b in outcomes}
    contexts = [["a1", "b1"], ["b1", "a2"], ["a2", "b2"], ["a1", "b2"]]
    doc = {
        "scenario": {"observables": ["a1", "b1", "a2", "b2"],
                     "contexts": contexts, "outcomes": outcomes},
        "distributions": [{"context": c, "probs": uniform} for c in contexts],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
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
    argv = {
        "analyze-model": ["analyze", str(model)],
        "analyze-responses": ["analyze", "--responses", str(responses),
                              "--schema", fx("cannibal_schema.json")],
        "bootstrap": ["bootstrap", str(responses), fx("cannibal_schema.json"),
                      "--samples", "10"],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_validate_refuses_oversized_face_without_completing_it(tmp_path, capsys,
                                                               monkeypatch):
    def enumerate_subsets(*args):
        raise AssertionError("subsets of an oversized face were enumerated")

    monkeypatch.setattr("winoctx.scenario.combinations", enumerate_subsets)
    names = [f"x{i}" for i in range(17)]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"observables": names, "contexts": [names],
                                "outcomes": ["0", "1"]}))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert "face of 17 members exceeds the supported 16" in err


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
