import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import winoctx
from winoctx.bootstrap import MAX_RESAMPLES, BootstrapConfig, cycle_order_tallies, run
from winoctx.cli import main
from winoctx.files import load_schema, scenario_from_dict
from winoctx.fixtures import fixture_path
from winoctx.ingest import aggregate, parse_responses
from winoctx.scenario import cyclic_structure
from winoctx.schema import gws_scenario


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


def test_bootstrap_unwritable_out_exits_before_drawing(tmp_path, capsys, refuse_draws):
    target = tmp_path / "missing" / "hist.csv"
    code, out, err = run_cli(capsys, "bootstrap", fx("cannibal_responses.csv"),
                             fx("cannibal_schema.json"), "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


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
    ordered = cycle_order_tallies(gws_scenario(schema), tallies)
    samples = run(ordered, BootstrapConfig(n_resamples=300, statistic="cf")).samples
    assert fractions["1e-9"] == float((samples > 1e-9).mean())
    assert fractions["0.1"] == float((samples > 0.1).mean())
    assert fractions["0.1"] < fractions["1e-9"]


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


def test_bootstrap_negative_seed_is_named(capsys):
    code, out, err = run_cli(capsys, "bootstrap", fx("cannibal_responses.csv"),
                             fx("cannibal_schema.json"), "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


NUMPY_PROBE = """
import contextlib, io, json, sys
from winoctx.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([code, "numpy" in sys.modules, out.getvalue()]))
"""


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
    proc = python_process("-c", NUMPY_PROBE, json.dumps(numpy_free + [lp]))
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [code for code, _, _ in steps] == [0] * len(steps)
    assert [loaded for _, loaded, _ in steps] == [False] * len(numpy_free) + [True]
    assert json.loads(steps[-1][2])["contextual_fraction"]["cf"] == 0.0
