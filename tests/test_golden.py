"""Golden outputs: the whole output of every `winoctx` command.

Each case is one command line, run in a fresh working directory once in
each --format it takes.  A run's record holds its exit code, stdout,
stderr and every file it wrote into that directory, and each run is
compared with its case's record: tests/golden/<case>.<text|json>, or one
record, tests/golden/<case>.out, for a case whose runs print the same bytes
in every format.  A failing command has one record, since it leaves
`cli.main` before its output is formatted, and so has a command with no
--format.  The records decide which cases have one; no .text/.json pair
is byte-identical.  The tables below list the cases.  Fixture paths print
as {fixtures}, the directory holding the inputs built here as {tmp}, and
help is wrapped at 80 columns.

The bootstrap records pin numpy's Philox bit generator and its uniform
doubles as of numpy 2.4.6, read through the walker-alias sampler of
`bootstrap`.  A numpy whose Philox or uniform stream differs, or a change
to the sampler or its tables, changes them on purpose.

A change that means to alter the output rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

which writes one record for a case whose runs agree in every format and a
pair otherwise, removing the files of the other shape; the diff of
tests/golden/ then shows what it altered.
"""

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from conftest import SMALL_N_RESPONSES
from winoctx.cli import main
from winoctx.fixtures import fixture_path

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("text", "json")


def binary_cycle(rank, correlations, marginals=None):
    """A binary rank-n cycle model; context i gets correlation
    correlations[i], and the marginals default to uniform."""
    names = [f"x{i}" for i in range(rank)]
    contexts = [[names[i], names[(i + 1) % rank]] for i in range(rank)]
    distributions = []
    for i, (ctx, c) in enumerate(zip(contexts, correlations)):
        m1, m2 = marginals[i] if marginals else (0.0, 0.0)
        distributions.append({"context": ctx, "probs": {
            f"{a}|{b}": (1 + sa * m1 + sb * m2 + sa * sb * c) / 4
            for a, sa in (("A", 1), ("B", -1)) for b, sb in (("A", 1), ("B", -1))
        }})
    return {"scenario": {"observables": names, "contexts": contexts,
                         "outcomes": ["A", "B"]},
            "distributions": distributions}


def three_outcome_cycle():
    """A 3-outcome chained PR box (three contexts a = b, the last
    a = b + 1 mod 3) at weight 3/4, mixed with uniform noise."""
    outcomes = ["0", "1", "2"]
    contexts = [["a1", "b1"], ["b1", "a2"], ["a2", "b2"], ["a1", "b2"]]
    distributions = []
    for shift, ctx in zip((0, 0, 0, 1), contexts):
        distributions.append({"context": ctx, "probs": {
            f"{a}|{b}": 1 / 36 + (1 / 4 if (a - b - shift) % 3 == 0 else 0.0)
            for a in range(3) for b in range(3)
        }})
    return {"scenario": {"observables": ["a1", "b1", "a2", "b2"],
                         "contexts": contexts, "outcomes": outcomes},
            "distributions": distributions}


NON_CYCLIC = {
    "scenario": {"observables": ["p", "q"], "contexts": [["p"], ["q"]],
                 "outcomes": ["A", "B"]},
    "distributions": [{"context": ["p"], "probs": {"A": 0.5, "B": 0.5}},
                      {"context": ["q"], "probs": {"A": 0.25, "B": 0.75}}],
}

SIGNALLING = binary_cycle(4, (0.75, 0.75, 0.75, -0.75),
                          ((0.0, 0.25), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)))

INLINE = {
    "rank6_cycle": binary_cycle(6, (0.75,) * 5 + (-0.75,)),
    "three_outcome_cycle": three_outcome_cycle(),
    "signalling_cycle": SIGNALLING,
    "signalling_cycle_reversed": {
        **SIGNALLING, "scenario": {**SIGNALLING["scenario"], "outcomes": ["B", "A"]}},
    "non_cyclic": NON_CYCLIC,
}

# inputs whose outcome label or noun phrase contains the "|" separator
PIPE_SCENARIO = {"observables": ["p", "q"], "contexts": [["p", "q"]],
                 "outcomes": ["x|y", "z"]}
PIPE_INPUTS = {
    "pipe_label_scenario": PIPE_SCENARIO,
    "pipe_label_model": {"scenario": PIPE_SCENARIO, "distributions": [
        {"context": ["p", "q"], "probs": {"x|y|x|y": 0.5, "z|z": 0.5}}]},
    "pipe_phrase_schema": {
        **json.loads(fixture_path("cannibal_schema.json").read_text(encoding="utf-8")),
        "noun_phrases": ["a", "a|a"]},
}

# response files with repeated respondent ids, alone and around a record
# whose words match no context of the schema
HEADER = "respondent_id,word1,word2,pick1,pick2\n"
FIXTURE_ROWS = fixture_path("cannibal_responses.csv").read_text(encoding="utf-8")
REPEAT_INPUTS = {
    "repeated_id": FIXTURE_ROWS + next(
        line for line in FIXTURE_ROWS.splitlines(keepends=True) if line.startswith("r001,")),
    "repeat_then_unknown": HEADER + "r1,cannibalistic,hungry,AA,BB\n" * 2
    + "r2,herbivorous,alive,AA,BB\n" * 2 + "zz1,nope,never,AA,BB\n",
    "unknown_then_repeat": HEADER + "r1,cannibalistic,hungry,AA,BB\n"
    + "zz,nope,never,AA,BB\n" + "r1,cannibalistic,hungry,AA,BB\n",
}
# the fixture plus one row of each malformed kind, a blank line, a quoted
# field spanning two lines before a bad row, and a repeated id
MALFORMED_ROWS = FIXTURE_ROWS + (
    "m01,cannibalistic,hungry,AA\n"
    ",cannibalistic,hungry,AA,BB\n"
    "m03,cannibalistic,hungry,AA,XX\n"
    "m04,cannibalistic,hungry,BB,BB\n"
    "\n"
    'm05,"cannibalistic\nhungry",AA,BB\n'
    "m06,herbivorous,alive,AB,BA,AA\n"
    "r002,cannibalistic,hungry,BB,AA\n")
# ten responses per version, all {AB,BA} but nine {AA,BB} for (herbivorous,
# alive): seed 7 draws the least violation, 1.4, whose bin edge k * BIN_WIDTH
# rounds above it
EDGE_DRAWS = HEADER + "".join(
    f"e{10 * i + j:02d},{w1},{w2},{'AA,BB' if i == 3 and j < 9 else 'AB,BA'}\n"
    for i, (w1, w2) in enumerate((("cannibalistic", "hungry"), ("cannibalistic", "alive"),
                                  ("herbivorous", "hungry"), ("herbivorous", "alive")))
    for j in range(10))
CSV_INPUTS = {**REPEAT_INPUTS, "small_n": SMALL_N_RESPONSES, "malformed_rows": MALFORMED_ROWS,
              "edge_draws": EDGE_DRAWS}

# a scenario with several problems: alone, named by path from a model, and
# inline in a model whose distributions are not a list; and a model whose
# scenario path holds a NUL byte
BAD_SCENARIO = {"observables": ["a", "a", "b", "c"], "contexts": [["a", "d"]],
                "outcomes": ["x"]}
BAD_SCENARIO_INPUTS = {
    "bad_scenario": BAD_SCENARIO,
    "bad_scenario_by_path": {"scenario": "bad_scenario.json", "distributions": [
        {"context": ["a", "d"], "probs": {"x|x": 1.0}}]},
    "two_fault_model": {"scenario": BAD_SCENARIO, "distributions": {}},
    "nul_scenario_path_model": {"scenario": "a\x00b", "distributions": []},
}

# models on a binary 4-cycle with one fault each, then a cover fault beside
# a bad table: an unknown outcome label, a probability of 1.5, a row summing
# to 1.4975, a missing context, a foreign context, a foreign context of 40
# members, a missing context with a bad table and a foreign context with a
# bad table
CYCLE = binary_cycle(4, (0.5,) * 4)
ROWS = CYCLE["distributions"]
BAD_ROW = {"context": ["x0", "x1"], "probs": {"A|A": 1.5}}
FOREIGN_ROW = {"context": ["x0", "x2"], "probs": {"A|A": 1.0}}
FAULTY_MODELS = {name: {**CYCLE, "distributions": rows} for name, rows in {
    "unknown_outcome_model": [{"context": ["x0", "x1"], "probs": {"A|C": 1.0}}, *ROWS[1:]],
    "out_of_range_model": [BAD_ROW, *ROWS[1:]],
    "off_sum_model": [{"context": ["x0", "x1"], "probs": {
        "A|A": 0.5, "A|B": 0.4975, "B|A": 0.25, "B|B": 0.25}}, *ROWS[1:]],
    "missing_context_model": ROWS[:-1],
    "foreign_context_model": [*ROWS, FOREIGN_ROW],
    "long_foreign_context_model": [
        *ROWS, {"context": [f"y{i}" for i in range(40)], "probs": {}}],
    "missing_context_bad_table_model": [BAD_ROW, *ROWS[1:-1]],
    "foreign_context_bad_table_model": [*ROWS, {**FOREIGN_ROW, "probs": {"A|A": 1.5}}],
}.items()}

# a model whose probs repeat a key, which json.dumps cannot write
RAW_INPUTS = {
    "repeated_key_model": '{"scenario": {"observables": ["p", "q"], "contexts": [["p", "q"]], '
    '"outcomes": ["x", "y"]}, "distributions": [{"context": ["p", "q"], '
    '"probs": {"x|x": 0.9, "x|x": 0.5, "y|y": 0.5}}]}\n',
}

FIXTURES = fixture_path("pr_box_model.json").parent
MODEL_FILES = sorted(FIXTURES.glob("*_model.json"))
RESPONSES = [str(FIXTURES / "cannibal_responses.csv"), str(FIXTURES / "cannibal_schema.json")]
SEEDED = ["--samples", "3000", "--seed", "11"]
SID_MARK = str(FIXTURES / "sid_mark_schema.json")

# cases that take --format
COMMANDS = {
    **{p.stem: ["analyze", str(p)] for p in MODEL_FILES},
    "cannibal_responses": ["analyze", "--responses", RESPONSES[0], "--schema", RESPONSES[1]],
    **{name: ["analyze", f"{{tmp}}/{name}.json"] for name in INLINE},
    "signalling_cycle_tol_0.3": ["analyze", "{tmp}/signalling_cycle.json", "--tol", "0.3"],
    **{f"validate_{p.stem}": ["validate", str(p)]
       for p in sorted(FIXTURES.iterdir()) if p.suffix in (".json", ".csv")},
    **{f"bootstrap_{stat}{suffix}": ["bootstrap", *RESPONSES, "--statistic", stat,
                                     *SEEDED, *out]
       for stat in ("violation", "cf")
       for suffix, out in (("", []), ("_out", ["--out", "hist.csv"]))},
    "bootstrap_one_pronoun": ["bootstrap", RESPONSES[0],
                              str(FIXTURES / "trophy_schema.json"), *SEEDED],
    "bootstrap_workers_0": ["bootstrap", *RESPONSES, *SEEDED, "--workers", "0"],
    **{f"validate_{name}": ["validate", f"{{tmp}}/{name}.json"] for name in PIPE_INPUTS},
    "analyze_pipe_label_model": ["analyze", "{tmp}/pipe_label_model.json"],
    "analyze_pipe_phrase": ["analyze", "--responses", RESPONSES[0],
                            "--schema", "{tmp}/pipe_phrase_schema.json"],
    "bootstrap_pipe_phrase": ["bootstrap", RESPONSES[0], "{tmp}/pipe_phrase_schema.json",
                              *SEEDED],
    **{f"analyze_{name}": ["analyze", "--responses", f"{{tmp}}/{name}.csv",
                           "--schema", RESPONSES[1]] for name in REPEAT_INPUTS},
    **{f"bootstrap_{name}": ["bootstrap", f"{{tmp}}/{name}.csv", RESPONSES[1], *SEEDED]
       for name in REPEAT_INPUTS},
    "validate_repeated_id": ["validate", "{tmp}/repeated_id.csv"],
    **{f"validate_{name}": ["validate", f"{{tmp}}/{name}.json"] for name in BAD_SCENARIO_INPUTS},
    **{f"analyze_{name}": ["analyze", f"{{tmp}}/{name}.json"]
       for name in ("bad_scenario_by_path", "two_fault_model", "nul_scenario_path_model")},
    "validate_repeated_key_model": ["validate", "{tmp}/repeated_key_model.json"],
    **{f"{cmd}_{name}": [cmd, f"{{tmp}}/{name}.json"]
       for name in FAULTY_MODELS for cmd in ("validate", "analyze")},
    "analyze_sid_mark": ["analyze", "--responses", RESPONSES[0], "--schema", SID_MARK],
    "bootstrap_sid_mark": ["bootstrap", RESPONSES[0], SID_MARK, *SEEDED],
    **{f"bootstrap_small_n_{stat}": ["bootstrap", "{tmp}/small_n.csv", RESPONSES[1],
                                     "--statistic", stat, "--samples", "100000", "--seed", "0"]
       for stat in ("violation", "cf")},
    "validate_malformed_rows": ["validate", "{tmp}/malformed_rows.csv"],
    "analyze_malformed_rows": ["analyze", "--responses", "{tmp}/malformed_rows.csv",
                               "--schema", RESPONSES[1]],
    "bootstrap_malformed_rows": ["bootstrap", "{tmp}/malformed_rows.csv", RESPONSES[1],
                                 *SEEDED],
    "bootstrap_edge_draws_out": ["bootstrap", "{tmp}/edge_draws.csv", RESPONSES[1],
                                 "--samples", "100", "--seed", "7", "--out", "hist.csv"],
}

SCHEMA_COMMANDS = {
    "schema_compile": ["schema", RESPONSES[1], "--compile"],
    "schema_instantiate": ["schema", RESPONSES[1], "--instantiate",
                           "cannibalistic", "alive"],
    "schema_compile_pipe_phrase": ["schema", "{tmp}/pipe_phrase_schema.json", "--compile"],
    "schema_instantiate_pipe_phrase": ["schema", "{tmp}/pipe_phrase_schema.json",
                                       "--instantiate", "cannibalistic", "alive"],
    "schema_compile_sid_mark": ["schema", SID_MARK, "--compile"],
    "schema_compile_instantiate_sid_mark": ["schema", SID_MARK, "--compile",
                                            "--instantiate", "convince"],
}

# the parser's own output: argparse prints it and exits
USAGE_COMMANDS = {
    "help": ["--help"],
    **{f"help_{name}": [name, "--help"] for name in ("validate", "analyze", "bootstrap", "schema")},
    "usage_bogus_statistic": ["bootstrap", *RESPONSES, "--statistic", "bogus"],
    "usage_no_command": [],
}


def write_inputs(directory):
    """Write every input built here into `directory`, as <name>.json or,
    for response files, <name>.csv."""
    for name, doc in {**INLINE, **PIPE_INPUTS, **BAD_SCENARIO_INPUTS, **FAULTY_MODELS}.items():
        Path(directory, name + ".json").write_text(json.dumps(doc), encoding="utf-8")
    for name, text in RAW_INPUTS.items():
        Path(directory, name + ".json").write_text(text, encoding="utf-8")
    for name, text in CSV_INPUTS.items():
        Path(directory, name + ".csv").write_text(text, encoding="utf-8")


def command(argv, tmp):
    """The record of one command run in a fresh working directory under
    `tmp`: exit code, stdout, stderr, then each file it wrote there.  The
    inputs built here sit in a sibling directory."""
    inputs, workdir = Path(tmp, "inputs"), Path(tmp, "work")
    inputs.mkdir()
    workdir.mkdir()
    write_inputs(inputs)
    argv = [arg.replace("{tmp}", str(inputs)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        # argparse wraps help to the width in COLUMNS
        with (mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help and usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    parts = [f"exit: {code}\n", "--- stdout\n", out.getvalue(), "--- stderr\n", err.getvalue()]
    for path in sorted(workdir.iterdir()):
        parts += [f"--- file {path.name}\n", path.read_text(encoding="utf-8")]
    return "".join(parts).replace(str(FIXTURES), "{fixtures}").replace(str(inputs), "{tmp}")


# case -> {run name: argv}: <case>.<fmt> in each format, or <case>.out for a
# case with no --format
CASES = {
    **{case: {f"{case}.{fmt}": [*argv, "--format", fmt] for fmt in FORMATS}
       for case, argv in COMMANDS.items()},
    **{case: {f"{case}.out": argv}
       for case, argv in {**SCHEMA_COMMANDS, **USAGE_COMMANDS}.items()},
}
RUNS = {name: argv for runs in CASES.values() for name, argv in runs.items()}


def record_path(name):
    """The record a run is compared with: its case's one record if there
    is one, else its own."""
    one = (GOLDEN / name).with_suffix(".out")
    return one if one.exists() else GOLDEN / name


def test_every_bundled_model_is_a_case():
    assert len(MODEL_FILES) == 4
    assert sum(case.startswith("validate_") for case in COMMANDS) == 30
    assert {record_path(name).name for name in RUNS} == {p.name for p in GOLDEN.iterdir()}


def test_no_record_is_stored_twice():
    for text in GOLDEN.glob("*.text"):
        assert text.read_bytes() != text.with_suffix(".json").read_bytes(), text.name


@pytest.mark.parametrize("name", sorted(RUNS))
def test_command_output_is_golden(name, tmp_path):
    assert command(RUNS[name], tmp_path) == record_path(name).read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case, runs in CASES.items():
        records = {}
        for name, argv in runs.items():
            with tempfile.TemporaryDirectory() as tmp:
                records[name] = command(argv, tmp)
        if len(set(records.values())) == 1:  # the same bytes in every format
            records = {f"{case}.out": records.popitem()[1]}
        for suffix in (*FORMATS, "out"):
            (GOLDEN / f"{case}.{suffix}").unlink(missing_ok=True)
        for name, record in records.items():
            (GOLDEN / name).write_text(record, encoding="utf-8")
