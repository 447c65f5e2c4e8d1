"""Fuzz the model loader, the response parser, the schema loader and
`winoctx analyze` with mutated fixture files.

Every mutated model document is written to a file and analysed through
`main`; every mutated response file is validated and analysed under the
cannibal schema; every mutated schema is validated, compiled, instantiated
and used to analyse the cannibal responses.  Whatever the damage, the
command must end with exit code 0, 1 or 2 and never raise.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from winoctx.cli import main
from winoctx.fixtures import fixture_path

MODELS = ("bell_state_model.json", "cannibal_judgment_model.json",
          "pr_box_model.json", "uniform_model.json")
SCENARIOS = ("chsh_scenario.json", "cannibal_scenario.json")


def load(name):
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


# each fixture model as shipped (scenario by path) and with its scenario
# inlined, so that mutations also reach observables, contexts and outcomes
BASE_DOCS = [load(name) for name in MODELS]
BASE_DOCS += [dict(doc, scenario=load(doc["scenario"])) for doc in BASE_DOCS]
DELETE = object()

NUMBERS = st.sampled_from([
    math.nan, math.inf, -math.inf, 10**400, -(10**400), 1e308, -1e308,
    -1, 0, 2, 0.5, -0.0, 1e-300,
])
STRINGS = st.sampled_from([
    "", "x", "0", "1", "0|1", "A|B|A", "a1", "b2",
    # scenario references: missing, a directory, a non-scenario document
    "missing.json", ".", "/", SCENARIOS[0], SCENARIOS[1], MODELS[0],
])
OTHER = st.sampled_from([
    DELETE, True, None, [], {}, ["a1"], [["a1"]], [[]], {"0|0": 1.0},
    load(SCENARIOS[0]),
])


@st.composite
def mutated(draw, node, top=False):
    """`node` with one mutation at a randomly chosen place inside it; `top`
    forces the mutation below the node itself."""
    if isinstance(node, (dict, list)) and node:
        action = "descend" if top else draw(
            st.sampled_from(("descend", "descend", "shuffle", "grow", "replace")))
        if action == "descend":
            copy = dict(node) if isinstance(node, dict) else list(node)
            key = draw(st.sampled_from(sorted(copy) if isinstance(copy, dict)
                                       else range(len(copy))))
            value = draw(mutated(copy[key]))
            if value is DELETE:
                del copy[key]
            else:
                copy[key] = value
            return copy
        if action == "shuffle":  # often still valid: reaches the analysis
            if isinstance(node, dict):
                return dict(zip(node, draw(st.permutations(list(node.values())))))
            return draw(st.permutations(node))
        if action == "grow" and isinstance(node, list):
            return node + [node[-1]]  # one element too many
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return draw(NUMBERS | OTHER)
    if isinstance(node, str):
        return draw(STRINGS | OTHER)
    return draw(NUMBERS | STRINGS | OTHER)


@st.composite
def model_documents(draw):
    doc = draw(st.sampled_from(BASE_DOCS))
    for _ in range(draw(st.integers(1, 3))):
        doc = draw(mutated(doc, top=True))
        if doc is DELETE:  # every key was already gone
            doc = {}
    return doc


def with_probs(*values):
    """The uniform model with its first probabilities replaced by `values`."""
    doc = json.loads(json.dumps(BASE_DOCS[3]))
    probs = doc["distributions"][0]["probs"]
    probs.update(zip(list(probs), values))
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=model_documents())
@example(doc=with_probs(math.nan))
@example(doc=with_probs(10**400))
@example(doc=with_probs(1e308, 1e308))  # overflows a plain fsum of the row
def test_analyze_never_raises_on_mutated_models(doc):
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS + MODELS:
            shutil.copy(fixture_path(name), tmp)
        path = Path(tmp) / "fuzzed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path), "--format", "json"])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error:")
    else:
        json.loads(out.getvalue())


# -- response files ------------------------------------------------------------

BASE_ROWS = [line.split(",") for line in
             fixture_path("cannibal_responses.csv").read_text(encoding="utf-8").splitlines()]
LONG_CELL = "c" * 200_000  # over the csv module's 131,072-character field limit
CELLS = st.sampled_from(['"', "\x00", ",", "\r", "", "\n", 'a"b', LONG_CELL])


@st.composite
def mutated_rows(draw):
    """The fixture's rows (header first) after one to three mutations: a
    cell replaced, a row dropped or duplicated, or the header damaged."""
    rows = [list(row) for row in BASE_ROWS]
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(("cell", "cell", "drop", "duplicate", "header")))
        i = 0 if action == "header" else draw(st.integers(0, len(rows) - 1))
        if action == "drop":
            del rows[i]
        elif action == "duplicate":
            rows.insert(i, list(rows[i]))
        elif rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(CELLS)
        if not rows:
            break
    return rows


def cell_replaced(line, column, value):
    rows = [list(row) for row in BASE_ROWS]
    rows[line - 1][column] = value
    return rows


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=mutated_rows())
@example(rows=cell_replaced(2, 1, LONG_CELL))
def test_validate_and_analyze_never_raise_on_mutated_responses(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "responses.csv"
        # joined without quoting, so quotes, commas and line breaks in a
        # cell damage the file's structure
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(",".join(row) + "\n" for row in rows))
        for argv in (["validate", str(path)],
                     ["analyze", "--responses", str(path),
                      "--schema", str(fixture_path("cannibal_schema.json"))]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            assert code in (0, 1, 2)
            assert not caught


# -- schema files --------------------------------------------------------------

SCHEMAS = ("cannibal_schema.json", "councilmen_schema.json", "trophy_schema.json",
           "trophy_generalised_schema.json", "sid_mark_schema.json")
BASE_SCHEMAS = [load(name) for name in SCHEMAS]


@st.composite
def schema_documents(draw):
    """A fixture schema after one to three mutations, and two words drawn
    from that fixture's word pairs."""
    doc = draw(st.sampled_from(BASE_SCHEMAS))
    words = [word for pair in doc["words"].values() for word in pair.values()]
    for _ in range(draw(st.integers(1, 3))):
        doc = draw(mutated(doc, top=True))
        if doc is DELETE:
            doc = {}
    return doc, draw(st.lists(st.sampled_from(words), min_size=2, max_size=2))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=schema_documents())
def test_schema_commands_never_raise_on_mutated_schemas(case):
    """Every command ends with 0, 1 or 2; `validate` and `schema --compile`
    apply one validity rule: one exits 1 iff the other does, and compile
    then names validate's problems on one line."""
    doc, words = case
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "schema.json")
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["validate", path],
                     ["schema", path, "--compile"],
                     ["schema", path, "--instantiate", words[0]],
                     ["schema", path, "--instantiate", *words],
                     ["analyze", "--responses", str(fixture_path("cannibal_responses.csv")),
                      "--schema", path]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            results.append((code, err.getvalue()))
    (validated, problems), (compiled, compile_err) = results[:2]
    assert (validated == 1) == (compiled == 1)
    if validated == 1:
        assert compile_err == "error: " + "; ".join(problems.splitlines()) + "\n"
