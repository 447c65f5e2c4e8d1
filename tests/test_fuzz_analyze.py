"""Fuzz the model loader and `winoctx analyze` with mutated fixture documents.

Every mutated document is written to a file and analysed through `main`.
Whatever the damage, the command must end with exit code 0, 1 or 2 and
never raise.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
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
