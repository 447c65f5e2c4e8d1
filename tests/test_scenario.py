import itertools

import pytest
from hypothesis import assume, given, strategies as st

from oracles import maximal_contexts_by_completion
from winoctx.cbd import CyclicSystem
from winoctx.empirical import EmpiricalModel, is_outcome_symmetric
from winoctx.report import build_report
from winoctx.scenario import (
    MAX_FACES,
    InvalidScenarioError,
    MeasurementScenario,
    cyclic_structure,
    maximal_contexts,
    maximal_only,
    validate,
)
from winoctx.sheaf import incidence

CHSH_FACES = [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")]


def chsh():
    return MeasurementScenario.from_maximal(
        observables=("a1", "b1", "a2", "b2"),
        maximal_faces=CHSH_FACES,
        outcomes=("0", "1"),
    )


def test_chsh_is_valid():
    assert validate(chsh()) == ()


def test_outcome_label_holding_the_separator_reported():
    with pytest.raises(InvalidScenarioError) as exc:
        MeasurementScenario.from_maximal(("p", "q"), [("p", "q")], ("x|y", "z"))
    assert exc.value.problems == (
        "outcome label 'x|y' contains '|', the joint-outcome separator",
    )


def test_uncovered_observable_reported():
    with pytest.raises(InvalidScenarioError) as exc:
        MeasurementScenario.from_maximal(
            observables=("a1", "b1", "a2"),
            maximal_faces=[("a1", "b1")],
            outcomes=("0", "1"),
        )
    assert any("a2" in p for p in exc.value.problems)


def test_raw_constructor_drops_a_nested_context():
    outer = frozenset({"a1", "b1", "a2"})
    scenario = MeasurementScenario(
        observables=("a1", "b1", "a2"),
        contexts=frozenset({outer, frozenset({"a1", "b1"}), frozenset()}),
        outcomes=("0", "1"),
    )
    assert scenario.contexts == frozenset({outer})
    assert scenario == MeasurementScenario.from_maximal(
        ("a1", "b1", "a2"), [("a1", "b1", "a2"), ("a1", "b1")], ("0", "1"))


def test_faces_over_the_cap_refused_before_any_is_compared(monkeypatch):
    names = [f"x{i}" for i in range(16)]
    fours = list(itertools.combinations(names, 4))[:MAX_FACES + 1]
    # repeats and the empty face are not counted
    at_cap = MeasurementScenario.from_maximal(names, fours[:-1] * 2 + [()], ("0", "1"))
    assert len(at_cap.contexts) == MAX_FACES

    def compare(faces):
        raise AssertionError("faces over the cap were compared")

    monkeypatch.setattr("winoctx.scenario.maximal_only", compare)
    with pytest.raises(InvalidScenarioError) as exc:
        MeasurementScenario.from_maximal(names, fours * 2 + [()], ("0", "1"))
    assert exc.value.problems == (f"{MAX_FACES + 1} faces exceed the supported {MAX_FACES}",)


def test_duplicate_observables_reported():
    with pytest.raises(InvalidScenarioError) as exc:
        MeasurementScenario.from_maximal(
            observables=("a1", "a1"),
            maximal_faces=[("a1",)],
            outcomes=("0", "1"),
        )
    assert exc.value.problems


def test_single_outcome_reported():
    with pytest.raises(InvalidScenarioError) as exc:
        MeasurementScenario.from_maximal(
            observables=("a1",), maximal_faces=[("a1",)], outcomes=("0",)
        )
    assert exc.value.problems


def test_observable_cap_reported():
    names = tuple(f"x{i}" for i in range(17))
    with pytest.raises(InvalidScenarioError) as exc:
        MeasurementScenario.from_maximal(
            observables=names,
            maximal_faces=[(n,) for n in names],
            outcomes=("0", "1"),
        )
    assert any("16" in p for p in exc.value.problems)


def test_oversized_face_refused_before_completion():
    names = tuple(f"x{i}" for i in range(17))
    with pytest.raises(InvalidScenarioError, match="17 observables exceed the supported 16"):
        MeasurementScenario.from_maximal(
            observables=names, maximal_faces=[names], outcomes=("0", "1")
        )


def test_error_message_joins_every_problem():
    with pytest.raises(InvalidScenarioError) as exc:
        MeasurementScenario.from_maximal(("a", "a", "b"), [("a", "c")], ("x",))
    assert exc.value.problems == (
        "duplicate observable 'a'",
        "outcome set needs >= 2 distinct labels, got ['x']",
        "face ['a', 'c'] uses undeclared observables ['c']",
        "uncovered observable 'b' (appears in no face)",
    )
    assert str(exc.value) == "; ".join(exc.value.problems)


def test_validate_runs_once_per_scenario_and_never_after(monkeypatch):
    calls = []

    def counting(scenario):
        calls.append(scenario)
        return validate(scenario)

    monkeypatch.setattr("winoctx.scenario.validate", counting)
    scenario = chsh()
    raw = MeasurementScenario(scenario.observables, scenario.contexts, scenario.outcomes)
    assert len(calls) == 2 and raw == scenario
    tables = {ctx: {("0", "0"): 0.5, ("1", "1"): 0.5} for ctx in maximal_contexts(scenario)}
    model = EmpiricalModel.build(scenario, tables)
    cyclic_structure(scenario)
    incidence(scenario)
    build_report(model)
    assert len(calls) == 2


@given(
    st.lists(st.lists(st.sampled_from("abcdef"), max_size=5), min_size=1, max_size=7),
    st.randoms(use_true_random=False),
)
def test_maximal_contexts_match_completion(faces, rnd):
    observables = sorted(set().union(*map(set, faces)))
    rnd.shuffle(observables)
    assume(observables)
    scenario = MeasurementScenario.from_maximal(observables, faces, ("0", "1"))
    assert maximal_contexts(scenario) == maximal_contexts_by_completion(observables, faces)


@given(st.lists(st.frozensets(st.sampled_from("abcdef")), max_size=12))
def test_maximal_only_matches_all_pairs(faces):
    maximal = {f for f in faces if not any(f < other for other in faces)}
    assert sorted(maximal_only(set(faces)), key=sorted) == sorted(maximal, key=sorted)
    observables = tuple(sorted(set().union(*faces)))
    assume(observables)
    raw = MeasurementScenario(observables, frozenset(faces), ("0", "1"))
    assert raw == MeasurementScenario.from_maximal(observables, faces, ("0", "1"))
    assert raw.contexts == maximal - {frozenset()}


def test_maximal_contexts_chsh_order():
    assert maximal_contexts(chsh()) == [
        ("a1", "b1"),
        ("a1", "b2"),
        ("b1", "a2"),
        ("a2", "b2"),
    ]


def test_maximal_contexts_singletons():
    scenario = MeasurementScenario.from_maximal(
        observables=("p_s", "p_a"),
        maximal_faces=[("p_s",), ("p_a",)],
        outcomes=("A", "B"),
    )
    assert maximal_contexts(scenario) == [("p_s",), ("p_a",)]


def test_maximal_contexts_single_face():
    scenario = MeasurementScenario.from_maximal(
        observables=("x",), maximal_faces=[("x",)], outcomes=("0", "1")
    )
    assert maximal_contexts(scenario) == [("x",)]


def test_maximal_contexts_rejects_invalid():
    # an invalid scenario cannot be made, so no call can reach it
    with pytest.raises(InvalidScenarioError):
        MeasurementScenario.from_maximal(
            observables=("a1", "b1", "a2"),
            maximal_faces=[("a1", "b1")],
            outcomes=("0", "1"),
        )


def test_no_context_contains_another():
    scenario = MeasurementScenario.from_maximal(
        observables=("x", "y", "z"),
        maximal_faces=[("x", "y"), ("y", "z"), ("z",)],
        outcomes=("0", "1"),
    )
    contexts = maximal_contexts(scenario)
    assert ("z",) not in contexts
    sets = [frozenset(c) for c in contexts]
    for a in sets:
        for b in sets:
            assert a == b or not a < b
    assert frozenset().union(*sets) == set(scenario.observables)


def test_cyclic_structure_chsh():
    structure = cyclic_structure(chsh())
    assert structure is not None
    assert structure.rank == 4
    assert structure.ordering == ("a1", "b1", "a2", "b2")
    assert structure.contexts == (
        ("a1", "b1"),
        ("b1", "a2"),
        ("a2", "b2"),
        ("a1", "b2"),
    )


def test_cyclic_structure_triangle():
    scenario = MeasurementScenario.from_maximal(
        observables=("x", "y", "z"),
        maximal_faces=[("x", "y"), ("y", "z"), ("z", "x")],
        outcomes=("0", "1"),
    )
    structure = cyclic_structure(scenario)
    assert structure.rank == 3
    assert structure.ordering[0] == "x"


def test_singleton_contexts_not_cyclic():
    scenario = MeasurementScenario.from_maximal(
        observables=("p_s", "p_a"),
        maximal_faces=[("p_s",), ("p_a",)],
        outcomes=("A", "B"),
    )
    assert cyclic_structure(scenario) is None


def test_two_disjoint_edges_not_cyclic():
    scenario = MeasurementScenario.from_maximal(
        observables=("a", "b", "c", "d"),
        maximal_faces=[("a", "b"), ("c", "d")],
        outcomes=("0", "1"),
    )
    assert cyclic_structure(scenario) is None


def test_two_disjoint_triangles_not_cyclic():
    scenario = MeasurementScenario.from_maximal(
        observables=("x", "y", "z", "u", "v", "w"),
        maximal_faces=[("x", "y"), ("y", "z"), ("z", "x"), ("u", "v"), ("v", "w"), ("w", "u")],
        outcomes=("0", "1"),
    )
    assert cyclic_structure(scenario) is None


def test_observable_in_three_contexts_not_cyclic():
    scenario = MeasurementScenario.from_maximal(
        observables=("a", "b", "c", "d"),
        maximal_faces=[("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
        outcomes=("0", "1"),
    )
    assert cyclic_structure(scenario) is None


def test_outcome_sign_convention():
    # the first declared label reads +1 and the second -1; exchanging them
    # maps a point mass on one onto a point mass on the other
    scenario = chsh()
    for label, sign in (("0", 1.0), ("1", -1.0)):
        tables = {ctx: {(label, label): 1.0} for ctx in maximal_contexts(scenario)}
        model = EmpiricalModel.build(scenario, tables)
        assert CyclicSystem.from_model(model).expectations == ((sign, sign),) * 4
        assert not is_outcome_symmetric(model)
    tables = {ctx: {("0", "0"): 0.5, ("1", "1"): 0.5} for ctx in maximal_contexts(scenario)}
    assert is_outcome_symmetric(EmpiricalModel.build(scenario, tables))


def test_order_face_uses_declaration_order():
    scenario = chsh()
    assert scenario.order_face({"b2", "a1"}) == ("a1", "b2")
    assert scenario.order_face(["a2", "b1"]) == ("b1", "a2")
