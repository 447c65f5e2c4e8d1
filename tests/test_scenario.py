import pytest
from hypothesis import given, strategies as st

from winoctx.scenario import (
    InvalidScenarioError,
    MeasurementScenario,
    complete_downward,
    cyclic_structure,
    maximal_contexts,
    validate,
)

CHSH_FACES = [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")]


def chsh():
    return MeasurementScenario.from_maximal(
        observables=("a1", "b1", "a2", "b2"),
        maximal_faces=CHSH_FACES,
        outcomes=("0", "1"),
    )


def test_chsh_is_valid():
    report = validate(chsh())
    assert report.ok
    assert report.problems == ()


def test_uncovered_observable_reported():
    scenario = MeasurementScenario.from_maximal(
        observables=("a1", "b1", "a2"),
        maximal_faces=[("a1", "b1")],
        outcomes=("0", "1"),
    )
    report = validate(scenario)
    assert not report.ok
    assert any("a2" in p for p in report.problems)


def test_closure_violation_reported():
    # bypass from_maximal, which would close the complex for us
    scenario = MeasurementScenario(
        observables=("a1", "b1", "a2"),
        faces=frozenset(
            {frozenset({"a1", "b1", "a2"}), frozenset({"a1", "b1"})}
        ),
        outcomes=("0", "1"),
    )
    report = validate(scenario)
    assert not report.ok
    assert any("closure" in p or "subset" in p for p in report.problems)


def test_duplicate_observables_reported():
    scenario = MeasurementScenario.from_maximal(
        observables=("a1", "a1"),
        maximal_faces=[("a1",)],
        outcomes=("0", "1"),
    )
    assert not validate(scenario).ok


def test_single_outcome_reported():
    scenario = MeasurementScenario.from_maximal(
        observables=("a1",), maximal_faces=[("a1",)], outcomes=("0",)
    )
    assert not validate(scenario).ok


def test_observable_cap_reported():
    names = tuple(f"x{i}" for i in range(17))
    scenario = MeasurementScenario.from_maximal(
        observables=names,
        maximal_faces=[(n,) for n in names],
        outcomes=("0", "1"),
    )
    assert any("16" in p for p in validate(scenario).problems)


def test_oversized_face_refused_before_completion(monkeypatch):
    def enumerate_subsets(*args):
        raise AssertionError("subsets of an oversized face were enumerated")

    monkeypatch.setattr("winoctx.scenario.combinations", enumerate_subsets)
    names = tuple(f"x{i}" for i in range(17))
    with pytest.raises(InvalidScenarioError, match="face of 17 members"):
        MeasurementScenario.from_maximal(
            observables=names, maximal_faces=[names], outcomes=("0", "1")
        )


def test_complete_downward_contains_all_subsets():
    faces = complete_downward([("x", "y")])
    assert frozenset() in faces
    assert frozenset({"x"}) in faces
    assert frozenset({"y"}) in faces
    assert frozenset({"x", "y"}) in faces
    assert len(faces) == 4


@given(
    st.lists(
        st.frozensets(st.sampled_from("abcde"), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_complete_downward_idempotent(faces):
    once = complete_downward(faces)
    assert complete_downward(once) == once


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
    scenario = MeasurementScenario.from_maximal(
        observables=("a1", "b1", "a2"),
        maximal_faces=[("a1", "b1")],
        outcomes=("0", "1"),
    )
    with pytest.raises(InvalidScenarioError):
        maximal_contexts(scenario)


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


def test_observable_in_three_contexts_not_cyclic():
    scenario = MeasurementScenario.from_maximal(
        observables=("a", "b", "c", "d"),
        maximal_faces=[("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
        outcomes=("0", "1"),
    )
    assert cyclic_structure(scenario) is None


def test_outcome_sign_convention():
    scenario = chsh()
    assert scenario.outcome_sign("0") == 1.0
    assert scenario.outcome_sign("1") == -1.0
    assert scenario.flip_outcome("0") == "1"
    assert scenario.flip_outcome("1") == "0"
    with pytest.raises(KeyError):
        scenario.outcome_sign("2")


def test_order_face_uses_declaration_order():
    scenario = chsh()
    assert scenario.order_face({"b2", "a1"}) == ("a1", "b2")
    assert scenario.order_face(["a2", "b1"]) == ("b1", "a2")
