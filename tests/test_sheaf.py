import numpy as np
import pytest

from conftest import random_symmetric_model, symmetric_tables
from oracles import incidence_by_loop
from winoctx import sheaf
from winoctx.cbd import chsh_violation
from winoctx.empirical import EmpiricalModel, from_global_weights, outcome_tuples
from winoctx.linprog import LpSizeError
from winoctx.report import build_report
from winoctx.scenario import MeasurementScenario, maximal_contexts
from winoctx.sheaf import (
    SignallingModelError,
    contextual_fraction,
    global_assignments,
    incidence,
    is_noncontextual,
)


def test_assignment_counts(chsh_scenario):
    assert len(global_assignments(chsh_scenario)) == 16
    ws = MeasurementScenario.from_maximal(
        observables=("p_s", "p_a"),
        maximal_faces=[("p_s",), ("p_a",)],
        outcomes=("A", "B"),
    )
    assert len(global_assignments(ws)) == 4
    single = MeasurementScenario.from_maximal(
        observables=("x",), maximal_faces=[("x",)], outcomes=("r", "g", "b")
    )
    assert global_assignments(single) == [("r",), ("g",), ("b",)]


def test_assignments_are_lexicographic(chsh_scenario):
    assignments = global_assignments(chsh_scenario)
    assert assignments[0] == ("0", "0", "0", "0")
    assert assignments[1] == ("0", "0", "0", "1")
    assert assignments[-1] == ("1", "1", "1", "1")
    assert assignments == sorted(assignments)


def test_assignment_cap():
    scenario = MeasurementScenario.from_maximal(
        observables=tuple(f"x{i}" for i in range(9)),
        maximal_faces=[tuple(f"x{i}" for i in range(9))],
        outcomes=("a", "b", "c", "d"),
    )
    with pytest.raises(LpSizeError):
        incidence(scenario)


def cycle(rank, outcomes=("0", "1")):
    names = tuple(f"x{i}" for i in range(rank))
    return MeasurementScenario.from_maximal(
        observables=names,
        maximal_faces=[(names[i], names[(i + 1) % rank]) for i in range(rank)],
        outcomes=outcomes,
    )


INCIDENCE_CASES = {
    **{f"binary-cycle-{n}": cycle(n) for n in range(3, 11)},
    "3-outcome-cycle-4": cycle(4, ("r", "g", "b")),
    "4-outcome-cycle-5": cycle(5, ("a", "b", "c", "d")),
    "triangle-face": MeasurementScenario.from_maximal(
        observables=("x", "y", "z", "w"),
        maximal_faces=[("x", "y", "z"), ("z", "w")],
        outcomes=("0", "1"),
    ),
    "one-pronoun": MeasurementScenario.from_maximal(
        observables=("p_s", "p_a"),
        maximal_faces=[("p_s",), ("p_a",)],
        outcomes=("A", "B"),
    ),
    "declared-z-y-x": MeasurementScenario.from_maximal(
        observables=("z", "y", "x"),
        maximal_faces=[("x", "y"), ("y", "z")],
        outcomes=("0", "1"),
    ),
}


@pytest.mark.parametrize("name", INCIDENCE_CASES)
def test_incidence_matches_loop(name):
    scenario = INCIDENCE_CASES[name]
    rows, assignments, matrix = incidence_by_loop(scenario)
    system = incidence(scenario)
    assert system.rows == rows
    assert system.assignments == assignments
    assert system.matrix.shape == matrix.shape
    assert system.matrix.tobytes() == matrix.tobytes()


def test_cf_size_refused_before_enumeration(monkeypatch):
    def enumerate_assignments(scenario):
        raise AssertionError("assignments of an oversized program were enumerated")

    monkeypatch.setattr(sheaf, "global_assignments", enumerate_assignments)
    with pytest.raises(LpSizeError, match=r"^48x4096 problem exceeds the 1024x1024 cap$"):
        incidence(cycle(12))


def test_report_on_rank_16_cycle_omits_cf_keeps_cnt1():
    # fifteen perfect correlations and one perfect anticorrelation
    scenario = cycle(16)
    model = EmpiricalModel.build(scenario, symmetric_tables(scenario, [0.5] * 15 + [0.0]))
    report = build_report(model)
    assert report.non_signalling
    assert report.cyclic.cnt1 == 2.0
    assert report.cf is None and report.verdict_sheaf is None
    assert "contextual fraction omitted: 64x65536 problem exceeds the 1024x1024 cap" in (
        report.notices
    )


def test_incidence_structure(chsh_scenario):
    system = incidence(chsh_scenario)
    assert system.matrix.shape == (16, 16)
    assert set(np.unique(system.matrix)) <= {0.0, 1.0}
    # each assignment restricts to exactly one joint outcome per context
    for block_start in range(0, 16, 4):
        block = system.matrix[block_start : block_start + 4]
        assert np.all(block.sum(axis=0) == 1.0)


def test_pr_box_fully_contextual(pr_model):
    result = contextual_fraction(pr_model)
    assert result.cf == pytest.approx(1.0, abs=1e-9)
    assert result.ncf_weight == pytest.approx(0.0, abs=1e-9)
    assert result.gap <= 1e-7


def test_bell_model_quarter(bell_model):
    result = contextual_fraction(bell_model)
    assert result.cf == pytest.approx(0.25, abs=1e-6)
    assert result.gap <= 1e-7


def test_uniform_model_noncontextual(uniform_model):
    result = contextual_fraction(uniform_model)
    assert result.cf == 0.0
    assert result.ncf_weight == 1.0


def test_judgment_model_fraction(judgment_model):
    result = contextual_fraction(judgment_model)
    assert result.cf == pytest.approx(0.096, abs=1e-3)
    violation = chsh_violation(judgment_model)
    assert result.cf == pytest.approx(violation / 2.0, abs=1e-6)


def test_witness_is_dominated_subdistribution(judgment_model):
    result = contextual_fraction(judgment_model)
    weights = dict(zip(result.assignments, result.witness))
    assert all(w >= -1e-12 for w in weights.values())
    total = sum(weights.values())
    assert total == pytest.approx(result.ncf_weight, abs=1e-9)
    # pushforward of the witness never exceeds the empirical probabilities
    for ctx in judgment_model.contexts:
        dist = judgment_model.distribution(ctx)
        idx = [judgment_model.scenario.observables.index(o) for o in ctx]
        for outcome in outcome_tuples(judgment_model.scenario.outcomes, len(ctx)):
            mass = sum(
                w
                for assignment, w in weights.items()
                if tuple(assignment[i] for i in idx) == outcome
            )
            assert mass <= dist.prob(outcome) + 1e-9


def test_symmetric_models_saturate_violation_bound(chsh_scenario):
    rng = np.random.default_rng(17)
    for _ in range(60):
        model = random_symmetric_model(chsh_scenario, rng)
        result = contextual_fraction(model)
        target = max(0.0, chsh_violation(model) / 2.0)
        assert result.cf == pytest.approx(target, abs=1e-6)
        assert result.gap <= 1e-7
        assert 0.0 <= result.cf <= 1.0


def test_noise_mixing_monotonicity(bell_model, chsh_scenario):
    # uniform noise never increases cf, and convexity caps cf' at (1-mu)cf.
    # No cf' >= cf - mu style lower bound exists: the violation falls at
    # slope (violation + 2) per unit of noise, so cf falls faster than mu.
    base = contextual_fraction(bell_model).cf
    for mu in (0.05, 0.2, 0.5, 0.9):
        tables = {}
        for ctx in bell_model.contexts:
            dist = bell_model.distribution(ctx)
            tables[ctx] = {
                o: (1.0 - mu) * dist.prob(o) + mu * 0.25
                for o in outcome_tuples(("0", "1"), 2)
            }
        mixed = EmpiricalModel.build(chsh_scenario, tables)
        mixed_cf = contextual_fraction(mixed).cf
        assert mixed_cf <= base + 1e-9
        assert mixed_cf <= (1.0 - mu) * base + 1e-9
        assert mixed_cf == pytest.approx(max(0.0, base - 1.25 * mu), abs=1e-9)


def test_deterministic_models_not_contextual(chsh_scenario):
    rng = np.random.default_rng(23)
    assignments = global_assignments(chsh_scenario)
    for _ in range(10):
        point = {assignments[rng.integers(len(assignments))]: 1.0}
        model = from_global_weights(chsh_scenario, point)
        assert contextual_fraction(model).cf == 0.0
        ok, witness = is_noncontextual(model)
        assert ok
        # the feasibility band is +-1e-7 wide, so the point mass can sit
        # a hair inside it
        assert max(witness.values()) == pytest.approx(1.0, abs=1e-6)


def test_is_noncontextual_verdicts(uniform_model, pr_model, judgment_model, bell_model):
    ok, witness = is_noncontextual(uniform_model)
    assert ok
    assert sum(witness.values()) == pytest.approx(1.0, abs=1e-9)
    assert not is_noncontextual(pr_model)[0]
    assert not is_noncontextual(judgment_model)[0]
    assert not is_noncontextual(bell_model)[0]


def test_cf_zero_iff_noncontextual(chsh_scenario):
    rng = np.random.default_rng(31)
    for _ in range(30):
        model = random_symmetric_model(chsh_scenario, rng)
        cf = contextual_fraction(model).cf
        verdict = is_noncontextual(model)[0]
        assert (cf <= 1e-9) == verdict


def signalling_model():
    scenario = MeasurementScenario.from_maximal(
        observables=("a1", "b1", "b2"),
        maximal_faces=[("a1", "b1"), ("a1", "b2")],
        outcomes=("0", "1"),
    )
    return EmpiricalModel.build(
        scenario,
        {
            ("a1", "b1"): {("0", "0"): 0.9, ("1", "0"): 0.1},
            ("a1", "b2"): {("0", "0"): 0.5, ("1", "0"): 0.5},
        },
    )


def test_signalling_model_refused():
    with pytest.raises(SignallingModelError):
        is_noncontextual(signalling_model())


def test_report_marks_cf_of_signalling_model_unreliable(pr_model):
    report = build_report(signalling_model())
    assert report.cf is not None and not report.cf.reliable
    assert report.verdict_sheaf is None
    assert any("verdict withheld" in notice for notice in report.notices)
    report = build_report(pr_model)
    assert report.cf.reliable and report.verdict_sheaf is True


def test_mixture_of_global_weights_noncontextual(chsh_scenario):
    rng = np.random.default_rng(41)
    assignments = global_assignments(chsh_scenario)
    for _ in range(10):
        raw = rng.random(len(assignments))
        weights = dict(zip(assignments, raw / raw.sum()))
        model = from_global_weights(chsh_scenario, weights)
        assert contextual_fraction(model).cf <= 1e-9
        assert is_noncontextual(model)[0]


def test_ws_scenario_models_never_contextual():
    # two disjoint singleton contexts leave nothing for contextuality
    # to live on: any pair of marginals extends to a global distribution
    ws = MeasurementScenario.from_maximal(
        observables=("p_s", "p_a"),
        maximal_faces=[("p_s",), ("p_a",)],
        outcomes=("A", "B"),
    )
    rng = np.random.default_rng(47)
    for _ in range(20):
        p, q = rng.integers(0, 1025, size=2) / 1024.0
        tables = {
            ("p_s",): {("A",): p, ("B",): 1.0 - p},
            ("p_a",): {("A",): q, ("B",): 1.0 - q},
        }
        model = EmpiricalModel.build(ws, tables)
        assert contextual_fraction(model).cf == 0.0
        assert is_noncontextual(model)[0]
