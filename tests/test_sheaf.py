import numpy as np
import pytest

from conftest import random_symmetric_model, symmetric_tables
from oracles import from_global_weights, incidence_by_loop
from winoctx import sheaf
from winoctx.cbd import chsh_violation
from winoctx.empirical import EmpiricalModel, outcome_tuples
from winoctx.ingest import ContextTally, tally_distribution
from winoctx.linprog import LpSizeError
from winoctx.report import build_report, render_text
from winoctx.scenario import (
    InvalidScenarioError,
    MeasurementScenario,
    cyclic_structure,
    maximal_contexts,
    validate,
)
from winoctx.sheaf import contextual_fraction, incidence


def column_assignments(scenario):
    """Each column of `incidence(scenario)` read back as the global
    assignment, in scenario.observables order, whose restrictions its
    1-entries mark."""
    system = incidence(scenario)
    assignments = []
    for column in system.matrix.T:
        values = {}
        for (ctx, joint), cell in zip(system.rows, column):
            if cell:
                values.update(zip(ctx, joint))
        assignments.append(tuple(values[obs] for obs in scenario.observables))
    return assignments


def test_assignment_counts(chsh_scenario):
    assert incidence(chsh_scenario).matrix.shape[1] == 16
    ws = MeasurementScenario.from_maximal(
        observables=("p_s", "p_a"),
        maximal_faces=[("p_s",), ("p_a",)],
        outcomes=("A", "B"),
    )
    assert incidence(ws).matrix.shape[1] == 4
    single = MeasurementScenario.from_maximal(
        observables=("x",), maximal_faces=[("x",)], outcomes=("r", "g", "b")
    )
    assert incidence(single).matrix.shape[1] == 3
    assert column_assignments(single) == [("r",), ("g",), ("b",)]


def test_assignments_are_lexicographic(chsh_scenario):
    assignments = column_assignments(chsh_scenario)
    assert tuple(assignments) == incidence_by_loop(chsh_scenario)[1]
    assert assignments[0] == ("0", "0", "0", "0")
    assert assignments[1] == ("0", "0", "0", "1")
    assert assignments[-1] == ("1", "1", "1", "1")
    assert assignments == sorted(assignments)


def test_assignment_cap():
    names = tuple(f"x{i}" for i in range(9))
    scenario = MeasurementScenario.from_maximal(
        observables=names,
        maximal_faces=[(names[i], names[(i + 1) % 9]) for i in range(9)],
        outcomes=("a", "b", "c", "d"),
    )
    with pytest.raises(LpSizeError):
        incidence(scenario)


def test_oversized_table_refused_before_it_is_built(monkeypatch):
    def enumerate_outcomes(*args):
        raise AssertionError("joint outcomes of an oversized context were enumerated")

    monkeypatch.setattr("winoctx.empirical.outcome_tuples", enumerate_outcomes)
    monkeypatch.setattr("winoctx.sheaf.outcome_tuples", enumerate_outcomes)
    names = tuple(f"x{i}" for i in range(9))
    with pytest.raises(InvalidScenarioError, match="4\\^9 joint outcomes") as exc:
        MeasurementScenario.from_maximal(
            observables=names, maximal_faces=[names], outcomes=("a", "b", "c", "d")
        )
    assert exc.value.problems == (
        f"context {sorted(names)} has 4^9 joint outcomes, over the supported 65536",
    )
    # a binary context over every supported observable is within the cap
    names = tuple(f"x{i}" for i in range(16))
    binary = MeasurementScenario.from_maximal(names, [names], ("0", "1"))
    assert validate(binary) == ()


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
    # equal bytes pin the columns, which the witness is read against, to
    # the oracle's order of assignments
    assert system.matrix.shape == matrix.shape
    assert system.matrix.tobytes() == matrix.tobytes()


def test_cf_size_refused_before_enumeration(monkeypatch):
    def enumerate_outcomes(*args):
        raise AssertionError("rows or assignments of an oversized program were enumerated")

    # the one enumerator of `incidence`'s rows
    monkeypatch.setattr(sheaf, "outcome_tuples", enumerate_outcomes)
    with pytest.raises(LpSizeError, match=r"^48x4096 problem exceeds the 1024x1024 cap$"):
        incidence(cycle(12))


def test_report_on_rank_16_cycle_gives_closed_form_cf():
    # fifteen perfect correlations and one perfect anticorrelation: a PR box
    scenario = cycle(16)
    model = EmpiricalModel.build(scenario, symmetric_tables(scenario, [0.5] * 15 + [0.0]))
    report = build_report(model)
    assert report.non_signalling
    assert report.cyclic.cnt1 == 2.0
    assert report.cf.cf == 1.0 and report.cf.ncf_weight == 0.0 and report.cf.gap == 0.0
    assert report.to_dict()["contextual_fraction"]["reliable"]
    assert report.verdict_sheaf is True
    assert not any("omitted: " in notice and "cap" in notice for notice in report.notices)


def test_report_on_signalling_rank_12_cycle_omits_cf_with_notice():
    # perfect correlations, but x0 is fixed in its first context only
    scenario = cycle(12)
    tables = symmetric_tables(scenario, [0.5] * 12)
    first = maximal_contexts(scenario)[0]
    tables[first] = {("0", "0"): 1.0, ("0", "1"): 0.0, ("1", "0"): 0.0, ("1", "1"): 0.0}
    report = build_report(EmpiricalModel.build(scenario, tables))
    assert not report.non_signalling
    assert report.cyclic is not None
    assert report.cf is None and report.verdict_sheaf is None
    assert "contextual fraction omitted: 48x4096 problem exceeds the 1024x1024 cap" in (
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
    system = incidence(judgment_model.scenario)
    assert result.witness.shape == (system.matrix.shape[1],)
    assert np.all(result.witness >= -1e-12)
    assert result.witness.sum() == pytest.approx(result.ncf_weight, abs=1e-9)
    # pushforward of the witness never exceeds the empirical probabilities
    b = np.array([judgment_model.distribution(ctx).prob(joint) for ctx, joint in system.rows])
    assert np.all(system.matrix @ result.witness <= b + 1e-9)


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
        for ctx in bell_model.scenario.maximal:
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
    assignments = column_assignments(chsh_scenario)
    for _ in range(10):
        point = {assignments[rng.integers(len(assignments))]: 1.0}
        model = from_global_weights(chsh_scenario, point)
        result = contextual_fraction(model)
        assert result.cf == 0.0
        assert build_report(model).verdict_sheaf is False
        # the feasibility band is +-1e-7 wide, so the point mass can sit
        # a hair inside it
        assert result.witness.max() == pytest.approx(1.0, abs=1e-6)
        assert assignments[int(np.argmax(result.witness))] in point


def test_is_noncontextual_verdicts(uniform_model, pr_model, judgment_model, bell_model):
    result = contextual_fraction(uniform_model)
    assert build_report(uniform_model).verdict_sheaf is False
    assert result.witness.sum() == pytest.approx(1.0, abs=1e-9)
    assert build_report(pr_model).verdict_sheaf is True
    assert build_report(judgment_model).verdict_sheaf is True
    assert build_report(bell_model).verdict_sheaf is True


def test_report_and_is_noncontextual_share_the_default_tolerance(chsh_scenario):
    # correlations (c, c, c, -c) with 4c = 2 + 1e-7: cf = 5e-8, above the
    # default PROB_TOL of both
    c = (2 + 1e-7) / 4
    p_sames = [(1 + c) / 4] * 3 + [(1 - c) / 4]
    model = EmpiricalModel.build(chsh_scenario, symmetric_tables(chsh_scenario, p_sames))
    assert contextual_fraction(model).cf == pytest.approx(5e-8, rel=1e-3)
    report = build_report(model)
    assert report.cf.cf == pytest.approx(5e-8, rel=1e-6)
    assert report.verdict_sheaf is True


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


def test_report_marks_cf_of_signalling_model_unreliable(pr_model):
    report = build_report(signalling_model())
    assert report.cf is not None
    assert not report.to_dict()["contextual_fraction"]["reliable"]
    assert report.verdict_sheaf is None
    assert any("verdict withheld" in notice for notice in report.notices)
    report = build_report(pr_model)
    assert report.to_dict()["contextual_fraction"]["reliable"]
    assert report.verdict_sheaf is True


def test_report_sheaf_verdict_decided_at_tol():
    # a bootstrap draw of the cannibal tallies (n_valid 93, 85, 85, 85) whose
    # cf is one rounding step above 0: noncontextual, and reported so
    names = ("x1", "x2", "x3", "x4")
    scenario = MeasurementScenario.from_maximal(
        names, [(names[i], names[(i + 1) % 4]) for i in range(4)], ("A", "B"))
    tables = {
        ctx: tally_distribution(ContextTally(n, k, n - k), ("A", "B"))
        for ctx, n, k in zip(cyclic_structure(scenario).contexts,
                             (93, 85, 85, 85), (73, 48, 56, 4))
    }
    model = EmpiricalModel.build(scenario, tables)
    assert 0.0 < contextual_fraction(model).cf <= 1e-15
    report = build_report(model)
    assert report.verdict_cbd is False
    assert report.verdict_sheaf is False
    assert "sheaf contextual: no" in render_text(report.to_dict())


def test_report_cbd_verdict_decided_at_tol():
    # correlations -1/3, 1, -1/3, -1/3 lie on the CHSH facet (s_odd = 2 in
    # rationals); in floats cnt1 is a rounding step above 0
    names = ("x1", "x2", "x3", "x4")
    scenario = MeasurementScenario.from_maximal(
        names, [(names[i], names[(i + 1) % 4]) for i in range(4)], ("A", "B"))
    tables = {
        ctx: tally_distribution(ContextTally(n, k, n - k), ("A", "B"))
        for ctx, n, k in zip(cyclic_structure(scenario).contexts,
                             (3, 17, 9, 3), (1, 17, 3, 1))
    }
    report = build_report(EmpiricalModel.build(scenario, tables))
    assert 0.0 < report.cyclic.cnt1 <= 1e-15
    assert report.verdict_cbd is False
    assert report.verdict_sheaf is False
    assert "verdicts: CbD contextual: no; sheaf contextual: no" in render_text(report.to_dict())


def test_mixture_of_global_weights_noncontextual(chsh_scenario):
    rng = np.random.default_rng(41)
    assignments = column_assignments(chsh_scenario)
    for _ in range(10):
        raw = rng.random(len(assignments))
        weights = dict(zip(assignments, raw / raw.sum()))
        model = from_global_weights(chsh_scenario, weights)
        assert contextual_fraction(model).cf <= 1e-9
        assert build_report(model).verdict_sheaf is False


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
        assert build_report(model).verdict_sheaf is False
