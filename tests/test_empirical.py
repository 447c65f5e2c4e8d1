import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_symmetric_model
from winoctx.empirical import (
    Distribution,
    EmpiricalModel,
    EmpiricalModelError,
    from_global_weights,
    is_non_signalling,
    is_outcome_symmetric,
    outcome_tuples,
    signalling,
)
from winoctx.scenario import MeasurementScenario


def test_marginal_of_bell_row_is_uniform(bell_model):
    dist = bell_model.distribution(("a1", "b1"))
    marg = dist.marginalize(["a1"])
    assert marg.prob(("0",)) == pytest.approx(0.5, abs=1e-12)
    assert marg.prob(("1",)) == pytest.approx(0.5, abs=1e-12)


def test_marginal_on_full_context_is_identity(judgment_model):
    ctx = judgment_model.contexts[0]
    dist = judgment_model.distribution(ctx)
    marg = dist.marginalize(ctx)
    for outcome in outcome_tuples(dist.outcome_set, 2):
        assert marg.prob(outcome) == dist.prob(outcome)


def test_marginal_of_point_mass():
    dist = Distribution.from_mapping(
        context=("p1", "p2"),
        outcome_set=("A", "B"),
        probs={("A", "A"): 1.0},
    )
    marg = dist.marginalize(["p1"])
    assert marg.prob(("A",)) == 1.0
    assert marg.prob(("B",)) == 0.0


def test_marginalize_requires_subset():
    dist = Distribution.from_mapping(
        context=("p1", "p2"), outcome_set=("A", "B"), probs={("A", "A"): 1.0}
    )
    with pytest.raises(EmpiricalModelError):
        dist.marginalize(["p3"])


@given(st.lists(st.floats(0.001, 1.0), min_size=8, max_size=8))
def test_marginalization_is_associative(raw):
    total = math.fsum(raw)
    probs = {
        outcome: w / total
        for outcome, w in zip(outcome_tuples(("A", "B"), 3), raw)
    }
    dist = Distribution.from_mapping(
        context=("x", "y", "z"), outcome_set=("A", "B"), probs=probs
    )
    direct = dist.marginalize(["x"])
    for step in (["x", "y"], ["x", "z"]):
        stepped = dist.marginalize(step).marginalize(["x"])
        for outcome in outcome_tuples(("A", "B"), 1):
            assert stepped.prob(outcome) == pytest.approx(
                direct.prob(outcome), abs=1e-12
            )


def test_distribution_rejects_negative_and_unnormalized():
    with pytest.raises(EmpiricalModelError):
        Distribution.from_mapping(
            context=("p",), outcome_set=("A", "B"), probs={("A",): -0.1, ("B",): 1.1}
        )
    with pytest.raises(EmpiricalModelError):
        Distribution.from_mapping(
            context=("p",), outcome_set=("A", "B"), probs={("A",): 0.7}
        )
    with pytest.raises(EmpiricalModelError, match="out of range"):
        Distribution.from_mapping(
            context=("p",), outcome_set=("A", "B"),
            probs={("A",): float("nan"), ("B",): 1.0},
        )
    with pytest.raises(EmpiricalModelError):
        Distribution.from_mapping(
            context=("p", "q"), outcome_set=("A", "B"), probs={("A",): 1.0}
        )


def test_bell_model_is_non_signalling_exactly(bell_model):
    report = signalling(bell_model)
    assert report.max_discrepancy == 0.0
    assert is_non_signalling(bell_model)


def test_judgment_model_is_non_signalling(judgment_model):
    assert signalling(judgment_model).max_discrepancy <= 1e-9


def test_signalling_counterexample_reports_discrepancy():
    scenario = MeasurementScenario.from_maximal(
        observables=("a1", "b1", "b2"),
        maximal_faces=[("a1", "b1"), ("a1", "b2")],
        outcomes=("0", "1"),
    )
    model = EmpiricalModel.build(
        scenario,
        {
            ("a1", "b1"): {("0", "0"): 0.9, ("1", "0"): 0.1},
            ("a1", "b2"): {("0", "0"): 0.5, ("1", "0"): 0.5},
        },
    )
    report = signalling(model)
    assert report.max_discrepancy == pytest.approx(0.8, abs=1e-12)
    assert not report.ok(1e-9)
    assert "a1" in str(report.worst)
    assert not is_non_signalling(model)


def test_outcome_symmetry(judgment_model, pr_model):
    assert is_outcome_symmetric(judgment_model)
    assert is_outcome_symmetric(pr_model)


def test_point_mass_model_not_symmetric(chsh_scenario):
    from winoctx.scenario import maximal_contexts

    tables = {
        ctx: {("0", "0"): 1.0} for ctx in maximal_contexts(chsh_scenario)
    }
    model = EmpiricalModel.build(chsh_scenario, tables)
    assert not is_outcome_symmetric(model)
    for ctx in model.contexts:
        assert model.distribution(ctx).expectation(ctx[0], model.sign) == 1.0
        assert model.distribution(ctx).correlation(model.sign) == 1.0


def test_expectation_of_symmetric_row_is_zero(judgment_model):
    ctx = judgment_model.contexts[0]
    dist = judgment_model.distribution(ctx)
    for obs in ctx:
        assert dist.expectation(obs, judgment_model.sign) == 0.0


def test_expectation_of_uniform_is_zero(uniform_model):
    for dist in uniform_model.distributions:
        for obs in dist.context:
            assert dist.expectation(obs, uniform_model.sign) == 0.0
        assert dist.correlation(uniform_model.sign) == 0.0


def test_judgment_correlations_match_table(judgment_model):
    want = {
        ("(one of them,cannibalistic)", "(one of them,hungry)"): 0.610,
        ("(one of them,cannibalistic)", "(one of them,alive)"): -0.822,
        ("(one of them,herbivorous)", "(one of them,hungry)"): 0.382,
        ("(one of them,herbivorous)", "(one of them,alive)"): 0.378,
    }
    for ctx, value in want.items():
        corr = judgment_model.distribution(ctx).correlation(judgment_model.sign)
        assert corr == pytest.approx(value, abs=1e-9)


def test_bell_row_correlation_is_one(bell_model):
    assert bell_model.distribution(("a1", "b1")).correlation(bell_model.sign) == 1.0


def test_build_requires_exact_context_cover(chsh_scenario):
    from winoctx.scenario import maximal_contexts

    tables = {
        ctx: {("0", "0"): 0.5, ("1", "1"): 0.5}
        for ctx in maximal_contexts(chsh_scenario)[:3]
    }
    with pytest.raises(EmpiricalModelError, match="missing"):
        EmpiricalModel.build(chsh_scenario, tables)
    tables = {
        ctx: {("0", "0"): 0.5, ("1", "1"): 0.5}
        for ctx in maximal_contexts(chsh_scenario)
    }
    tables[("a1", "a2")] = {("0", "0"): 1.0}
    with pytest.raises(EmpiricalModelError, match="non-context"):
        EmpiricalModel.build(chsh_scenario, tables)


@given(st.lists(st.integers(0, 1024), min_size=4, max_size=4))
def test_symmetric_models_never_signal(p_numerators):
    # symmetry forces uniform single-observable marginals, so the
    # discrepancy must vanish bit-for-bit, not just within tolerance
    from winoctx.files import load_scenario
    from winoctx.fixtures import fixture_path
    from conftest import symmetric_tables

    scenario = load_scenario(fixture_path("chsh_scenario.json"))
    p_sames = [k / 2048.0 for k in p_numerators]
    model = EmpiricalModel.build(scenario, symmetric_tables(scenario, p_sames))
    assert is_outcome_symmetric(model)
    assert signalling(model).max_discrepancy == 0.0
    for ctx in model.contexts:
        for obs in ctx:
            assert model.distribution(ctx).expectation(obs, model.sign) == 0.0


def test_global_weights_model_is_non_signalling(chsh_scenario):
    from winoctx.sheaf import global_assignments

    rng = np.random.default_rng(5)
    raw = rng.random(16)
    weights = dict(zip(global_assignments(chsh_scenario), raw / raw.sum()))
    model = from_global_weights(chsh_scenario, weights)
    assert signalling(model).max_discrepancy <= 1e-12


def test_random_symmetric_model_helper(chsh_scenario):
    model = random_symmetric_model(chsh_scenario, np.random.default_rng(0))
    assert is_outcome_symmetric(model)
