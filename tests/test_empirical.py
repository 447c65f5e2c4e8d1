import math
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_symmetric_model, symmetric_tables
from oracles import (
    from_global_weights,
    marginal,
    maximal_contexts_by_completion,
    signalling_by_faces,
    signalling_pairwise,
)
from winoctx import empirical
from winoctx.cbd import CyclicSystem, CyclicSystemError
from winoctx.empirical import (
    Distribution,
    EmpiricalModel,
    EmpiricalModelError,
    is_non_signalling,
    is_outcome_symmetric,
    outcome_tuples,
    signalling,
)
from winoctx.scenario import MeasurementScenario, cycle_through, maximal_contexts


def test_marginal_of_bell_row_is_uniform(bell_model):
    dist = bell_model.distribution(("a1", "b1"))
    marg = marginal(dist.table, dist.context, ["a1"])
    assert marg[("0",)] == pytest.approx(0.5, abs=1e-12)
    assert marg[("1",)] == pytest.approx(0.5, abs=1e-12)


def test_marginal_on_full_context_is_identity(judgment_model):
    ctx = judgment_model.scenario.maximal[0]
    dist = judgment_model.distribution(ctx)
    marg = marginal(dist.table, ctx, ctx)
    for outcome in outcome_tuples(dist.outcome_set, 2):
        assert marg[outcome] == dist.prob(outcome)


def test_marginal_of_point_mass():
    dist = Distribution.from_mapping(
        context=("p1", "p2"),
        outcome_set=("A", "B"),
        probs={("A", "A"): 1.0},
    )
    marg = marginal(dist.table, dist.context, ["p1"])
    assert marg[("A",)] == 1.0
    assert marg[("B",)] == 0.0


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
    direct = marginal(dist.table, dist.context, ["x"])
    for step in (["x", "y"], ["x", "z"]):
        stepped = marginal(marginal(dist.table, dist.context, step), step, ["x"])
        for outcome in outcome_tuples(("A", "B"), 1):
            assert stepped[outcome] == pytest.approx(direct[outcome], abs=1e-12)


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
    assert report.max_discrepancy > 1e-9
    assert "a1" in str(report.worst)
    assert not is_non_signalling(model)


OVERLAP_SCENARIOS = {
    # name: (contexts, whether every pairwise overlap is a single observable)
    "cycle-5": ([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")], True),
    "two-member-overlap": ([("a", "b", "c"), ("b", "c", "d"), ("d", "e", "a")], False),
    "three-member-overlap": ([("a", "b", "c", "d"), ("b", "c", "d", "e"), ("e", "a")], False),
    "face-in-three-contexts": ([("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d")], False),
}


def random_model(scenario, rng, kind):
    """Non-signalling ("global"), signalling ("random") or slightly
    signalling ("perturbed") random model on `scenario`."""
    assignments = list(product(scenario.outcomes, repeat=len(scenario.observables)))
    weights = rng.random(len(assignments))
    model = from_global_weights(scenario, dict(zip(assignments, weights / weights.sum())))
    if kind == "global":
        return model
    tables = {}
    for dist in model.distributions:
        values = np.array(list(dist.table.values()))
        if kind == "random":
            values = rng.random(len(values))
        else:
            values = values * (1.0 + 1e-3 * rng.random(len(values)))
        tables[dist.context] = dict(zip(dist.table, values / values.sum()))
    return EmpiricalModel.build(scenario, tables)


@pytest.mark.parametrize("name", OVERLAP_SCENARIOS)
@pytest.mark.parametrize("outcomes", [("0", "1"), ("r", "g", "b")])
def test_signalling_matches_walk_over_shared_faces(name, outcomes):
    contexts, single_overlaps = OVERLAP_SCENARIOS[name]
    observables = sorted(set().union(*contexts))
    scenario = MeasurementScenario.from_maximal(observables, contexts, outcomes)
    rng = np.random.default_rng(0)
    for trial in range(30):
        model = random_model(scenario, rng, ("global", "random", "perturbed")[trial % 3])
        got = signalling(model).max_discrepancy
        expected = signalling_by_faces(model)
        if single_overlaps:
            assert got == expected
        else:
            assert 0.0 <= expected - got <= 1e-15


# every OVERLAP_SCENARIOS shape, plus contexts that share nothing and one
# observable that every context shares
SHAPES = {
    **{name: contexts for name, (contexts, _) in OVERLAP_SCENARIOS.items()},
    "disjoint": [("a", "b"), ("c", "d"), ("e",)],
    "star": [("a", "w"), ("a", "x"), ("a", "y"), ("a", "z")],
}


def cycle_faces(n):
    names = [f"o{k}" for k in range(n)]
    return [(names[k], names[(k + 1) % n]) for k in range(n)]


def pooled_model(scenario, rng):
    """Each context's table drawn from a pool of two per arity, entries in
    quarters: many pairs share a distance exactly, so ties are common."""
    pools = {}
    tables = {}
    for ctx in maximal_contexts(scenario):
        keys = list(product(scenario.outcomes, repeat=len(ctx)))
        if len(ctx) not in pools:
            pools[len(ctx)] = []
            for _ in range(2):
                cells = rng.choice(len(keys), size=4)
                pools[len(ctx)].append({keys[c]: 0.0 for c in cells})
                for c in cells:
                    pools[len(ctx)][-1][keys[c]] += 0.25
        tables[ctx] = pools[len(ctx)][rng.integers(2)]
    return EmpiricalModel.build(scenario, tables)


@st.composite
def overlapping_models(draw):
    outcomes = draw(st.sampled_from([("0", "1"), ("r", "g", "b")]))
    if draw(st.booleans()):
        faces = cycle_faces(draw(st.integers(3, 12 if len(outcomes) == 2 else 7)))
    else:
        faces = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    observables = draw(st.permutations(sorted(set().union(*faces))))
    scenario = MeasurementScenario.from_maximal(observables, faces, outcomes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["global", "random", "perturbed", "pooled"]))
    if kind == "pooled":
        return pooled_model(scenario, rng)
    return random_model(scenario, rng, kind)


@settings(max_examples=200, deadline=None)
@given(overlapping_models())
def test_signalling_equals_all_pairs_oracle(model):
    got = signalling(model)
    expected = signalling_pairwise(model)
    assert got.max_discrepancy.hex() == expected.max_discrepancy.hex()
    assert got.worst == expected.worst


@st.composite
def declared_models(draw):
    """A model on a SHAPES scenario or a cycle of rank 3-16, its observables
    declared in any order; pooled tables, or random ones where the global
    weights stay small."""
    outcomes = draw(st.sampled_from([("0", "1"), ("r", "g", "b")]))
    if draw(st.booleans()):
        faces = cycle_faces(draw(st.integers(3, 16)))
    else:
        faces = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    observables = draw(st.permutations(sorted(set().union(*faces))))
    scenario = MeasurementScenario.from_maximal(observables, faces, outcomes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = ["pooled"]
    if len(outcomes) ** len(observables) <= 4096:
        kinds += ["global", "random", "perturbed"]
    kind = draw(st.sampled_from(kinds))
    if kind == "pooled":
        return pooled_model(scenario, rng)
    return random_model(scenario, rng, kind)


def cyclic_system_or_error(model):
    try:
        return CyclicSystem.from_model(model)
    except CyclicSystemError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(declared_models(), st.randoms(use_true_random=False))
def test_scenario_caches_equal_a_recompute(model, rnd):
    scenario = model.scenario
    reversed_model = EmpiricalModel(scenario, model.distributions[::-1])
    report = signalling(model)  # fills the caches
    system = cyclic_system_or_error(model)
    assert signalling(reversed_model) == report == signalling_pairwise(model)
    assert cyclic_system_or_error(reversed_model) == system

    contexts = maximal_contexts_by_completion(scenario.observables, scenario.contexts)
    assert list(scenario.maximal) == contexts
    pairs = {}
    for (i, first), (j, second) in combinations(enumerate(contexts), 2):
        if shared := tuple(obs for obs in first if obs in second):
            pairs.setdefault(shared, []).append((i, j))
    assert scenario.shared_faces == tuple(
        (face, tuple(sorted({k for ij in at for k in ij})), tuple(at))
        for face, at in pairs.items())
    shuffled = list(contexts)
    rnd.shuffle(shuffled)
    assert scenario.cycle == cycle_through(scenario, shuffled)


def test_signalling_worst_is_the_first_pair_at_the_maximum():
    # context 0 shares o09 with contexts 5 and 9 (a set of {5, 9} iterates
    # 9 first), and both pairs reach the largest distance: the earlier
    # pair is the worst
    faces = [("o00", "o09"), ("o05", "o09"), ("o09", "o10")]
    faces += [(f"o0{k}",) for k in (1, 2, 3, 4, 6, 7, 8)]
    scenario = MeasurementScenario.from_maximal(
        [f"o{k:02d}" for k in range(11)], faces, ("0", "1"))
    tables = {}
    for ctx in maximal_contexts(scenario):
        keys = list(product(scenario.outcomes, repeat=len(ctx)))
        tables[ctx] = {key: 1.0 / len(keys) for key in keys}
    tables["o00", "o09"] = {("0", "0"): 1.0}
    model = EmpiricalModel.build(scenario, tables)
    assert scenario.maximal.index(("o05", "o09")) == 5
    assert scenario.maximal.index(("o09", "o10")) == 9
    report = signalling(model)
    assert report == signalling_pairwise(model)
    assert report.max_discrepancy == 1.0
    assert report.worst == (("o09",), ("o00", "o09"), ("o05", "o09"))


def test_signalling_worst_is_the_first_pair_at_the_maximum_across_faces():
    # faces are walked in the order of their first pair: {a} (pairs (0, 1),
    # (0, 2), (1, 2)) before {b} (pair (0, 3)); (1, 2) and (0, 3) both reach
    # 1.0, and (0, 3) comes first
    scenario = MeasurementScenario.from_maximal(
        "abxyz", [("a", "b"), ("a", "x"), ("a", "z"), ("b", "y")], ("0", "1"))
    assert [face for face, _, _ in scenario.shared_faces] == [("a",), ("b",)]
    model = EmpiricalModel.build(scenario, {
        ("a", "b"): {key: 0.25 for key in product("01", repeat=2)},
        ("a", "x"): {("0", "0"): 0.75, ("1", "0"): 0.25},
        ("a", "z"): {("0", "0"): 0.25, ("1", "0"): 0.75},
        ("b", "y"): {("0", "0"): 1.0},
    })
    report = signalling(model)
    assert report == signalling_pairwise(model)
    assert report == (1.0, (("b",), ("a", "b"), ("b", "y")))


def count_signalling_work(monkeypatch, model):
    """(comparisons, measured pairs, marginals) one `signalling` call
    makes: `==` or `!=` tests between marginals, pairs whose distance is
    summed (each reads both marginals once) and `_marginal` calls."""
    counts = {"compared": 0, "read": 0, "marginals": 0}

    class Counted(list):
        def __eq__(self, other):
            counts["compared"] += 1
            return list.__eq__(self, other)

        def __ne__(self, other):
            counts["compared"] += 1
            return list.__ne__(self, other)

        def __iter__(self):
            counts["read"] += 1
            return list.__iter__(self)

    marginal = empirical._marginal

    def counted_marginal(*args):
        counts["marginals"] += 1
        return Counted(marginal(*args))

    monkeypatch.setattr(empirical, "_marginal", counted_marginal)
    signalling(model)
    monkeypatch.undo()
    assert counts["read"] % 2 == 0
    return counts["compared"], counts["read"] // 2, counts["marginals"]


def uniform_pairs_model(scenario):
    """Every two-member context's table uniform: no signalling, exactly."""
    tables = symmetric_tables(scenario, [0.25] * len(scenario.contexts))
    return EmpiricalModel.build(scenario, tables)


@pytest.mark.parametrize("n", [3, 6, 12])
def test_signalling_cost_on_a_cycle(monkeypatch, n):
    # one comparison per shared observable, each pair measured only when
    # its two marginals differ
    faces = cycle_faces(n)
    scenario = MeasurementScenario.from_maximal(sorted(set().union(*faces)), faces, ("0", "1"))
    model = random_model(scenario, np.random.default_rng(n), "random")
    assert count_signalling_work(monkeypatch, model) == (n, n, 2 * n)
    assert count_signalling_work(monkeypatch, uniform_pairs_model(scenario)) == (n, 0, 2 * n)


def test_signalling_cost_without_shared_observables(monkeypatch):
    faces = [(f"x{k}", f"y{k}") for k in range(8)]
    scenario = MeasurementScenario.from_maximal(sorted(set().union(*faces)), faces, ("0", "1"))
    model = random_model(scenario, np.random.default_rng(0), "random")
    assert count_signalling_work(monkeypatch, model) == (0, 0, 0)
    assert signalling(model) == signalling_pairwise(model)


def test_signalling_marginalises_a_shared_face_once_per_context(monkeypatch):
    # the four contexts of the star share {a}: one marginal each, three
    # compared with the first; all 6 pairs are measured only when they differ
    scenario = MeasurementScenario.from_maximal("awxyz", SHAPES["star"], ("0", "1"))
    model = random_model(scenario, np.random.default_rng(0), "random")
    assert count_signalling_work(monkeypatch, model) == (3, 6, 4)
    assert count_signalling_work(monkeypatch, uniform_pairs_model(scenario)) == (3, 0, 4)


def test_signalling_refuses_a_model_without_one_of_its_contexts():
    # a directly built model may lack a context; signalling names it, whether
    # or not the context shares a face
    for faces in (cycle_faces(5), SHAPES["disjoint"]):
        scenario = MeasurementScenario.from_maximal(
            sorted(set().union(*faces)), faces, ("0", "1"))
        built = random_model(scenario, np.random.default_rng(0), "random")
        for k in range(len(built.distributions)):
            model = EmpiricalModel(scenario, built.distributions[:k] + built.distributions[k + 1:])
            with pytest.raises(EmpiricalModelError, match="no distribution for context"):
                signalling(model)


def test_a_model_refuses_a_table_off_its_contexts_or_a_context_listed_twice(chsh_scenario):
    built = random_model(chsh_scenario, np.random.default_rng(0), "random")
    dists = built.distributions
    first = dists[0]
    strangers = [
        Distribution.from_mapping(("a1", "a2"), ("0", "1"), {("0", "0"): 1.0}),
        # the context's observables out of the scenario's order
        Distribution.from_mapping(first.context[::-1], ("0", "1"), {("0", "0"): 1.0}),
    ]
    for stranger in strangers:
        for listed in (dists + (stranger,), (stranger,) + dists, (stranger,)):
            with pytest.raises(EmpiricalModelError,
                               match=re.escape(f"distribution for {stranger.context!r}, which "
                                                 "is not a context of the scenario")):
                EmpiricalModel(chsh_scenario, listed)
    for k in range(len(dists)):
        with pytest.raises(EmpiricalModelError,
                           match=re.escape(f"context {dists[k].context!r} has two distributions")):
            EmpiricalModel(chsh_scenario, dists + (dists[k],))
    # one table per context, in any order, or fewer than every context
    EmpiricalModel(chsh_scenario, dists[::-1])
    EmpiricalModel(chsh_scenario, ())


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
    system = CyclicSystem.from_model(model)
    assert system.expectations == ((1.0, 1.0),) * 4
    assert system.correlations == (1.0,) * 4


def test_outcome_symmetry_needs_a_binary_outcome_set():
    # exchanging the first and last of three labels would leave the middle
    # one, and with it this point mass, in place
    scenario = MeasurementScenario.from_maximal(("p", "q"), [("p", "q")], ("0", "1", "2"))
    model = EmpiricalModel.build(scenario, {("p", "q"): {("1", "1"): 1.0}})
    with pytest.raises(EmpiricalModelError, match="binary"):
        is_outcome_symmetric(model)


def test_expectation_of_symmetric_row_is_zero(judgment_model):
    system = CyclicSystem.from_model(judgment_model)
    assert system.expectations == ((0.0, 0.0),) * 4


def test_expectation_of_uniform_is_zero(uniform_model):
    system = CyclicSystem.from_model(uniform_model)
    assert system.expectations == ((0.0, 0.0),) * 4
    assert system.correlations == (0.0,) * 4


def test_judgment_correlations_match_table(judgment_model):
    want = {
        ("(one of them,cannibalistic)", "(one of them,hungry)"): 0.610,
        ("(one of them,cannibalistic)", "(one of them,alive)"): -0.822,
        ("(one of them,herbivorous)", "(one of them,hungry)"): 0.382,
        ("(one of them,herbivorous)", "(one of them,alive)"): 0.378,
    }
    system = CyclicSystem.from_model(judgment_model)
    got = dict(zip(system.contexts, system.correlations))
    for ctx, value in want.items():
        assert got[ctx] == pytest.approx(value, abs=1e-9)


def test_bell_row_correlation_is_one(bell_model):
    system = CyclicSystem.from_model(bell_model)
    assert dict(zip(system.contexts, system.correlations))[("a1", "b1")] == 1.0


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
    assert CyclicSystem.from_model(model).expectations == ((0.0, 0.0),) * 4


def test_global_weights_model_is_non_signalling(chsh_scenario):
    rng = np.random.default_rng(5)
    raw = rng.random(16)
    weights = dict(zip(product(chsh_scenario.outcomes, repeat=4), raw / raw.sum()))
    model = from_global_weights(chsh_scenario, weights)
    assert signalling(model).max_discrepancy <= 1e-12


def test_random_symmetric_model_helper(chsh_scenario):
    model = random_symmetric_model(chsh_scenario, np.random.default_rng(0))
    assert is_outcome_symmetric(model)
