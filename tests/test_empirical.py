import math
import pickle
import re
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_symmetric_model, symmetric_tables
from oracles import (
    from_global_weights,
    is_outcome_symmetric_by_flip,
    marginal,
    maximal_contexts_by_completion,
    signalling_by_faces,
    signalling_pairwise,
)
from winoctx import cbd, empirical, report
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
from winoctx.files import distributions_to_list, model_from_dict, scenario_to_dict
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
    for outcome in outcome_tuples(judgment_model.scenario.outcomes, 2):
        assert marg[outcome] == dist.prob(outcome)


def one_distribution(context, outcomes, probs):
    """The distribution a model on the one context makes of `probs`."""
    scenario = MeasurementScenario.from_maximal(context, [context], outcomes)
    return EmpiricalModel.build(scenario, {context: probs}).distributions[0]


def test_marginal_of_point_mass():
    dist = one_distribution(("p1", "p2"), ("A", "B"), {("A", "A"): 1.0})
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
    dist = one_distribution(("x", "y", "z"), ("A", "B"), probs)
    direct = marginal(dist.table, dist.context, ["x"])
    for step in (["x", "y"], ["x", "z"]):
        stepped = marginal(marginal(dist.table, dist.context, step), step, ["x"])
        for outcome in outcome_tuples(("A", "B"), 1):
            assert stepped[outcome] == pytest.approx(direct[outcome], abs=1e-12)


def test_distribution_rejects_negative_and_unnormalized():
    with pytest.raises(EmpiricalModelError):
        one_distribution(("p",), ("A", "B"), {("A",): -0.1, ("B",): 1.1})
    with pytest.raises(EmpiricalModelError):
        one_distribution(("p",), ("A", "B"), {("A",): 0.7})
    with pytest.raises(EmpiricalModelError, match="out of range"):
        one_distribution(("p",), ("A", "B"), {("A",): float("nan"), ("B",): 1.0})
    with pytest.raises(EmpiricalModelError):
        one_distribution(("p", "q"), ("A", "B"), {("A",): 1.0})


def test_bell_model_is_non_signalling_exactly(bell_model):
    assert signalling(bell_model) == 0.0
    assert is_non_signalling(bell_model)


def test_judgment_model_is_non_signalling(judgment_model):
    assert signalling(judgment_model) <= 1e-9


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
    discrepancy = signalling(model)
    assert discrepancy == pytest.approx(0.8, abs=1e-12)
    assert discrepancy > 1e-9
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
        got = signalling(model)
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
    assert got.hex() == expected.hex()


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
    discrepancy = signalling(model)  # fills the caches
    system = cyclic_system_or_error(model)
    assert signalling(reversed_model) == discrepancy == signalling_pairwise(model)
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


def loaded_cycle(n, seed):
    """A non-signalling binary rank-n cycle, made afresh from its document
    as a model file is loaded: a new scenario and a new model."""
    faces = cycle_faces(n)
    scenario = MeasurementScenario.from_maximal(sorted(set().union(*faces)), faces, ("0", "1"))
    model = random_model(scenario, np.random.default_rng(seed), "global")
    return model_from_dict({"scenario": scenario_to_dict(scenario),
                            "distributions": distributions_to_list(model)})


@pytest.mark.parametrize("owner, name", [("report", "signalling"),
                                         ("CyclicSystem", "from_model"), ("cbd", "s_odd")])
def test_a_report_calls_a_wrapper_set_on_a_hooked_name_once(monkeypatch, owner, name):
    # the benchmark's span hooks wrap these names where a report looks them up
    owner = {"report": report, "CyclicSystem": CyclicSystem, "cbd": cbd}[owner]
    raw, calls = owner.__dict__[name], []
    function = raw.__func__ if isinstance(raw, classmethod) else raw

    def wrapper(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, classmethod(wrapper) if isinstance(raw, classmethod)
                        else wrapper)
    built = report.build_report(loaded_cycle(6, 0))
    assert (calls, built.cyclic.rank, built.notices) == (
        [name], 6, ["rank 6 cycle: the Bell-CHSH violation needs rank 4, omitted"])


def test_index_groups_are_built_once_per_table_shape():
    # a cache miss is a build; a cycle of another rank, on a scenario of its
    # own, has tables of the same shape and so builds none
    report.build_report(loaded_cycle(6, 1))
    built = empirical._index_groups.cache_info().misses
    fresh = loaded_cycle(9, 2)
    assert report.build_report(fresh).cyclic.rank == 9
    assert empirical._index_groups.cache_info().misses == built


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_index_groups_marginalise_as_the_oracle_bit_for_bit(data):
    outcomes = ("A", "B", "C")[:data.draw(st.integers(2, 3))]
    context = ("w", "x", "y", "z")[:data.draw(st.integers(1, 4))]
    face = data.draw(st.lists(st.sampled_from(context), min_size=1, unique=True))
    joints = outcome_tuples(outcomes, len(context))
    table = dict(zip(joints, data.draw(st.lists(
        st.floats(0.0, 1.0), min_size=len(joints), max_size=len(joints)))))
    positions = tuple(i for i, obs in enumerate(context) if obs in face)
    sums = empirical._marginal(list(table.values()), empirical._index_groups(
        len(outcomes), len(context), positions))
    expected = marginal(table, context, face)
    assert sums == [expected[key] for key in outcome_tuples(outcomes, len(positions))]


def test_a_model_refuses_a_table_off_its_contexts_or_a_context_listed_twice(chsh_scenario):
    built = random_model(chsh_scenario, np.random.default_rng(0), "random")
    dists = built.distributions
    first = dists[0]
    strangers = [
        Distribution(("a1", "a2"), {("0", "0"): 1.0}),
        # the context's observables out of the scenario's order
        Distribution(first.context[::-1], {("0", "0"): 1.0}),
    ]
    for stranger in strangers:
        for listed in (dists + (stranger,), (stranger,) + dists):
            with pytest.raises(EmpiricalModelError) as caught:
                EmpiricalModel(chsh_scenario, listed)
            assert str(caught.value) == f"distributions for non-contexts [{stranger.context!r}]"
        with pytest.raises(EmpiricalModelError) as caught:
            EmpiricalModel(chsh_scenario, (stranger,))
        assert str(caught.value) == (f"missing distributions for {sorted(chsh_scenario.maximal)}; "
                                     f"distributions for non-contexts [{stranger.context!r}]")
    for k in range(len(dists)):
        with pytest.raises(EmpiricalModelError,
                           match=re.escape(f"context {dists[k].context!r} has two distributions")):
            EmpiricalModel(chsh_scenario, dists + (dists[k],))


def count_enumerations(monkeypatch):
    """The arities `empirical.outcome_tuples` is called with, as a list
    that grows with each call."""
    arities = []
    enumerate_outcomes = empirical.outcome_tuples

    def counted(outcome_set, arity):
        arities.append(arity)
        return enumerate_outcomes(outcome_set, arity)

    monkeypatch.setattr(empirical, "outcome_tuples", counted)
    return arities


def test_an_oversized_table_is_refused_before_it_is_built(monkeypatch, chsh_scenario):
    # a foreign context may be long: 2^40 joint outcomes would never finish,
    # so the cover is checked before any table is read
    tables = symmetric_tables(chsh_scenario, [0.25] * 4)
    context = tuple(f"x{i}" for i in range(40))
    arities = count_enumerations(monkeypatch)
    with pytest.raises(EmpiricalModelError) as caught:
        EmpiricalModel.build(chsh_scenario, {**tables, context: {}})
    assert str(caught.value) == f"distributions for non-contexts [{context!r}]"
    assert arities == []
    EmpiricalModel.build(chsh_scenario, tables)
    assert arities == [2, 2, 2, 2]  # once per context of the scenario


def test_a_model_holds_one_distribution_per_context_in_scenario_order():
    # a model lacking any context is refused when made, not when measured,
    # whether or not the context shares a face; one listed in any order
    # keeps the scenario's order and equals the model built from its tables
    for faces in (cycle_faces(5), SHAPES["disjoint"]):
        scenario = MeasurementScenario.from_maximal(
            sorted(set().union(*faces)), faces, ("0", "1"))
        built = random_model(scenario, np.random.default_rng(0), "random")
        dists = built.distributions
        assert tuple(d.context for d in dists) == scenario.maximal
        for k in range(len(dists)):
            with pytest.raises(EmpiricalModelError) as caught:
                EmpiricalModel(scenario, dists[:k] + dists[k + 1:])
            assert str(caught.value) == f"missing distributions for [{dists[k].context!r}]"
        with pytest.raises(EmpiricalModelError, match="missing distributions for"):
            EmpiricalModel(scenario, ())
        for listed in (dists[::-1], iter(dists[1:] + dists[:1])):
            model = EmpiricalModel(scenario, listed)
            assert model == built
            assert model.distributions == dists
            assert signalling(model) == signalling(built)
        with pytest.raises(EmpiricalModelError, match="no distribution for context"):
            built.distribution(("zz",))


@st.composite
def small_models(draw):
    """A model on a SHAPES scenario or a cycle of rank 3-5: few enough
    contexts to list its distributions in every order."""
    outcomes = draw(st.sampled_from([("0", "1"), ("r", "g", "b")]))
    faces = draw(st.sampled_from([cycle_faces(n) for n in (3, 4, 5)] + list(SHAPES.values())))
    observables = draw(st.permutations(sorted(set().union(*faces))))
    scenario = MeasurementScenario.from_maximal(observables, faces, outcomes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["global", "random", "pooled"]))
    if kind == "pooled":
        return pooled_model(scenario, rng)
    return random_model(scenario, rng, kind)


def table_bits(model):
    """Each distribution's context and entries in order, probabilities as hex."""
    return [(d.context, [(o, p.hex()) for o, p in d.table.items()]) for d in model.distributions]


@settings(max_examples=50, deadline=None)
@given(small_models(), st.randoms(use_true_random=False))
def test_every_listing_of_the_tables_makes_the_same_model(model, rnd):
    # contexts listed in any order, tables sparse with their entries in any
    # order: `build`, the mapping's items, every order of the model's
    # distributions and a pickle all make the model, bit for bit
    listed = list(model.distributions)
    rnd.shuffle(listed)
    tables = {}
    for ctx, table in listed:
        entries = [(o, p) for o, p in table.items() if p or rnd.random() < 0.5]
        rnd.shuffle(entries)
        tables[ctx] = dict(entries)
    built = EmpiricalModel.build(model.scenario, tables)
    expected = table_bits(model)
    for made in (built, EmpiricalModel(model.scenario, tables.items()),
                 pickle.loads(pickle.dumps(built)),
                 *(EmpiricalModel(model.scenario, order)
                   for order in permutations(built.distributions))):
        assert made == model
        assert table_bits(made) == expected
        assert {type(p) for d in made.distributions for p in d.table.values()} == {float}


FOREIGN = ("a1", "a2")  # not a context of the CHSH scenario
BAD = {("0", "0"): 5.0}
# fault: (the CHSH tables `t` as (context, table) pairs with the fault at
# context `c`, the message it raises)
GATE_FAULTS = {
    "unknown outcome": (lambda t, c: {**t, c: {**t[c], ("0", "2"): 0.0}}.items(),
                        "outcome ('0', '2') is not a joint outcome of context {c!r}"),
    "out of range": (lambda t, c: {**t, c: BAD}.items(),
                     "probability 5.0 for ('0', '0') in context {c!r} out of range"),
    "off sum": (lambda t, c: {**t, c: {("0", "0"): 0.5}}.items(),
                "context {c!r} probabilities sum to 0.5, not 1"),
    "missing": (lambda t, c: [(k, v) for k, v in t.items() if k != c],
                "missing distributions for [{c!r}]"),
    "foreign": (lambda t, c: [*t.items(), (FOREIGN, t[c])],
                "distributions for non-contexts [('a1', 'a2')]"),
    "repeated": (lambda t, c: [*t.items(), (c, t[c])], "context {c!r} has two distributions"),
    # a cover fault is named before any table is read
    "missing beside bad tables": (lambda t, c: [(k, BAD) for k in t if k != c],
                                  "missing distributions for [{c!r}]"),
    "foreign with a bad table": (lambda t, c: [*t.items(), (FOREIGN, BAD)],
                                 "distributions for non-contexts [('a1', 'a2')]"),
    "foreign beside bad tables": (lambda t, c: [*((k, BAD) for k in t), (FOREIGN, t[c])],
                                  "distributions for non-contexts [('a1', 'a2')]"),
    "repeated beside bad tables": (lambda t, c: [*((k, BAD) for k in t), (c, t[c])],
                                   "context {c!r} has two distributions"),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(GATE_FAULTS)), st.integers(0, 3),
       st.randoms(use_true_random=False))
def test_each_fault_is_named_whatever_the_listing_order(chsh_scenario, fault, target, rnd):
    listing, message = GATE_FAULTS[fault]
    context = chsh_scenario.maximal[target]
    pairs = list(listing(symmetric_tables(chsh_scenario, [0.25] * 4), context))
    rnd.shuffle(pairs)
    makers = [lambda: EmpiricalModel(chsh_scenario, pairs)]
    if len(dict(pairs)) == len(pairs):  # no context repeated: a mapping holds them
        makers.append(lambda: EmpiricalModel.build(chsh_scenario, dict(pairs)))
    for make in makers:
        with pytest.raises(EmpiricalModelError) as caught:
            make()
        assert str(caught.value) == message.format(c=context)


def test_a_bare_distribution_is_checked_when_it_enters_a_model(chsh_scenario):
    # a Distribution made by hand is a (context, table) pair like any other
    contexts = chsh_scenario.maximal
    with pytest.raises(EmpiricalModelError) as caught:
        EmpiricalModel(chsh_scenario, [Distribution(c, {("0", "0"): 5.0}) for c in contexts])
    assert str(caught.value) == (f"probability 5.0 for ('0', '0') in context {contexts[0]!r} "
                                 "out of range")


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_outcome_symmetry_agrees_with_the_label_flip_oracle(data):
    # half the tables are drawn symmetric; then the last entry of one table
    # moves by less than the sum tolerance, so models that differ only there
    # fall on both sides of tol 0, and drawn asymmetric ones above tol 1e-9
    contexts = data.draw(st.sampled_from([[("a",)], [("a", "b")], cycle_faces(3),
                                          *SHAPES.values()]))
    outcomes = data.draw(st.sampled_from([("0", "1"), ("1", "0")]))
    scenario = MeasurementScenario.from_maximal(sorted(set().union(*contexts)), contexts, outcomes)
    tables = {}
    for ctx in scenario.maximal:
        joints = outcome_tuples(scenario.outcomes, len(ctx))
        half = data.draw(st.lists(st.integers(0, 4), min_size=len(joints) // 2,
                                  max_size=len(joints) // 2))
        weights = half + half[::-1] if data.draw(st.booleans()) else data.draw(st.lists(
            st.integers(0, 4), min_size=len(joints), max_size=len(joints)))
        weights = weights if any(weights) else [1] * len(joints)
        tables[ctx] = {joint: w / sum(weights) for joint, w in zip(joints, weights)}
    last = data.draw(st.sampled_from(scenario.maximal))
    tables[last][outcome_tuples(scenario.outcomes, len(last))[-1]] += data.draw(
        st.sampled_from([0.0, 1e-12, -5e-10, 9e-10]))
    model = EmpiricalModel.build(scenario, tables)
    for tol in (0.0, 1e-9):
        assert is_outcome_symmetric(model, tol) == is_outcome_symmetric_by_flip(model, tol)


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
    assert signalling(model) == 0.0
    assert CyclicSystem.from_model(model).expectations == ((0.0, 0.0),) * 4


def test_global_weights_model_is_non_signalling(chsh_scenario):
    rng = np.random.default_rng(5)
    raw = rng.random(16)
    weights = dict(zip(product(chsh_scenario.outcomes, repeat=4), raw / raw.sum()))
    model = from_global_weights(chsh_scenario, weights)
    assert signalling(model) <= 1e-12


def test_random_symmetric_model_helper(chsh_scenario):
    model = random_symmetric_model(chsh_scenario, np.random.default_rng(0))
    assert is_outcome_symmetric(model)
