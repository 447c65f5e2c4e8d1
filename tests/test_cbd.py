import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_symmetric_model
from oracles import (
    chsh_patterns_by_enumeration,
    cyclic_system_by_signs,
    resample_counts_matrix,
    s_odd_by_enumeration,
)
from winoctx import sheaf
from winoctx.bootstrap import BootstrapConfig, contextual_fraction, run
from winoctx.cbd import (
    CyclicSystem,
    CyclicSystemError,
    chsh_pattern,
    chsh_violation,
    cnt1,
    s_odd,
)
from winoctx.empirical import EmpiricalModel
from winoctx.ingest import ContextTally
from winoctx.scenario import MeasurementScenario, maximal_contexts


def test_s_odd_all_ones():
    assert s_odd((1.0, 1.0, 1.0, 1.0)) == 2.0


def test_s_odd_one_negative():
    assert s_odd((1.0, 1.0, 1.0, -1.0)) == 4.0


def test_s_odd_judgment_correlations():
    value = s_odd((0.610, -0.822, 0.382, 0.378))
    assert value == pytest.approx(2.192, abs=1e-12)


@pytest.mark.parametrize("function", [s_odd, chsh_pattern], ids=lambda f: f.__name__)
def test_no_values_are_refused_by_the_function_given_them(function):
    with pytest.raises(CyclicSystemError, match=f"^{function.__name__} needs at least one value$"):
        function(())


@given(
    st.lists(
        st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-6),
        min_size=3,
        max_size=10,
    )
)
def test_closed_form_matches_enumeration(values):
    enumerated = s_odd_by_enumeration(values)
    assert s_odd(values) == pytest.approx(enumerated, abs=1e-12)
    # never exceeds the magnitude sum; hits it exactly when the negative
    # count is odd (entries are bounded away from 0, so no ties)
    magnitude = sum(abs(v) for v in values)
    assert enumerated <= magnitude + 1e-12
    negatives = sum(1 for v in values if v < 0)
    if negatives % 2 == 1:
        assert enumerated == pytest.approx(magnitude, abs=1e-12)
    else:
        assert enumerated < magnitude - 1e-12 or magnitude < 1e-6


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -1.0]),
                          st.floats(-1.0, 1.0)), min_size=3, max_size=16))
def test_s_odd_sums_the_terms_of_the_maximising_pattern_bit_for_bit(values):
    # ties and zeros included: repr tells -0.0 from 0.0
    pattern = chsh_pattern(values)
    assert repr(s_odd(values)) == repr(math.fsum(s * x for s, x in zip(pattern, values)))


def test_violation_draws_are_s_odd_of_the_resampled_correlations():
    """`bootstrap.run` folds each draw's correlations into s_odd: its
    violation draws plus (rank - 2) are `s_odd` of the correlations rebuilt
    from the oracle's resampled counts."""
    rng = np.random.default_rng(21)
    for rank in (4, 6):
        n_valid = rng.integers(1, 200, size=rank)
        tallies = [ContextTally(n_total=int(n), n_same=int(s), n_diff=int(n - s))
                   for n, s in zip(n_valid, rng.integers(0, n_valid + 1))]
        config = BootstrapConfig(n_resamples=50, seed=rank, statistic="violation")
        vector = run(tallies, config).samples + (rank - 2)
        counts = resample_counts_matrix(tallies, config.n_resamples, config.seed)
        for row, value in zip(counts, vector):
            correlations = tuple((2.0 * row - n_valid) / n_valid)
            assert value == pytest.approx(s_odd(correlations), abs=1e-12)


@pytest.mark.parametrize("fixture", ["bell_model", "judgment_model", "pr_model", "uniform_model"])
def test_each_bundled_model_has_zero_expectations(request, fixture):
    # the golden records pin each bundled model's correlations, delta, cnt1
    # and violation; its expectations are not printed
    system = CyclicSystem.from_model(request.getfixturevalue(fixture))
    assert system.expectations == ((0.0, 0.0),) * 4


def test_from_model_deterministic(chsh_scenario):
    tables = {
        ctx: {("0", "0"): 1.0} for ctx in maximal_contexts(chsh_scenario)
    }
    model = EmpiricalModel.build(chsh_scenario, tables)
    system = CyclicSystem.from_model(model)
    assert system.correlations == (1.0, 1.0, 1.0, 1.0)
    for before, after in system.expectations:
        assert before == 1.0 and after == 1.0
    assert system.cnt1 == 0.0


def test_delta_arithmetic():
    system = CyclicSystem(
        contents=("w", "x", "y", "z"),
        contexts=(("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")),
        correlations=(0.0, 0.0, 0.0, 0.0),
        expectations=((0.9, 0.5), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
    )
    assert system.delta == pytest.approx(0.4, abs=1e-12)


def test_cnt1_rotation_and_reflection_invariant():
    rng = np.random.default_rng(3)
    for _ in range(25):
        corr = tuple(rng.uniform(-1.0, 1.0, size=5))
        exps = tuple(rng.uniform(-1.0, 1.0, size=(5, 2)))

        def build(correlations, pairs):
            contents = tuple(f"c{i}" for i in range(5))
            contexts = tuple(
                (contents[i], contents[(i + 1) % 5]) for i in range(5)
            )
            return CyclicSystem(
                contents=contents,
                contexts=contexts,
                correlations=tuple(correlations),
                expectations=tuple(tuple(p) for p in pairs),
            )

        base = build(corr, exps).cnt1
        rotated = build(corr[2:] + corr[:2], np.roll(exps, 2, axis=0)).cnt1
        reflected = build(corr[::-1], [list(p) for p in exps][::-1]).cnt1
        assert rotated == pytest.approx(base, abs=1e-12)
        assert reflected == pytest.approx(base, abs=1e-12)


def test_cnt1_equals_violation_on_symmetric_models(chsh_scenario):
    rng = np.random.default_rng(11)
    for _ in range(50):
        model = random_symmetric_model(chsh_scenario, rng)
        assert cnt1(model) == chsh_violation(model)  # bit-identical, delta is 0


def test_violation_requires_rank_four():
    triangle = MeasurementScenario.from_maximal(
        observables=("x", "y", "z"),
        maximal_faces=[("x", "y"), ("y", "z"), ("z", "x")],
        outcomes=("0", "1"),
    )
    tables = {
        ctx: {("0", "0"): 0.5, ("1", "1"): 0.5}
        for ctx in maximal_contexts(triangle)
    }
    model = EmpiricalModel.build(triangle, tables)
    with pytest.raises(CyclicSystemError):
        chsh_violation(model)
    # cnt1 still applies at rank 3: s_odd(1,1,1) = 1, minus (n - 2) = 1
    assert cnt1(model) == pytest.approx(0.0, abs=1e-12)


def test_from_model_rejects_non_cyclic():
    scenario = MeasurementScenario.from_maximal(
        observables=("p_s", "p_a"),
        maximal_faces=[("p_s",), ("p_a",)],
        outcomes=("A", "B"),
    )
    tables = {("p_s",): {("A",): 1.0}, ("p_a",): {("B",): 1.0}}
    model = EmpiricalModel.build(scenario, tables)
    with pytest.raises(CyclicSystemError):
        CyclicSystem.from_model(model)


def test_chsh_pattern_is_odd_and_maximizing():
    corr = (0.610, -0.822, 0.382, 0.378)
    signs = chsh_pattern(corr)
    assert sum(1 for s in signs if s < 0) % 2 == 1
    value = sum(s * c for s, c in zip(signs, corr))
    assert value == pytest.approx(s_odd(corr), abs=1e-12)


def test_chsh_pattern_breaks_ties_toward_lowest_bitmask():
    # entries of a half-step grid sum exactly, so ties are exact ties
    grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    for k in range(3, 7):
        vectors = np.array(list(itertools.product(grid, repeat=k)))
        expected = chsh_patterns_by_enumeration(vectors)
        got = np.array([chsh_pattern(v) for v in vectors])
        assert np.array_equal(got, expected), k


def cycle_tables(m, c):
    """Joint tables of the binary cycle x0..x(n-1) with expectations m and
    correlations c (c[j] on {x_j, x_j+1}); outcome "0" is +1."""
    n = len(m)
    names = tuple(f"x{i}" for i in range(n))
    scenario = MeasurementScenario.from_maximal(
        names, [(names[j], names[(j + 1) % n]) for j in range(n)], ("0", "1"))
    index = {name: i for i, name in enumerate(names)}
    edge = {frozenset((j, (j + 1) % n)): c[j] for j in range(n)}
    tables = {}
    for ctx in maximal_contexts(scenario):
        u, w = (index[name] for name in ctx)
        tables[ctx] = {
            (a, b): (1 + sa * m[u] + sb * m[w] + sa * sb * edge[frozenset((u, w))]) / 4
            for a, sa in (("0", 1), ("1", -1))
            for b, sb in (("0", 1), ("1", -1))
        }
    return scenario, tables


@st.composite
def non_signalling_cycles(draw, grid=32):
    """(expectations, correlations) of a non-signalling binary n-cycle, all
    multiples of 1/grid so that every table entry is an exact double.
    Boundary expectations (+-1, 0) and boundary correlations, where a table
    entry is 0, are drawn often, and so are correlations near the ends of
    their range, which contextual cycles need."""
    n = draw(st.integers(3, 10))
    spread = draw(st.sampled_from((0, grid // 8, grid)))
    ends = st.sampled_from((-spread, 0, spread))
    m = draw(st.lists(st.one_of(ends, st.integers(-spread, spread)), min_size=n, max_size=n))
    c = []
    for j in range(n):
        a, b = m[j], m[(j + 1) % n]
        lo, hi = abs(a + b) - grid, grid - abs(a - b)
        near = (hi - lo) // 8
        c.append(draw(st.one_of(
            st.sampled_from((lo, hi)), st.integers(lo, lo + near),
            st.integers(hi - near, hi), st.integers(lo, hi))))
    return [x / grid for x in m], [x / grid for x in c]


@settings(max_examples=150, deadline=None)
@given(non_signalling_cycles())
def test_closed_form_cf_matches_the_lp(cycle):
    scenario, tables = cycle_tables(*cycle)
    model = EmpiricalModel.build(scenario, tables)
    system = CyclicSystem.from_model(model)
    closed = system.contextual_fraction
    assert type(closed) is float
    assert closed == pytest.approx(sheaf.contextual_fraction(model).cf, abs=1e-12)
    s_odd_row = np.array([s_odd(system.correlations)])
    assert contextual_fraction(s_odd_row, system.rank)[0] == pytest.approx(closed, abs=1e-12)


@functools.lru_cache(maxsize=None)
def odd_patterns(n):
    return np.array([s for s in itertools.product((1, -1), repeat=n) if s.count(-1) % 2])


def test_noncontextual_part_of_the_closed_form_is_a_noncontextual_model():
    """The decomposition e = lam PR_s + (1 - lam) e_NC behind the closed form
    (cbd module docstring), built for random contextual cycles."""
    rng = np.random.default_rng(2017)
    checked = by_lp = 0
    while checked < 400:
        n = int(rng.integers(3, 13))
        kind = rng.integers(3, size=n)  # 0: m = 0, 1: small, 2: boundary +-1
        m = np.where(kind == 0, 0.0, np.where(kind == 1, rng.uniform(-0.3, 0.3, n),
                                              rng.choice((-1.0, 1.0), n)))
        s = odd_patterns(n)[rng.integers(len(odd_patterns(n)))]
        nxt = np.roll(m, -1)
        lo, hi = np.abs(m + nxt) - 1, 1 - np.abs(m - nxt)
        # near the end the pattern favours; exactly on it a third of the time
        slack = np.where(rng.random(n) < 1 / 3, 0.0, 0.2 * rng.random(n)) * (hi - lo)
        c = np.where(s > 0, hi - slack, lo + slack)
        lam = (s_odd(c) - (n - 2)) / 2
        if not 0 < lam < 1:
            continue
        signs = np.array(chsh_pattern(c))
        assert float(signs @ c) == pytest.approx(s_odd(c), abs=1e-12)
        # e_NC's table entries on every edge, and its correlations
        for j in range(n):
            for a in (1, -1):
                for b in (1, -1):
                    p = (1 + a * m[j] + b * nxt[j] + a * b * c[j]) / 4
                    pr = (1 + a * b * signs[j]) / 4
                    assert (p - lam * pr) / (1 - lam) >= -1e-12
        c_nc = (c - lam * signs) / (1 - lam)
        assert (odd_patterns(n) @ c_nc).max() <= n - 2 + 1e-12
        if n <= 6 and by_lp < 40:
            # and the LP finds no contextuality in it
            scenario, tables = cycle_tables(m / (1 - lam), c_nc)
            model = EmpiricalModel.build(scenario, tables)
            assert sheaf.contextual_fraction(model).cf <= 1e-9
            by_lp += 1
        checked += 1
    assert by_lp == 40


@st.composite
def binary_cycles(draw):
    """Binary cycle models of rank 3-10, observables declared in a random
    order, each table drawn on its own, so that most models signal; entries
    are k / total for small k, 0 included."""
    n = draw(st.integers(3, 10))
    outcomes = draw(st.sampled_from((("0", "1"), ("A", "B"), ("+", "-"), ("B", "A"))))
    names = [f"x{i}" for i in range(n)]
    scenario = MeasurementScenario.from_maximal(
        draw(st.permutations(names)),
        [(names[i], names[(i + 1) % n]) for i in range(n)], outcomes)
    tables = {}
    for ctx in maximal_contexts(scenario):
        weights = draw(st.lists(st.integers(0, 7), min_size=4, max_size=4).filter(any))
        tables[ctx] = {joint: k / sum(weights)
                       for joint, k in zip(itertools.product(outcomes, repeat=2), weights)}
    return EmpiricalModel.build(scenario, tables)


def measures(system):
    """repr tells -0.0 from 0.0 and round-trips every other float, so equal
    measures here are equal bits."""
    return repr((system.correlations, system.expectations, system.delta, system.cnt1))


@settings(max_examples=300, deadline=None)
@given(binary_cycles())
def test_from_model_matches_the_sign_map_bit_for_bit(model):
    system, oracle = CyclicSystem.from_model(model), cyclic_system_by_signs(model)
    assert system.correlations == oracle.correlations
    assert system.expectations == oracle.expectations
    assert (system.delta, system.cnt1) == (oracle.delta, oracle.cnt1)
    assert measures(system) == measures(oracle)


@settings(deadline=None)
@given(binary_cycles())
def test_reversing_the_declared_outcomes_negates_every_expectation(model):
    scenario = model.scenario
    reversed_ = MeasurementScenario(scenario.observables, scenario.contexts,
                                    scenario.outcomes[::-1])
    tables = {dist.context: dist.table for dist in model.distributions}
    system = CyclicSystem.from_model(model)
    flipped = CyclicSystem.from_model(EmpiricalModel.build(reversed_, tables))
    assert flipped.expectations == tuple((-a, -b) for a, b in system.expectations)
    assert flipped.correlations == system.correlations
    assert (flipped.delta, flipped.cnt1, flipped.contextual_fraction) == (
        system.delta, system.cnt1, system.contextual_fraction)
