import contextlib
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import python_process
from oracles import binomial_pmf_exact, bootstrap_samples_matrix, resample_counts_matrix
from winoctx import bootstrap, sheaf
from winoctx.bootstrap import (
    BIN_WIDTH,
    BootstrapConfig,
    BootstrapError,
    alias_table,
    cycle_order_tallies,
    histogram,
    run,
)
from winoctx.cbd import CyclicSystem, s_odd
from winoctx.cli import main
from winoctx.empirical import PROB_TOL, EmpiricalModel
from winoctx.files import load_schema
from winoctx.fixtures import fixture_path
from winoctx.ingest import ContextTally, aggregate, parse_responses, tally_distribution
from winoctx.scenario import MeasurementScenario, cyclic_structure, maximal_contexts
from winoctx.schema import ws_scenario


def make_tallies(pairs):
    return [
        ContextTally(n_total=s + d, n_same=s, n_diff=d)
        for s, d in pairs
    ]


SKEWED = ((75, 18), (8, 77), (59, 26), (59, 26))
# rank 6, five contexts at correlation 2/3 and one at -2/3: s_odd = 4 = n - 2,
# so the draws straddle the noncontextual boundary
STRADDLE = ((50, 10),) * 5 + ((10, 50),)


def bootstrap_document(*flags):
    """The JSON document of `winoctx bootstrap` on the bundled responses."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["bootstrap", str(fixture_path("cannibal_responses.csv")),
                     str(fixture_path("cannibal_schema.json")), *flags, "--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())


def cycle(rank):
    names = tuple(f"c{i}" for i in range(rank))
    scenario = MeasurementScenario.from_maximal(
        names, [(names[i], names[(i + 1) % rank]) for i in range(rank)], ("A", "B"))
    return scenario, cyclic_structure(scenario).contexts


def draw_model(scenario, contexts, n_valid, same_counts):
    tables = {
        ctx: tally_distribution(ContextTally(int(n), int(k), int(n - k)), ("A", "B"))
        for ctx, n, k in zip(contexts, n_valid, same_counts)
    }
    return EmpiricalModel.build(scenario, tables)


def cold_cf(tallies, config):
    """Oracle: each draw's model solved cold by sheaf.contextual_fraction
    (once per distinct count vector)."""
    counts = resample_counts_matrix(tallies, config.n_resamples, config.seed)
    n_valid = [t.n_valid for t in tallies]
    scenario, contexts = cycle(len(tallies))
    unique, inverse = np.unique(counts, axis=0, return_inverse=True)
    values = np.array([
        sheaf.contextual_fraction(draw_model(scenario, contexts, n_valid, row)).cf
        for row in unique
    ])
    return values[inverse.ravel()]


@pytest.fixture(scope="module")
def cannibal_tallies():
    schema = load_schema(fixture_path("cannibal_schema.json"))
    result = parse_responses(fixture_path("cannibal_responses.csv"))
    _, tallies = aggregate(result.records, schema)
    return cycle_order_tallies(ws_scenario(schema), tallies)


def test_histogram_single_bin():
    assert BIN_WIDTH == 0.02
    hist = histogram([0.192] * 40)
    assert hist.centers.tolist() == [pytest.approx(0.19)]
    assert hist.densities.tolist() == [50.0]


def test_histogram_uniform_grid():
    # 20 samples at the middle of each of the 50 bins that tile [0, 1)
    samples = (np.arange(1000) + 0.5) / 1000
    hist = histogram(samples)
    assert hist.centers == pytest.approx((np.arange(50) + 0.5) * BIN_WIDTH, abs=1e-12)
    assert hist.densities.tolist() == [1.0] * 50


def test_histogram_normalization_and_anchoring():
    rng = np.random.default_rng(7)
    samples = rng.normal(0.13, 0.4, size=5000)
    hist = histogram(samples)
    assert hist.densities.sum() * BIN_WIDTH == pytest.approx(1.0, abs=1e-12)
    # bin centers sit at (k + 1/2) * BIN_WIDTH for integer k
    offsets = hist.centers / BIN_WIDTH - 0.5
    assert np.allclose(offsets, np.round(offsets), atol=1e-9)


def neighbours(x, n):
    """x and the n floats on each side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def test_histogram_holds_samples_on_bin_edges():
    # x / BIN_WIDTH can round up to k while k * BIN_WIDTH > x: 1.4 / 0.02 is
    # 70.00000000000001, and its edge 1.4000000000000001 lay above the sample
    edges = [k * BIN_WIDTH for k in range(-200, 201)]
    samples = [1.4, 0.7] + [x for edge in edges for x in neighbours(edge, 4)]
    for x in samples:
        hist = histogram([x])
        assert hist.densities.sum() * BIN_WIDTH == pytest.approx(1.0, abs=1e-12), x
    hist = histogram(samples)
    assert hist.densities.sum() * BIN_WIDTH == pytest.approx(1.0, abs=1e-12)


def test_histogram_rejects_bad_input():
    with pytest.raises(BootstrapError, match="zero samples"):
        histogram([])


def test_degenerate_tallies_give_constant_samples():
    # each context all same or all different: every draw is the data, and
    # run's s_odd - 2 is CyclicSystem.violation, which is defined at rank 4
    scenario, contexts = cycle(4)
    n_valid = [3, 10, 7, 1]
    for pattern in range(16):
        same = [n if pattern >> k & 1 else 0 for k, n in enumerate(n_valid)]
        tallies = make_tallies([(s, n - s) for s, n in zip(same, n_valid)])
        expected = CyclicSystem.from_model(draw_model(scenario, contexts, n_valid, same)).violation
        result = run(tallies, BootstrapConfig(n_resamples=500, seed=3))
        assert result.samples.tolist() == [expected] * 500
        assert result.std == 0.0
        assert result.fraction_positive == (expected > 0.0)
    assert expected == 0.0  # every context all same


def test_single_resample_is_a_draw_not_the_point_estimate():
    tallies = make_tallies(SKEWED)
    a = run(tallies, BootstrapConfig(n_resamples=1, seed=11))
    b = run(tallies, BootstrapConfig(n_resamples=1, seed=11))
    assert a.samples.shape == (1,)
    assert np.array_equal(a.samples, b.samples)
    assert bootstrap_document("--samples", "1", "--seed", "11")["n_resamples"] == 1
    # with one draw the summary statistics collapse onto the sample
    assert a.mean == a.samples[0]
    assert a.std == 0.0


def test_same_seed_bit_identical():
    tallies = make_tallies(SKEWED)
    config = BootstrapConfig(n_resamples=2000, seed=42)
    a = run(tallies, config)
    b = run(tallies, config)
    assert np.array_equal(a.samples, b.samples)
    assert a.mean == b.mean and a.std == b.std


def test_worker_count_does_not_change_cf_samples():
    tallies = make_tallies(SKEWED)
    a = run(tallies, BootstrapConfig(n_resamples=40, seed=5, statistic="cf", workers=1))
    b = run(tallies, BootstrapConfig(n_resamples=40, seed=5, statistic="cf", workers=3))
    assert np.array_equal(a.samples, b.samples)


def test_cf_samples_are_half_the_positive_violation():
    tallies = make_tallies(SKEWED)
    v = run(tallies, BootstrapConfig(n_resamples=60, seed=13, statistic="violation"))
    cf = run(tallies, BootstrapConfig(n_resamples=60, seed=13, statistic="cf"))
    expected = np.maximum(0.0, v.samples / 2.0)
    assert np.max(np.abs(cf.samples - expected)) <= 1e-6


def test_seed_sensitivity_is_only_sampling_noise(cannibal_tallies):
    config_a = BootstrapConfig(n_resamples=100_000, seed=101)
    config_b = BootstrapConfig(n_resamples=100_000, seed=202)
    a = run(cannibal_tallies, config_a)
    b = run(cannibal_tallies, config_b)
    assert abs(a.fraction_positive - b.fraction_positive) < 0.01
    assert abs(a.mean - b.mean) < 0.005


def test_bootstrap_mean_tracks_point_estimate(cannibal_tallies):
    correlations = [(t.n_same - t.n_diff) / t.n_valid for t in cannibal_tallies]
    point = s_odd(correlations) - 2.0
    result = run(cannibal_tallies, BootstrapConfig(n_resamples=20_000, seed=0))
    assert result.mean == pytest.approx(point, abs=0.01)
    assert 0.10 < result.std < 0.25
    assert 0.80 < result.fraction_positive < 0.95


def test_run_rejects_bad_inputs():
    with pytest.raises(BootstrapError, match=">= 3"):
        run(make_tallies([(5, 5), (5, 5)]), BootstrapConfig(n_resamples=10))
    empty = ContextTally(n_total=4, n_same=0, n_diff=0)
    tallies = make_tallies(SKEWED[:3]) + [empty]
    with pytest.raises(BootstrapError, match="no valid responses"):
        run(tallies, BootstrapConfig(n_resamples=10))
    rank5 = make_tallies([(5, 5)] * 5)
    run(rank5, BootstrapConfig(n_resamples=5, statistic="violation"))
    run(rank5, BootstrapConfig(n_resamples=5, statistic="cf"))


def test_document_records_the_rng_contract():
    doc = bootstrap_document("--samples", "50", "--seed", "77")
    assert doc["generator"] == "philox4x64-10"
    assert doc["sampler"] == "walker-alias"
    assert doc["seed"] == 77
    assert doc["n_resamples"] == 50
    assert doc["statistic"] == "violation"


def test_cycle_order_follows_the_cycle():
    schema = load_schema(fixture_path("cannibal_schema.json"))
    scenario = ws_scenario(schema)
    structure = cyclic_structure(scenario)
    # give every context a recognizable same-count
    tallies = {}
    sizes = {}
    for k, ctx in enumerate(maximal_contexts(scenario)):
        tallies[ctx] = ContextTally(
            n_total=100, n_same=10 * (k + 1), n_diff=100 - 10 * (k + 1)
        )
        sizes[frozenset(ctx)] = 10 * (k + 1)
    ordered = cycle_order_tallies(scenario, tallies)
    n = structure.rank
    for i, tally in enumerate(ordered):
        edge = frozenset({structure.ordering[i], structure.ordering[(i + 1) % n]})
        assert tally.n_same == sizes[edge]
    missing = structure.contexts[0]
    del tallies[missing]
    with pytest.raises(BootstrapError) as caught:
        cycle_order_tallies(scenario, tallies)
    assert str(caught.value) == f"no tally for context {sorted(missing)}"


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_cycle_order_agrees_with_from_model_on_rotated_and_reflected_cycles(n):
    # declared in cycle order, forwards or backwards from any start, the
    # canonical cycle is the declaration itself
    names = [f"o{k}" for k in range(n)]
    faces = [(names[k], names[(k + 1) % n]) for k in range(n)]
    rotations = [names[r:] + names[:r] for r in range(n)]
    for declared in rotations + [order[::-1] for order in rotations]:
        scenario = MeasurementScenario.from_maximal(declared, faces[::-1], ("A", "B"))
        tallies = {ctx: ContextTally(n_total=100, n_same=k, n_diff=100 - k)
                   for k, ctx in enumerate(maximal_contexts(scenario))}
        model = EmpiricalModel.build(
            scenario, {ctx: tally_distribution(t, ("A", "B")) for ctx, t in tallies.items()})
        system = CyclicSystem.from_model(model)
        expected = tuple(tuple(declared[i:i + 2]) for i in range(n - 1))
        expected += ((declared[0], declared[-1]),)
        assert system.contents == tuple(declared)
        assert system.contexts == expected == cyclic_structure(scenario).contexts
        assert cycle_order_tallies(scenario, tallies) == [tallies[c] for c in system.contexts]
        # the walk does not depend on the order the model lists its contexts in
        shuffled = EmpiricalModel(scenario, model.distributions[::-1])
        assert CyclicSystem.from_model(shuffled) == system


def test_cycle_order_rejects_non_cyclic():
    scenario = MeasurementScenario.from_maximal(
        ("x", "y"), (("x",), ("y",)), ("A", "B")
    )
    with pytest.raises(BootstrapError, match="not cyclic"):
        cycle_order_tallies(scenario, {})


@pytest.mark.parametrize("case, seed, draws", [
    ("fixture", 0, 5000), ("fixture", 9, 5000), ("fixture", 12345, 5000),
    ("skewed", 4, 2000), ("straddle", 6, 2000),
])
def test_batched_cf_matches_cold_solves(cannibal_tallies, case, seed, draws):
    tallies = {"fixture": cannibal_tallies, "skewed": make_tallies(SKEWED),
               "straddle": make_tallies(STRADDLE)}[case]
    config = BootstrapConfig(n_resamples=draws, seed=seed, statistic="cf")
    result = run(tallies, config)
    oracle = cold_cf(tallies, config)
    assert np.max(np.abs(result.samples - oracle)) <= 1e-12
    assert result.fraction_positive == float((oracle > config.tol).mean())
    if case == "straddle":
        assert 0.2 < result.fraction_positive < 0.8


def test_cf_fraction_positive_is_decided_at_tol():
    tallies = make_tallies(SKEWED)
    loose = run(tallies, BootstrapConfig(n_resamples=400, seed=5, statistic="cf", tol=0.05))
    strict = run(tallies, BootstrapConfig(n_resamples=400, seed=5, statistic="cf", tol=0.0))
    assert np.array_equal(loose.samples, strict.samples)
    assert loose.fraction_positive == float((loose.samples > 0.05).mean())
    assert strict.fraction_positive == float((strict.samples > 0.0).mean())
    assert loose.fraction_positive < strict.fraction_positive
    # the other statistics count > tol too
    v = run(tallies, BootstrapConfig(n_resamples=400, seed=5, tol=0.05))
    assert v.fraction_positive == float((v.samples > 0.05).mean())


small_rank4_tallies = st.lists(
    st.integers(1, 12).flatmap(lambda n: st.integers(0, n).map(
        lambda s: ContextTally(n_total=n, n_same=s, n_diff=n - s))),
    min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(small_rank4_tallies, st.integers(0, 2**63))
def test_every_statistic_counts_a_draw_above_tol(tallies, seed):
    # a draw on the facet s_odd = 2 reads 0 up to rounding under every
    # statistic.  cf is half the violation above it, so the two could part
    # only on a violation in (tol, 2 tol]; with n_valid <= 12 a nonzero
    # violation is at least 1 / 12**4, so at the default tol all three agree
    results = [run(tallies, BootstrapConfig(n_resamples=4000, seed=seed, statistic=stat))
               for stat in bootstrap.STATISTICS]
    for result in results:
        assert result.fraction_positive == float((result.samples > PROB_TOL).mean())
    assert len({result.fraction_positive for result in results}) == 1


BLOCK = bootstrap._BLOCK


def random_tallies(rank, seed):
    rng = np.random.default_rng(seed)
    return make_tallies(rng.integers(1, 200, size=(rank, 2)).tolist())


@pytest.mark.parametrize("rank", [3, 4, 5, 6])
@pytest.mark.parametrize("n", range(1, 10))
def test_each_context_generator_reads_its_own_part_of_the_one_stream(rank, n):
    # n = 1..9 gives every k n mod 4, the uniforms a Philox counter step holds
    seed = 1000 * rank + n
    stream = np.random.Generator(np.random.Philox(seed)).random(rank * n)
    for k in range(rank):
        rng = bootstrap._generator_at(seed, k * n)
        assert np.array_equal(rng.random(n), stream[k * n:(k + 1) * n])


@pytest.mark.parametrize("rank", [3, 4, 5, 6])
# the edges of one block, and the same edges around 2**16, many blocks long
@pytest.mark.parametrize("draws", [1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7,
                                   2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7])
def test_block_draws_match_the_matrix_oracle_bit_for_bit(rank, draws):
    tallies = random_tallies(rank, seed=rank * draws)
    for statistic in ("violation", "cf"):
        config = BootstrapConfig(n_resamples=draws, seed=draws, statistic=statistic)
        assert np.array_equal(run(tallies, config).samples,
                              bootstrap_samples_matrix(tallies, config))


@pytest.mark.parametrize("rank", [8, 12, 16])
def test_block_draws_match_the_matrix_oracle_at_high_rank(rank):
    # numpy sums rows of 8 or more terms pairwise; the fold sums left to right
    tallies = random_tallies(rank, seed=rank)
    for statistic in ("violation", "cf"):
        config = BootstrapConfig(n_resamples=BLOCK + 3, seed=rank, statistic=statistic)
        samples = run(tallies, config).samples
        assert np.max(np.abs(samples - bootstrap_samples_matrix(tallies, config))) <= 1e-12


@pytest.mark.parametrize("rank, pairs", [(4, SKEWED), (6, STRADDLE)], ids=["rank4", "rank6"])
@pytest.mark.parametrize("statistic", ["violation", "cf"])
def test_std_and_fraction_positive_are_numpys_bit_for_bit(rank, pairs, statistic):
    tallies = make_tallies(pairs)
    assert len(tallies) == rank
    sizes = [*range(1, 301), BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7, 100_003, 10**6]
    for draws in sizes:
        result = run(tallies, BootstrapConfig(n_resamples=draws, seed=draws,
                                              statistic=statistic))
        assert result.std == float(result.samples.std()), draws
        assert result.fraction_positive == float((result.samples > PROB_TOL).mean()), draws
    assert 0.0 < result.fraction_positive < 1.0


def test_block_wise_sum_of_squares_follows_numpys_pairwise_order():
    rng = np.random.default_rng(33)
    sizes = [*range(1, 260), BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7, 2**16 - 1, 2**16 + 9,
             100_003, 500_000, 3_000_017, *rng.integers(BLOCK, 3 * 10**6, size=8)]
    for n in sizes:
        for x in (rng.standard_normal(n), rng.random(n) * 1e3 - 3.0,
                  rng.integers(-5, 5, size=n) / 7.0 + 0.192):
            mean = float(x.mean())
            std = math.sqrt(bootstrap._sum_of_squares(x, mean, np.empty(min(n, BLOCK))) / n)
            assert std == float(x.std()), (
                f"n = {n}: numpy's x.std() no longer sums in the pairwise order that "
                "bootstrap._sum_of_squares walks; the printed std would change")


@pytest.mark.parametrize("statistic", ["violation", "cf"])
def test_peak_memory_per_draw_is_bounded(statistic):
    tallies = make_tallies(SKEWED)
    draws = 10**6
    run(tallies, BootstrapConfig(n_resamples=10, statistic=statistic))  # warm up
    tracemalloc.start()
    try:
        run(tallies, BootstrapConfig(n_resamples=draws, statistic=statistic))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the samples take 8 bytes per draw; one block's buffers take about 60
    # bytes per row of the block, and nothing else is as long as the samples
    assert peak <= 8 * draws + 96 * BLOCK


HIGH_WATER_PROBE = """
from winoctx.bootstrap import BootstrapConfig, run
from winoctx.ingest import ContextTally

def high_water_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

tallies = [ContextTally(s + d, s, d) for s, d in %r]
for draws in (10, 10**6):
    run(tallies, BootstrapConfig(n_resamples=draws))
    print(high_water_kb())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_a_million_draws_raise_the_processs_own_peak_by_its_samples():
    # a fresh interpreter reads its own VmHWM, not the ru_maxrss it inherits
    proc = python_process("-c", HIGH_WATER_PROBE % (SKEWED,))
    assert proc.returncode == 0, proc.stderr
    few, many = map(int, proc.stdout.split())
    # the samples take 8 MB; a full-length temporary would add 8 more
    assert many - few <= 10 * 1024


def split_cases():
    """(n_valid, n_same) at each tested size, with the edge splits."""
    for n in (1, 2, 85, 945, 12000):
        for s in sorted({0, 1, n // 2, (4 * n) // 5, n - 1, n}):
            yield n, s


@pytest.mark.parametrize("n, s", list(split_cases()))
def test_alias_table_implies_the_exact_binomial_pmf(n, s):
    table = alias_table(n, s)
    m = len(table.counts)
    assert table.counts.tolist() == list(range(table.counts[0], table.counts[0] + m))
    assert np.all((table.prob >= 0.0) & (table.prob <= 1.0))
    # m P(k) = prob[k] + the rest of every slot whose alias is k
    implied = table.prob.copy()
    np.add.at(implied, table.alias, 1.0 - table.prob)
    implied /= m
    exact = np.array(binomial_pmf_exact(n, s))
    assert np.all(exact[table.counts] > 0.0)
    assert np.max(np.abs(implied - exact[table.counts])) <= 1e-12
    # only counts whose pmf is not a positive double are left out
    left_out = np.ones(n + 1, dtype=bool)
    left_out[table.counts] = False
    assert np.all(exact[left_out] <= 5e-324)
    assert implied.sum() == pytest.approx(1.0, abs=1e-12)
    if s in (0, n):
        assert table.counts.tolist() == [s]


def chi_square_critical(df, z=3.090):
    """Upper 0.001 point of chi-square with `df` degrees of freedom, by the
    Wilson-Hilferty cube-root approximation."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * c ** 0.5) ** 3


@pytest.mark.parametrize("n, s", [(85, 59), (945, 761), (945, 84)])
def test_alias_draws_pass_a_chi_square_test_against_the_pmf(n, s):
    draws = 10**6
    prob, slots = bootstrap._slot_correlations(ContextTally(n, s, n - s))
    rng = np.random.Generator(np.random.Philox(2024))
    values = bootstrap._draw_correlations(rng, prob, slots, draws,
                                           bootstrap._Block.empty(draws))
    counts = np.rint((values + 1.0) * n / 2.0).astype(int)
    assert np.array_equal((2.0 * counts - n) / n, values)
    observed = np.bincount(counts, minlength=n + 1).astype(float)
    expected = draws * np.array(binomial_pmf_exact(n, s))
    # pool each tail until every bin expects at least 5 draws
    ks = np.flatnonzero(expected >= 5.0)
    lo, hi = ks[0], ks[-1]
    obs = np.concatenate([[observed[:lo + 1].sum()], observed[lo + 1:hi],
                          [observed[hi:].sum()]])
    exp = np.concatenate([[expected[:lo + 1].sum()], expected[lo + 1:hi],
                          [expected[hi:].sum()]])
    statistic = float(((obs - exp) ** 2 / exp).sum())
    assert statistic < chi_square_critical(len(obs) - 1)


@pytest.mark.parametrize("s, value", [(0, -1.0), (40, 1.0)])
def test_unanimous_context_draws_a_constant_correlation(s, value):
    prob, slots = bootstrap._slot_correlations(ContextTally(40, s, 40 - s))
    rng = np.random.Generator(np.random.Philox(7))
    assert np.all(bootstrap._draw_correlations(rng, prob, slots, 5000,
                                               bootstrap._Block.empty(5000)) == value)


class LargestUniform:
    """Stands in for the generator: every uniform is 1 - 2**-53, the largest
    that Philox's `random` returns."""

    def random(self, out):
        out.fill(1.0 - 2.0**-53)
        return out


def test_largest_uniform_lands_inside_the_table():
    for n, s in split_cases():
        prob, slots = bootstrap._slot_correlations(ContextTally(n, s, n - s))
        # take raises IndexError on a slot past the end
        values = bootstrap._draw_correlations(LargestUniform(), prob, slots, 3,
                                               bootstrap._Block.empty(3))
        assert np.all(np.isin(values, slots))
    # every table length a context can give at these sizes
    for m in range(1, 20_000):
        assert int(np.float64(1.0 - 2.0**-53) * m) == m - 1


def test_draws_agree_with_the_exact_ideal_bootstrap(cannibal_tallies):
    # exact enumeration of the fixture's resampling distribution
    exact_fraction, exact_mean = 0.871876, 0.201139
    draws = 100_000
    result = run(cannibal_tallies, BootstrapConfig(n_resamples=draws, seed=0))
    assert bootstrap.SAMPLER == "walker-alias"
    fraction_se = (exact_fraction * (1.0 - exact_fraction) / draws) ** 0.5
    assert abs(result.fraction_positive - exact_fraction) <= 4.0 * fraction_se
    assert abs(result.mean - exact_mean) <= 4.0 * result.std / draws ** 0.5
