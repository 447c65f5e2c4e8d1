"""Acceptance suite: the package's end-to-end numeric contract.

Each test prints one visible PASS/FAIL line with the measured values, then
asserts the documented tolerance.  The tolerances and sample counts are the
contract; do not loosen them to make a failing build green.
"""

import itertools
import json
import time

import numpy as np
import pytest

from winoctx import cbd
from winoctx.bootstrap import BootstrapConfig, cycle_order_tallies, run
from winoctx.cli import main
from winoctx.empirical import EmpiricalModel, is_non_signalling, signalling
from winoctx.files import load_schema
from winoctx.fixtures import fixture_path
from winoctx.ingest import ResponseRecord, aggregate, parse_responses
from winoctx.linprog import solve
from winoctx.schema import ws_scenario
from winoctx.sheaf import contextual_fraction

from conftest import random_symmetric_model
from oracles import brute_force_lp, random_bounded_lp


def announce(capsys, idx, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {idx}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {idx}: {detail}"


def test_criterion_1_judgment_model_violation(capsys):
    started = time.perf_counter()
    code = main(["analyze", str(fixture_path("cannibal_judgment_model.json")),
                 "--format", "json"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    doc = json.loads(out)
    violation = doc["cyclic"]["violation"]
    ok = code == 0 and abs(violation - 0.192) <= 0.002 and elapsed < 1.0
    announce(capsys, 1, ok,
             f"violation={violation:.6f} (band 0.192+/-0.002), runtime={elapsed:.3f}s")


def test_criterion_2_cnt1_coincides_with_violation(capsys, chsh_scenario,
                                                   judgment_model):
    worst = abs(cbd.cnt1(judgment_model) - cbd.chsh_violation(judgment_model))
    rng = np.random.default_rng(202)
    for _ in range(1000):
        model = random_symmetric_model(chsh_scenario, rng)
        worst = max(worst, abs(cbd.cnt1(model) - cbd.chsh_violation(model)))
    ok = worst <= 1e-12
    announce(capsys, 2, ok,
             f"max |cnt1 - violation| = {worst:.3e} over judgment model "
             f"+ 1000 random symmetric models (tol 1e-12)")


def test_criterion_3_contextual_fraction_values(capsys, chsh_scenario,
                                                judgment_model, pr_model,
                                                bell_model, uniform_model):
    def timed_cf(model):
        started = time.perf_counter()
        result = contextual_fraction(model)
        return result, time.perf_counter() - started

    judgment, t1 = timed_cf(judgment_model)
    pr, t2 = timed_cf(pr_model)
    bell, t3 = timed_cf(bell_model)
    uniform, t4 = timed_cf(uniform_model)
    slowest = max(t1, t2, t3, t4)

    rng = np.random.default_rng(303)
    worst_sat = 0.0
    for _ in range(1000):
        model = random_symmetric_model(chsh_scenario, rng)
        result, t = timed_cf(model)
        slowest = max(slowest, t)
        target = max(0.0, cbd.chsh_violation(model) / 2.0)
        worst_sat = max(worst_sat, abs(result.cf - target))

    ok = (abs(judgment.cf - 0.096) <= 0.001
          and worst_sat <= 1e-6
          and abs(pr.cf - 1.0) <= 1e-9
          and abs(bell.cf - 0.25) <= 1e-6
          and abs(uniform.cf - 0.0) <= 1e-9
          and slowest < 0.050)
    announce(capsys, 3, ok,
             f"cf: judgment={judgment.cf:.6f} pr={pr.cf:.6f} bell={bell.cf:.6f} "
             f"uniform={uniform.cf:.6f}; max |cf - max(0,v/2)| = {worst_sat:.2e} "
             f"over 1000 random models; slowest solve {slowest * 1e3:.1f} ms")


def test_criterion_4_lp_against_brute_force(capsys, chsh_scenario, judgment_model,
                                            pr_model, bell_model, uniform_model):
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(200):
        problem = random_bounded_lp(rng)
        expected = brute_force_lp(problem)
        got = solve(problem)
        assert expected is not None and got.status == "optimal"
        worst = max(worst, abs(got.objective_value - expected))

    worst_gap = 0.0
    for model in (judgment_model, pr_model, bell_model, uniform_model):
        worst_gap = max(worst_gap, contextual_fraction(model).gap)
    for _ in range(100):
        model = random_symmetric_model(chsh_scenario, rng)
        worst_gap = max(worst_gap, contextual_fraction(model).gap)

    ok = worst <= 1e-8 and worst_gap <= 1e-7
    announce(capsys, 4, ok,
             f"max |simplex - brute force| = {worst:.2e} over 200 LPs (tol 1e-8); "
             f"max certificate gap = {worst_gap:.2e} over 104 CF solves (tol 1e-7)")


def test_criterion_5_s_odd_closed_form(capsys):
    rng = np.random.default_rng(505)
    worst = 0.0
    checked = 0
    for k in range(3, 11):
        signs = np.array([s for s in itertools.product((1.0, -1.0), repeat=k)
                          if s.count(-1.0) % 2 == 1])
        vectors = rng.uniform(-2.0, 2.0, size=(1250, k))
        enumerated = (vectors @ signs.T).max(axis=1)
        closed = np.array([cbd.s_odd(v) for v in vectors])
        worst = max(worst, float(np.max(np.abs(closed - enumerated))))
        checked += len(vectors)
    ok = worst <= 1e-12 and checked == 10_000
    announce(capsys, 5, ok,
             f"max |closed form - enumeration| = {worst:.3e} "
             f"over {checked} vectors, k in 3..10 (tol 1e-12)")


def test_criterion_6_aggregation_never_signals(capsys):
    schema = load_schema(fixture_path("cannibal_schema.json"))
    pairs = (("cannibalistic", "hungry"), ("cannibalistic", "alive"),
             ("herbivorous", "hungry"), ("herbivorous", "alive"))
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        records = []
        k = 0
        for w1, w2 in pairs:
            n_same = int(rng.integers(0, 12))
            n_diff = int(rng.integers(0, 12)) if n_same else int(rng.integers(1, 12))
            for picks in [("AA", "BB")] * n_same + [("AB", "BA")] * n_diff:
                records.append(ResponseRecord(f"r{k}", w1, w2, frozenset(picks)))
                k += 1
        model, _ = aggregate(records, schema)
        worst = max(worst, signalling(model))
        assert is_non_signalling(model)
    ok = worst == 0.0
    announce(capsys, 6, ok,
             f"max signalling discrepancy = {worst!r} over 1000 aggregated "
             f"tally sets (must be exactly 0.0)")


def test_criterion_7_bootstrap_spread(capsys):
    schema = load_schema(fixture_path("cannibal_schema.json"))
    parsed = parse_responses(fixture_path("cannibal_responses.csv"))
    model, tallies = aggregate(parsed.records, schema)
    ordered = cycle_order_tallies(model.scenario, tallies)
    assert sum(t.n_valid for t in ordered) == 348
    started = time.perf_counter()
    result = run(ordered, BootstrapConfig(n_resamples=100_000, seed=0))
    elapsed = time.perf_counter() - started
    ok = (0.82 <= result.fraction_positive <= 0.92
          and 0.14 <= result.std <= 0.21
          and elapsed < 60.0)
    announce(capsys, 7, ok,
             f"fraction_positive={result.fraction_positive:.3f} (band 0.82..0.92), "
             f"std={result.std:.4f} (band 0.14..0.21), runtime={elapsed:.2f}s")


def test_criterion_8_bootstrap_determinism(capsys):
    schema = load_schema(fixture_path("cannibal_schema.json"))
    parsed = parse_responses(fixture_path("cannibal_responses.csv"))
    model, tallies = aggregate(parsed.records, schema)
    ordered = cycle_order_tallies(model.scenario, tallies)

    config = BootstrapConfig(n_resamples=10_000, seed=12345)
    repeat_ok = np.array_equal(run(ordered, config).samples,
                               run(ordered, config).samples)
    serial = run(ordered, BootstrapConfig(n_resamples=300, seed=9,
                                          statistic="cf", workers=1))
    threaded = run(ordered, BootstrapConfig(n_resamples=300, seed=9,
                                            statistic="cf", workers=3))
    thread_ok = np.array_equal(serial.samples, threaded.samples)
    ok = repeat_ok and thread_ok
    announce(capsys, 8, ok,
             f"bit-identical across runs: {repeat_ok}; "
             f"across thread counts (1 vs 3): {thread_ok}")


def test_criterion_9_one_pronoun_scenarios_trivial(capsys):
    schema = load_schema(fixture_path("councilmen_schema.json"))
    scenario = ws_scenario(schema)
    obs1, obs2 = scenario.observables
    out1, out2 = scenario.outcomes
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        p, q = rng.integers(0, 1025, size=2) / 1024.0
        model = EmpiricalModel.build(scenario, {
            (obs1,): {(out1,): p, (out2,): 1.0 - p},
            (obs2,): {(out1,): q, (out2,): 1.0 - q},
        })
        worst = max(worst, contextual_fraction(model).cf)
    ok = worst == 0.0
    announce(capsys, 9, ok,
             f"max cf = {worst!r} over 100 random models on the one-pronoun "
             f"scenario (must be exactly 0.0)")
