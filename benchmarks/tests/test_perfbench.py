"""Tests of the benchmark's own code: generator, checks, span arithmetic.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_generator_is_deterministic(tmp_path):
    a = gen.generate(5, tmp_path / "a")
    b = gen.generate(5, tmp_path / "b")
    c = gen.generate(6, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [i.tallies for i in a.analyze] == [i.tallies for i in b.analyze]
    assert [m.correlations for m in a.cycles] == [m.correlations for m in b.cycles]
    assert [i.rows for i in a.analyze if i.rows] == list(gen.CSV_SIZES)
    assert a.analyze != c.analyze


def test_generated_tallies_match_csv(tmp_path):
    inputs = gen.generate(1, tmp_path)
    item = inputs.analyze[0]
    lines = Path(item.argv[1]).read_text().splitlines()
    assert len(lines) == item.rows + 1
    same = sum(1 for line in lines[1:] if set(line.split(",")[3:]) == {"AA", "BB"})
    assert same == sum(t.n_same for t in item.tallies)


def test_generated_cycle_models_are_distributions(tmp_path):
    for model in gen.generate(2, tmp_path).cycles:
        for dist in model.doc["distributions"]:
            probs = dist["probs"].values()
            assert min(probs) >= 0.0
            assert math.isclose(math.fsum(probs), 1.0, abs_tol=1e-12)


def test_s_odd_closed_form_matches_enumeration():
    values = [0.3, -0.7, 0.1, 0.9, -0.2]
    best = max(
        sum(s * v for s, v in zip(signs, values))
        for signs in itertools.product((1, -1), repeat=len(values))
        if signs.count(-1) % 2 == 1
    )
    assert math.isclose(checks.s_odd(values), best, abs_tol=1e-12)


def _analyze_doc(violation, cf):
    return json.dumps({"cyclic": {"violation": violation},
                       "contextual_fraction": {"cf": cf}})


CORRS = [0.61, -0.822, 0.382, 0.378]  # the paper's judgment model


def test_check_analyze_accepts_and_rejects():
    v = checks.s_odd(CORRS) - 2.0
    assert checks.check_analyze(0, _analyze_doc(v, v / 2), CORRS) == []
    assert checks.check_analyze(0, _analyze_doc(v + 1e-9, v / 2), CORRS)
    assert checks.check_analyze(0, _analyze_doc(v, v / 2 - 1e-3), CORRS)
    assert checks.check_analyze(1, _analyze_doc(v, v / 2), CORRS)
    assert checks.check_analyze(0, "not json", CORRS)
    assert checks.check_analyze(0, json.dumps({"cyclic": {}}), CORRS)


def test_check_bootstrap_rejects_differing_workers_and_wrong_counts():
    doc = json.dumps({"statistic": "cf", "n_resamples": 10, "mean": 0.1,
                      "fraction_positive": 0.5})
    assert checks.check_bootstrap(0, doc, "cf", 10) == []
    assert checks.check_bootstrap(0, doc, "cf", 11)
    assert checks.check_bootstrap(0, doc, "violation", 10)
    assert checks.check_workers_agree(doc, doc) == []
    assert checks.check_workers_agree(doc, doc.replace("0.1", "0.2"))


def test_check_cycle_rejects_each_wrong_value():
    n = 6
    corrs = [0.9] * (n - 1) + [-0.9]            # s_odd = 5.4, bound 0.7
    ok = {"cf": 0.7, "gap": 0.0, "notices": []}
    assert checks.check_cycle(ok, n, "mix", 0.8, corrs) == []
    assert checks.check_cycle({**ok, "cf": 0.69}, n, "mix", 0.8, corrs)  # below bound
    assert checks.check_cycle(ok, n, "mix", 0.6, corrs)                   # above lambda
    assert checks.check_cycle({**ok, "gap": 1e-6}, n, "mix", 0.8, corrs)
    assert checks.check_cycle({**ok, "cf": 1.5}, n, "mix", 2.0, corrs)
    flat = [0.1] * n
    assert checks.check_cycle({**ok, "cf": 1e-12}, n, "nc", 0.0, flat) == []
    assert checks.check_cycle({**ok, "cf": 1e-6}, n, "nc", 0.0, flat)
    omitted = {"cf": None, "gap": None}
    assert checks.check_cycle({**omitted, "notices": []}, n, "nc", 0.0, flat)
    notice = [checks.CF_NOTICE + ": too large"]
    assert checks.check_cycle({**omitted, "notices": notice}, n, "nc", 0.0, flat) == []


def _span(i, parent, name, start, end, **attrs):
    return [i, parent, name, start, end, attrs]


def test_self_times_on_a_synthetic_tree():
    tree = [
        _span(1, 0, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 3.0),
        _span(3, 1, "b", 2.0, 5.0),       # overlaps a: a worker thread
        _span(4, 1, "c", 8.0, 12.0),      # runs past the root: clipped
        _span(5, 2, "a.child", 1.5, 2.0),
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[2] == pytest.approx(2.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(0.5)


def test_tracer_nests_spans():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert inner[spans.PARENT] == outer[spans.ID]
    assert outer[spans.PARENT] == 0
    assert spans.self_times(tracer.spans)[outer[spans.ID]] == pytest.approx(2.0)


def test_layer_metrics_counts_refused_builds_and_phase1():
    tree = [
        _span(1, 0, "sheaf.cf", 0.0, 4.0, error="LpSizeError"),
        _span(2, 1, "sheaf.incidence", 0.0, 3.0, cells=10),
        _span(3, 0, "sheaf.cf", 5.0, 9.0),
        _span(4, 3, "sheaf.incidence", 5.0, 6.0, cells=4),
        _span(5, 3, "linprog.solve", 6.0, 8.0, iterations=5, phase1=True,
              tableau_cells=6, gap=1e-12),
        _span(6, 5, "linprog.simplex", 6.0, 6.5, iterations=2),
        _span(7, 5, "linprog.simplex", 6.5, 7.5, iterations=3),
    ]
    m = spans.layer_metrics(tree)
    assert m["sheaf.incidence.refused_ms"][0] == pytest.approx(3000.0)
    assert m["sheaf.incidence.cells"][0] == 14
    assert m["sheaf.cf.self_ms"][0] == pytest.approx(1000.0 + 1000.0)
    assert m["linprog.phase1_share"][0] == pytest.approx(2 / 5)
    assert m["linprog.bytes_moved"][0] == 8 * 5 * 6
    assert m["linprog.solve.self_ms"][0] == pytest.approx(2000.0)


def test_hooks_count_calls_and_restore_originals():
    pytest.importorskip("numpy")
    from winoctx import cbd, empirical

    original = cbd.s_odd
    original_build = empirical.EmpiricalModel.__dict__["build"]
    tracer = spans.Tracer()
    hooks = spans.Hooks(tracer)
    with hooks:
        assert cbd.s_odd([0.5, -0.5, 0.5, 0.5]) == pytest.approx(2.0)
    assert cbd.s_odd is original
    assert empirical.EmpiricalModel.__dict__["build"] is original_build
    assert hooks.calls["winoctx.cbd.s_odd"] == 1
    assert "winoctx.cbd.s_odd" not in hooks.without_calls()
    assert [s[spans.NAME] for s in tracer.spans] == ["cbd.s_odd"]


def test_middle_mean_and_geomean():
    assert run.middle_mean([5.0, 1.0, 100.0, 3.0]) == 4.0      # mean of 3 and 5
    assert run.middle_mean([2.0, 7.0]) == 4.5
    assert math.isclose(run.geomean([1.0, 4.0, 16.0]), 4.0)
