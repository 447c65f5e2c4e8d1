"""The benchmark's in-process work, run in a child process of run.py.

    python3 benchmarks/inproc.py cycles PLAN.json OUT.json
    python3 benchmarks/inproc.py trace PLAN.json OUT.json

`cycles` loads the cycle model files, then times
`winoctx.report.build_report` on every model, pass after pass in seeded
orders, until the plan's seconds have passed.  Each report is bracketed
by runs of the calibration loop.

`trace` runs a whole operation list in this one process: command-line
operations through `winoctx.cli.main(argv)`, cycle operations through
`build_report`.  Each operation runs once untraced and once with the span
hooks installed; the two wall times give the tracing overhead.

Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


# Iterations of the calibration loop: about 6 ms of pure-Python integer
# arithmetic on the reference machine (a 2-core shared virtual machine).
CAL_LOOPS = 100_000
# The loop's time on the reference machine in its faster spells.  Set-up
# times are reported in seconds at this speed: measured seconds times
# REF_CAL_S over the loop's time around them.
REF_CAL_S = 0.006


def calibrate(runs: int = 1) -> float:
    """Seconds one run of a fixed pure-Python loop of CAL_LOOPS iterations
    takes, averaged over `runs` back to back: the machine's speed at this
    moment.  Operations timed between two calibrations are reported as
    multiples of their mean, which cancels most of the shared machine's
    speed changes."""
    start = time.perf_counter()
    total = 0
    for i in range(runs * CAL_LOOPS):
        total += i * i
    return (time.perf_counter() - start) / runs


def summarize(report) -> dict:
    cf = report.cf
    return {"cf": cf.cf if cf else None, "gap": cf.gap if cf else None,
            "notices": list(report.notices)}


def timed_report(model):
    from winoctx import report

    start = time.perf_counter()
    result = report.build_report(model)  # attribute lookup: hooks apply
    return time.perf_counter() - start, result


class CycleModels:
    """The cycle models of one run, loaded once."""

    def __init__(self, files):
        from winoctx.files import load_model

        self.models = [(rank, load_model(path)) for rank, path in files]
        timed_report(self.models[0][1])  # first-use costs are not what is measured

    def run(self, seed: int, measure=timed_report, calibrated=False) -> list[dict]:
        """Report every model once, in an order seeded by `seed`;
        `measure(model)` returns (seconds, report).  `calibrated` runs the
        calibration loop around each report and adds its mean time."""
        order = list(range(len(self.models)))
        random.Random(seed).shuffle(order)
        out = []
        cal = calibrate() if calibrated else 0.0
        for i in order:
            try:
                seconds, report = measure(self.models[i][1])
            except Exception:  # a failed report is counted, the run goes on
                out.append({"model": i, "error": traceback.format_exc(limit=3)})
                continue
            res = {"model": i, "ms": 1e3 * seconds, **summarize(report)}
            if calibrated:
                after = calibrate()
                res["cal_ms"] = 500.0 * (cal + after)
                cal = after
            out.append(res)
        return out


def cycles(plan: dict) -> dict:
    """Timed passes over the cycle models.  Loading them, the first report
    included, is the worker's set-up; it is timed with the calibration
    loop around it."""
    cal = calibrate()
    start = time.perf_counter()
    models = CycleModels(plan["cycle_files"])
    load_s = time.perf_counter() - start
    load_cal_s = (cal + calibrate()) / 2
    end = time.perf_counter() + plan["seconds"]
    reports = []
    k = 0
    while k == 0 or time.perf_counter() < end:
        reports += models.run(plan["seed"] * 1000 + k, calibrated=True)
        k += 1
    return {"passes": k, "reports": reports, "load_s": load_s, "load_cal_s": load_cal_s}


def run_cli(argv: list[str]):
    from winoctx import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what a process would die of: exit code 1
            traceback.print_exc()
            code = 1
    return time.perf_counter() - start, code, out.getvalue()


def trace(plan: dict) -> dict:
    tracer = spans.Tracer()
    hooks = spans.Hooks(tracer)
    walls = {"untraced": 0.0, "traced": 0.0}

    def both(call):
        seconds, *plain = call()
        walls["untraced"] += seconds
        with hooks:
            seconds, *traced = call()
        walls["traced"] += seconds
        return plain, traced

    models = CycleModels(plan["cycle_files"])
    results = []
    for op in plan["ops"]:
        if op["kind"] == "cycles":
            diverged = []

            def measure(model):
                (report,), (traced_report,) = both(lambda: timed_report(model))
                diverged.append(summarize(report) != summarize(traced_report))
                return 0.0, traced_report

            results.append({"reports": models.run(op["seed"], measure),
                            "diverged": sum(diverged)})
        else:
            (code, out), (t_code, t_out) = both(lambda: run_cli(op["argv"]))
            results.append({"code": t_code, "stdout": t_out,
                            "same_untraced": (code, out) == (t_code, t_out)})

    spans_path = Path(plan["spans_path"])
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end", "attrs"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))

    metrics = spans.layer_metrics(tracer.spans)
    untraced = walls["untraced"]
    metrics["trace.overhead_pct"] = (
        100.0 * (walls["traced"] - untraced) / untraced if untraced else 0.0, "%")
    metrics["trace.hooks_without_calls"] = (float(len(hooks.without_calls())), "count")
    metrics["trace.spans"] = (float(len(tracer.spans)), "count")
    return {"results": results, "metrics": metrics,
            "hooks_without_calls": hooks.without_calls(),
            "untraced_s": untraced, "traced_s": walls["traced"]}


def main(argv: list[str]) -> int:
    modes = {"cycles": cycles, "trace": trace}
    if len(argv) == 3 and argv[0] in modes:
        plan = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        Path(argv[2]).write_text(json.dumps(modes[argv[0]](plan)), encoding="utf-8")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
