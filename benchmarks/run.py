"""The winoctx benchmark: one run of one workload.

    python3 benchmarks/run.py --workload analyze-cli --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The last line of standard output is the result object (correct,
attempted, failed, metrics); the line before it is the run record (machine,
details behind each metric, every problem found).  Both also go to
`.bench_work/records/`.  See benchmarks/README.md for the workloads and
metrics.

With --trace 0 the run times the workload's own operations for --seconds,
each between two runs of a calibration loop, and reports the end-to-end
metrics.  With --trace 1 it runs a fixed list of operations of every kind
in one process, once untraced and once with span hooks, and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from inproc import REF_CAL_S, calibrate  # noqa: E402

# The operation kind each workload runs for the whole of --seconds.
WORKLOADS = {"analyze-cli": "analyze", "bootstrap": "bootstrap", "cf-cycles": "cycles"}
CF_DRAWS = 500
VIOLATION_DRAWS = 500_000
# Calibration runs around each process: processes last 0.2-0.9 s, so the
# machine's speed is sampled over a longer stretch than around a report.
CLI_CAL_RUNS = 4
# Set-ups per run, and cycle worker processes per run.
SETUP_REPEATS = 9
CYCLE_CHUNKS = 4
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 150.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import winoctx.cli; "
                "print(1e3 * (time.perf_counter() - t))")


@dataclass
class Proc:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


@contextmanager
def deadline(proc: subprocess.Popen):
    """Kill `proc` if the block takes longer than CHILD_TIMEOUT_S."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def spawn(argv: list[str], env: dict, work: Path) -> Proc:
    """Run one child to completion; wall time and its own peak RSS."""
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            with deadline(proc):
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, out.read().decode(), err.read().decode(),
                    wall, usage.ru_maxrss / 1024.0)


def machine_record() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "note": ("shared sandbox: other tenants' load is not controlled; "
                 "no cache dropping and no CPU pinning were done"),
    }


def analyze_round(inputs: gen.Inputs, rng: random.Random) -> list[dict]:
    """Every analyze input once, in a seeded order."""
    order = list(range(len(inputs.analyze)))
    rng.shuffle(order)
    return [{"kind": "analyze", "input": i, "name": inputs.analyze[i].name,
             "argv": ["analyze", "--format", "json", *inputs.analyze[i].argv]}
            for i in order]


def bootstrap_round(inputs: gen.Inputs, seed: int, k: int, rng: random.Random) -> list[dict]:
    """cf with one and with two workers on one file and one seed, and the
    violation statistic, in a seeded order; round k takes file k mod 4."""
    i = k % len(inputs.bootstrap)
    item = inputs.bootstrap[i]
    ops = []
    for statistic, workers, samples in (("cf", 1, CF_DRAWS), ("cf", 2, CF_DRAWS),
                                        ("violation", 1, VIOLATION_DRAWS)):
        ops.append({
            "kind": "bootstrap", "input": i, "round": k, "statistic": statistic,
            "workers": workers, "samples": samples,
            "name": f"{statistic}.w{workers}" if statistic == "cf" else statistic,
            "argv": ["bootstrap", item.responses, item.schema, "--samples", str(samples),
                     "--statistic", statistic, "--workers", str(workers),
                     "--seed", str(seed * 1000 + k), "--format", "json"]})
    rng.shuffle(ops)
    return ops


def cli_round(kind: str, inputs: gen.Inputs, seed: int, k: int,
              rng: random.Random) -> list[dict]:
    if kind == "analyze":
        return analyze_round(inputs, rng)
    return bootstrap_round(inputs, seed, k, rng)


class Attempts:
    """Operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def check_op(op: dict, code: int, stdout: str, inputs: gen.Inputs, tally: Attempts,
             cf_w1: dict) -> None:
    """Check one command-line operation.  `cf_w1` maps a bootstrap round to
    its one-worker cf output, for the comparison with two workers."""
    if op["kind"] == "analyze":
        item = inputs.analyze[op["input"]]
        tally.add(item.name, checks.check_analyze(
            code, stdout, gen.tally_correlations(item.tallies)))
        return
    problems = checks.check_bootstrap(code, stdout, op["statistic"], op["samples"])
    if op["statistic"] == "cf":
        other = cf_w1.setdefault(op["round"], {})
        other[op["workers"]] = stdout
        if len(other) == 2:
            problems += checks.check_workers_agree(other[1], other[2])
    tally.add(f"bootstrap {op['statistic']} w{op['workers']}", problems)


def check_reports(reports: list[dict], inputs: gen.Inputs, tally: Attempts) -> None:
    for res in reports:
        model = inputs.cycles[res["model"]]
        tally.add(model.name, checks.check_cycle(res, model.rank, model.kind, model.weight,
                                                 model.correlations))


def timed_setup(seed: int, out_dir: Path) -> tuple[tuple[float, float], gen.Inputs]:
    """Generate the inputs.  Returns the seconds taken with the calibration
    loop's mean time around them, and the inputs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cal = calibrate()
    start = time.perf_counter()
    inputs = gen.generate(seed, out_dir)
    seconds = time.perf_counter() - start
    return (seconds, (cal + calibrate()) / 2), inputs


def at_ref_speed(samples: list[tuple[float, float]]) -> float:
    """Median of (seconds, calibration seconds) samples, in seconds at the
    reference machine's speed."""
    return statistics.median(s * REF_CAL_S / cal for s, cal in samples)


class Setups:
    """Set-up timed SETUP_REPEATS times in a run: once before the
    operations, then whenever another 1/(SETUP_REPEATS - 1) of the run has
    passed, so their median follows the run's typical machine speed rather
    than one moment's.  For cf-cycles, the cycle workers' loading of the
    models is set-up too."""

    def __init__(self, seed: int, work: Path, first: tuple[float, float]):
        self.seed = seed
        self.dir = work / "setup"
        self.samples = [first]
        self.loads: list[tuple[float, float]] = []
        self.start = time.perf_counter()
        self.seconds = 1.0

    def begin(self, seconds: int) -> None:
        self.start = time.perf_counter()
        self.seconds = seconds

    def run_due(self) -> bool:
        """Run the set-ups now due; True if any ran."""
        elapsed = time.perf_counter() - self.start
        due = min(SETUP_REPEATS, 1 + int(elapsed * (SETUP_REPEATS - 1) / self.seconds))
        ran = len(self.samples) < due
        while len(self.samples) < due:
            self.samples.append(timed_setup(self.seed, self.dir)[0])
        return ran

    def finish(self) -> None:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(timed_setup(self.seed, self.dir)[0])

    def setup_s(self) -> float:
        """Input generation, plus the cycle workers' loading if any, each
        the median of its samples at the reference speed."""
        return at_ref_speed(self.samples) + (at_ref_speed(self.loads) if self.loads else 0.0)


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of the values: steadier than the median over
    a run's 15-40 samples, and as blind to the slowest and fastest quarter."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def per_input(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each input's middle mean over the run."""
    return {name: middle_mean(v) for name, v in samples.items() if v}


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def measure_cli(kind: str, seed: int, seconds: int, inputs: gen.Inputs, env: dict,
                work: Path, tally: Attempts, setups: Setups) -> tuple[dict, dict, float, int]:
    """Run rounds of command-line processes, one at a time, until `seconds`
    have passed, with a run of the calibration loop before and after each.
    Returns each input's wall times in ms and in calibration units, the
    peak RSS and the number of processes timed."""
    rng = random.Random(seed * 7919 + 1)
    wall_ms = defaultdict(list)
    in_cal = defaultdict(list)
    rss = 0.0
    cf_w1: dict = {}
    # warm-up: the first process compiles bytecode and fills the file cache
    warm = cli_round(kind, inputs, seed, -1, random.Random(seed))[0]
    proc = spawn([sys.executable, "-m", "winoctx.cli", *warm["argv"]], env, work)
    check_op(warm, proc.code, proc.stdout, inputs, tally, {})
    timed = 0
    setups.begin(seconds)
    end = time.perf_counter() + seconds
    cal = calibrate(CLI_CAL_RUNS)
    k = 0
    while time.perf_counter() < end:
        for op in cli_round(kind, inputs, seed, k, rng):
            if time.perf_counter() >= end:
                break
            if setups.run_due():
                cal = calibrate(CLI_CAL_RUNS)
            proc = spawn([sys.executable, "-m", "winoctx.cli", *op["argv"]], env, work)
            after = calibrate(CLI_CAL_RUNS)
            check_op(op, proc.code, proc.stdout, inputs, tally, cf_w1)
            if proc.code != 0:
                tally.problems.append(f"{op['argv'][0]} stderr: {proc.stderr[-500:]}")
            wall_ms[op["name"]].append(1e3 * proc.wall_s)
            in_cal[op["name"]].append(2.0 * proc.wall_s / (cal + after))
            cal = after
            rss = max(rss, proc.rss_mb)
            timed += 1
        k += 1
    return wall_ms, in_cal, rss, timed


def measure_cycles(seed: int, seconds: int, inputs: gen.Inputs, env: dict, work: Path,
                   tally: Attempts, setups: Setups) -> tuple[dict, dict, float, int, set]:
    """Passes of build_report over every cycle model in worker processes,
    CYCLE_CHUNKS of them one after another with set-ups between, until
    `seconds` have passed.  Returns each model's report times in ms and in
    calibration units, each worker's peak RSS, the number of reports and
    the models reported without a cf."""
    plan, out = work / "cycles.json", work / "cycles.out.json"
    files = [[m.rank, path] for m, path in zip(inputs.cycles, inputs.cycle_files)]
    setups.begin(seconds)
    end = time.perf_counter() + seconds
    reports = []
    rss = []
    for chunk in range(CYCLE_CHUNKS):
        plan.write_text(json.dumps({
            "seed": seed * CYCLE_CHUNKS + chunk, "cycle_files": files,
            "seconds": max(0.0, (end - time.perf_counter()) / (CYCLE_CHUNKS - chunk)),
        }), encoding="utf-8")
        proc = spawn([sys.executable, str(HERE / "inproc.py"), "cycles", str(plan), str(out)],
                     env, work)
        if proc.code != 0:
            raise RuntimeError(f"cycle worker exit code {proc.code}: {proc.stderr[-2000:]}")
        done = json.loads(out.read_text(encoding="utf-8"))
        reports += done["reports"]
        setups.loads.append((done["load_s"], done["load_cal_s"]))
        rss.append(proc.rss_mb)
        setups.run_due()
    check_reports(reports, inputs, tally)
    wall_ms = defaultdict(list)
    in_cal = defaultdict(list)
    without_cf = set()
    for res in reports:
        name = inputs.cycles[res["model"]].name
        if "ms" in res:  # a report that raised has no time; it is counted in `failed`
            wall_ms[name].append(res["ms"])
            in_cal[name].append(res["ms"] / res["cal_ms"])
        if res.get("cf") is None:
            without_cf.add(name)
    return wall_ms, in_cal, rss, len(reports), without_cf


def measure(workload: str, seed: int, seconds: int, inputs: gen.Inputs, env: dict,
            work: Path, tally: Attempts, setups: Setups) -> tuple[dict, dict]:
    """The end-to-end metrics of the workload's own operations, and the
    figures behind them under the names the workload's doc uses."""
    kind = WORKLOADS[workload]
    if kind == "cycles":
        wall_ms, in_cal, rss, timed, without_cf = measure_cycles(seed, seconds, inputs, env,
                                                                 work, tally, setups)
    else:
        wall_ms, in_cal, rss, timed = measure_cli(kind, seed, seconds, inputs, env, work,
                                                  tally, setups)
        rss = [rss]
    setups.finish()
    norm = per_input(in_cal)
    ms = per_input(wall_ms)
    tail = max(norm, key=norm.get)
    metrics = {
        "norm_latency_geomean": (geomean(norm.values()), "cal_loops"),
        "norm_latency_tail": (norm[tail], "cal_loops"),
        # a cycle worker's peak depends on the order of its reports through
        # heap fragmentation, so the smallest of the workers' peaks is taken
        "peak_rss_mb": (min(rss), "MB"),
    }
    details = {"operations": timed, "tail_input": tail, "peak_rss_mb_per_process": rss,
               "samples_per_input": {name: len(v) for name, v in wall_ms.items()},
               "middle_mean_ms": ms, "middle_mean_norm": norm,
               "samples_norm": {name: [round(x, 5) for x in v] for name, v in in_cal.items()},
               "latency_ms_p50": statistics.median(ms.values()),
               "latency_ms_tail": ms[tail]}
    if kind == "analyze":
        details["analyze_ms_p50"] = details["latency_ms_p50"]
        details["analyze_ms_tail"] = ms[tail]
    elif kind == "bootstrap":
        for name, key, draws in (("cf.w1", "cf_draws_per_s.w1", CF_DRAWS),
                                 ("cf.w2", "cf_draws_per_s.w2", CF_DRAWS),
                                 ("violation", "violation_draws_per_s", VIOLATION_DRAWS)):
            if name in ms:  # a short run can end before a command's first process
                details[key] = 1e3 * draws / ms[name]
    else:
        for n in gen.CYCLE_RANKS:
            times = [ms[m.name] for m in inputs.cycles if m.rank == n and m.name in ms]
            if times:  # a rank whose every report raised has no time
                details[f"cycle_report_ms_p50.n{n}"] = statistics.median(times)
        details["cf_coverage"] = 1.0 - len(without_cf) / len(inputs.cycles)
    return metrics, details


def import_ms(env: dict, work: Path, tally: Attempts) -> float:
    """Median wall time of `import winoctx.cli` in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = spawn([sys.executable, "-c", IMPORT_PROBE], env, work)
        problems = [] if proc.code == 0 else [f"exit code {proc.code}"]
        tally.add("import probe", problems)
        if not problems:
            samples.append(float(proc.stdout.strip()))
    return statistics.median(samples) if samples else 0.0


def trace_plan(workload: str, seed: int, inputs: gen.Inputs) -> list[dict]:
    """The traced run's fixed operation list: one round of each kind, so
    every hook sees calls, and a second round of the workload's own kind.
    It does not depend on --seconds, so call counts are exact and compare
    across runs."""
    rng = random.Random(seed * 7919 + 1)
    own = WORKLOADS[workload]
    ops = []
    for k in range(2):
        if k == 0 or own == "analyze":
            ops += analyze_round(inputs, rng)
        if k == 0 or own == "bootstrap":
            ops += bootstrap_round(inputs, seed, k, rng)
        if k == 0 or own == "cycles":
            ops.append({"kind": "cycles", "seed": seed * 1000 + k})
    return ops


def traced(ops: list[dict], inputs: gen.Inputs, env: dict, work: Path, tally: Attempts,
           spans_path: Path) -> tuple[dict, dict]:
    plan, out = work / "trace.json", work / "trace.out.json"
    plan.write_text(json.dumps({
        "ops": ops, "spans_path": str(spans_path),
        "cycle_files": [[m.rank, path] for m, path in zip(inputs.cycles, inputs.cycle_files)],
    }), encoding="utf-8")
    proc = spawn([sys.executable, str(HERE / "inproc.py"), "trace", str(plan), str(out)],
                 env, work)
    if proc.code != 0:
        raise RuntimeError(f"traced worker exit code {proc.code}: {proc.stderr[-2000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    expected_rejected = 0
    cf_w1: dict = {}
    for op, done in zip(ops, result["results"]):
        if op["kind"] == "cycles":
            check_reports(done["reports"], inputs, tally)
            if done["diverged"]:
                tally.add("trace", [f"{done['diverged']} traced reports differ from untraced"])
            continue
        check_op(op, done["code"], done["stdout"], inputs, tally, cf_w1)
        if not done["same_untraced"]:
            tally.add("trace", ["traced output differs from untraced"])
        items = inputs.analyze if op["kind"] == "analyze" else inputs.bootstrap
        expected_rejected += items[op["input"]].rejected
    metrics = {k: tuple(v) for k, v in result["metrics"].items()}
    got = metrics["ingest.rows_rejected"][0]
    tally.add("ingest.rows_rejected", [] if got == expected_rejected else
              [f"program dropped {got:g} rows, generator made {expected_rejected} bad rows"])
    metrics["cli.import_ms"] = (import_ms(env, work, tally), "ms")
    details = {"operations": len(ops), "hooks_without_calls": result["hooks_without_calls"],
               "untraced_s": result["untraced_s"], "traced_s": result["traced_s"],
               "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "winoctx" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'winoctx'}", file=sys.stderr)
        return 2

    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    tally = Attempts()
    try:
        shutil.rmtree(work, ignore_errors=True)
        first, inputs = timed_setup(args.seed, work / "inputs")
        setups = Setups(args.seed, work, first)
        if args.trace:
            spans_path = base / "records" / f"spans-{args.workload}-s{args.seed}.json"
            metrics, details = traced(trace_plan(args.workload, args.seed, inputs), inputs,
                                      env, work, tally, spans_path)
        else:
            metrics, details = measure(args.workload, args.seed, args.seconds, inputs, env,
                                       work, tally, setups)
            metrics["setup_s"] = (setups.setup_s(), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(),
        "fail_ratio": tally.failed / tally.attempted if tally.attempted else 1.0,
        "setup_samples": {"generate": setups.samples, "cycle_worker_load": setups.loads}, "details": details,
        "problems": tally.problems[:50],
    }
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    records = base / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
