"""Span tracing from outside the program, and the per-layer metrics.

Hooks wrap each layer's functions at the call sites its callers use (a
module attribute the caller looks up at call time), so nothing in the
program is edited.  Spans (name, start, end, parent) are kept in memory
and written out when the run ends.

A span's self time is its duration minus the part of its interval that its
children cover.  Children can overlap when the cf bootstrap runs on
several threads; the covered part is then the union of their intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

# (module, attribute path, span name).  One layer can have several call
# sites; each is its own hook so a call that moves shows up as a hook with
# zero calls.
HOOKS = (
    ("winoctx.cli", "load_json", "files.load"),
    ("winoctx.cli", "model_from_dict", "files.load"),
    ("winoctx.cli", "parse_responses", "ingest.parse"),
    ("winoctx.cli", "aggregate", "ingest.aggregate"),
    ("winoctx.cli", "build_report", "report.build"),
    ("winoctx.report", "build_report", "report.build"),
    ("winoctx.report", "AnalysisReport.to_dict", "report.render"),
    ("winoctx.cli", "run", "bootstrap.run"),
    ("winoctx.bootstrap", "contextual_fraction", "sheaf.cf"),
    ("winoctx.sheaf", "contextual_fraction", "sheaf.cf"),
    ("winoctx.sheaf", "incidence", "sheaf.incidence"),
    ("winoctx.sheaf", "solve", "linprog.solve"),
    ("winoctx.linprog", "_run_simplex", "linprog.simplex"),
    ("winoctx.empirical", "EmpiricalModel.build", "empirical.build"),
    ("winoctx.report", "signalling", "empirical.signalling"),
    ("winoctx.sheaf", "signalling", "empirical.signalling"),
    ("winoctx.cbd", "CyclicSystem.from_model", "cbd.from_model"),
    ("winoctx.cbd", "s_odd", "cbd.s_odd"),
    ("winoctx.scenario", "maximal_contexts", "scenario.maximal_contexts"),
    ("winoctx.empirical", "maximal_contexts", "scenario.maximal_contexts"),
    ("winoctx.sheaf", "maximal_contexts", "scenario.maximal_contexts"),
    ("winoctx.scenario", "validate", "scenario.validate"),
)

ID, PARENT, NAME, START, END, ATTRS = range(6)


class Tracer:
    """Collects spans as [id, parent, name, start, end, attrs] lists.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (a bootstrap worker) takes the innermost
    open span of the main thread as its parent.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[list] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        top = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = [next(self._ids), top[ID] if top else 0, name, self.clock(), None, {}]
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()


def _describe(name: str, args, result, attrs: dict) -> None:
    """Counts taken where the work happens."""
    if name == "ingest.parse":
        attrs["rows"] = len(result.records) + len(result.problems)
        attrs["rejected"] = len(result.problems)
    elif name == "ingest.aggregate":
        attrs["rejected"] = sum(t.n_total - t.n_valid for t in result[1].values())
    elif name == "sheaf.incidence":
        rows, cols = result.matrix.shape
        attrs["cells"] = rows * cols
    elif name == "linprog.solve":
        problem = args[0]
        m, n = problem.lhs.shape
        leq = sum(1 for r in problem.relations if r == "<=")
        art = sum(1 for r, b in zip(problem.relations, problem.rhs) if r == "=" or b < 0)
        attrs["tableau_cells"] = (m + 1) * (n + leq + art + 1)
        attrs["phase1"] = art > 0
        attrs["iterations"] = result.iterations
        attrs["gap"] = result.gap
    elif name == "linprog.simplex":
        attrs["iterations"] = result[0]
    elif name == "bootstrap.run":
        config = args[1]
        attrs.update(statistic=config.statistic, workers=config.workers,
                     samples=config.n_resamples)


class Hooks:
    """Installs and removes the wrappers; counts calls per hook."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.calls = {self.key(h): 0 for h in hooks}
        self._lock = threading.Lock()  # cf bootstrap workers call hooks concurrently
        self._saved: list[tuple[object, str, object]] = []

    @staticmethod
    def key(hook) -> str:
        return f"{hook[0]}.{hook[1]}"

    def _wrap(self, fn, hook):
        tracer, name, key, calls, lock = (self.tracer, hook[2], self.key(hook),
                                          self.calls, self._lock)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                calls[key] += 1
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ATTRS]["error"] = type(exc).__name__
                raise
            finally:
                tracer.end(span)
            _describe(name, args, result, span[ATTRS])
            return result

        return wrapper

    def install(self) -> None:
        for hook in self.hooks:
            module_name, path, _ = hook
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, hook))
            else:
                new = self._wrap(raw, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def without_calls(self) -> list[str]:
        return sorted(k for k, n in self.calls.items() if n == 0)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(s[ID], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[ID]] = (hi - lo) - covered
    return out


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a finished span list: name -> (value, unit).
    Times are totals over the run."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
    by_id = {s[ID]: s for s in spans}

    def calls(name):
        return float(len(by_name[name]))

    def self_ms(name):
        return 1e3 * sum(own[s[ID]] for s in by_name[name])

    def total(name, attr):
        return sum(s[ATTRS].get(attr, 0) for s in by_name[name])

    def duration(s):
        return s[END] - s[START]

    parse_s = sum(duration(s) for s in by_name["ingest.parse"])

    def parent_error(s):
        parent = by_id.get(s[PARENT])
        return parent[ATTRS].get("error") if parent else None

    # incidence matrices built for a cf program that the LP then refused
    refused = [s for s in by_name["sheaf.incidence"] if parent_error(s) == "LpSizeError"]
    iterations = total("linprog.solve", "iterations")
    phase1 = 0
    for s in by_name["linprog.solve"]:
        if s[ATTRS].get("phase1"):
            first = min((c for c in by_name["linprog.simplex"] if c[PARENT] == s[ID]),
                        key=lambda c: c[START], default=None)
            phase1 += first[ATTRS].get("iterations", 0) if first else 0
    gaps = [s[ATTRS]["gap"] for s in by_name["linprog.solve"] if s[ATTRS].get("gap") is not None]
    moved = 8 * sum(s[ATTRS].get("iterations", 0) * s[ATTRS].get("tableau_cells", 0)
                    for s in by_name["linprog.solve"])

    def boot(statistic, workers=None):
        runs = [s for s in by_name["bootstrap.run"]
                if s[ATTRS].get("statistic") == statistic
                and (workers is None or s[ATTRS].get("workers") == workers)]
        draws = sum(s[ATTRS]["samples"] for s in runs)
        secs = sum(duration(s) for s in runs)
        return draws, secs

    cf1, cf1_s = boot("cf", 1)
    cf2, cf2_s = boot("cf", 2)
    vio, vio_s = boot("violation")
    rate1 = cf1 / cf1_s if cf1_s else 0.0
    rate2 = cf2 / cf2_s if cf2_s else 0.0

    return {
        "files.load.self_ms": (self_ms("files.load"), "ms"),
        "ingest.parse.self_ms": (self_ms("ingest.parse"), "ms"),
        "ingest.parse.rows_per_s": (total("ingest.parse", "rows") / parse_s if parse_s else 0.0, "1/s"),
        "ingest.aggregate.self_ms": (self_ms("ingest.aggregate"), "ms"),
        "ingest.rows_rejected": (float(total("ingest.parse", "rejected")
                                       + total("ingest.aggregate", "rejected")), "count"),
        "scenario.maximal_contexts.calls": (calls("scenario.maximal_contexts"), "count"),
        "scenario.maximal_contexts.self_ms": (self_ms("scenario.maximal_contexts"), "ms"),
        "scenario.validate.calls": (calls("scenario.validate"), "count"),
        "empirical.build.calls": (calls("empirical.build"), "count"),
        "empirical.build.self_ms": (self_ms("empirical.build"), "ms"),
        "empirical.signalling.calls": (calls("empirical.signalling"), "count"),
        "empirical.signalling.self_ms": (self_ms("empirical.signalling"), "ms"),
        "cbd.from_model.self_ms": (self_ms("cbd.from_model"), "ms"),
        "cbd.s_odd.calls": (calls("cbd.s_odd"), "count"),
        "cbd.s_odd.self_ms": (self_ms("cbd.s_odd"), "ms"),
        "sheaf.incidence.calls": (calls("sheaf.incidence"), "count"),
        "sheaf.incidence.self_ms": (self_ms("sheaf.incidence"), "ms"),
        "sheaf.incidence.cells": (float(total("sheaf.incidence", "cells")), "count"),
        "sheaf.incidence.refused_ms": (1e3 * sum(duration(s) for s in refused), "ms"),
        "sheaf.cf.self_ms": (self_ms("sheaf.cf"), "ms"),
        "linprog.solve.calls": (calls("linprog.solve"), "count"),
        "linprog.solve.self_ms": (self_ms("linprog.solve") + self_ms("linprog.simplex"), "ms"),
        "linprog.iterations": (float(iterations), "count"),
        "linprog.phase1_share": (phase1 / iterations if iterations else 0.0, "ratio"),
        "linprog.max_gap": (max(gaps, default=0.0), "abs"),
        "linprog.bytes_moved": (float(moved), "bytes_computed"),
        "bootstrap.resample_ms": (self_ms("bootstrap.run"), "ms"),
        "bootstrap.draw_us.cf": (1e6 * cf1_s / cf1 if cf1 else 0.0, "us"),
        "bootstrap.draw_us.violation": (1e6 * vio_s / vio if vio else 0.0, "us"),
        "bootstrap.scaling_eff": (rate2 / (2.0 * rate1) if rate1 else 0.0, "ratio"),
        "report.build.self_ms": (self_ms("report.build"), "ms"),
        "report.render_ms": (1e3 * sum(duration(s) for s in by_name["report.render"]), "ms"),
    }
