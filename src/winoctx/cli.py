"""Command-line entry points.

    winoctx validate FILE
    winoctx analyze MODEL | --responses R.csv --schema S.json
    winoctx bootstrap R.csv S.json [--samples N] [--statistic v] [--out hist.csv]
    winoctx schema S.json --compile [--out scenario.json] | --instantiate WORD...

Each of validate, analyze and bootstrap builds one JSON document, the single
source of its output: --format json prints it, and the text is a view of it.

Flags, on the subcommands that read them: --format text|json (validate,
analyze, bootstrap), --tol (default 1e-9; analyze: signalling tolerance and
verdict threshold, cnt1 > tol and cf > tol; bootstrap: a draw counts as
positive when its statistic > tol), --seed (bootstrap resampling seed).

Exit codes: 0 success, 1 the input is semantically invalid (bad scenario,
bad probabilities, non-conforming schema, unknown words), 2 the input could
not be read or parsed at all or is a document of another kind than the
command reads there, or --out is empty or names an input file.

Every command runs on one thread.  `main` sets OPENBLAS_NUM_THREADS to 1
before any command loads numpy (only `bootstrap` and the LP path of
`analyze` do), so numpy's BLAS starts without a worker pool that no command
uses; a value the caller has set is kept.

Start-up: this module loads `files` and, through the package, `scenario`,
`empirical` and `cbd`; every command runs them.  The rest loads on
dispatch, in the commands that run it: `ingest` (with `csv`) for response
files, `schema` for schema files, `report` in `analyze`, `bootstrap` (with
numpy) in `bootstrap` once its inputs have loaded.  `parse_responses`,
`aggregate`, `build_report` and `run` stay attributes of this module (PEP
562): the first lookup imports and binds the function, and each call site
reads the binding when it calls, so a wrapper set on this module is the
one called.

Collector: `main` pauses the cyclic garbage collector for the command,
argument and response parsing included, and then restores the caller's
state; a collector the caller disabled stays disabled.  A command's
objects live until it returns, so a pass would free nothing, yet
importing numpy alone runs ~29 passes (5-8 ms).  `entry`, which is the
`winoctx` script and `python -m winoctx.cli`, freezes the heap once `main`
is done, so the collections of interpreter finalization skip it.
Finalization then takes ~6 ms in a `bootstrap` process and ~3 ms in an
`analyze` process: shared 2-core machine, Python 3.11.7.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import signal
import sys
from contextlib import nullcontext
from importlib import import_module
from pathlib import Path

from .cbd import STATISTICS
from .empirical import PROB_TOL
from .files import (
    FileFormatError,
    detect_kind,
    load_json,
    model_from_dict,
    require_kind,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    schema_from_dict,
)
from .scenario import ProblemsError

# exit 2; ingest's ResponseFormatError is a FileFormatError
STRUCTURAL_ERRORS = (FileFormatError, OSError)

# name -> the module that defines it, imported on the name's first use
_DEFERRED = {"parse_responses": "ingest", "aggregate": "ingest",
             "build_report": "report", "run": "bootstrap"}


def __getattr__(name: str):
    # PEP 562: called while `name` is unbound here; setdefault keeps a binding
    # that another caller made first
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_DEFERRED[name]}", __package__)
    return globals().setdefault(name, getattr(module, name))


def _bound(name: str):
    """A deferred function as this module binds it at the call."""
    return globals()[name] if name in globals() else __getattr__(name)


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:  # written so that NaN fails it
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _check_out(out: str | None, *inputs: str) -> None:
    """Refuse an `--out` that is empty or names one of the command's inputs,
    before anything is drawn or written."""
    if out is None:
        return
    if not out:
        raise FileFormatError("--out needs a file name")
    if os.path.exists(out):
        for path in inputs:
            if os.path.exists(path) and os.path.samefile(out, path):
                raise FileFormatError(f"--out {out} is the input file {path}")


def _emit(args, doc: dict, render) -> None:
    """Print a command's one document: as JSON, or as the text `render`
    makes of that same dict."""
    print(json.dumps(doc, indent=2) if args.format == "json" else render(doc))


VALIDATE_TEXT = {
    "responses": "OK: response file with {records} records",
    "scenario": "OK: scenario with {observables} observables",
    "model": "OK: model with {contexts} contexts",
    "schema": "OK: {flavor} schema",
}


def _warn_repeated_ids(records) -> None:
    from .ingest import repeated_ids

    for rid in repeated_ids(records):
        print(f"warning: respondent id {rid!r} appears more than once", file=sys.stderr)


def _check(path: Path) -> tuple:
    """Kind, problems, facts and response records of one file; a model that
    loads has no problems left to report."""
    if path.suffix.lower() == ".csv":
        result = _bound("parse_responses")(path)
        return "responses", result.problems, {"records": len(result.records)}, result.records
    doc = load_json(path)
    kind = detect_kind(doc)
    if kind == "model":
        model = model_from_dict(doc, base_dir=path.parent)
        return kind, (), {"contexts": len(model.distributions)}, ()
    try:
        if kind == "scenario":
            return kind, (), {"observables": len(scenario_from_dict(doc).observables)}, ()
        return kind, (), {"flavor": schema_from_dict(doc).flavor}, ()
    except ProblemsError as exc:
        return kind, exc.problems, {}, ()


def cmd_validate(args) -> int:
    kind, problems, facts, records = _check(Path(args.path))
    for problem in problems:
        print(problem, file=sys.stderr)
    if records:  # only response files have records; other kinds need no `ingest`
        _warn_repeated_ids(records)
    if problems:
        return 1
    _emit(args, {"kind": kind, "valid": True, **facts}, VALIDATE_TEXT[kind].format_map)
    return 0


def _aggregate_responses(responses, schema_path, needs: str):
    """Model and tallies of a response file under a two-pronoun schema;
    `needs` names the caller in the error for any other schema."""
    parsed = _bound("parse_responses")(responses)
    for problem in parsed.problems:
        print(f"warning: {problem}", file=sys.stderr)
    schema = schema_from_dict(require_kind(load_json(schema_path), "schema", schema_path))
    if len(schema.pronouns) != 2:
        from .schema import SchemaError

        raise SchemaError(f"{needs} needs a two-pronoun schema")
    _warn_repeated_ids(parsed.records)
    return _bound("aggregate")(parsed.records, schema)


def _load_analysis_inputs(args):
    if args.model and (args.responses or args.schema):
        raise FileFormatError("give either a model file or --responses with --schema")
    if args.model:
        doc = require_kind(load_json(args.model), "model", args.model)
        return model_from_dict(doc, base_dir=Path(args.model).parent), None
    if not (args.responses and args.schema):
        raise FileFormatError("need a model file, or both --responses and --schema")
    return _aggregate_responses(args.responses, args.schema, "aggregation")


def cmd_analyze(args) -> int:
    from .report import render_text

    model, tallies = _load_analysis_inputs(args)
    report = _bound("build_report")(model, tol=args.tol, tallies=tallies)
    _emit(args, report.to_dict(), render_text)
    return 0


BOOTSTRAP_TEXT = (
    "statistic: {statistic}   resamples: {n_resamples}   seed: {seed}   "
    "generator: {generator}   sampler: {sampler}\n"
    "mean: {mean:.6f} (s.e. {mean_se:.6f})   std: {std:.6f}   "
    "fraction_positive: {fraction_positive:.6f} (s.e. {fraction_positive_se:.6f})\n"
    "histogram: {bins} bins of width {bin_width:g}"
)


def cmd_bootstrap(args) -> int:
    _check_out(args.out, args.responses, args.schema)
    model, tallies = _aggregate_responses(args.responses, args.schema, "bootstrap")
    # after the inputs load, so that a response or schema error loads no numpy
    from .bootstrap import BIN_WIDTH, GENERATOR, SAMPLER, BootstrapConfig, cycle_order_tallies

    ordered = cycle_order_tallies(model.scenario, tallies)
    config = BootstrapConfig(
        n_resamples=args.samples,
        seed=args.seed,
        statistic=args.statistic,
        workers=args.workers,
        tol=args.tol,
    )
    # open --out before drawing, so that an unwritable path costs no draws
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as fh:
        result = _bound("run")(ordered, config)
        if fh is not None:
            fh.write("bin_center,density\n")
            fh.writelines(f"{center:.6f},{density:.6f}\n" for center, density
                          in zip(result.histogram.centers, result.histogram.densities))

    n, frac = config.n_resamples, result.fraction_positive
    doc = {
        "statistic": config.statistic,
        "n_resamples": n,
        "seed": config.seed,
        "generator": GENERATOR,
        "sampler": SAMPLER,
        # Monte Carlo standard errors: how far N draws may leave each figure
        # from the ideal bootstrap's
        "mean": result.mean,
        "mean_se": result.std / math.sqrt(n),
        "std": result.std,
        "fraction_positive": frac,
        "fraction_positive_se": math.sqrt(frac * (1.0 - frac) / n),
        "bins": len(result.histogram.centers),
        "bin_width": BIN_WIDTH,
        "histogram_file": args.out,
    }
    _emit(args, doc, lambda d: BOOTSTRAP_TEXT.format_map(d) + (
        f" -> {d['histogram_file']}" if d["histogram_file"] else ""))
    return 0


def cmd_schema(args) -> int:
    from .schema import instantiate, ws_scenario

    if bool(args.compile) == bool(args.instantiate):
        raise FileFormatError("pick exactly one of --compile or --instantiate")
    if args.out is not None and not args.compile:
        raise FileFormatError("--out needs --compile")
    _check_out(args.out, args.schema)
    schema = schema_from_dict(require_kind(load_json(args.schema), "schema", args.schema))

    if args.instantiate:
        print(instantiate(schema, *args.instantiate))
        return 0
    scenario = ws_scenario(schema)
    if args.out:
        save_scenario(scenario, args.out)
        print(f"wrote scenario to {args.out}")
    else:
        print(json.dumps(scenario_to_dict(scenario), indent=2))
    return 0


def _validate_arguments(p) -> None:
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report style (default text)")


def _analyze_arguments(p) -> None:
    p.add_argument("model", nargs="?", help="model file (or use --responses/--schema)")
    p.add_argument("--responses", help="response CSV to aggregate")
    p.add_argument("--schema", help="schema file for --responses")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report style (default text)")
    p.add_argument("--tol", type=_tolerance, default=PROB_TOL,
                   help="signalling tolerance; the verdicts read contextual when "
                        "cnt1 > tol (CbD) and cf > tol (sheaf) (default 1e-9)")


def _bootstrap_arguments(p) -> None:
    p.add_argument("responses", help="response CSV")
    p.add_argument("schema", help="two-pronoun schema file")
    p.add_argument("--samples", type=int, default=100_000,
                   help="number of resamples (default 100000)")
    p.add_argument("--statistic", choices=STATISTICS, default="violation")
    p.add_argument("--out", help="write histogram CSV (bin_center,density)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and checked (>= 1) for compatibility; every "
                        "statistic runs on one thread and this has no effect")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report style (default text)")
    p.add_argument("--tol", type=_tolerance, default=PROB_TOL,
                   help="a draw counts toward fraction_positive when its "
                        "statistic > tol (default 1e-9)")
    p.add_argument("--seed", type=int, default=0, help="resampling seed (default 0)")


def _schema_arguments(p) -> None:
    p.add_argument("schema", help="schema file")
    p.add_argument("--compile", action="store_true",
                   help="emit the compiled measurement scenario")
    p.add_argument("--instantiate", nargs="+", metavar="WORD",
                   help="render the discourse for the given word choice(s)")
    p.add_argument("--out", help="target file for --compile")


# name -> (help line, the function that adds its arguments, its command)
COMMANDS = {
    "validate": ("check a scenario/model/schema/response file", _validate_arguments,
                 cmd_validate),
    "analyze": ("full contextuality report for a model", _analyze_arguments, cmd_analyze),
    "bootstrap": ("resample responses, estimate statistic spread", _bootstrap_arguments,
                  cmd_bootstrap),
    "schema": ("compile a schema to a scenario, or render text", _schema_arguments,
               cmd_schema),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser, with every command, its help line and its arguments."""
    parser = argparse.ArgumentParser(
        prog="winoctx",
        description="Contextuality analysis of ambiguous-coreference judgment data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, func) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if sys.stdout is None:  # started with file descriptor 1 closed: no print would arrive
        print("error: standard output is closed", file=sys.stderr)
        return 2
    # before numpy loads: no command makes a BLAS call worth a worker thread
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else argv
    # a command's objects live until it returns, so a collector pass over
    # them would free nothing; a caller's disabled collector stays disabled
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except STRUCTURAL_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:  # every package error subclasses ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if collecting:
            gc.enable()


def entry() -> int:
    """The process: `winoctx` and `python -m winoctx.cli`.  A write to a
    stdout pipe whose reader has gone ends it by SIGPIPE, as it ends `cat`,
    where the platform has that signal: no message, and no exit code of the
    commands' own.  The process opens no sockets, so no other write raises
    the signal.  The heap is frozen once `main` is done, so the collections
    of interpreter finalization skip it; atexit handlers and stream flushes
    still run."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
