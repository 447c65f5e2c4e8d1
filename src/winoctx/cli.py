"""Command-line entry points.

    winoctx validate FILE
    winoctx analyze MODEL | --responses R.csv --schema S.json
    winoctx bootstrap R.csv S.json [--samples N] [--statistic v] [--out hist.csv]
    winoctx schema S.json --compile [--out scenario.json] | --instantiate WORD...

Shared flags: --format text|json, --tol (signalling tolerance, default 1e-9;
for bootstrap --statistic cf, the least cf counted as positive), --seed
(bootstrap resampling seed).

Exit codes: 0 success, 1 the input is semantically invalid (bad scenario,
bad probabilities, non-conforming schema, unknown words), 2 the input could
not be read or parsed at all.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

from .bootstrap import BootstrapConfig, cycle_order_tallies, run
from .files import (
    FileFormatError,
    detect_kind,
    load_json,
    model_from_dict,
    scenario_from_dict,
    scenario_to_dict,
    schema_from_dict,
)
from .ingest import ResponseFormatError, aggregate, parse_responses
from .report import build_report, fmt
from .scenario import validate
from .schema import (
    GeneralisedWinogradSchema,
    SchemaError,
    WinogradSchema,
    gws_scenario,
    instantiate,
    instantiate_ws,
    validate_gws,
    validate_ws,
    ws_scenario,
)

STRUCTURAL_ERRORS = (FileFormatError, ResponseFormatError, OSError)


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:  # written so that NaN fails it
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _shared_flags(parser: argparse.ArgumentParser,
                  tol_help: str = "signalling tolerance (default 1e-9)") -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report style (default text)")
    parser.add_argument("--tol", type=_tolerance, default=1e-9, help=tol_help)
    parser.add_argument("--seed", type=int, default=0,
                        help="resampling seed (bootstrap only)")


def _emit(args, text_lines: list[str], doc: dict) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args) -> int:
    path = Path(args.path)
    if path.suffix.lower() == ".csv":
        result = parse_responses(path)
        if result.problems:
            for problem in result.problems:
                print(problem, file=sys.stderr)
            return 1
        _emit(args, [f"OK: response file with {len(result.records)} records"],
              {"kind": "responses", "valid": True, "records": len(result.records)})
        return 0

    doc = load_json(path)
    kind = detect_kind(doc)
    if kind == "scenario":
        scenario = scenario_from_dict(doc)
        report = validate(scenario)
        if not report.ok:
            for problem in report.problems:
                print(problem, file=sys.stderr)
            return 1
        _emit(args, [f"OK: scenario with {len(scenario.observables)} observables"],
              {"kind": "scenario", "valid": True,
               "observables": len(scenario.observables)})
        return 0
    if kind == "model":
        model = model_from_dict(doc, base_dir=path.parent)
        _emit(args, [f"OK: model with {len(model.distributions)} contexts"],
              {"kind": "model", "valid": True, "contexts": len(model.distributions)})
        return 0
    schema = schema_from_dict(doc)
    problems = (validate_ws(schema) if isinstance(schema, WinogradSchema)
                else validate_gws(schema))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    flavor = "one-pronoun" if isinstance(schema, WinogradSchema) else "two-pronoun"
    _emit(args, [f"OK: {flavor} schema"], {"kind": "schema", "valid": True,
                                           "flavor": flavor})
    return 0


def _aggregate_responses(responses, schema_path, needs: str):
    """Model and tallies of a response file under a two-pronoun schema;
    `needs` names the caller in the error for any other schema."""
    parsed = parse_responses(responses)
    for problem in parsed.problems:
        print(f"warning: {problem}", file=sys.stderr)
    schema = schema_from_dict(load_json(schema_path))
    if not isinstance(schema, GeneralisedWinogradSchema):
        raise SchemaError(f"{needs} needs a two-pronoun schema")
    # aggregate warns of duplicate respondent ids; they reach the user as
    # lines like the parse problems, whatever the warnings filter says
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = aggregate(parsed.records, schema)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return result


def _load_analysis_inputs(args):
    if args.model and (args.responses or args.schema):
        raise FileFormatError("give either a model file or --responses with --schema")
    if args.model:
        doc = load_json(args.model)
        return model_from_dict(doc, base_dir=Path(args.model).parent), None
    if not (args.responses and args.schema):
        raise FileFormatError("need a model file, or both --responses and --schema")
    return _aggregate_responses(args.responses, args.schema, "aggregation")


def cmd_analyze(args) -> int:
    model, tallies = _load_analysis_inputs(args)
    report = build_report(model, tol=args.tol, tallies=tallies)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text(), end="")
    return 0


def cmd_bootstrap(args) -> int:
    model, tallies = _aggregate_responses(args.responses, args.schema, "bootstrap")
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
        result = run(ordered, config)
        if fh is not None:
            fh.write("bin_center,density\n")
            for center, density in zip(result.histogram.centers,
                                       result.histogram.densities):
                fh.write(f"{center:.6f},{density:.6f}\n")

    meta = result.metadata
    doc = {
        "statistic": meta["statistic"],
        "n_resamples": meta["n_resamples"],
        "seed": meta["seed"],
        "generator": meta["generator"],
        "mean": result.mean,
        "std": result.std,
        "fraction_positive": result.fraction_positive,
        "bins": len(result.histogram.centers),
        "bin_width": meta["bin_width"],
        "histogram_file": args.out,
    }
    lines = [
        f"statistic: {meta['statistic']}   resamples: {meta['n_resamples']}   "
        f"seed: {meta['seed']}   generator: {meta['generator']}",
        f"mean: {fmt(result.mean)}   std: {fmt(result.std)}   "
        f"fraction_positive: {fmt(result.fraction_positive)}",
        f"histogram: {len(result.histogram.centers)} bins of width "
        f"{meta['bin_width']:g}" + (f" -> {args.out}" if args.out else ""),
    ]
    _emit(args, lines, doc)
    return 0


def cmd_schema(args) -> int:
    schema = schema_from_dict(load_json(args.schema))
    if bool(args.compile) == bool(args.instantiate):
        raise FileFormatError("pick exactly one of --compile or --instantiate")

    if args.compile:
        scenario = (ws_scenario(schema) if isinstance(schema, WinogradSchema)
                    else gws_scenario(schema))
        doc = scenario_to_dict(scenario)
        payload = json.dumps(doc, indent=2)
        if args.out:
            Path(args.out).write_text(payload + "\n", encoding="utf-8")
            print(f"wrote scenario to {args.out}")
        else:
            print(payload)
        return 0

    words = args.instantiate
    if isinstance(schema, WinogradSchema):
        if len(words) != 1:
            raise SchemaError("one-pronoun schema takes exactly one word")
        print(instantiate_ws(schema, words[0]))
    else:
        if len(words) != 2:
            raise SchemaError("two-pronoun schema takes exactly two words")
        print(instantiate(schema, words[0], words[1]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winoctx",
        description="Contextuality analysis of ambiguous-coreference judgment data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario/model/schema/response file")
    p.add_argument("path")
    _shared_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full contextuality report for a model")
    p.add_argument("model", nargs="?", help="model file (or use --responses/--schema)")
    p.add_argument("--responses", help="response CSV to aggregate")
    p.add_argument("--schema", help="schema file for --responses")
    _shared_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bootstrap", help="resample responses, estimate statistic spread")
    p.add_argument("responses", help="response CSV")
    p.add_argument("schema", help="two-pronoun schema file")
    p.add_argument("--samples", type=int, default=100_000,
                   help="number of resamples (default 100000)")
    p.add_argument("--statistic", choices=("violation", "cnt1", "cf"),
                   default="violation")
    p.add_argument("--out", help="write histogram CSV (bin_center,density)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and checked (>= 1) for compatibility; the cf "
                        "statistic runs on one thread and this has no effect")
    _shared_flags(p, "a cf draw counts toward fraction_positive when cf > tol "
                     "(default 1e-9); violation and cnt1 count > 0")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("schema", help="compile a schema to a scenario, or render text")
    p.add_argument("schema", help="schema file")
    p.add_argument("--compile", action="store_true",
                   help="emit the compiled measurement scenario")
    p.add_argument("--instantiate", nargs="+", metavar="WORD",
                   help="render the discourse for the given word choice(s)")
    p.add_argument("--out", help="target file for --compile")
    _shared_flags(p)
    p.set_defaults(func=cmd_schema)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except STRUCTURAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # every package error subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
