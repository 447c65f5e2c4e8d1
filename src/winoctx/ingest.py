"""Response-file parsing, and aggregation of the valid responses to a model.

File format: comma-separated with header `respondent_id,word1,word2,pick1,pick2`.
The word columns carry the literal wording a judge saw; the schema decides
which slot and which special/alternate kind they are.  Picks label joint
referent choices: "AB" means first pronoun -> noun phrase A, second -> B.

A judge picks exactly two of the four combinations.  Only pick pairs closed
under swapping the referents count as valid: {AA,BB} (same referent twice)
or {AB,BA} (different referents); `aggregate` counts them by the SAME and
DIFF keys, the one test of validity.  Each valid response puts mass 1/2 on
each of its two picks, so p(AA) = p(BB) = n_same / (2 n_valid) and
p(AB) = p(BA) = 1/2 - p(AA) exactly.  Models built this way are
outcome-symmetric, and their single-observable marginals are (1/2, 1/2)
bit-for-bit, so the signalling discrepancy is exactly 0.0.

Records are named tuples, built without a Python-level constructor call per
row, with the cyclic garbage collector paused for the row loop.
Aggregation counts the distinct (word1, word2, picks) keys in one C loop
and checks words and tallies contexts per key, not per record.
Repeated respondent ids are not an error: `repeated_ids` lists them, and the
caller decides how to show them.
"""

from __future__ import annotations

import csv
import gc
from collections import Counter
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .empirical import EmpiricalModel
from .scenario import Context, Frozen
from .schema import SchemaError, WinogradSchema, version_contexts, ws_scenario

HEADER = ("respondent_id", "word1", "word2", "pick1", "pick2")
# pick labels are positional: first letter = first pronoun's referent,
# A = first noun phrase of the schema, B = second
PICKS = ("AA", "AB", "BA", "BB")
SAME = frozenset({"AA", "BB"})
DIFF = frozenset({"AB", "BA"})
# every well-formed (pick1, pick2): two known, distinct labels.  One lookup
# validates a row's picks and shares the frozenset among its records.
PICK_PAIRS = {(a, b): frozenset((a, b)) for a in PICKS for b in PICKS if a != b}


class IngestError(ValueError):
    pass


class ResponseFormatError(IngestError):
    """Structural problem with a response file (missing/bad header)."""


class ResponseRecord(NamedTuple):
    respondent_id: str
    word1: str
    word2: str
    picks: frozenset[str]


class ParseResult(NamedTuple):
    records: tuple[ResponseRecord, ...]
    problems: tuple[str, ...]  # malformed lines, reported not dropped silently


class ContextTally(Frozen):
    _fields = ("n_total", "n_valid", "n_same", "n_diff")

    def __init__(self, n_total: int, n_valid: int,
                 n_same: int,   # picks {AA,BB}
                 n_diff: int):  # picks {AB,BA}
        if n_same + n_diff != n_valid:
            raise IngestError("n_valid must equal n_same + n_diff")
        if n_valid > n_total:
            raise IngestError("n_valid cannot exceed n_total")
        if min(n_total, n_valid, n_same, n_diff) < 0:
            raise IngestError("negative tally")
        super().__init__(n_total=n_total, n_valid=n_valid, n_same=n_same, n_diff=n_diff)


def _row_problem(lineno: int, row: list[str]) -> str | None:
    """The first problem of a row that is not well-formed, or None for a
    blank line."""
    if not row or all(not cell.strip() for cell in row):
        return None
    if len(row) != len(HEADER):
        return f"line {lineno}: {len(row)} fields, expected {len(HEADER)}"
    rid, _, _, pick1, pick2 = (cell.strip() for cell in row)
    if not rid:
        return f"line {lineno}: empty respondent_id"
    bad = [p for p in (pick1, pick2) if p not in PICKS]
    if bad:
        return f"line {lineno}: unknown pick label(s) {bad}, expected one of {list(PICKS)}"
    # an id and two known picks that are not a pair: the picks repeat
    return f"line {lineno}: duplicate pick {pick1!r}, need two distinct"


def parse_responses(path) -> ParseResult:
    """Read a response file.  Malformed data lines land in `problems` with
    the number of the physical line they start on; well-formed lines always
    come back as records."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ResponseFormatError(f"{path}: empty file, expected header "
                                          + ",".join(HEADER)) from None
            if tuple(h.strip() for h in header) != HEADER:
                raise ResponseFormatError(
                    f"{path}: header is {','.join(header)!r}, expected {','.join(HEADER)!r}"
                )
            records: list[ResponseRecord] = []
            problems: list[str] = []
            append, new, width = records.append, tuple.__new__, len(HEADER)
            # a record starts on the line after the previous one ends; a
            # quoted field may span lines, so rows are not lines
            last = reader.line_num
            # every record is a tracked tuple and none forms a cycle, so the
            # collector's passes over them would find nothing to free
            collecting = gc.isenabled()
            gc.disable()
            try:
                for row in reader:
                    if len(row) == width:
                        rid, word1, word2, pick1, pick2 = map(str.strip, row)
                        picks = PICK_PAIRS.get((pick1, pick2))
                        if rid and picks is not None:
                            append(new(ResponseRecord, (rid, word1, word2, picks)))
                            last = reader.line_num
                            continue
                    problem = _row_problem(last + 1, row)
                    if problem is not None:
                        problems.append(problem)
                    last = reader.line_num
            finally:
                if collecting:
                    gc.enable()
            if not records and not problems:
                problems.append("file has a header but no data rows")
    except UnicodeDecodeError as exc:
        raise ResponseFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise ResponseFormatError(f"{path}: line {reader.line_num}: {exc}") from exc
    return ParseResult(records=tuple(records), problems=tuple(problems))


def repeated_ids(records: Sequence[ResponseRecord]) -> list[str]:
    """Each respondent id that occurs more than once, listed once, in the
    order of its first repeat."""
    if len(set(map(itemgetter(0), records))) == len(records):
        return []
    seen: set[str] = set()
    repeats: dict[str, None] = {}
    for rid in map(itemgetter(0), records):
        if rid in seen:
            repeats[rid] = None
        seen.add(rid)
    return list(repeats)


def aggregate(
    records: Iterable[ResponseRecord], schema: WinogradSchema
) -> tuple[EmpiricalModel, dict[Context, ContextTally]]:
    """Tally per context and build the symmetric empirical model.

    The schema (valid, as every schema is) needs two pronoun slots, else
    SchemaError before any record is read; a record's (word1, word2) names
    its version of the discourse, and so its context.  Order-independent:
    tallies are pure counts of (word1, word2, picks); respondent ids are read
    only to name the first record whose words match no context (IngestError).
    Every context of the schema's scenario must end up with at least one
    valid response, otherwise there is no distribution to put there and we
    refuse.
    """
    if len(schema.pronouns) != 2:
        raise SchemaError("aggregation needs a two-pronoun schema")
    scenario = ws_scenario(schema)
    ctx_of = version_contexts(schema)

    records = tuple(records)
    counts = Counter(map(itemgetter(1, 2, 3), records))
    if any(key[:2] not in ctx_of for key in counts):
        rec = next(rec for rec in records if (rec.word1, rec.word2) not in ctx_of)
        raise IngestError(f"record {rec.respondent_id!r}: words {(rec.word1, rec.word2)} "
                          "match no context of the schema")

    totals: Counter = Counter()
    for key, n in counts.items():
        totals[key[:2]] += n

    tallies: dict[Context, ContextTally] = {}
    tables: dict[Context, dict[tuple[str, str], float]] = {}
    for words, ctx in ctx_of.items():
        same, diff = counts[(*words, SAME)], counts[(*words, DIFF)]
        tally = tallies[ctx] = ContextTally(n_total=totals[words], n_valid=same + diff,
                                            n_same=same, n_diff=diff)
        if tally.n_valid == 0:
            raise IngestError(
                f"context {ctx} has no valid responses; cannot estimate a distribution"
            )
        tables[ctx] = tally_distribution(tally, scenario.outcomes)

    model = EmpiricalModel.build(scenario, tables)
    return model, tallies


def tally_distribution(
    tally: ContextTally, outcomes: Sequence[str] = ("A", "B")
) -> dict[tuple[str, str], float]:
    """The symmetric two-observable table implied by a tally.

    p_diff is computed as 0.5 - p_same, not n_diff/(2 n_valid): the marginal
    p_same + (0.5 - p_same) then rounds to exactly 0.5 for every float
    p_same in [0, 0.5], which keeps aggregated models signalling-free to
    the last bit.
    """
    if tally.n_valid <= 0:
        raise IngestError("empty tally has no distribution")
    first, second = outcomes
    p_same = tally.n_same / (2 * tally.n_valid)
    p_diff = 0.5 - p_same
    return {
        (first, first): p_same,
        (second, second): p_same,
        (first, second): p_diff,
        (second, first): p_diff,
    }
