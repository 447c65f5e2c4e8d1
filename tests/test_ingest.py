import csv
import gc
import random
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import aggregate_by_record, parse_responses_by_row
from winoctx.empirical import is_outcome_symmetric, signalling
from winoctx.files import load_schema
from winoctx.fixtures import fixture_path
from winoctx.ingest import (
    PICKS,
    ContextTally,
    IngestError,
    ResponseFormatError,
    ResponseRecord,
    aggregate,
    parse_responses,
    repeated_ids,
    tally_distribution,
)
from winoctx.schema import SchemaError


@pytest.fixture(scope="module")
def cannibal():
    return load_schema(fixture_path("cannibal_schema.json"))


def record(rid, w1, w2, picks):
    return ResponseRecord(rid, w1, w2, frozenset(picks))


def spread_records(counts):
    """counts: {(word1, word2): (n_same, n_diff)} -> record list."""
    records = []
    k = 0
    for (w1, w2), (n_same, n_diff) in counts.items():
        for _ in range(n_same):
            records.append(record(f"r{k}", w1, w2, ("AA", "BB")))
            k += 1
        for _ in range(n_diff):
            records.append(record(f"r{k}", w1, w2, ("AB", "BA")))
            k += 1
    return records


@pytest.mark.parametrize("pick1, pick2",
                         [(a, b) for a in PICKS for b in PICKS if a != b])
def test_aggregate_decides_validity_by_pick_pair(cannibal, pick1, pick2):
    # one balanced valid response per context, and the pair under test in
    # the first context: {AA,BB} is same and {AB,BA} diff, in either order;
    # any other pair counts toward n_total only
    records = spread_records({(w1, w2): (1, 1) for w1 in ("cannibalistic", "herbivorous")
                              for w2 in ("hungry", "alive")})
    records.append(record("probe", "cannibalistic", "hungry", (pick1, pick2)))
    _, tallies = aggregate(records, cannibal)
    tally = tallies[("(one of them,cannibalistic)", "(one of them,hungry)")]
    same, diff = {pick1, pick2} == {"AA", "BB"}, {pick1, pick2} == {"AB", "BA"}
    assert (tally.n_total, tally.n_valid, tally.n_same, tally.n_diff) == (
        3, 2 + same + diff, 1 + same, 1 + diff)


def test_parse_well_formed(tmp_path):
    path = tmp_path / "responses.csv"
    path.write_text(
        "respondent_id,word1,word2,pick1,pick2\n"
        "r1,cannibalistic,hungry,AA,BB\n"
        "r2,herbivorous,alive,AB,BA\n"
    )
    result = parse_responses(path)
    assert not result.problems
    assert len(result.records) == 2
    assert result.records[0] == record("r1", "cannibalistic", "hungry", ("AA", "BB"))


def test_records_naming_the_same_word_share_its_string(tmp_path):
    path = tmp_path / "responses.csv"
    path.write_text(
        "respondent_id,word1,word2,pick1,pick2\n"
        "r1,cannibalistic,hungry,AA,BB\n"
        "r2, cannibalistic ,hungry,AB,BA\n"
        "r3,hungry,cannibalistic,AA,BB\n"
    )
    result = parse_responses(path)
    assert result == parse_responses_by_row(path)
    r1, r2, r3 = result.records
    assert r1.word1 is r2.word1 is r3.word2
    assert r1.word2 is r2.word2 is r3.word1


def test_parse_duplicate_pick_is_malformed(tmp_path):
    path = tmp_path / "responses.csv"
    path.write_text(
        "respondent_id,word1,word2,pick1,pick2\n"
        "r1,cannibalistic,hungry,AA,AA\n"
    )
    result = parse_responses(path)
    assert result.records == ()
    assert len(result.problems) == 1
    assert "line 2" in result.problems[0]
    assert "duplicate" in result.problems[0]


def test_parse_collects_problems_without_dropping_good_lines(tmp_path):
    path = tmp_path / "responses.csv"
    path.write_text(
        "respondent_id,word1,word2,pick1,pick2\n"
        "r1,cannibalistic,hungry,AA,BB\n"
        "r2,cannibalistic,hungry,XX,BB\n"
        "r3,cannibalistic\n"
        ",cannibalistic,hungry,AA,BB\n"
        "r5,herbivorous,alive,AB,BA\n"
    )
    result = parse_responses(path)
    assert len(result.records) == 2
    assert len(result.problems) == 3
    assert any("unknown pick" in p for p in result.problems)
    assert any("fields" in p for p in result.problems)
    assert any("respondent_id" in p for p in result.problems)


def test_parse_names_the_line_a_record_starts_on(tmp_path):
    # r1's quoted field spans lines 2-3, so the second data record, r2, is on line 4
    path = tmp_path / "responses.csv"
    path.write_text(
        "respondent_id,word1,word2,pick1,pick2\n"
        'r1,"canni\nbalistic",hungry,AA,BB\n'
        "r2,x,y,AA,ZZ\n"
        "\n"
        "r3,x\n"
    )
    result = parse_responses(path)
    assert result.records == (record("r1", "canni\nbalistic", "hungry", ("AA", "BB")),)
    assert [p.split(":")[0] for p in result.problems] == ["line 4", "line 6"]
    assert result == parse_responses_by_row(path)


PADDING = st.sampled_from(["", " ", "\t", "  "])
IDS = st.sampled_from(["r1", "r2", "r10", ""])
WORDS = st.sampled_from(["cannibalistic", "hungry", "alive", ""])
PICK_CELLS = st.sampled_from(["AA", "AB", "BA", "BB", "XX", "ab", ""])


@st.composite
def padded(draw, cells):
    return draw(PADDING) + draw(cells) + draw(PADDING)


@st.composite
def response_lines(draw):
    """One data line: a 5-field row (well-formed or not), a 4- or 6-field
    row, a blank line or a line of whitespace-only cells."""
    kind = draw(st.sampled_from(("row", "row", "row", "short", "long", "blank", "spaces")))
    if kind == "blank":
        return ""
    if kind == "spaces":
        return ",".join(draw(st.lists(PADDING, min_size=1, max_size=6)))
    cells = [draw(padded(IDS)), draw(padded(WORDS)), draw(padded(WORDS)),
             draw(padded(PICK_CELLS)), draw(padded(PICK_CELLS))]
    if kind == "short":
        del cells[draw(st.integers(0, 4))]
    elif kind == "long":
        cells.append(draw(padded(PICK_CELLS)))
    return ",".join(cells)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(response_lines(), max_size=12))
def test_parse_matches_the_row_by_row_reference(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "responses.csv"
        path.write_text("\n".join(["respondent_id,word1,word2,pick1,pick2", *lines]) + "\n",
                        encoding="utf-8")
        assert parse_responses(path) == parse_responses_by_row(path)


def test_parse_header_only_file_warns(tmp_path):
    path = tmp_path / "responses.csv"
    path.write_text("respondent_id,word1,word2,pick1,pick2\n")
    result = parse_responses(path)
    assert result.records == ()
    assert any("no data rows" in p for p in result.problems)


def test_parse_rejects_missing_header(tmp_path):
    path = tmp_path / "responses.csv"
    path.write_text("r1,cannibalistic,hungry,AA,BB\n")
    with pytest.raises(ResponseFormatError):
        parse_responses(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ResponseFormatError):
        parse_responses(empty)


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    header = "respondent_id,word1,word2,pick1,pick2\n"
    good = tmp_path / "good.csv"
    good.write_text(header + "r1,cannibalistic,hungry,AA,BB\n" * 2000)
    # a field over csv's size limit fails inside the row loop
    bad = tmp_path / "bad.csv"
    bad.write_text(header + "r1,cannibalistic,hungry,AA,BB\n"
                   + "r2," + "x" * (csv.field_size_limit() + 1) + ",hungry,AA,BB\n")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(parse_responses(good).records) == 2000
        assert gc.isenabled() is enabled
        with pytest.raises(ResponseFormatError, match="line 3"):
            parse_responses(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_aggregate_arithmetic(cannibal):
    counts = {
        ("cannibalistic", "hungry"): (80, 20),
        ("cannibalistic", "alive"): (1, 1),
        ("herbivorous", "hungry"): (1, 1),
        ("herbivorous", "alive"): (1, 1),
    }
    model, tallies = aggregate(spread_records(counts), cannibal)
    ctx = ("(one of them,cannibalistic)", "(one of them,hungry)")
    dist = model.distribution(ctx)
    assert dist.prob(("A", "A")) == 0.4
    assert dist.prob(("B", "B")) == 0.4
    assert dist.prob(("A", "B")) == pytest.approx(0.1, abs=1e-15)
    assert dist.prob(("B", "A")) == dist.prob(("A", "B"))
    # off-diagonal mass is 0.5 - p_same by construction: marginals exact
    assert dist.prob(("A", "A")) + dist.prob(("A", "B")) == 0.5
    assert tallies[ctx] == ContextTally(n_total=100, n_same=80, n_diff=20)


def test_aggregate_reproduces_published_style_row(cannibal):
    # 89 same / 911 diff rounds to the (0.044, 0.455, 0.455, 0.044) row at
    # the 3 decimals used in print; published rows sum to 0.998 from rounding
    counts = {
        ("cannibalistic", "hungry"): (1, 1),
        ("cannibalistic", "alive"): (89, 911),
        ("herbivorous", "hungry"): (1, 1),
        ("herbivorous", "alive"): (1, 1),
    }
    model, _ = aggregate(spread_records(counts), cannibal)
    dist = model.distribution(("(one of them,cannibalistic)", "(one of them,alive)"))
    assert dist.prob(("A", "A")) == pytest.approx(0.044, abs=5e-3)
    assert dist.prob(("A", "B")) == pytest.approx(0.455, abs=5e-3)


def test_aggregate_all_same_context(cannibal):
    counts = {
        ("cannibalistic", "hungry"): (5, 0),
        ("cannibalistic", "alive"): (1, 1),
        ("herbivorous", "hungry"): (1, 1),
        ("herbivorous", "alive"): (1, 1),
    }
    model, _ = aggregate(spread_records(counts), cannibal)
    dist = model.distribution(("(one of them,cannibalistic)", "(one of them,hungry)"))
    assert dist.prob(("A", "A")) == 0.5
    assert dist.prob(("A", "B")) == 0.0


def test_aggregate_is_order_invariant(cannibal):
    counts = {
        ("cannibalistic", "hungry"): (7, 3),
        ("cannibalistic", "alive"): (2, 9),
        ("herbivorous", "hungry"): (5, 5),
        ("herbivorous", "alive"): (4, 1),
    }
    records = spread_records(counts)
    shuffled = records[:]
    random.Random(99).shuffle(shuffled)
    model_a, tallies_a = aggregate(records, cannibal)
    model_b, tallies_b = aggregate(shuffled, cannibal)
    assert tallies_a == tallies_b
    for ctx in model_a.scenario.maximal:
        assert model_a.distribution(ctx).table == model_b.distribution(ctx).table


def test_aggregate_output_is_symmetric_and_non_signalling(cannibal):
    rng = random.Random(4)
    for _ in range(20):
        counts = {
            pair: (rng.randint(0, 30), rng.randint(0, 30))
            for pair in (
                ("cannibalistic", "hungry"),
                ("cannibalistic", "alive"),
                ("herbivorous", "hungry"),
                ("herbivorous", "alive"),
            )
        }
        if any(s + d == 0 for s, d in counts.values()):
            continue
        model, _ = aggregate(spread_records(counts), cannibal)
        assert is_outcome_symmetric(model)
        assert signalling(model) == 0.0


def test_aggregate_counts_invalid_responses(cannibal):
    records = spread_records(
        {
            ("cannibalistic", "hungry"): (2, 1),
            ("cannibalistic", "alive"): (1, 1),
            ("herbivorous", "hungry"): (1, 1),
            ("herbivorous", "alive"): (1, 1),
        }
    )
    records.append(record("bad1", "cannibalistic", "hungry", ("AA", "AB")))
    model, tallies = aggregate(records, cannibal)
    tally = tallies[("(one of them,cannibalistic)", "(one of them,hungry)")]
    assert tally.n_total == 4
    assert tally.n_valid == 3
    assert sum(t.n_total for t in tallies.values()) == len(records)
    assert sum(t.n_valid for t in tallies.values()) == len(records) - 1  # all but bad1


def test_aggregate_refuses_empty_context(cannibal):
    records = spread_records(
        {
            ("cannibalistic", "hungry"): (1, 1),
            ("cannibalistic", "alive"): (1, 1),
            ("herbivorous", "hungry"): (1, 1),
        }
    )
    with pytest.raises(IngestError, match="no valid responses"):
        aggregate(records, cannibal)


def test_aggregate_rejects_unknown_words(cannibal):
    records = [record("r0", "ferocious", "hungry", ("AA", "BB"))]
    with pytest.raises(IngestError, match="ferocious"):
        aggregate(records, cannibal)


def test_repeated_ids_names_each_repeat_once(cannibal):
    records = spread_records(
        {
            ("cannibalistic", "hungry"): (1, 1),
            ("cannibalistic", "alive"): (1, 1),
            ("herbivorous", "hungry"): (1, 1),
            ("herbivorous", "alive"): (1, 1),
        }
    )
    assert repeated_ids(records) == []
    records += [record(rid, "cannibalistic", "hungry", ("AA", "BB"))
                for rid in ("r5", "r0", "r5", "r5", "r0")]
    assert repeated_ids(records) == ["r5", "r0"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        aggregate(records, cannibal)
    assert caught == []


def test_aggregate_needs_a_two_pronoun_schema():
    trophy = load_schema(fixture_path("trophy_schema.json"))

    def records():
        raise AssertionError("read a record")
        yield

    with pytest.raises(SchemaError, match="^aggregation needs a two-pronoun schema$"):
        aggregate(records(), trophy)
    with pytest.raises(SchemaError, match="^aggregation needs a two-pronoun schema$"):
        aggregate([record("r1", "small", "", ("AA", "BB"))], trophy)


AGG_IDS = st.sampled_from(["r1", "r2", "r3", "r4", "r5", "r6"])
AGG_WORDS = st.sampled_from([("cannibalistic", "hungry"), ("cannibalistic", "alive"),
                             ("herbivorous", "hungry"), ("herbivorous", "alive")])
AGG_UNKNOWN = st.sampled_from([("ferocious", "hungry"), ("herbivorous", ""),
                               ("alive", "herbivorous")])
AGG_PICKS = st.sampled_from([frozenset((a, b)) for a in PICKS for b in PICKS if a < b])


@st.composite
def aggregate_inputs(draw):
    """Records with repeated ids and invalid picks, now and then with words
    of no context slipped in anywhere; and whether to pass them as a
    one-shot iterator."""
    records = [ResponseRecord(draw(AGG_IDS), *draw(AGG_WORDS), draw(AGG_PICKS))
               for _ in range(draw(st.integers(0, 40)))]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        records.insert(draw(st.integers(0, len(records))),
                       ResponseRecord(draw(AGG_IDS), *draw(AGG_UNKNOWN), draw(AGG_PICKS)))
    return records, draw(st.booleans())


def _outcome(fn, records):
    """(result, warning messages, (exception type, text))."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = fn(records), None
        except Exception as exc:
            result, error = None, (type(exc), str(exc))
    return result, [str(w.message) for w in caught], error


@settings(max_examples=300, deadline=None)
@given(case=aggregate_inputs())
def test_aggregate_matches_the_per_record_reference(case, cannibal):
    records, one_shot = case
    feed = (lambda: iter(records)) if one_shot else (lambda: records)
    got, got_warnings, got_error = _outcome(lambda r: aggregate(r, cannibal), feed())
    want, want_warnings, want_error = _outcome(lambda r: aggregate_by_record(r, cannibal),
                                               feed())
    assert got_warnings == []
    assert got_error == want_error
    if want_error is None:
        # the reference warns once per repeat, in input order
        assert [f"respondent id {rid!r} appears more than once"
                for rid in repeated_ids(records)] == list(dict.fromkeys(want_warnings))
    if want is not None:
        (model, tallies), (want_model, want_tallies) = got, want
        assert list(tallies.items()) == list(want_tallies.items())
        contexts = [d.context for d in want_model.distributions]
        assert [d.context for d in model.distributions] == contexts
        for ctx in contexts:
            assert model.distribution(ctx).table == want_model.distribution(ctx).table


def test_aggregate_names_the_unknown_record_and_leaves_repeats_alone(cannibal):
    records = [record(rid, w1, w2, ("AA", "BB")) for rid, w1, w2 in (
        ("r1", "cannibalistic", "hungry"), ("r1", "herbivorous", "alive"),
        ("r2", "ferocious", "hungry"), ("r1", "cannibalistic", "alive"))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IngestError, match=r"^record 'r2': words \('ferocious', 'hungry'\)"):
            aggregate(iter(records), cannibal)
    assert caught == []
    assert repeated_ids(records) == ["r1"]


def test_a_tallys_valid_count_is_derived_and_read_only():
    tally = ContextTally(n_total=5, n_same=2, n_diff=1)
    assert tally.n_valid == 3
    assert ContextTally._fields == ("n_total", "n_same", "n_diff")
    with pytest.raises(AttributeError):
        tally.n_valid = 4


def test_tally_distribution_exact_half_split():
    tally = ContextTally(n_total=10, n_same=5, n_diff=5)
    probs = tally_distribution(tally, ("A", "B"))
    assert probs[("A", "A")] == 0.25
    assert probs[("A", "B")] == 0.25
    tally = ContextTally(n_total=3, n_same=1, n_diff=2)
    probs = tally_distribution(tally, ("A", "B"))
    # marginal stays exactly one half even when thirds do not round nicely
    assert probs[("A", "A")] + probs[("A", "B")] == 0.5


def test_tally_distribution_refuses_empty():
    with pytest.raises(IngestError):
        tally_distribution(ContextTally(n_total=3, n_same=0, n_diff=0), ("A", "B"))
