"""Seeded input generator for the winoctx benchmark.

Everything the benchmark feeds the program comes from here: two-pronoun
schemas, response CSVs, model files written from the same tallies, bootstrap
response files and rank-n cycle model files.  The generator uses only the
standard library and none of the program's code, so the values the checks
compare against are computed independently of the code under test.

The same seed gives byte-identical files.  Sizes are fixed ladders that do
not depend on the seed, so different seeds give comparable run times.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Response-file sizes of the analyze-cli ladder: geometric from paper scale
# (~400 rows) to 50k rows.  Four rungs keep each input's samples per run
# many enough for a steady best time.
CSV_SIZES = (400, 2000, 10000, 50000)
BOOTSTRAP_ROWS = 4000
BOOTSTRAP_FILES = 4
# Per rank: how many noncontextual models, and the weights (+-0.05) of the
# mixtures toward the rank-n PR-box-like model.  Rank 12 gets fewer models:
# while its cf is left out, every model there costs the same.
CYCLE_MODELS = {
    6: (3, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)),
    8: (3, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)),
    10: (3, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)),
    12: (1, (0.3, 0.75)),
}
CYCLE_RANKS = tuple(CYCLE_MODELS)

# p(same referent) per context of the paper's judgment data, contexts in
# the order (s1,s2), (s1,a2), (a1,s2), (a1,a2); violation 0.192.
PAPER_SAME = (0.805, 0.089, 0.691, 0.689)
INVALID_SHARE = 0.05     # well-formed rows whose picks are not {AA,BB}/{AB,BA}
MALFORMED_SHARE = 0.005  # rows the parser reports as problems

NOUN_PAIRS = (("the lion", "the tiger"), ("the owl", "the hawk"),
              ("the fox", "the wolf"), ("the crab", "the eel"))
SLOT1_PAIRS = (("cannibalistic", "herbivorous"), ("nocturnal", "diurnal"),
               ("venomous", "harmless"), ("solitary", "social"))
SLOT2_PAIRS = (("hungry", "alive"), ("awake", "asleep"),
               ("hidden", "visible"), ("calm", "restless"))
TEMPLATE = ("Two animals of one ${word1} species met at dusk. ${pron1} had "
            "not eaten for days. Soon afterwards ${pron2} was no longer ${word2}.")
PRONOUNS = ("one of them", "one of them")


@dataclass(frozen=True)
class Tally:
    n_total: int
    n_same: int
    n_diff: int

    @property
    def n_valid(self) -> int:
        return self.n_same + self.n_diff


@dataclass(frozen=True)
class Schema:
    noun_phrases: tuple[str, str]
    special: tuple[str, str]
    alternate: tuple[str, str]

    def to_dict(self) -> dict:
        return {
            "noun_phrases": list(self.noun_phrases),
            "pronouns": list(PRONOUNS),
            "words": {
                "slot1": {"special": self.special[0], "alternate": self.alternate[0]},
                "slot2": {"special": self.special[1], "alternate": self.alternate[1]},
            },
            "template": TEMPLATE,
        }

    def word_contexts(self) -> list[tuple[str, str]]:
        """(word1, word2) of the four contexts, in PAPER_SAME order."""
        return [(w1, w2)
                for w1 in (self.special[0], self.alternate[0])
                for w2 in (self.special[1], self.alternate[1])]

    def observable(self, slot: int, word: str) -> str:
        return f"({PRONOUNS[slot]},{word})"


def make_schema(rng: random.Random) -> Schema:
    nouns = rng.choice(NOUN_PAIRS)
    s1 = rng.choice(SLOT1_PAIRS)
    s2 = rng.choice(SLOT2_PAIRS)
    return Schema(noun_phrases=nouns, special=(s1[0], s2[0]), alternate=(s1[1], s2[1]))


@dataclass(frozen=True)
class Responses:
    lines: tuple[str, ...]                 # CSV text lines, header first
    tallies: tuple[Tally, ...]             # per context, word_contexts order
    rejected: int                          # malformed plus invalid rows


def make_responses(rng: random.Random, schema: Schema, rows: int,
                   p_same: tuple[float, ...], id_prefix: str) -> Responses:
    """`rows` response lines spread evenly over the four contexts, in a
    seeded order.  Each context gets round(MALFORMED_SHARE * n) malformed
    rows, round(INVALID_SHARE * n) invalid ones and round(p_same * valid)
    same-referent ones, so the tallies follow `p_same` exactly; the seed
    picks the order, the ids and the form of each pick pair."""
    contexts = schema.word_contexts()
    kinds = []
    tallies = []
    for k, ctx in enumerate(contexts):
        n = rows // 4 + (k < rows % 4)
        malformed = round(MALFORMED_SHARE * n)
        invalid = round(INVALID_SHARE * n)
        valid = n - malformed - invalid
        same = round(p_same[k] * valid)
        tallies.append(Tally(n - malformed, same, valid - same))
        kinds += [(ctx, "malformed")] * malformed + [(ctx, "invalid")] * invalid
        kinds += [(ctx, "same")] * same + [(ctx, "diff")] * (valid - same)
    rng.shuffle(kinds)
    body = []
    for i, (ctx, kind) in enumerate(kinds):
        if kind == "malformed":
            picks = ("AA", "AC") if rng.random() < 0.5 else ("BB", "BB")
        elif kind == "invalid":
            picks = rng.choice((("AA", "AB"), ("BA", "BB"), ("AB", "BB")))
        elif kind == "same":
            picks = ("AA", "BB") if rng.random() < 0.5 else ("BB", "AA")
        else:
            picks = ("AB", "BA") if rng.random() < 0.5 else ("BA", "AB")
        body.append(f"{id_prefix}{i:06d},{ctx[0]},{ctx[1]},{picks[0]},{picks[1]}")
    rejected = sum(1 for _, kind in kinds if kind in ("malformed", "invalid"))
    if any(t.n_valid == 0 for t in tallies):
        raise ValueError("generated a context without valid responses")
    return Responses(("respondent_id,word1,word2,pick1,pick2", *body), tuple(tallies), rejected)


def model_doc(schema: Schema, tallies: tuple[Tally, ...]) -> dict:
    """Model file with the symmetric tables the tallies imply."""
    a, b = schema.noun_phrases
    x1 = schema.observable(0, schema.special[0])
    x2 = schema.observable(0, schema.alternate[0])
    y1 = schema.observable(1, schema.special[1])
    y2 = schema.observable(1, schema.alternate[1])
    contexts = [(x1, y1), (x1, y2), (x2, y1), (x2, y2)]
    dists = []
    for ctx, t in zip(contexts, tallies):
        p_same = t.n_same / (2 * t.n_valid)
        p_diff = 0.5 - p_same
        dists.append({"context": list(ctx), "probs": {
            f"{a}|{a}": p_same, f"{a}|{b}": p_diff,
            f"{b}|{a}": p_diff, f"{b}|{b}": p_same}})
    scenario = {"observables": [x1, x2, y1, y2],
                "contexts": [list(c) for c in contexts],
                "outcomes": [a, b]}
    return {"scenario": scenario, "distributions": dists}


def tally_correlations(tallies) -> list[float]:
    return [(t.n_same - t.n_diff) / t.n_valid for t in tallies]


# -- rank-n cycles -----------------------------------------------------------

def cycle_edges(n: int) -> list[tuple[int, int]]:
    """Contexts of the rank-n cycle as observable index pairs, each in
    declaration order; the last one closes the cycle (x1, xn)."""
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def nc_tables(rng: random.Random, n: int) -> list[dict[tuple[int, int], float]]:
    """Marginals of a seeded distribution over a few global assignments:
    noncontextual and non-signalling by construction.  The two constant
    assignments carry most of the weight, so the correlations lean positive
    and a mixture toward the PR-box-like model crosses into contextuality
    at moderate weights."""
    support = rng.randint(2, 6)
    assignments = [(0,) * n, (1,) * n]
    assignments += [tuple(rng.randrange(2) for _ in range(n)) for _ in range(support)]
    raw = [rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)]
    raw += [rng.random() + 0.05 for _ in range(support)]
    total = math.fsum(raw)
    weights = [w / total for w in raw]
    tables = []
    for i, j in cycle_edges(n):
        buckets = {(a, b): [] for a in (0, 1) for b in (0, 1)}
        for g, w in zip(assignments, weights):
            buckets[(g[i], g[j])].append(w)
        tables.append({k: math.fsum(v) for k, v in buckets.items()})
    return tables


def pr_tables(n: int) -> list[dict[tuple[int, int], float]]:
    """Rank-n PR-box-like model: perfect correlation on every edge but the
    closing one, perfect anti-correlation there, uniform marginals."""
    tables = []
    for e in range(n):
        anti = e == n - 1
        tables.append({(a, b): (0.5 if (a != b) == anti else 0.0)
                       for a in (0, 1) for b in (0, 1)})
    return tables


def cycle_model_doc(n: int, tables) -> dict:
    names = [f"x{i + 1}" for i in range(n)]
    return {
        "scenario": {"observables": names,
                     "contexts": [[names[i], names[j]] for i, j in cycle_edges(n)],
                     "outcomes": ["0", "1"]},
        "distributions": [
            {"context": [names[i], names[j]],
             "probs": {f"{a}|{b}": p for (a, b), p in table.items()}}
            for (i, j), table in zip(cycle_edges(n), tables)
        ],
    }


def table_correlation(table) -> float:
    return math.fsum(p if a == b else -p for (a, b), p in table.items())


@dataclass(frozen=True)
class CycleModel:
    name: str
    rank: int
    kind: str          # "nc" or "mix"
    weight: float      # mixture weight toward the PR-box-like model; 0 for nc
    correlations: tuple[float, ...]
    doc: dict


def make_cycle_models(rng: random.Random) -> list[CycleModel]:
    models = []
    for n, (nc_count, weights) in CYCLE_MODELS.items():
        for k in range(nc_count):
            tables = nc_tables(rng, n)
            models.append(CycleModel(f"n{n}-nc{k}", n, "nc", 0.0,
                                     tuple(map(table_correlation, tables)),
                                     cycle_model_doc(n, tables)))
        pr = pr_tables(n)
        for lam in weights:
            lam = lam + rng.uniform(-0.05, 0.05)
            nc = nc_tables(rng, n)
            tables = [{k: lam * p[k] + (1.0 - lam) * q[k] for k in p}
                      for p, q in zip(pr, nc)]
            models.append(CycleModel(f"n{n}-mix{lam:.3f}", n, "mix", lam,
                                     tuple(map(table_correlation, tables)),
                                     cycle_model_doc(n, tables)))
    return models


# -- the whole input set -----------------------------------------------------

@dataclass(frozen=True)
class AnalyzeInput:
    name: str
    argv: tuple[str, ...]        # analyze arguments after "analyze"
    rows: int                    # CSV rows, 0 for a model file
    tallies: tuple[Tally, ...]
    rejected: int                # rows the program should drop (CSV only)


@dataclass(frozen=True)
class BootstrapInput:
    name: str
    responses: str
    schema: str
    tallies: tuple[Tally, ...]
    rejected: int


@dataclass(frozen=True)
class Inputs:
    analyze: tuple[AnalyzeInput, ...]
    bootstrap: tuple[BootstrapInput, ...]
    cycles: tuple[CycleModel, ...]
    cycle_files: tuple[str, ...]


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(seed: int, out_dir: Path) -> Inputs:
    """Write every input for `seed` under out_dir and describe them; the
    paths handed to the program are out_dir joined with a file name."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    schema = make_schema(rng)
    schema_path = out_dir / "schema.json"
    _write_json(schema_path, schema.to_dict())

    analyze = []
    for i, rows in enumerate(CSV_SIZES):
        p_same = tuple(min(0.98, max(0.02, p + rng.uniform(-0.1, 0.1)))
                       for p in PAPER_SAME)
        resp = make_responses(rng, schema, rows, p_same, f"a{i}r")
        csv_path = out_dir / f"responses_{rows}.csv"
        _write_lines(csv_path, resp.lines)
        model_path = out_dir / f"model_{rows}.json"
        _write_json(model_path, model_doc(schema, resp.tallies))
        analyze.append(AnalyzeInput(f"csv{rows}",
                                    ("--responses", str(csv_path), "--schema", str(schema_path)),
                                    rows, resp.tallies, resp.rejected))
        analyze.append(AnalyzeInput(f"model{rows}", (str(model_path),), 0,
                                    resp.tallies, 0))

    bootstrap = []
    for i in range(BOOTSTRAP_FILES):
        resp = make_responses(rng, schema, BOOTSTRAP_ROWS, PAPER_SAME, f"b{i}r")
        path = out_dir / f"bootstrap_{i}.csv"
        _write_lines(path, resp.lines)
        bootstrap.append(BootstrapInput(f"boot{i}", str(path), str(schema_path),
                                        resp.tallies, resp.rejected))

    cycles = make_cycle_models(rng)
    cycle_files = []
    for model in cycles:
        path = out_dir / f"cycle_{model.name}.json"
        _write_json(path, model.doc)
        cycle_files.append(str(path))

    return Inputs(tuple(analyze), tuple(bootstrap), tuple(cycles), tuple(cycle_files))
