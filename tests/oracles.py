"""Independent reference implementations used as test oracles.

Deliberately dumb and slow: the point is that they cannot share a bug
with the code under test.
"""

import csv
import itertools
import math
import warnings

import numpy as np

from winoctx.bootstrap import alias_table
from winoctx.cbd import CyclicSystem
from winoctx.empirical import PROB_TOL, EmpiricalModel, EmpiricalModelError
from winoctx.ingest import (
    DIFF,
    HEADER,
    PICKS,
    SAME,
    ContextTally,
    IngestError,
    ParseResult,
    ResponseFormatError,
    ResponseRecord,
    tally_distribution,
)
from winoctx.linprog import LpProblem
from winoctx.scenario import cyclic_structure, maximal_contexts
from winoctx.schema import version_contexts, ws_scenario


def brute_force_lp(problem: LpProblem):
    """Optimum of a small LP by enumerating vertices of the standard form.

    Adds a slack column per row.  The slack block gives full row rank, so
    every vertex extends to a square basis and trying all size-m column
    subsets is enough.  Returns the best feasible candidate objective, or
    None when none exists.  Only meaningful for problems known to be
    bounded.
    """
    lhs = np.asarray(problem.lhs, dtype=float)
    rhs = np.asarray(problem.rhs, dtype=float)
    m, n = lhs.shape
    full = np.hstack([lhs, np.eye(m)])
    cost = np.zeros(n + m)
    cost[:n] = problem.objective

    best = None
    for cols in itertools.combinations(range(n + m), m):
        try:
            x_sub = np.linalg.solve(full[:, cols], rhs)
        except np.linalg.LinAlgError:
            continue
        if np.min(x_sub) < -1e-9:
            continue
        x = np.zeros(n + m)
        x[list(cols)] = x_sub
        if np.max(np.abs(full @ x - rhs)) > 1e-7:
            continue
        value = float(cost @ x)
        if best is None or value > best:
            best = value
    return best


def random_bounded_lp(rng: np.random.Generator, max_vars: int = 6, max_rows: int = 5):
    """A random LP that is feasible and bounded by construction.

    Every row is <= with rhs >= 0, so x = 0 is feasible, and a final box
    row sum(x) <= U bounds the feasible region.
    """
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    lhs = rng.uniform(-1.0, 1.0, size=(m, n))
    rhs = rng.uniform(0.0, 2.0, size=m)
    box = float(rng.uniform(0.5, 3.0))
    lhs = np.vstack([lhs, np.ones((1, n))])
    rhs = np.append(rhs, box)
    objective = rng.uniform(-1.0, 1.0, size=n)
    return LpProblem(objective=objective, lhs=lhs, rhs=rhs)


def s_odd_by_enumeration(values) -> float:
    """Max of sigma . values over sign vectors with an odd number of -1s,
    built from itertools directly rather than bit tricks."""
    best = None
    for signs in itertools.product((1.0, -1.0), repeat=len(values)):
        if signs.count(-1.0) % 2 == 0:
            continue
        total = float(np.sum(np.multiply(signs, values)))
        if best is None or total > best:
            best = total
    return best


def cyclic_system_by_signs(model) -> CyclicSystem:
    """The cyclic system of a binary cycle model, computed through a sign
    map as `CyclicSystem.from_model` once did: every table entry times the
    +-1 sign of its label (expectations) or the product of its labels'
    signs (correlations), summed with math.fsum in table order."""
    scenario = model.scenario
    sign = {label: (1.0, -1.0)[scenario.outcomes.index(label)] for label in scenario.outcomes}

    def expectation(dist, observable):
        i = dist.context.index(observable)
        return math.fsum(p * sign[joint[i]] for joint, p in dist.table.items())

    def correlation(dist):
        terms = []
        for joint, p in dist.table.items():
            s = 1.0
            for label in joint:
                s *= sign[label]
            terms.append(p * s)
        return math.fsum(terms)

    structure = cyclic_structure(scenario)
    order = structure.ordering
    contexts = structure.contexts
    correlations = tuple(
        correlation(model.distribution(ctx)) for ctx in contexts
    )
    expectations = []
    for i, content in enumerate(order):
        before = contexts[i - 1]
        after = contexts[i]
        expectations.append(
            (
                expectation(model.distribution(before), content),
                expectation(model.distribution(after), content),
            )
        )
    return CyclicSystem(
        contents=order,
        contexts=contexts,
        correlations=correlations,
        expectations=tuple(expectations),
    )


def chsh_patterns_by_enumeration(vectors) -> np.ndarray:
    """Per row of `vectors`, the odd-parity sign vector with the largest
    sum; among ties the lowest bitmask (bit j set when entry j is negated).

    Candidates are listed in increasing bitmask order and argmax keeps the
    first maximum.  Ties are exact only where the row sums are exact in
    floating point, e.g. on a grid of multiples of 0.5.
    """
    vectors = np.asarray(vectors, dtype=float)
    k = vectors.shape[1]
    signs = np.array([
        [-1 if mask >> j & 1 else 1 for j in range(k)]
        for mask in range(1 << k)
        if bin(mask).count("1") % 2 == 1
    ])
    return signs[np.argmax(vectors @ signs.T, axis=1)]


def incidence_by_loop(scenario):
    """(rows, assignments, matrix) of the cf program, one cell at a time:
    every assignment restricted to every (context, joint outcome) row."""
    order = {obs: i for i, obs in enumerate(scenario.observables)}
    assignments = list(itertools.product(scenario.outcomes, repeat=len(order)))
    rows = [
        (ctx, joint)
        for ctx in maximal_contexts(scenario)
        for joint in itertools.product(scenario.outcomes, repeat=len(ctx))
    ]
    matrix = np.zeros((len(rows), len(assignments)))
    for g, assignment in enumerate(assignments):
        for r, (ctx, joint) in enumerate(rows):
            if tuple(assignment[order[obs]] for obs in ctx) == joint:
                matrix[r, g] = 1.0
    return tuple(rows), tuple(assignments), matrix


def maximal_contexts_by_completion(observables, faces):
    """Contexts of the complex the faces generate: close the faces under
    taking subsets, keep the non-empty faces no other face contains, order
    each by declaration index and sort them by those indices."""
    index = {obs: i for i, obs in enumerate(observables)}
    complex_ = {frozenset()}
    for face in faces:
        members = tuple(face)
        for r in range(1, len(members) + 1):
            complex_.update(frozenset(c) for c in itertools.combinations(members, r))
    nonempty = [f for f in complex_ if f]
    maximal = [f for f in nonempty if not any(f < other for other in nonempty)]
    return sorted(
        (tuple(sorted(f, key=index.__getitem__)) for f in maximal),
        key=lambda ctx: tuple(index[o] for o in ctx),
    )


def marginal(table, context, face):
    """A table over `context`'s joint outcomes summed onto `face`, a subset
    of the context: each entry bucketed by a plain loop under its outcomes
    at the face's observables, taken in the context's order, and each
    bucket summed with math.fsum."""
    idx = [i for i, obs in enumerate(context) if obs in face]
    sums = {}
    for joint, p in table.items():
        sums.setdefault(tuple(joint[i] for i in idx), []).append(p)
    return {key: math.fsum(ps) for key, ps in sums.items()}


def is_outcome_symmetric_by_flip(model, tol: float = PROB_TOL) -> bool:
    """`empirical.is_outcome_symmetric` entry by entry: each joint outcome's
    labels exchanged one by one and its probability looked up by that key,
    so nothing rests on the tables' order."""
    outcomes = model.scenario.outcomes
    if len(outcomes) != 2:
        raise EmpiricalModelError("outcome flip needs a binary outcome set")
    flip = dict(zip(outcomes, reversed(outcomes)))
    return all(abs(p - dist.table[tuple(flip[label] for label in joint)]) <= tol
               for dist in model.distributions for joint, p in dist.table.items())


def from_global_weights(scenario, weights) -> EmpiricalModel:
    """Model induced by a distribution on global assignments, each a tuple
    in scenario.observables order: non-signalling and noncontextual by
    construction, the reference generator for property tests."""
    total = math.fsum(weights.values())
    if abs(total - 1.0) > PROB_TOL:
        raise EmpiricalModelError(f"global weights sum to {total!r}, not 1")
    if any(w < -PROB_TOL for w in weights.values()):
        raise EmpiricalModelError("negative global weight")
    for assignment in weights:
        if len(assignment) != len(scenario.observables):
            raise EmpiricalModelError(f"assignment {assignment!r} does not cover every observable")
    tables = {
        ctx: marginal(weights, scenario.observables, ctx)
        for ctx in maximal_contexts_by_completion(scenario.observables, scenario.contexts)
    }
    return EmpiricalModel.build(scenario, tables)


def model_contexts(model):
    """The model's contexts in the package's order, recomputed from the
    scenario's faces."""
    return maximal_contexts_by_completion(model.scenario.observables, model.scenario.contexts)


def signalling_by_faces(model) -> float:
    """Largest L1 distance between two contexts' marginals on any face they
    share: every non-empty proper sub-face of every context, marginalised
    by summing table entries directly."""
    contexts = model_contexts(model)
    shared = set()
    for ctx in contexts:
        for r in range(1, len(ctx)):
            shared.update(frozenset(c) for c in itertools.combinations(ctx, r))

    worst = 0.0
    for face in shared:
        holders = [ctx for ctx in contexts if face <= set(ctx)]
        for i, first in enumerate(holders):
            for second in holders[i + 1:]:
                a = marginal(model.distribution(first).table, first, face)
                b = marginal(model.distribution(second).table, second, face)
                worst = max(worst, math.fsum(abs(a[key] - b[key]) for key in a))
    return worst


def signalling_pairwise(model) -> float:
    """`empirical.signalling` as an all-pairs scan: intersect every pair of
    contexts and compare the two `marginal` tables of each pair that shares
    an observable; the largest distance is the discrepancy."""
    contexts = model_contexts(model)
    largest = 0.0
    for i, first in enumerate(contexts):
        for second in contexts[i + 1:]:
            shared = set(first).intersection(second)
            if not shared:
                continue
            a = marginal(model.distribution(first).table, first, shared)
            b = marginal(model.distribution(second).table, second, shared)
            largest = max(largest, math.fsum(abs(a[o] - b[o]) for o in a))
    return largest


def parse_responses_by_row(path) -> ParseResult:
    """`ingest.parse_responses` as a plain row loop: every check in turn on
    every row, each record with its own frozenset of picks."""
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
            records = []
            problems = []
            end = reader.line_num
            for row in reader:
                # the physical line the record starts on
                lineno, end = end + 1, reader.line_num
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(HEADER):
                    problems.append(f"line {lineno}: {len(row)} fields, expected {len(HEADER)}")
                    continue
                rid, word1, word2, pick1, pick2 = (cell.strip() for cell in row)
                if not rid:
                    problems.append(f"line {lineno}: empty respondent_id")
                    continue
                bad = [p for p in (pick1, pick2) if p not in PICKS]
                if bad:
                    problems.append(
                        f"line {lineno}: unknown pick label(s) {bad}, expected one of {list(PICKS)}"
                    )
                    continue
                if pick1 == pick2:
                    problems.append(f"line {lineno}: duplicate pick {pick1!r}, need two distinct")
                    continue
                records.append(
                    ResponseRecord(rid, word1, word2, frozenset((pick1, pick2)))
                )
            if not records and not problems:
                problems.append("file has a header but no data rows")
    except UnicodeDecodeError as exc:
        raise ResponseFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise ResponseFormatError(f"{path}: line {reader.line_num}: {exc}") from exc
    return ParseResult(records=tuple(records), problems=tuple(problems))


def aggregate_by_record(records, schema):
    """`ingest.aggregate` as a per-record loop: each record's words looked
    up, its id checked against the ids before it, its context's counts
    bumped, all in input order."""
    scenario = ws_scenario(schema)
    ctx_of = version_contexts(schema)

    counts = {ctx: {"total": 0, "same": 0, "diff": 0} for ctx in ctx_of.values()}
    seen_ids: set[str] = set()
    for rec in records:
        key = (rec.word1, rec.word2)
        if key not in ctx_of:
            raise IngestError(
                f"record {rec.respondent_id!r}: words {key} match no context of the schema"
            )
        if rec.respondent_id in seen_ids:
            warnings.warn(
                f"respondent id {rec.respondent_id!r} appears more than once",
                stacklevel=2,
            )
        seen_ids.add(rec.respondent_id)
        c = counts[ctx_of[key]]
        c["total"] += 1
        if rec.picks == SAME:
            c["same"] += 1
        elif rec.picks == DIFF:
            c["diff"] += 1

    tallies = {}
    tables = {}
    for ctx, c in counts.items():
        tally = ContextTally(
            n_total=c["total"],
            n_same=c["same"],
            n_diff=c["diff"],
        )
        tallies[ctx] = tally
        if tally.n_valid == 0:
            raise IngestError(
                f"context {ctx} has no valid responses; cannot estimate a distribution"
            )
        tables[ctx] = tally_distribution(tally, scenario.outcomes)

    model = EmpiricalModel.build(scenario, tables)
    return model, tallies


def resample_counts_matrix(tallies, n_resamples: int, seed: int) -> np.ndarray:
    """Same-pick counts per (resample, context), every draw at once: per
    context in order, one full-length run of Philox uniforms looked up in
    that context's alias table."""
    rng = np.random.Generator(np.random.Philox(seed))
    columns = []
    for t in tallies:
        table = alias_table(t.n_valid, t.n_same)
        position = rng.random(n_resamples) * len(table.counts)
        slot = np.floor(position).astype(int)
        own = position - slot < table.prob[slot]
        columns.append(np.where(own, table.counts[slot], table.counts[table.alias[slot]]))
    return np.stack(columns, axis=1)


def bootstrap_samples_matrix(tallies, config) -> np.ndarray:
    """`bootstrap.run`'s samples from the whole (resample, context) matrix:
    correlations, then s_odd by numpy row reductions."""
    counts = resample_counts_matrix(tallies, config.n_resamples, config.seed)
    n_valid = np.array([t.n_valid for t in tallies], dtype=float)
    correlations = (2.0 * counts - n_valid) / n_valid
    mags = np.abs(correlations)
    totals = mags.sum(axis=1)
    odd = (correlations < 0).sum(axis=1) % 2 == 1
    s_odd = np.where(odd, totals, totals - 2.0 * mags.min(axis=1))
    rank = len(tallies)
    if config.statistic == "violation":
        return s_odd - float(rank - 2)
    return np.maximum(0.0, (s_odd - (rank - 2)) / 2.0)


def binomial_pmf_exact(n: int, s: int) -> list[float]:
    """P(k) of Binomial(n, s / n) for k = 0..n, each within a few ulps of
    math.comb(n, k) s^k (n - s)^(n - k) / n^n, evaluated in integers."""
    if s in (0, n):
        return [float(k == s) for k in range(n + 1)]

    def ratio(num: int, den: int) -> float:
        # the leading 64 bits of each, so that neither overflows a float
        a, b = max(num.bit_length() - 64, 0), max(den.bit_length() - 64, 0)
        return math.ldexp(float(num >> a) / float(den >> b), a - b)

    # the exact term comb(n, k) s^k (n - s)^(n - k), stepped from k to k + 1
    # by comb(n, k + 1) / comb(n, k) = (n - k) / (k + 1)
    term, den = (n - s) ** n, n ** n
    pmf = []
    for k in range(n + 1):
        pmf.append(ratio(term, den))
        term = term * ((n - k) * s) // ((k + 1) * (n - s))
    return pmf
