"""Independent reference implementations used as test oracles.

Deliberately dumb and slow: the point is that they cannot share a bug
with the code under test.
"""

import csv
import itertools
import math

import numpy as np

from winoctx.ingest import (
    HEADER,
    PICKS,
    ParseResult,
    ResponseFormatError,
    ResponseRecord,
)
from winoctx.linprog import LpProblem
from winoctx.scenario import maximal_contexts


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


def signalling_by_faces(model) -> float:
    """Largest L1 distance between two contexts' marginals on any face they
    share: every non-empty proper sub-face of every context, marginalised
    by summing table entries directly."""
    contexts = model.contexts
    shared = set()
    for ctx in contexts:
        for r in range(1, len(ctx)):
            shared.update(frozenset(c) for c in itertools.combinations(ctx, r))

    def marginal(ctx, face):
        idx = [i for i, obs in enumerate(ctx) if obs in face]
        sums = {}
        for joint, p in model.distribution(ctx).table.items():
            sums.setdefault(tuple(joint[i] for i in idx), []).append(p)
        return {key: math.fsum(ps) for key, ps in sums.items()}

    worst = 0.0
    for face in shared:
        holders = [ctx for ctx in contexts if face <= set(ctx)]
        for i, first in enumerate(holders):
            for second in holders[i + 1:]:
                a, b = marginal(first, face), marginal(second, face)
                worst = max(worst, math.fsum(abs(a[key] - b[key]) for key in a))
    return worst


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
            for lineno, row in enumerate(reader, start=2):
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
