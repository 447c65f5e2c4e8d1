"""Bootstrap resampling of per-context tallies.

Resampling is stratified: each resample independently redraws every
context's valid responses from that context's empirical same/diff split,
keeping the per-context sample sizes of the original design.  Resampled
models are symmetric by construction, so their delta is 0 and cnt1 equals
the rank-4 violation on every draw.

Determinism contract: all randomness is drawn up front from a Philox
generator (counter-based, documented algorithm philox4x64-10) in a fixed
context order, and statistic values are written into the samples vector by
resample index.

The cf statistic builds its program once per run: only the right-hand side
changes between draws, so an optimal basis stays optimal for every draw it
re-certifies (`linprog.recertify`).  The draws are walked in index order;
the first one that no basis so far covers is solved cold, and the basis of
that solve is checked against every draw still uncovered in one vectorised
step.  On the paper's data a handful of cold solves cover 100,000 draws.
Everything runs on one thread; `workers` is validated and otherwise
ignored, so it cannot change a single bit of the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .cbd import s_odd_rows
from .empirical import EmpiricalModel
from .ingest import ContextTally, tally_distribution
from .linprog import recertify
from .scenario import Context, MeasurementScenario, cyclic_structure
from .sheaf import CfResult, IncidenceSystem, contextual_fraction, incidence

GENERATOR = "philox4x64-10"
STATISTICS = ("violation", "cnt1", "cf")
CHUNK = 2048  # cf draws per re-certification step; bounds its temporaries


class BootstrapError(ValueError):
    pass


@dataclass(frozen=True)
class BootstrapConfig:
    n_resamples: int = 100_000
    seed: int = 0
    statistic: str = "violation"
    workers: int = 1  # accepted for compatibility; runs are single-threaded
    bin_width: float = 0.02
    tol: float = 1e-9  # a cf draw counts as positive when cf > tol

    def __post_init__(self):
        if self.n_resamples < 1:
            raise BootstrapError("n_resamples must be >= 1")
        if self.statistic not in STATISTICS:
            raise BootstrapError(
                f"unknown statistic {self.statistic!r}, pick one of {list(STATISTICS)}"
            )
        if self.workers < 1:
            raise BootstrapError("workers must be >= 1")
        if self.bin_width <= 0:
            raise BootstrapError("bin_width must be positive")
        if not 0.0 <= self.tol < math.inf:  # written so that NaN fails it
            raise BootstrapError("tol must be a finite number >= 0")


@dataclass(frozen=True)
class Histogram:
    centers: np.ndarray
    densities: np.ndarray
    bin_width: float


@dataclass(frozen=True)
class BootstrapResult:
    samples: np.ndarray
    mean: float
    std: float  # population denominator
    fraction_positive: float
    histogram: Histogram
    metadata: dict = field(default_factory=dict)


def histogram(samples: Sequence[float], bin_width: float = 0.02) -> Histogram:
    """Normalized histogram with bin edges pinned to multiples of bin_width."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise BootstrapError("cannot histogram zero samples")
    if bin_width <= 0:
        raise BootstrapError("bin_width must be positive")
    lo = math.floor(data.min() / bin_width)
    hi = math.floor(data.max() / bin_width) + 1
    edges = np.arange(lo, hi + 1) * bin_width
    counts, _ = np.histogram(data, bins=edges)
    densities = counts / (data.size * bin_width)
    centers = (np.arange(lo, hi) + 0.5) * bin_width
    return Histogram(centers=centers, densities=densities, bin_width=bin_width)


def cycle_order_tallies(
    scenario: MeasurementScenario, tallies: Mapping[Context, ContextTally]
) -> list[ContextTally]:
    """Arrange per-context tallies along the scenario's canonical cycle."""
    structure = cyclic_structure(scenario)
    if structure is None:
        raise BootstrapError("scenario is not cyclic; no canonical tally order")
    ordered = []
    for ctx in structure.contexts:
        if ctx not in tallies:
            raise BootstrapError(f"no tally for context {sorted(ctx)}")
        ordered.append(tallies[ctx])
    return ordered


def _resample_counts(tallies: Sequence[ContextTally], config: BootstrapConfig) -> np.ndarray:
    """Same-pick counts per (resample, context), all drawn up front."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    columns = []
    for t in tallies:
        p = t.n_same / t.n_valid
        columns.append(rng.binomial(t.n_valid, p, size=config.n_resamples))
    return np.stack(columns, axis=1)


def _cf_value(n_valid: Sequence[int], same_counts: np.ndarray, scenario, contexts) -> CfResult:
    """One draw's cf, solved cold on the draw's own model."""
    tables = {}
    for ctx, n, k in zip(contexts, n_valid, same_counts):
        tables[ctx] = tally_distribution(
            ContextTally(n_total=int(n), n_valid=int(n), n_same=int(k), n_diff=int(n - k))
        )
    model = EmpiricalModel.build(scenario, tables)
    return contextual_fraction(model)


def _cf_rhs(
    system: IncidenceSystem, contexts: Sequence[Context], n_valid: np.ndarray,
    same_counts: np.ndarray,
) -> np.ndarray:
    """The cf right-hand side of each draw (a row of `same_counts`).

    The floats are tally_distribution's, p_same = k / (2n) and
    p_diff = 0.5 - p_same, floored at 0 and laid out in `system.rows` order,
    so each row is bit-identical to `sheaf._rhs` of that draw's model.
    """
    p_same = same_counts / (2 * n_valid)
    p_diff = 0.5 - p_same
    position = {ctx: i for i, ctx in enumerate(contexts)}
    columns = [
        (p_same if joint[0] == joint[1] else p_diff)[:, position[ctx]]
        for ctx, joint in system.rows
    ]
    return np.maximum(np.stack(columns, axis=1), 0.0)


def _cf_samples(n_valid: Sequence[int], counts: np.ndarray) -> tuple[np.ndarray, int]:
    """cf of every draw and the number of cold solves it took.

    A cold-solved draw keeps its own cf; every other draw takes
    1 - min(c_B.x_B, 1) from the first basis that covers it, as
    `contextual_fraction` computes cf from the LP optimum.
    """
    scenario = _cycle_scenario(len(n_valid))
    contexts = cyclic_structure(scenario).contexts
    system = incidence(scenario)
    sizes = np.asarray(n_valid, dtype=np.int64)
    samples = np.empty(len(counts))
    pending = np.arange(len(counts))
    cold = 0
    while pending.size:
        first, rest = pending[0], pending[1:]
        result = _cf_value(n_valid, counts[first], scenario, contexts)
        cold += 1
        samples[first] = result.cf
        uncovered = []
        for start in range(0, rest.size, CHUNK):
            draws = rest[start:start + CHUNK]
            rhs = _cf_rhs(system, contexts, sizes, counts[draws])
            covered, explained, _ = recertify(result.basis, result.dual_certificate, rhs)
            samples[draws[covered]] = 1.0 - np.minimum(explained[covered], 1.0)
            uncovered.append(draws[~covered])
        pending = np.concatenate(uncovered) if uncovered else rest
    return samples, cold


def _cycle_scenario(rank: int) -> MeasurementScenario:
    names = tuple(f"x{i + 1}" for i in range(rank))
    faces = tuple((names[i], names[(i + 1) % rank]) for i in range(rank))
    return MeasurementScenario.from_maximal(names, faces, ("A", "B"))


def run(tallies: Sequence[ContextTally], config: BootstrapConfig) -> BootstrapResult:
    """Resample the tallies and evaluate the configured statistic per draw.

    `tallies` follow the cycle order of their scenario (any rotation or
    reflection gives the same statistics; see cycle_order_tallies for the
    canonical arrangement).
    """
    tallies = list(tallies)
    rank = len(tallies)
    if rank < 3:
        raise BootstrapError(f"cyclic statistics need >= 3 contexts, got {rank}")
    for i, t in enumerate(tallies):
        if t.n_valid < 1:
            raise BootstrapError(f"context {i} has no valid responses to resample")
    if config.statistic == "violation" and rank != 4:
        raise BootstrapError("the violation statistic is defined for rank 4 only")

    counts = _resample_counts(tallies, config)
    n_valid = np.array([t.n_valid for t in tallies], dtype=float)
    correlations = (2.0 * counts - n_valid) / n_valid

    if config.statistic == "violation":
        samples = s_odd_rows(correlations) - 2.0
    elif config.statistic == "cnt1":
        # resampled models are symmetric, so delta = 0 identically
        samples = s_odd_rows(correlations) - float(rank - 2)
    else:
        samples, cold_solves = _cf_samples([t.n_valid for t in tallies], counts)

    hist = histogram(samples, config.bin_width)
    metadata = {
        "generator": GENERATOR,
        "seed": config.seed,
        "n_resamples": config.n_resamples,
        "statistic": config.statistic,
        "contexts": rank,
        "bin_width": config.bin_width,
    }
    # a noncontextual draw's cf can sit a rounding step above 0, so cf is
    # counted as positive above tol, as sheaf.is_noncontextual decides it
    threshold = 0.0
    if config.statistic == "cf":
        metadata["cold_solves"] = cold_solves
        threshold = config.tol
    return BootstrapResult(
        samples=samples,
        mean=float(samples.mean()),
        std=float(samples.std()),
        fraction_positive=float((samples > threshold).mean()),
        histogram=hist,
        metadata=metadata,
    )
