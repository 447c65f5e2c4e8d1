"""Bootstrap resampling of per-context tallies.

Resampling is stratified: each resample independently redraws every
context's valid responses from that context's empirical same/diff split,
keeping the per-context sample sizes of the original design.  Resampled
models are symmetric by construction, so their delta is 0 and cnt1 equals
the rank-4 violation on every draw.

Determinism contract: all randomness is drawn up front from a Philox
generator (counter-based, documented algorithm philox4x64-10) in a fixed
context order, and statistic values are written into the samples vector by
resample index.  Thread count therefore cannot change a single bit of the
output.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .cbd import s_odd_rows
from .empirical import EmpiricalModel
from .ingest import ContextTally, tally_distribution
from .scenario import Context, MeasurementScenario, cyclic_structure
from .sheaf import contextual_fraction

GENERATOR = "philox4x64-10"
STATISTICS = ("violation", "cnt1", "cf")


class BootstrapError(ValueError):
    pass


@dataclass(frozen=True)
class BootstrapConfig:
    n_resamples: int = 100_000
    seed: int = 0
    statistic: str = "violation"
    workers: int = 1
    bin_width: float = 0.02

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


def _cf_value(n_valid: Sequence[int], same_counts: np.ndarray, scenario, contexts) -> float:
    tables = {}
    for ctx, n, k in zip(contexts, n_valid, same_counts):
        tables[ctx] = tally_distribution(
            ContextTally(n_total=int(n), n_valid=int(n), n_same=int(k), n_diff=int(n - k))
        )
    model = EmpiricalModel.build(scenario, tables)
    return contextual_fraction(model).cf


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
        scenario = _cycle_scenario(rank)
        contexts = cyclic_structure(scenario).contexts
        n_valid_int = [t.n_valid for t in tallies]
        samples = np.empty(config.n_resamples)

        def fill(span):
            start, stop = span
            for r in range(start, stop):
                samples[r] = _cf_value(n_valid_int, counts[r], scenario, contexts)

        if config.workers == 1:
            fill((0, config.n_resamples))
        else:
            step = -(-config.n_resamples // config.workers)
            spans = [
                (s, min(s + step, config.n_resamples))
                for s in range(0, config.n_resamples, step)
            ]
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                list(pool.map(fill, spans))

    hist = histogram(samples, config.bin_width)
    metadata = {
        "generator": GENERATOR,
        "seed": config.seed,
        "n_resamples": config.n_resamples,
        "statistic": config.statistic,
        "contexts": rank,
        "bin_width": config.bin_width,
    }
    return BootstrapResult(
        samples=samples,
        mean=float(samples.mean()),
        std=float(samples.std()),
        fraction_positive=float((samples > 0).mean()),
        histogram=hist,
        metadata=metadata,
    )
