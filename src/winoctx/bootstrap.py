"""Bootstrap resampling of per-context tallies.

Resampling is stratified: each resample independently redraws every
context's valid responses from that context's empirical same/diff split,
keeping the per-context sample sizes of the original design.  Resampled
models are symmetric by construction, so their delta is 0, cnt1 equals the
rank-4 violation, and cf is the closed form max(0, (s_odd - (n - 2)) / 2)
of `cbd.CyclicSystem.contextual_fraction` on every draw.  Every statistic
is one vectorised pass over the draws' correlations; no draw solves a
linear program.  The row-wise forms live here, as `s_odd_rows` and
`contextual_fraction`, since bootstrap is their one user.

numpy is imported inside the functions that touch arrays, so that the
commands that import this module without drawing (`winoctx analyze`,
`validate`, `schema`) do not load it.

Determinism contract: all randomness is drawn up front from a Philox
generator (counter-based, documented algorithm philox4x64-10) in a fixed
context order, and statistic values are written into the samples vector by
resample index.  Everything runs on one thread; `workers` is validated and
otherwise ignored, so it cannot change a single bit of the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .ingest import ContextTally
from .scenario import Context, MeasurementScenario, cyclic_structure

if TYPE_CHECKING:
    import numpy as np

GENERATOR = "philox4x64-10"
STATISTICS = ("violation", "cnt1", "cf")
# the draws are held in memory, about 125 MB per 10**6 at rank 4
MAX_RESAMPLES = 10**7


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
        if self.seed < 0:
            raise BootstrapError(f"seed must be >= 0, got {self.seed}")
        if self.n_resamples < 1:
            raise BootstrapError("n_resamples must be >= 1")
        if self.n_resamples > MAX_RESAMPLES:
            raise BootstrapError(
                f"n_resamples {self.n_resamples} exceeds the cap of {MAX_RESAMPLES} draws"
            )
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
    import numpy as np

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


def s_odd_rows(rows: np.ndarray) -> np.ndarray:
    """Closed-form `cbd.s_odd` applied to each row of a 2-d array.

    Uses plain reductions (no BLAS) so results do not depend on thread
    count; bootstrap determinism relies on that.
    """
    import numpy as np

    a = np.asarray(rows, dtype=float)
    if a.ndim != 2:
        raise BootstrapError("expected a 2-d array of sign-sum inputs")
    mags = np.abs(a)
    totals = mags.sum(axis=1)
    smallest = mags.min(axis=1)
    odd = (a < 0).sum(axis=1) % 2 == 1
    return np.where(odd, totals, totals - 2.0 * smallest)


def contextual_fraction(correlations: np.ndarray) -> np.ndarray:
    """Closed-form cf of non-signalling binary cycles, one per row of
    cycle-ordered correlations (see `cbd`)."""
    import numpy as np

    excess = s_odd_rows(correlations) - (np.shape(correlations)[1] - 2)
    return np.maximum(0.0, excess / 2.0)


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
    import numpy as np

    rng = np.random.Generator(np.random.Philox(config.seed))
    columns = []
    for t in tallies:
        p = t.n_same / t.n_valid
        columns.append(rng.binomial(t.n_valid, p, size=config.n_resamples))
    return np.stack(columns, axis=1)


def run(tallies: Sequence[ContextTally], config: BootstrapConfig) -> BootstrapResult:
    """Resample the tallies and evaluate the configured statistic per draw.

    `tallies` follow the cycle order of their scenario (any rotation or
    reflection gives the same statistics; see cycle_order_tallies for the
    canonical arrangement).
    """
    import numpy as np

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
        samples = contextual_fraction(correlations)

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
    threshold = config.tol if config.statistic == "cf" else 0.0
    return BootstrapResult(
        samples=samples,
        mean=float(samples.mean()),
        std=float(samples.std()),
        fraction_positive=float((samples > threshold).mean()),
        histogram=hist,
        metadata=metadata,
    )
