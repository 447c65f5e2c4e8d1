"""Bootstrap resampling of per-context tallies.

Resampling is stratified: each resample independently redraws every
context's valid responses from that context's empirical same/diff split,
keeping the per-context sample sizes of the original design.  Resampled
models are symmetric by construction, so their delta is 0, cnt1 equals the
rank-4 violation, and cf is the closed form max(0, (s_odd - (n - 2)) / 2)
of `cbd.CyclicSystem.contextual_fraction` on every draw.  No draw solves a
linear program.

Draws are made context by context in blocks of `_BLOCK`, and each block of
correlations is folded at once into three values per draw: the running sum
of |correlation|, the least |correlation| and the parity of the negative
ones.  s_odd follows from those, and the statistic is computed in place, so
a run holds 17 bytes per draw plus one block's temporaries, and never a
draws x contexts array.  The same fold gives `s_odd_rows` on the columns of
a matrix; `contextual_fraction` turns each draw's s_odd into cf.  Both live
here, since bootstrap is their one user.

numpy is imported inside the functions that touch arrays, so that the
commands that import this module without drawing (`winoctx analyze`,
`validate`, `schema`) do not load it.

Determinism contract: all randomness comes from one Philox generator
(counter-based, documented algorithm philox4x64-10), every draw of context
0 first, then every draw of context 1, and so on.  Drawing a context in
blocks gives the same numbers as one call for all its draws, and statistic
values are written into the samples vector by resample index.  Everything
runs on one thread; `workers` is validated and otherwise ignored, so it
cannot change a single bit of the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .empirical import PROB_TOL
from .ingest import ContextTally
from .scenario import Context, MeasurementScenario, cyclic_structure

if TYPE_CHECKING:
    import numpy as np

GENERATOR = "philox4x64-10"
STATISTICS = ("violation", "cnt1", "cf")
# a run holds 17 bytes per draw (two floats and a flag) plus one block's
# temporaries: at the cap, 179 MB traced and 200 MB process RSS at rank 4
MAX_RESAMPLES = 10**7
BIN_WIDTH = 0.02  # of the histogram of draws
_BLOCK = 2**16  # draws per binomial call


class BootstrapError(ValueError):
    pass


@dataclass(frozen=True)
class BootstrapConfig:
    n_resamples: int = 100_000
    seed: int = 0
    statistic: str = "violation"
    workers: int = 1  # accepted for compatibility; runs are single-threaded
    tol: float = PROB_TOL  # a cf draw counts as positive when cf > tol

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


def histogram(samples: Sequence[float], bin_width: float = BIN_WIDTH) -> Histogram:
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


def _fold_s_odd(n_rows: int, blocks) -> np.ndarray:
    """Closed-form `cbd.s_odd` of `n_rows` rows, folded in column by column.

    `blocks` yields (rows, values): a column's `values` on the slice `rows`.
    Each block updates three per-row values, the running sum of |value|, the
    least |value| and the parity of negative values, so no rows x columns
    array is built.  The sum runs left to right from 0, as numpy's row sum
    does for up to 7 terms; from 8 on numpy sums pairwise and can differ in
    the last bits.  Only elementwise ufuncs, so the result does not depend
    on thread count.
    """
    import numpy as np

    total = np.zeros(n_rows)
    least = np.full(n_rows, np.inf)
    odd = np.zeros(n_rows, dtype=bool)
    for rows, values in blocks:
        block_total, block_least, block_odd = total[rows], least[rows], odd[rows]
        mags = np.abs(values)
        block_total += mags
        np.minimum(block_least, mags, out=block_least)
        block_odd ^= values < 0.0
    # an even count of negatives flips the least term; an odd one keeps all
    least *= 2.0
    least[odd] = 0.0
    total -= least
    return total


def s_odd_rows(rows: np.ndarray) -> np.ndarray:
    """Closed-form `cbd.s_odd` applied to each row of a 2-d array: the fold
    that `run` applies to its draws, applied to the array's columns."""
    import numpy as np

    a = np.asarray(rows, dtype=float)
    if a.ndim != 2 or a.shape[1] == 0:
        raise BootstrapError("expected a 2-d array of sign-sum inputs")
    columns = range(a.shape[1])
    return _fold_s_odd(a.shape[0], ((slice(None), a[:, j]) for j in columns))


def contextual_fraction(s_odd: np.ndarray, rank: int) -> np.ndarray:
    """Closed-form cf of non-signalling binary rank-`rank` cycles, one per
    entry of `s_odd` (see `cbd`).  Computed in place: `s_odd` is overwritten
    and returned."""
    import numpy as np

    s_odd -= rank - 2
    s_odd /= 2.0
    return np.maximum(0.0, s_odd, out=s_odd)


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


def _draw_correlations(rng: np.random.Generator, tally: ContextTally, size: int) -> np.ndarray:
    """Correlations of `size` resamples of one context's valid responses."""
    counts = rng.binomial(tally.n_valid, tally.n_same / tally.n_valid, size=size)
    return (2.0 * counts - tally.n_valid) / tally.n_valid


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

    # all of context 0's draws, then all of context 1's, ..., each context in
    # blocks: the same numbers as one binomial call per context
    rng = np.random.Generator(np.random.Philox(config.seed))
    n = config.n_resamples
    blocks = [slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK)]
    samples = _fold_s_odd(n, (
        (rows, _draw_correlations(rng, t, rows.stop - rows.start))
        for t in tallies for rows in blocks))

    if config.statistic != "cf":
        # violation (rank 4 only) and cnt1 are both s_odd - (rank - 2):
        # resampled models are symmetric, so delta = 0 identically
        samples -= float(rank - 2)
    else:
        samples = contextual_fraction(samples, rank)

    hist = histogram(samples)
    metadata = {
        "generator": GENERATOR,
        "seed": config.seed,
        "n_resamples": config.n_resamples,
        "statistic": config.statistic,
        "contexts": rank,
        "bin_width": BIN_WIDTH,
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
