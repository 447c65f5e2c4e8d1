"""Bootstrap resampling of per-context tallies.

Resampling is stratified: each resample independently redraws every
context's valid responses from that context's empirical same/diff split,
keeping the per-context sample sizes of the original design.  Resampled
models are symmetric by construction, so their delta is 0, cnt1 equals the
rank-4 violation, and cf is the closed form max(0, (s_odd - (n - 2)) / 2)
of `cbd.CyclicSystem.contextual_fraction` on every draw.  No draw solves a
linear program.

A context's resampled same-pick count k is Binomial(n_valid, n_same /
n_valid), and its correlation is (2k - n_valid) / n_valid.  Before any
draw, each context gets a Walker alias table of that distribution (Walker,
ACM TOMS 3 (1977) 253-256), built in linear time as in Vose, IEEE TSE 17
(1991) 972-975.  A draw then costs one uniform, one gather and one compare,
whatever n_valid and the split are.

Draws are made context by context in blocks of `_BLOCK`, and each block of
correlations is folded at once into three values per draw: the running sum
of |correlation|, the least |correlation| and the parity of the negative
ones.  s_odd follows from those, and the statistic is computed in place, so
a run holds 17 bytes per draw plus one block's temporaries, and never a
draws x contexts array.  `contextual_fraction` turns each draw's s_odd
into cf and lives here, its one user.

Every statistic counts a draw toward `fraction_positive` when it is above
`tol`, as `analyze` decides its verdicts (cnt1 > tol, cf > tol): a draw on
the facet s_odd = n - 2 can read 4.4e-16 through rounding.

numpy is imported inside the functions that touch arrays, so that the
commands that import this module without drawing (`winoctx analyze`,
`validate`, `schema`) do not load it.

Determinism contract: all randomness comes from one Philox generator
(counter-based, documented algorithm philox4x64-10), read as uniforms in
[0, 1) by the walker-alias sampler: every draw of context 0 first, then
every draw of context 1, and so on.  A draw uses one uniform and nothing
else, so drawing a context in blocks gives the same numbers as one call for
all its draws, and statistic values are written into the samples vector by
resample index.  Everything runs on one thread; `workers` is validated and
otherwise ignored, so it cannot change a single bit of the output.  No BLAS
call is made, only elementwise ufuncs, gathers and Philox draws, so no BLAS
thread count can change a bit either.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .empirical import PROB_TOL
from .scenario import Context, Frozen, MeasurementScenario, cyclic_structure

if TYPE_CHECKING:
    import numpy as np

    from .ingest import ContextTally

GENERATOR = "philox4x64-10"
SAMPLER = "walker-alias"
STATISTICS = ("violation", "cnt1", "cf")
# a run holds 17 bytes per draw (two floats and a flag) plus one block's
# temporaries: at the cap, 172 MB traced and 200 MB process RSS at rank 4
MAX_RESAMPLES = 10**7
BIN_WIDTH = 0.02  # of the histogram of draws
_BLOCK = 2**16  # draws per block


class BootstrapError(ValueError):
    pass


class BootstrapConfig(Frozen):
    _fields = ("n_resamples", "seed", "statistic", "workers", "tol")

    def __init__(self, n_resamples: int = 100_000, seed: int = 0,
                 statistic: str = "violation",
                 workers: int = 1,        # accepted for compatibility; runs are single-threaded
                 tol: float = PROB_TOL):  # a draw counts as positive when its statistic > tol
        if seed < 0:
            raise BootstrapError(f"seed must be >= 0, got {seed}")
        if n_resamples < 1:
            raise BootstrapError("n_resamples must be >= 1")
        if n_resamples > MAX_RESAMPLES:
            raise BootstrapError(
                f"n_resamples {n_resamples} exceeds the cap of {MAX_RESAMPLES} draws"
            )
        if statistic not in STATISTICS:
            raise BootstrapError(
                f"unknown statistic {statistic!r}, pick one of {list(STATISTICS)}"
            )
        if workers < 1:
            raise BootstrapError("workers must be >= 1")
        if not 0.0 <= tol < math.inf:  # written so that NaN fails it
            raise BootstrapError("tol must be a finite number >= 0")
        super().__init__(n_resamples=n_resamples, seed=seed, statistic=statistic,
                         workers=workers, tol=tol)


class Histogram(NamedTuple):
    centers: np.ndarray
    densities: np.ndarray
    bin_width: float


class BootstrapResult(NamedTuple):
    samples: np.ndarray
    mean: float
    std: float  # population denominator
    fraction_positive: float
    histogram: Histogram


def histogram(samples: Sequence[float]) -> Histogram:
    """Normalized histogram with bin edges pinned to multiples of BIN_WIDTH."""
    import numpy as np

    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise BootstrapError("cannot histogram zero samples")
    lo = math.floor(data.min() / BIN_WIDTH)
    hi = math.floor(data.max() / BIN_WIDTH) + 1
    edges = np.arange(lo, hi + 1) * BIN_WIDTH
    counts, _ = np.histogram(data, bins=edges)
    densities = counts / (data.size * BIN_WIDTH)
    centers = (np.arange(lo, hi) + 0.5) * BIN_WIDTH
    return Histogram(centers=centers, densities=densities, bin_width=BIN_WIDTH)


# a function, not inlined into `run`, so that its arrays are freed before the
# histogram is built: inlined, `bootstrap` peak RSS rose from 44.6-44.8 to 47.0 MB
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
        # let this block's arrays go before `blocks` draws the next one
        del values, mags
    # an even count of negatives flips the least term; an odd one keeps all
    least *= 2.0
    least[odd] = 0.0
    total -= least
    return total


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


class AliasTable(NamedTuple):
    """Walker alias table of one context's resampled same-pick count.

    Slot j yields the count `counts[j]` with probability `prob[j]` and the
    count of slot `alias[j]` otherwise; a uniform slot then gives each count
    its binomial probability.
    """

    counts: np.ndarray  # the counts kept, ascending, one per slot
    prob: np.ndarray
    alias: np.ndarray


def alias_table(n_valid: int, n_same: int) -> AliasTable:
    """Alias table of Binomial(n_valid, n_same / n_valid).

    The pmf is built by the ratio of consecutive terms, outward from the
    mode (weight 1) until a weight underflows to 0, then normalised, so the
    cost grows with the support kept and not with n_valid.  Only the counts
    whose pmf is a positive double are kept: each dropped count has pmf
    below 2**-1074, so together they hold less than (n_valid + 1) * 2**-1074
    of the mass.  n_same of 0 or n_valid gives a one-slot table.
    """
    import numpy as np

    n, s = n_valid, n_same
    if s in (0, n):
        return AliasTable(np.array([s]), np.ones(1), np.zeros(1, dtype=np.intp))
    mode = (n + 1) * s // n  # floor((n + 1) p)
    up, down = [1.0], []
    k, w = mode, 1.0
    while k < n and (w := w * ((n - k) * s / ((k + 1) * (n - s)))) > 0.0:
        up.append(w)
        k += 1
    k, w = mode, 1.0
    while k > 0 and (w := w * (k * (n - s) / ((n - k + 1) * s))) > 0.0:
        down.append(w)
        k -= 1
    weights = np.array(down[::-1] + up)
    pmf = weights / weights.sum()
    kept = np.flatnonzero(pmf)
    pmf = pmf[kept[0]:kept[-1] + 1]

    # Vose: pair each slot below the mean with one above it, which gives the
    # first the rest of its slot; slots left at the end keep themselves
    m = len(pmf)
    scaled = (m * pmf).tolist()
    small = [j for j, x in enumerate(scaled) if x < 1.0]
    large = [j for j, x in enumerate(scaled) if x >= 1.0]
    prob = [1.0] * m
    alias = list(range(m))
    while small and large:
        j, big = small.pop(), large[-1]
        prob[j], alias[j] = scaled[j], big
        scaled[big] = (scaled[big] + scaled[j]) - 1.0
        if scaled[big] < 1.0:
            small.append(large.pop())
    lo = mode - len(down) + kept[0]
    return AliasTable(np.arange(lo, lo + m), np.array(prob), np.array(alias, dtype=np.intp))


def _slot_correlations(tally: ContextTally) -> tuple[np.ndarray, np.ndarray]:
    """The context's alias table as `_draw_correlations` reads it: `prob` per
    slot, and the correlation (2k - n_valid) / n_valid of each slot's own
    count k followed by that of its alias's count (2m entries for m slots)."""
    import numpy as np

    table = alias_table(tally.n_valid, tally.n_same)
    counts = np.concatenate([table.counts, table.counts[table.alias]])
    return table.prob, (2.0 * counts - tally.n_valid) / tally.n_valid


def _draw_correlations(rng: np.random.Generator, prob: np.ndarray, slots: np.ndarray,
                       size: int) -> np.ndarray:
    """Correlations of `size` resamples of one context, from its alias table
    as `_slot_correlations` lays it out."""
    import numpy as np

    m = len(prob)
    u = rng.random(size)
    u *= m  # below m even for the largest uniform, 1 - 2**-53
    j = u.astype(np.intp)
    u -= j
    np.add(j, m, out=j, where=u >= prob.take(j))
    return slots.take(j, out=u)


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

    contexts = [_slot_correlations(t) for t in tallies]
    # all of context 0's draws, then all of context 1's, ..., each context in
    # blocks: the same numbers as one call per context
    rng = np.random.Generator(np.random.Philox(config.seed))
    n = config.n_resamples
    blocks = [slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK)]
    samples = _fold_s_odd(n, (
        (rows, _draw_correlations(rng, prob, slots, rows.stop - rows.start))
        for prob, slots in contexts for rows in blocks))

    if config.statistic != "cf":
        # violation (rank 4 only) and cnt1 are both s_odd - (rank - 2):
        # resampled models are symmetric, so delta = 0 identically
        samples -= float(rank - 2)
    else:
        samples = contextual_fraction(samples, rank)

    return BootstrapResult(
        samples=samples,
        mean=float(samples.mean()),
        std=float(samples.std()),
        fraction_positive=float((samples > config.tol).mean()),
        histogram=histogram(samples),
    )
