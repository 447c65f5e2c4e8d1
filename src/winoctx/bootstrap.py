"""Bootstrap resampling of per-context tallies.

Resampling is stratified: each resample independently redraws every
context's valid responses from that context's empirical same/diff split,
keeping the per-context sample sizes of the original design.  Resampled
models are symmetric by construction, so their delta is 0.  The two
statistics are read off each draw's s_odd: `violation` is s_odd - (n - 2),
which is cnt1 at every rank and the Bell-CHSH violation at rank 4, and `cf`
is the closed form max(0, (s_odd - (n - 2)) / 2) of
`cbd.CyclicSystem.contextual_fraction`.  No draw solves a linear program.

A context's resampled same-pick count k is Binomial(n_valid, n_same /
n_valid), and its correlation is (2k - n_valid) / n_valid.  Before any
draw, each context gets a Walker alias table of that distribution (Walker,
ACM TOMS 3 (1977) 253-256), built in linear time as in Vose, IEEE TSE 17
(1991) 972-975.  A draw then costs one uniform, one gather and one compare,
whatever n_valid and the split are.

Draws are made in blocks of `_BLOCK` resamples.  A block draws every
context in turn and folds each context's correlations at once into three
values per draw: the running sum of |correlation|, the least |correlation|
and the parity of the negative ones.  s_odd follows from those and is
written into the samples vector before the next block is drawn, and the
statistic is then computed in place.  Every array a block touches is a
buffer allocated once per run, so a run holds the samples vector, 8 bytes
per draw, plus one block's buffers, and never a draws x contexts array.
The summary reads the samples a block at a time too: `std` walks numpy's
pairwise summation of the squared deviations and sums each part that fits
one block with numpy's own code, so it equals `samples.std()` bit for bit
with no full-length temporary, and `fraction_positive` counts per block.
`contextual_fraction` turns each draw's s_odd into cf and lives here, its
one user.

Every statistic counts a draw toward `fraction_positive` when it is above
`tol`, as `analyze` decides its verdicts (cnt1 > tol, cf > tol): a draw on
the facet s_odd = n - 2 can read 4.4e-16 through rounding.

Determinism contract: all randomness comes from one Philox stream
(counter-based, documented algorithm philox4x64-10, seeded with `seed`),
read as uniforms in [0, 1) by the walker-alias sampler: uniforms k n to
(k + 1) n - 1 of the stream are the n draws of context k, in resample
order.  Each context reads its part from its own generator, placed there
by Philox's `advance` (Salmon et al., SC 2011), so the blocks draw the
numbers that one generator gives to all of context 0's draws, then all of
context 1's, and so on; statistic values are written into the samples
vector by resample index.  Everything runs on one thread; `workers` is
validated and otherwise ignored, so it cannot change a single bit of the
output.  No BLAS call is made, only elementwise ufuncs, gathers and Philox
draws, so no BLAS thread count can change a bit either.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from .cbd import STATISTICS
from .empirical import PROB_TOL
from .scenario import Context, Frozen, MeasurementScenario, cyclic_structure

if TYPE_CHECKING:
    from .ingest import ContextTally

GENERATOR = "philox4x64-10"
SAMPLER = "walker-alias"
# a run holds its samples, 8 bytes per draw, plus one block's buffers, and
# its std keeps numpy's summation order with no full-length temporary: at
# the cap, a rank-4 `winoctx bootstrap` takes 0.9-1.3 s and 113 MB VmHWM
MAX_RESAMPLES = 10**7
BIN_WIDTH = 0.02  # of the histogram of draws
_BLOCK = 2**14  # draws per block: 2**13 to 2**15 ran fastest, 2**11, 2**12, 2**16 slower


class BootstrapError(ValueError):
    pass


class BootstrapConfig(Frozen):
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
    centers: np.ndarray  # bins are BIN_WIDTH wide
    densities: np.ndarray


class BootstrapResult(NamedTuple):
    samples: np.ndarray
    mean: float
    std: float  # population denominator; `samples.std()` bit for bit, read block by block
    fraction_positive: float
    histogram: Histogram


def histogram(samples: Sequence[float]) -> Histogram:
    """Normalized histogram with bin edges pinned to multiples of BIN_WIDTH."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise BootstrapError("cannot histogram zero samples")
    least = data.min()
    lo = math.floor(least / BIN_WIDTH)
    # the quotient can round up to a k with k * BIN_WIDTH > least (1.4 / 0.02 is
    # 70.00000000000001); as rounding is monotone, the last edge is never below the max
    while lo * BIN_WIDTH > least:
        lo -= 1
    hi = math.floor(data.max() / BIN_WIDTH) + 1
    edges = np.arange(lo, hi + 1) * BIN_WIDTH
    counts, _ = np.histogram(data, bins=edges)
    densities = counts / (data.size * BIN_WIDTH)
    centers = (np.arange(lo, hi) + 0.5) * BIN_WIDTH
    return Histogram(centers=centers, densities=densities)


def contextual_fraction(s_odd: np.ndarray, rank: int) -> np.ndarray:
    """Closed-form cf of non-signalling binary rank-`rank` cycles, one per
    entry of `s_odd` (see `cbd`).  Computed in place: `s_odd` is overwritten
    and returned."""
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
    table = alias_table(tally.n_valid, tally.n_same)
    counts = np.concatenate([table.counts, table.counts[table.alias]])
    return table.prob, (2.0 * counts - tally.n_valid) / tally.n_valid


class _Block(NamedTuple):
    """Buffers for one block of draws, allocated once per run and written
    through `out=`, so that no block allocates."""

    uniform: np.ndarray   # a context's uniforms, then its correlations
    slot: np.ndarray      # intp: the alias-table slot of each draw
    prob: np.ndarray      # that slot's `prob`
    alias: np.ndarray     # bool: the draws that take the slot's alias
    negative: np.ndarray  # bool: the draws whose correlation is below 0
    total: np.ndarray     # running sum of |correlation| over the contexts
    least: np.ndarray     # least |correlation| so far
    odd: np.ndarray       # bool: parity of the negative correlations so far

    @classmethod
    def empty(cls, size: int) -> _Block:
        kinds = {"slot": np.intp, "alias": bool, "negative": bool, "odd": bool}
        return cls(*(np.empty(size, dtype=kinds.get(f, float)) for f in cls._fields))


def _draw_correlations(rng: np.random.Generator, prob: np.ndarray, slots: np.ndarray,
                       size: int, out: _Block) -> np.ndarray:
    """Correlations of `size` resamples of one context, from its alias table
    as `_slot_correlations` lays it out.  Every array is a view of `out`'s
    buffers, and the correlations land in `out.uniform[:size]`."""
    u = rng.random(out=out.uniform[:size])
    j, taken, alias = out.slot[:size], out.prob[:size], out.alias[:size]
    m = len(prob)
    u *= m  # below m even for the largest uniform, 1 - 2**-53
    np.copyto(j, u, casting="unsafe")  # truncates, as astype(np.intp) does
    u -= j
    # take keeps its bounds check: it copies through a temporary that
    # malloc reuses, and ran no slower than mode="clip"
    np.greater_equal(u, prob.take(j, out=taken), out=alias)
    np.add(j, m, out=j, where=alias)
    return slots.take(j, out=u)


def _generator_at(seed: int, position: int) -> np.random.Generator:
    """A generator whose next uniform is uniform `position` of the stream
    of `Generator(Philox(seed))`.  Philox makes four 64-bit words, one
    uniform each, per counter step, and `advance` moves the counter."""
    rng = np.random.Generator(np.random.Philox(seed))
    rng.bit_generator.advance(position // 4)
    rng.random(position % 4)
    return rng


def _s_odd_samples(contexts: Sequence[tuple[np.ndarray, np.ndarray]], n: int,
                   seed: int) -> np.ndarray:
    """Closed-form `cbd.s_odd` of `n` resamples of the `contexts`, each an
    alias table as `_slot_correlations` lays it out.

    Context k draws uniforms k n to (k + 1) n - 1 of the seed's stream, from
    its own generator placed there.  Draws run in blocks of `_BLOCK` rows,
    and each block folds its contexts' correlations into three values per
    row, the running sum of |c|, the least |c| and the parity of the
    negative ones, and writes its s_odd before the next block is drawn.  The
    sum runs left to right from 0, as numpy's row sum does for up to 7
    terms; from 8 on numpy sums pairwise and can differ in the last bits.
    """
    rngs = [_generator_at(seed, k * n) for k in range(len(contexts))]
    work = _Block.empty(min(n, _BLOCK))
    samples = np.empty(n)
    for start in range(0, n, _BLOCK):
        size = min(_BLOCK, n - start)
        negative, total, least, odd = (
            a[:size] for a in (work.negative, work.total, work.least, work.odd))
        total.fill(0.0)
        least.fill(np.inf)
        odd.fill(False)
        for rng, (prob, slots) in zip(rngs, contexts):
            values = _draw_correlations(rng, prob, slots, size, work)
            odd ^= np.less(values, 0.0, out=negative)
            mags = np.abs(values, out=values)
            total += mags
            np.minimum(least, mags, out=least)
        # an even count of negatives drops twice the least term; an odd one
        # keeps all
        least *= 2.0
        np.copyto(least, 0.0, where=odd)
        np.subtract(total, least, out=samples[start:start + size])
    return samples


def _sum_of_squares(x: np.ndarray, mean: float, buf: np.ndarray) -> float:
    """The sum of (x - mean)**2 that `x.std()` takes, bit for bit, with no
    array as long as `x`.

    numpy sums a contiguous float64 array pairwise: a part of n > 128 terms
    splits at h = n // 2 rounded down to a multiple of 8, and the two sums
    are added (Higham, SIAM J. Sci. Comput. 14 (1993) 783-799).  This walks
    the same splits down to parts that fit `buf`, writes each part's
    squared deviations there and sums them with `np.add.reduce`, numpy's
    own code for that part.
    """
    n = len(x)
    if n <= len(buf):
        d = np.subtract(x, mean, out=buf[:n])
        return float(np.add.reduce(np.multiply(d, d, out=d)))
    h = n // 2
    h -= h % 8
    return _sum_of_squares(x[:h], mean, buf) + _sum_of_squares(x[h:], mean, buf)


def run(tallies: Sequence[ContextTally], config: BootstrapConfig) -> BootstrapResult:
    """Resample the tallies and evaluate the configured statistic per draw.

    `tallies` follow the cycle order of their scenario (any rotation or
    reflection gives the same statistics; see cycle_order_tallies for the
    canonical arrangement).  `violation` is s_odd - (n - 2) at every rank n;
    at rank 4, the only rank a command draws, that is
    `cbd.CyclicSystem.violation`, which is defined there only.
    """
    tallies = list(tallies)
    rank = len(tallies)
    if rank < 3:
        raise BootstrapError(f"cyclic statistics need >= 3 contexts, got {rank}")
    for i, t in enumerate(tallies):
        if t.n_valid < 1:
            raise BootstrapError(f"context {i} has no valid responses to resample")

    contexts = [_slot_correlations(t) for t in tallies]
    samples = _s_odd_samples(contexts, config.n_resamples, config.seed)

    if config.statistic == "violation":
        samples -= float(rank - 2)
    else:
        samples = contextual_fraction(samples, rank)

    n = config.n_resamples
    mean = float(samples.mean())
    squares = _sum_of_squares(samples, mean, np.empty(min(n, _BLOCK)))
    positive = sum(np.count_nonzero(samples[start:start + _BLOCK] > config.tol)
                   for start in range(0, n, _BLOCK))
    return BootstrapResult(
        samples=samples,
        mean=mean,
        std=math.sqrt(squares / n),
        fraction_positive=positive / n,
        histogram=histogram(samples),
    )
