"""Cyclic systems of binary measurements and their contextuality measure.

Sign convention: the first declared label of a binary outcome set is +1,
the second -1.  `CyclicSystem.from_model` is the one place that applies it:
each expectation and correlation is the math.fsum of a table's values times
a fixed +-1 vector of the binary pair's shape, which relies on a model's
tables being dense in outcome_tuples order, as its constructor makes them.

A rank-n cyclic system has contents x_1..x_n and contexts K_i = {x_i, x_i+1}
(indices mod n).  The measure used here is

    cnt1 = s_odd(correlations) - delta - (n - 2)

where s_odd is the largest odd-signed sum of the cycle correlations and
delta accumulates how much each content's expectation moves between its two
contexts.  Positive cnt1 means contextual.  For rank 4 with delta = 0 this
is exactly the amount by which the classical correlation bound (2) is
exceeded, so `cnt1` and `chsh_violation` agree digit for digit on
non-signalling input.

s_odd <= n - 2 are the n-cycle noncontextuality facets (Araujo et al.,
PRA 88, 022118, 2013).  s_odd and the sign pattern attaining it have an
O(n) closed form (`chsh_pattern`); the sign-vector enumeration lives only
in the test oracles.  `bootstrap` reads `violation`, s_odd - (n - 2) at
every rank (cnt1, as its draws have delta 0), and the cf below off many
draws' s_odd at once, with numpy, which this module does without.

The contextual fraction of a non-signalling binary cycle is closed form too:

    cf = max(0, (s_odd - (n - 2)) / 2)

It is read off s_odd, not cnt1, so that float noise in delta cannot move it.
Abramsky, Barbosa and Mansfield (PRL 119, 050504, 2017) prove cf >= the
right-hand side.  For the other direction, write m_j for the expectation of
x_j, c_j for the correlation of K_j, and p_j(a, b) = (1 + a m_j + b m_j+1 +
ab c_j) / 4 for K_j's table, a, b = +-1.  Let s be an odd pattern attaining
s_odd, v = s.c - (n - 2) > 0 and lam = v / 2 (lam = 1 only for the PR box
PR_s itself, whose cf is 1).  PR_s has zero marginals and correlations s, so
it puts 1/2 on each (a, b) with ab = s_j.  Then

    e_NC = (e - lam PR_s) / (1 - lam)

is a non-signalling model with marginals m / (1 - lam):

- Non-negativity.  p_k >= 0 at (a, -s_k a) for both a gives
  1 - s_k c_k >= |m_k - s_k m_k+1| on every edge.  On PR_s's support,
  p_j(a, s_j a) = (1 + s_j c_j + a (m_j + s_j m_j+1)) / 4, and
  v = (1 + s_j c_j) - sum_{k != j} (1 - s_k c_k).  Summing the edge bound
  around the other n - 1 edges telescopes by the triangle inequality to
  |m_j+1 - (prod_{k != j} s_k) m_j| = |m_j + s_j m_j+1|, since s has odd
  parity.  So p_j >= v / 4 = lam / 2 there, and e_NC >= 0.
- Noncontextuality.  s.c_NC = (s.c - lam n) / (1 - lam) = n - 2 exactly.
  Any other odd s' differs from s on an even set D of size >= 2, and with
  a_k = 1 - s_k c_NC_k in [0, 2] summing to 2,
  s'.c_NC = (n - 2) - 2 sum_D s_k c_NC_k = (n - 2) - 2 (|D| - sum_D a_k),
  which is <= n - 2 as sum_D a_k <= 2 <= |D|.  So e_NC satisfies every
  n-cycle inequality, and by Araujo et al. it is noncontextual.

Hence e = lam PR_s + (1 - lam) e_NC explains mass 1 - lam and cf <= lam.
When v <= 0, e itself satisfies every inequality and cf = 0.  The
certificate is the n-cycle inequality of s: its gap to the bound is 0.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul
from typing import Sequence

from .empirical import EmpiricalModel, outcome_tuples
from .scenario import Context, Frozen, Observable


# what `winoctx bootstrap` can draw; each is read off a cycle's s_odd
STATISTICS = ("violation", "cf")


class CyclicSystemError(ValueError):
    pass


def s_odd(values: Sequence[float]) -> float:
    """Max of sum(sign_j * v_j) over sign vectors with an odd number of -1s.

    The math.fsum, so correctly rounded, of `chsh_pattern`'s terms: the
    |v_j|, a least one negated when the negatives are even (`bootstrap`'s fold).
    """
    v = [float(x) for x in values]
    if not v:
        raise CyclicSystemError("s_odd needs at least one value")
    terms = list(map(abs, v))
    if len([x for x in v if x < 0]) % 2 == 0:
        least = terms.index(min(terms))
        terms[least] = -terms[least]
    return math.fsum(terms)


# the +-1 signs of a binary pair's joint outcomes, in the order of its table
_PAIR = outcome_tuples((1.0, -1.0), 2)
_SIGNS = tuple(zip(*_PAIR))  # of its first member, of its second
_PRODUCT = tuple([a * b for a, b in _PAIR])


class CyclicSystem(Frozen):
    """Cycle-ordered correlations plus each content's two expectations.

    contents[i] sits in contexts[i-1] and contexts[i]; expectations[i] holds
    its expectation in those two contexts, in that order.  delta and s_odd
    are computed once, on first use: a report reads them several times.
    """

    def __init__(self, contents: tuple[Observable, ...], contexts: tuple[Context, ...],
                 correlations: tuple[float, ...],
                 expectations: tuple[tuple[float, float], ...]):
        n = len(contents)
        if n < 3:
            raise CyclicSystemError(f"cyclic systems need rank >= 3, got {n}")
        if not (len(contexts) == len(correlations) == len(expectations) == n):
            raise CyclicSystemError("contents/contexts/correlations/expectations must align")
        super().__init__(contents=contents, contexts=contexts, correlations=correlations,
                         expectations=expectations)

    @property
    def rank(self) -> int:
        return len(self.contents)

    @classmethod
    def from_model(cls, model: EmpiricalModel) -> "CyclicSystem":
        structure = model.scenario.cycle
        if structure is None:
            raise CyclicSystemError("scenario has no cyclic structure")
        outcomes = model.scenario.outcomes
        if len(outcomes) != 2:
            raise CyclicSystemError(
                f"{len(outcomes)} outcomes {list(outcomes)}: CbD needs a binary outcome set")
        contexts = structure.contexts
        values = [list(model.distribution(ctx).table.values()) for ctx in contexts]
        correlations = tuple([math.fsum(map(mul, v, _PRODUCT)) for v in values])
        expectations = tuple([tuple([math.fsum(map(mul, values[k], _SIGNS[contexts[k].index(c)]))
                                     for k in (i - 1, i)])
                              for i, c in enumerate(structure.ordering)])
        return cls(structure.ordering, contexts, correlations, expectations)

    @cached_property
    def delta(self) -> float:
        """Total movement of content expectations across their two contexts."""
        return math.fsum(abs(a - b) for a, b in self.expectations)

    @cached_property
    def _s_odd(self) -> float:
        return s_odd(self.correlations)

    @property
    def cnt1(self) -> float:
        # left-to-right: when delta is exactly 0.0 this is bit-identical
        # to the rank-4 correlation-bound excess below
        return self._s_odd - self.delta - (self.rank - 2)

    @property
    def contextual_fraction(self) -> float:
        """cf in closed form; it is the cf only when the model does not
        signal (module docstring)."""
        return max(0.0, (self._s_odd - (self.rank - 2)) / 2)

    @property
    def violation(self) -> float:
        """Excess of the best odd-signed correlation sum over the classical
        bound of 2.  Defined for rank-4 cycles only; negative means no
        violation.  `bootstrap.run`'s `violation`, s_odd - (n - 2) at every
        rank n, equals it at rank 4, the only rank a command draws."""
        if self.rank != 4:
            raise CyclicSystemError(
                f"correlation-bound statistic needs a rank-4 cycle, got rank {self.rank}"
            )
        return self._s_odd - 2


def cnt1(model: EmpiricalModel) -> float:
    return CyclicSystem.from_model(model).cnt1


def chsh_violation(model: EmpiricalModel) -> float:
    """The rank-4 `CyclicSystem.violation` of a model."""
    return CyclicSystem.from_model(model).violation


def chsh_pattern(values: Sequence[float]) -> tuple[int, ...]:
    """The odd-parity sign vector attaining s_odd (certificate for reports).

    Flipping the sign of every negative entry yields sum |v_j|; if that
    flips an even number, one more flip is forced and it is cheapest on a
    least-|v_j| entry.  Among maximising patterns the one with the lowest
    bitmask (bit j set when entry j is flipped) is returned.
    """
    v = [float(x) for x in values]
    if not v:
        raise CyclicSystemError("chsh_pattern needs at least one value")
    mask = sum(1 << j for j, x in enumerate(v) if x < 0)
    if mask.bit_count() % 2 == 0:
        least = min(abs(x) for x in v)
        ties = (1 << j for j, x in enumerate(v) if abs(x) == least)
        mask ^= min(ties, key=mask.__xor__)
    return tuple(-1 if mask >> j & 1 else 1 for j in range(len(v)))
