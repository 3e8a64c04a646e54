"""First-order canonical delay form.

The standard SSTA representation (Visweswariah et al., DAC'04 /
Chang-Sapatnekar, ICCAD'03 era): a timing quantity is

    d  =  mean  +  sens . z  +  indep * r

where ``z`` are the *shared* standard-normal global factors (inter-die and
spatial principal components from :class:`repro.variation.model.
VariationModel`) and ``r`` is a private standard normal.  Sums are exact;
max is Clark's two-moment Gaussian re-approximation with the blended
sensitivity heuristic.

The known approximation (documented limitation, shared with the
literature): after a max, the independent remainders of the two operands
are collapsed into a single fresh ``r``, so correlation carried purely by
*path-local* randomness through reconvergent fanout is dropped.  The
Monte-Carlo validation experiment (F3) quantifies exactly this gap.

Many canonicals at once live in a :class:`CanonicalArray` (packed rows:
mean, variance, independent sigma, sensitivities); indexing one yields a
:class:`Canonical`.  :func:`clark_merge` is the one Clark-max
implementation: SSTA runs it over every batch of its merge schedule, and
:meth:`Canonical.maximum_with_tightness` over a single pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple

import numpy as np
from scipy.special import ndtri

from ..errors import TimingError
from .clark import max_moments, norm_cdf


@dataclass(frozen=True)
class Canonical:
    """``mean + sens . z + indep * r`` — immutable value object."""

    mean: float
    sens: np.ndarray
    indep: float

    def __post_init__(self) -> None:
        if self.indep < 0:
            raise TimingError(f"indep sigma must be >= 0, got {self.indep}")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def constant(value: float, n_globals: int) -> "Canonical":
        """A deterministic value lifted into canonical form."""
        return Canonical(value, np.zeros(n_globals), 0.0)

    # -- moments -----------------------------------------------------------------

    @property
    def variance(self) -> float:
        """Total variance (globals + independent)."""
        return float(self.sens @ self.sens) + self.indep * self.indep

    @property
    def sigma(self) -> float:
        """Total standard deviation."""
        return math.sqrt(self.variance)

    def covariance(self, other: "Canonical") -> float:
        """Covariance through the shared global factors only."""
        return float(self.sens @ other.sens)

    def cdf(self, x: float) -> float:
        """P(value <= x)."""
        s = self.sigma
        if s == 0.0:  # lint: ignore[RPR402] exact zero marks a deterministic edge, not a tolerance test
            return 1.0 if x >= self.mean else 0.0
        return norm_cdf((x - self.mean) / s)

    def percentile(self, q: float) -> float:
        """The q-quantile (0 < q < 1)."""
        if not 0.0 < q < 1.0:
            raise TimingError(f"quantile must be in (0,1), got {q}")
        return self.mean + self.sigma * float(ndtri(q))

    # -- arithmetic -----------------------------------------------------------------

    def shifted(self, offset: float) -> "Canonical":
        """Add a deterministic offset (exact)."""
        return Canonical(self.mean + offset, self.sens, self.indep)

    def scaled(self, factor: float) -> "Canonical":
        """Multiply by a deterministic factor (exact)."""
        return Canonical(
            self.mean * factor, self.sens * factor, abs(factor) * self.indep
        )

    def plus(self, other: "Canonical") -> "Canonical":
        """Sum of two canonicals (exact: Gaussians are closed under +).

        Independent parts add in quadrature — they are private to distinct
        gates by construction.
        """
        return Canonical(
            self.mean + other.mean,
            self.sens + other.sens,
            math.hypot(self.indep, other.indep),
        )

    def maximum(self, other: "Canonical") -> "Canonical":
        """Clark max, re-expressed in canonical form.

        Sensitivities blend with the tightness probability ``T``:
        ``s_max = T * s_a + (1-T) * s_b``; the independent part absorbs
        whatever variance the blended globals do not explain.
        """
        result, _ = self.maximum_with_tightness(other)
        return result

    def maximum_with_tightness(self, other: "Canonical") -> tuple["Canonical", float]:
        """Clark max plus the tightness probability ``P(self >= other)``.

        The tightness is what criticality propagation consumes.
        """
        mean = [self.mean, other.mean, 0.0]
        variance = [self.variance, other.variance, 0.0]
        indep = [self.indep, other.indep, 0.0]
        sens = np.stack((self.sens, other.sens, np.zeros_like(self.sens)))
        tightness = clark_merge(mean, variance, indep, sens, _PAIR)
        sens.flags.writeable = False
        return Canonical(mean[2], sens[2], indep[2]), tightness.item()

    def minimum(self, other: "Canonical") -> "Canonical":
        """Clark min, re-expressed in canonical form.

        ``min(A, B) = -max(-A, -B)``; used by required-time
        back-propagation in :mod:`repro.timing.slack`.
        """
        neg = self.scaled(-1.0).maximum(other.scaled(-1.0))
        return neg.scaled(-1.0)

    def minus(self, other: "Canonical") -> "Canonical":
        """Difference of two canonicals.

        Correlation through the shared globals is exact (sensitivities
        subtract); the independent parts add in quadrature, which is the
        same private-randomness approximation the rest of the canonical
        algebra makes.
        """
        return self.plus(other.scaled(-1.0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Canonical(mean={self.mean:.4g}, sigma={self.sigma:.4g}, "
            f"indep={self.indep:.4g})"
        )


class CanonicalArray:
    """``n`` canonical forms packed row by row.

    ``rows`` is one ``(n, 3 + k)`` float array whose columns are the
    mean, the total variance (``sens . sens + indep^2``, carried so a
    merge never recomputes it), the independent sigma, then the ``k``
    global sensitivities; ``mean``, ``variance``, ``indep`` and ``sens``
    are read-only views of those columns.  One row is one operand of a
    batched merge, so gathering a batch of canonicals is a single fancy
    index.  ``[i]`` yields the :class:`Canonical` of row ``i``, so callers
    written against lists of canonicals keep working.
    """

    def __init__(self, rows: np.ndarray) -> None:
        if rows.ndim != 2 or rows.shape[1] < 3:
            raise TimingError(
                f"packed canonical rows need shape (n, 3 + k), got {rows.shape}"
            )
        rows.flags.writeable = False
        self.rows = rows

    @classmethod
    def from_parts(
        cls, mean: np.ndarray, sens: np.ndarray, indep: np.ndarray
    ) -> "CanonicalArray":
        """Pack ``mean (n,)``, ``sens (n, k)`` and ``indep (n,)``."""
        rows = np.empty((mean.shape[0], 3 + sens.shape[1]))
        rows[:, 0] = mean
        rows[:, 2] = indep
        rows[:, 3:] = sens
        rows[:, 1] = np.vecdot(rows[:, 3:], rows[:, 3:]) + indep * indep
        return cls(rows)

    @property
    def mean(self) -> np.ndarray:
        """Mean of every row."""
        return self.rows[:, 0]

    @property
    def variance(self) -> np.ndarray:
        """Total variance of every row (globals + independent)."""
        return self.rows[:, 1]

    @property
    def indep(self) -> np.ndarray:
        """Independent sigma of every row."""
        return self.rows[:, 2]

    @property
    def sens(self) -> np.ndarray:
        """``(n, k)`` global sensitivities."""
        return self.rows[:, 3:]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, index: int) -> Canonical:
        row = self.rows[index]
        return Canonical(float(row[0]), row[3:], float(row[2]))

    def __iter__(self) -> Iterator[Canonical]:
        return (self[i] for i in range(len(self)))


class MergeBatch(NamedTuple):
    """One batched Clark merge: row ``out[i]`` becomes the max of rows
    ``left[i]`` and ``right[i]``.

    The rows are held twice: as Python lists, which index the per-row
    scalars, and as one gather (``left + right``) and one scatter
    (``out``) index array, which move the ``(rows, k)`` sensitivities.
    The ``out`` rows are distinct, and none is an operand of another
    merge in the batch.
    """

    left: List[int]
    right: List[int]
    out: List[int]
    gather: np.ndarray
    scatter: np.ndarray


#: Row 2 becomes the max of rows 0 and 1.
_PAIR = MergeBatch([0], [1], [2], np.array([0, 1]), np.array([2]))


def clark_merge(
    mean: List[float],
    variance: List[float],
    indep: List[float],
    sens: np.ndarray,
    batch: MergeBatch,
) -> np.ndarray:
    """Clark-max every pair of ``batch`` in place; returns the tightnesses.

    The canonicals are stored by column: ``mean``, ``variance`` (total,
    ``sens . sens + indep^2``) and ``indep`` as Python floats, one per
    row, and ``sens`` as an ``(rows, k)`` array.  Per merge,
    :func:`~repro.timing.clark.max_moments` and ``math.sqrt`` run on the
    floats; NumPy does only the ``(rows, k)`` work: one gather, the
    covariances and explained variances (``np.vecdot``, each entry bit
    for bit the 1-D ``a[i] @ b[i]``), the tightness blend and one
    scatter.  Sensitivities blend with the tightness
    ``T = P(A >= B)``; the independent part absorbs whatever variance
    the blended globals do not explain (none when that is negative), and
    the merged variance is carried as ``explained + indep^2``, the value
    :attr:`Canonical.variance` would recompute.
    """
    left = batch.left
    m = len(left)
    operands = sens[batch.gather]
    a, b = operands[:m], operands[m:]
    cov = np.vecdot(a, b).tolist()
    means, variances, tightness = zip(
        *[
            max_moments(mean[i], variance[i], mean[j], variance[j], c)
            for i, j, c in zip(left, batch.right, cov)
        ]
    )
    # T * a + (1 - T) * b: the two products, then their sum.
    w = np.array(tightness)
    blended = w[:, None] * a
    blended += (1.0 - w)[:, None] * b
    explained = np.vecdot(blended, blended).tolist()
    for row, mu, var, e in zip(batch.out, means, variances, explained):
        unexplained = var - e
        sigma = 0.0 if unexplained < 0.0 else math.sqrt(unexplained)
        mean[row] = mu
        variance[row] = e + sigma * sigma
        indep[row] = sigma
    sens[batch.scatter] = blended
    return w


def maximum_of(canonicals: list[Canonical]) -> Canonical:
    """Fold a list of canonicals through pairwise Clark max.

    Folding order follows the list; SSTA callers pass fanins in a fixed
    (topological) order so results are deterministic.
    """
    if not canonicals:
        raise TimingError("maximum_of() needs at least one operand")
    acc = canonicals[0]
    for c in canonicals[1:]:
        acc = acc.maximum(c)
    return acc
