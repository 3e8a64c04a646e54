"""Standard-normal quantile on scalars, bit-identical to SciPy.

:func:`ndtri` is a line-for-line port of the Cephes routine ``ndtri.c``
(with its ``polevl`` and ``p1evl``), the code ``scipy.special.ndtri``
compiles.  It runs on :mod:`math`'s ``log`` and ``sqrt``, so the flows
take the yield target's z-score and the Wilkinson leakage percentile
without importing SciPy.  Each operation runs in Cephes' order, which
keeps every result bit for bit equal to SciPy's ufunc;
``tests/test_normal.py`` holds the two to each other and to literal bit
patterns.  Array callers, and the scalar CDFs off the flows' path, keep
SciPy's compiled ufuncs.
"""

from __future__ import annotations

import math
from typing import Sequence

#: exp(-2): ``ndtri``'s switch between the central and the tail expansions.
_EXPM2 = 0.13533528323661269189
#: sqrt(2 pi).
_S2PI = 2.50662827463100050242

# ndtri: central expansion on |y - 1/2| <= 1/2 - exp(-2).
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# ndtri: tail expansion in z = 1/sqrt(-2 log y) for 2 <= 1/z < 8.
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# ndtri: tail expansion for 8 <= 1/z (y < exp(-32)).
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef: Sequence[float]) -> float:
    """Horner's rule from ``coef[0]``, the highest power."""
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _p1evl(x: float, coef: Sequence[float]) -> float:
    """:func:`_polevl` with an implied leading coefficient of 1."""
    acc = x + coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def ndtri(y0: float) -> float:
    """Standard-normal quantile: the ``x`` whose normal CDF is ``y0``.

    0 maps to -inf, 1 to +inf; a ``y0`` outside [0, 1] gives NaN.
    """
    y = float(y0)
    if y == 0.0:  # lint: ignore[RPR402] cephes' exact endpoint: the quantile of 0 is -inf
        return -math.inf
    if y == 1.0:  # lint: ignore[RPR402] cephes' exact endpoint: the quantile of 1 is +inf
        return math.inf
    if y < 0.0 or y > 1.0:
        return math.nan
    negate = True
    if y > 1.0 - _EXPM2:
        y = 1.0 - y
        negate = False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x
