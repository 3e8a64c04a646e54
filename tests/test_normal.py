"""The scalar normal quantile holds SciPy's bits.

:mod:`repro.normal` ports the Cephes code that ``scipy.special.ndtri``
compiles.  These cases hold the port to SciPy's ufunc bit for bit,
comparing ``uint64`` views so signed zeros and NaN signs count, on:

* a seeded grid of 250k quantiles: uniform, tails down to 1e-300 and
  up to 1 - 1e-16;
* 300 ulps on each side of every branch point;
* the edges: 0, -0.0, 1, +-inf, NaN, out of range, 5e-324.

Literal ``float.hex`` patterns captured from SciPy 1.17.1 pin the port
even if a later SciPy changes its bits.
"""

import math

import numpy as np
import pytest
from scipy import special

from repro.normal import ndtri

#: Where ``ndtri`` switches expansion: exp(-2) and 1 - exp(-2) (central
#: versus tail), exp(-32) (the two tail fits) and 1/2 (the sign).
QUANTILE_BRANCHES = (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 0.5)

QUANTILE_EDGES = [
    0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, -math.nan,
    -0.5, -5e-324, 1.5, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 5e-324,
]

#: ``float.hex`` of ``scipy.special.ndtri(q)`` under SciPy 1.17.1.
NDTRI_PINS = {
    5e-324: "-0x1.33bd3f27fcd03p+5",
    1e-300: "-0x1.286074064c26ep+5",
    1e-20: "-0x1.2865170b43a4dp+3",
    1e-14: "-0x1.e9a3e40341036p+2",
    1e-05: "-0x1.10f3f8843a3d9p+2",
    0.01: "-0x1.29c5c4630ff0ep+1",
    0.05: "-0x1.a515209676abep+0",
    0.1: "-0x1.4813c36e26d32p+0",
    0.1353352832366127: "-0x1.19fd30bc4de02p+0",
    0.25: "-0x1.5956b87528a49p-1",
    0.5: "0x0.0p+0",
    0.75: "0x1.5956b87528a49p-1",
    0.9: "0x1.4813c36e26d32p+0",
    0.95: "0x1.a515209676abbp+0",
    0.975: "0x1.f5c0331eeff84p+0",
    0.99: "0x1.29c5c4630ff0ep+1",
    0.999: "0x1.8b8cbb7204470p+1",
    0.999999: "0x1.30381a97985efp+2",
    0.999999999999: "0x1.c2350895b2ea4p+2",
}


def around(center: float, n: int = 300) -> np.ndarray:
    """``center`` and the ``n`` doubles on each side of it."""
    bits = np.float64(center).view(np.int64) + np.arange(-n, n + 1)
    return bits.view(np.float64)


def quantile_grid() -> np.ndarray:
    rng = np.random.default_rng(20260601)
    return np.concatenate([
        rng.random(120_000),
        10.0 ** -rng.uniform(0.0, 300.0, 65_000),
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 65_000),
        *(around(q) for q in QUANTILE_BRANCHES),
        QUANTILE_EDGES,
    ])


def test_ndtri_matches_scipy_bitwise():
    q = quantile_grid()
    got = np.array([ndtri(v) for v in q.tolist()]).view(np.uint64)
    want = special.ndtri(q).view(np.uint64)
    wrong = np.flatnonzero(got != want)
    assert wrong.size == 0, (
        f"{wrong.size} of {q.size} differ, first at "
        f"{[float(v).hex() for v in q[wrong[:5]]]}"
    )


@pytest.mark.parametrize("q", sorted(NDTRI_PINS))
def test_ndtri_pinned(q):
    assert ndtri(q).hex() == NDTRI_PINS[q]


@pytest.mark.parametrize("q", [np.float64(0.95), 1, math.nan], ids=repr)
def test_returns_a_python_float(q):
    assert type(ndtri(q)) is float
