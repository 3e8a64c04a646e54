"""Seeded scalar draws, draw for draw equal to NumPy's ``default_rng(seed)``.

:class:`Generator` ports the slice of ``numpy.random.default_rng`` that
the clone builder (:func:`repro.circuit.generators.random_logic`) and
the annealer draw from: the ``SeedSequence`` that turns an integer seed
into four 64-bit words, the PCG64 (XSL-RR) bit generator they seed, and
NumPy's algorithm for ``random``, ``integers``, ``geometric``,
``shuffle`` and ``choice`` without replacement.  Every draw is computed
on Python ints in NumPy's order, so ``Generator(seed)`` returns exactly
what ``numpy.random.default_rng(seed)`` returns, call for call, and the
flows never load ``numpy.random`` for a few scalar draws per gate.
``tests/test_pcg64.py`` holds the two to each other and to literal
first draws.  Vectorized draws (the Monte-Carlo engines, Sobol, the
parallel plan, random placement) stay on NumPy.

What no caller reaches is rejected instead of ported: a negative or a
non-integer seed, ``integers`` beyond ``2**32`` and the inversion branch
of ``geometric`` (``p < 1/3``).
"""

from __future__ import annotations

import operator
from typing import List, MutableSequence, Sequence, TypeVar

_T = TypeVar("_T")

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_POOL_SIZE = 4

#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

#: ``geometric`` searches the CDF from this ``p`` up (NumPy's literal).
_GEOMETRIC_SEARCH = 0.333333333333333333333333

#: ``choice`` shuffles the tail of an index list, instead of running
#: Floyd's algorithm, above this population and ``len // 50`` picks.
_TAIL_SHUFFLE_POPULATION = 10000


def _seed_state(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as ints."""
    entropy = operator.index(seed)  # TypeError for a non-integer seed
    if entropy < 0:
        raise ValueError(  # lint: ignore[RPR404] default_rng raises ValueError for a negative seed
            f"seed must be non-negative, got {entropy}"
        )
    words = [entropy & _MASK32]
    entropy >>= 32
    while entropy:
        words.append(entropy & _MASK32)
        entropy >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = []
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return [out[2 * i] | out[2 * i + 1] << 32 for i in range(_POOL_SIZE)]


class Generator:
    """``numpy.random.default_rng(seed)``'s scalar draws, on Python ints."""

    __slots__ = ("_state", "_inc", "_high32")

    def __init__(self, seed: int) -> None:
        s0, s1, s2, s3 = _seed_state(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self._state = 0
        self._step()
        self._state = (self._state + (s0 << 64 | s1)) & _MASK128
        self._step()
        #: The high half of the last 64-bit draw, while it is unused.
        self._high32: int | None = None

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        self._step()
        state = self._state
        rot = state >> 122
        value = ((state >> 64) ^ state) & _MASK64
        return (value >> rot | value << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        high = self._high32
        if high is not None:
            self._high32 = None
            return high
        value = self._next64()
        self._high32 = value >> 32
        return value & _MASK32

    def random(self) -> float:
        """A double uniform on [0, 1)."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, high: int) -> int:
        """An int uniform on [0, high), for 1 <= high <= 2**32 (Lemire)."""
        if not 1 <= high <= 1 << 32:
            raise ValueError(  # lint: ignore[RPR404] a draw outside the port's range, as NumPy's bounds errors
                f"integers: high must be in 1..2**32, got {high}"
            )
        if high == 1:
            return 0
        if high == 1 << 32:
            return self._next32()
        m = self._next32() * high
        if m & _MASK32 < high:
            threshold = (_MASK32 - (high - 1)) % high
            while m & _MASK32 < threshold:
                m = self._next32() * high
        return m >> 32

    def geometric(self, p: float) -> int:
        """Trials to the first success, for 1/3 <= p <= 1 (CDF search)."""
        if not _GEOMETRIC_SEARCH <= p <= 1.0:
            raise ValueError(  # lint: ignore[RPR404] a draw outside the port's range, as NumPy's bounds errors
                f"geometric: p must be in [1/3, 1], got {p}"
            )
        x = 1
        total = prod = p
        q = 1.0 - p
        u = self.random()
        while u > total:
            prod *= q
            total += prod
            x += 1
        return x

    def _interval(self, high: int) -> int:
        """An int uniform on [0, high] by masked rejection."""
        mask = (1 << high.bit_length()) - 1
        while True:
            value = self._next32() & mask
            if value <= high:
                return value

    def shuffle(self, items: MutableSequence) -> None:
        """Shuffle ``items`` in place (also ``permutation(len(items))``)."""
        for i in range(len(items) - 1, 0, -1):
            j = self._interval(i)
            items[i], items[j] = items[j], items[i]

    def choice(self, population: Sequence[_T], size: int) -> List[_T]:
        """``size`` distinct items of ``population`` (``replace=False``)."""
        n = len(population)
        if not 0 <= size <= n:
            raise ValueError(  # lint: ignore[RPR404] NumPy's choice raises ValueError for this size
                f"choice: cannot take {size} of {n} items"
            )
        if n > _TAIL_SHUFFLE_POPULATION and size > n // 50:
            picks = list(range(n))
            for i in range(n - 1, max(n - size, 1) - 1, -1):
                j = self.integers(i + 1)
                picks[i], picks[j] = picks[j], picks[i]
            picks = picks[n - size:]
        else:
            # Floyd's algorithm, then a shuffle of the picks.
            picks = []
            taken = set()
            for j in range(n - size, n):
                value = self.integers(j + 1)
                if value in taken:
                    value = j
                taken.add(value)
                picks.append(value)
            for i in range(size - 1, 0, -1):
                j = self.integers(i + 1)
                picks[i], picks[j] = picks[j], picks[i]
        return [population[i] for i in picks]
