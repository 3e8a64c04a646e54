"""``repro.pcg64.Generator`` draws what ``numpy.random.default_rng`` draws.

The clone builder and the annealer draw from the port, so every
generated circuit and every anneal depends on it matching NumPy call for
call.  Each seed runs a seeded plan of mixed calls on both generators,
and the port must return NumPy's result for every call.  Literal first
draws, captured from NumPy 2.4, pin the port on their own, so a later
NumPy that changed its streams would fail here instead of moving the
port with it.
"""

import random

import numpy as np
import pytest

from repro.pcg64 import Generator

SEEDS = [*range(300), 2**32, 2**64 + 7, 2**130, 2**256 - 1, np.int64(5), True]

#: ``integers`` bounds every plan may draw: the edges of the 32-bit
#: range, and powers of two, where the Lemire threshold is 0.
HIGHS = (1, 2, 3, 7, 37, 1000, 2**16, 2**30, 2**31, 2**31 + 1, 2**32 - 1, 2**32)
GEOMETRIC_PS = (1.0 / 3.0, 0.34, 0.5, 0.9, 1.0)
CALLS = 400


def plan(seed) -> list:
    """A seeded mix of calls: ``(method, argument)`` pairs."""
    rnd = random.Random(f"pcg64:{int(seed)}")
    calls = []
    for _ in range(CALLS):
        kind = rnd.random()
        if kind < 0.25:
            calls.append(("random", None))
        elif kind < 0.55:
            high = rnd.choice(HIGHS) if rnd.random() < 0.5 else rnd.randint(1, 2**32)
            calls.append(("integers", high))
        elif kind < 0.7:
            p = rnd.choice(GEOMETRIC_PS) if rnd.random() < 0.5 else rnd.uniform(1 / 3, 1)
            calls.append(("geometric", p))
        elif kind < 0.8:
            calls.append(("shuffle", rnd.randint(0, 30)))
        elif kind < 0.9:
            calls.append(("permutation", rnd.randint(0, 30)))
        else:
            n = rnd.randint(1, 400)
            calls.append(("choice", (n, rnd.randint(0, min(n, 24)))))
    # One large population per seed, around the tail-shuffle switch.
    n = rnd.randint(10_000, 20_000)
    size = n // 50 + rnd.choice((-1, 0, 1, 2, rnd.randint(-(n // 50), 60)))
    calls.insert(rnd.randrange(len(calls)), ("choice", (n, size)))
    return calls


def numpy_draws(rng, calls):
    for method, arg in calls:
        if method == "random":
            yield rng.random()
        elif method == "integers":
            yield int(rng.integers(arg))
        elif method == "geometric":
            yield int(rng.geometric(arg))
        elif method == "shuffle":
            items = list(range(arg))
            rng.shuffle(items)
            yield items
        elif method == "permutation":
            yield rng.permutation(arg).tolist()
        else:
            n, size = arg
            yield rng.choice(n, size, replace=False).tolist()


def port_draws(rng, calls):
    for method, arg in calls:
        if method == "random":
            yield rng.random()
        elif method == "integers":
            yield rng.integers(arg)
        elif method == "geometric":
            yield rng.geometric(arg)
        elif method in ("shuffle", "permutation"):
            items = list(range(arg))
            rng.shuffle(items)
            yield items
        else:
            n, size = arg
            yield rng.choice(range(n), size)


def test_every_seed_draws_what_numpy_draws():
    mismatched = []
    for seed in SEEDS:
        calls = plan(seed)
        want = list(numpy_draws(np.random.default_rng(seed), calls))
        # Stop at the first difference: a broken stream can stick on one
        # value, and a rejection loop would then spin on it.
        for i, got in enumerate(port_draws(Generator(seed), calls)):
            if got != want[i]:
                mismatched.append((seed, i, calls[i]))
                break
    assert mismatched == []


def test_choice_takes_the_population_items():
    population = [f"g{k}" for k in range(50)]
    picks = Generator(7).choice(population, 20)
    index = np.random.default_rng(7).choice(50, 20, replace=False).tolist()
    assert picks == [population[i] for i in index]


def test_geometric_stops_when_the_uniform_equals_the_running_sum():
    # p set to the first uniform: a search that continued on equality
    # would return 2.
    p = Generator(0).random()
    assert p >= 1.0 / 3.0
    assert Generator(0).geometric(p) == int(np.random.default_rng(0).geometric(p)) == 1


#: First draws per seed from NumPy 2.4: two ``random()``, ``integers``
#: at 37, 2**32 - 1 and 2**32, three ``geometric(0.5)``, a shuffle of
#: ``range(8)``, 4 picks of ``range(100)``, one more ``random()``.
PINNED = {
    0: (("0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2"), (11, 175979944, 323153949),
        (3, 4, 2), [3, 2, 0, 1, 4, 7, 5, 6], [38, 84, 54, 3], "0x1.b9f296742db6fp-1"),
    432: (("0x1.510e63a182a87p-1", "0x1.2dc5eeec08300p-1"), (35, 483345551, 3899229682),
          (1, 1, 1), [7, 2, 4, 3, 1, 5, 6, 0], [24, 3, 76, 92], "0x1.f77fb64557f4ap-1"),
    3540: (("0x1.e78b159440074p-1", "0x1.bf59beaa7c9a6p-2"), (7, 3900607444, 3528956433),
           (1, 1, 2), [1, 7, 3, 2, 4, 5, 0, 6], [64, 25, 98, 1], "0x1.022b349e2da50p-2"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_first_draws_are_pinned(seed):
    rng = Generator(seed)
    uniforms = tuple(rng.random().hex() for _ in range(2))
    ints = (rng.integers(37), rng.integers(2**32 - 1), rng.integers(2**32))
    geometrics = tuple(rng.geometric(0.5) for _ in range(3))
    items = list(range(8))
    rng.shuffle(items)
    picks = rng.choice(range(100), 4)
    assert (uniforms, ints, geometrics, items, picks, rng.random().hex()) == PINNED[seed]


@pytest.mark.parametrize("seed, error", [
    (-1, ValueError), (1.5, TypeError), ("7", TypeError), (None, TypeError),
])
def test_rejects_what_default_rng_rejects_or_no_caller_passes(seed, error):
    with pytest.raises(error):
        Generator(seed)
    if seed is not None:  # NumPy seeds itself from the OS on None
        with pytest.raises(error):
            np.random.default_rng(seed)


@pytest.mark.parametrize("call", [
    lambda rng: rng.integers(0),
    lambda rng: rng.integers(2**32 + 1),
    lambda rng: rng.geometric(0.3),
    lambda rng: rng.geometric(1.5),
    lambda rng: rng.choice(range(3), 4),
    lambda rng: rng.choice(range(3), -1),
], ids=["integers-0", "integers-2**32+1", "geometric-inversion", "geometric-above-1",
        "choice-too-many", "choice-negative"])
def test_rejects_calls_outside_the_ported_range(call):
    with pytest.raises(ValueError):
        call(Generator(0))
