"""A fixed reference loop that gauges how fast the machine runs right now.

The machine the benchmark runs on shares its cores with other tenants and
changes speed by 20-60% in phases that last from seconds to minutes, for
the same program on the same inputs.  The benchmark therefore times this
loop right before every round and expresses the round's host time in units
of it: a round that takes 1.3 s while the loop takes 1.3 times its nominal
time counts as 1 s.  The loop is the same in every run, whatever the seed,
and calls no code of the program, so a change to the program moves the
normalised figures by exactly as much as it moves the program's own time;
only the machine's speed cancels.

The loop mixes what the simulator's host time is made of: interpreter work
(dict and list updates, integer arithmetic, small sorts) and many small numpy
calls on arrays of a few hundred elements (``searchsorted``, ``cumsum``,
``concatenate``, ``where``).
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the loop takes at the reference speed, a typical figure on the
#: machine of the README.  Normalised times are in these seconds.
NOMINAL_SECONDS = 0.13

_RNG = np.random.default_rng(0)
_KEYS = _RNG.integers(0, 1 << 20, size=4096).astype(np.int64)
_SORTED = np.sort(_RNG.integers(0, 1 << 20, size=4096).astype(np.int64))


def _interpreter_work(n: int = 130_000) -> int:
    table: dict = {}
    items = []
    acc = 0
    for i in range(n):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        items.append(key)
        if len(items) == 512:
            items.sort()
            acc += items[256]
            items.clear()
    return acc + sum(table.values())


def _array_work(n: int = 1_800) -> int:
    acc = 0
    for i in range(n):
        found = np.searchsorted(_SORTED, _KEYS[: 256 + (i % 7) * 64])
        total = np.cumsum(found)
        both = np.concatenate((total, found))
        acc += int(np.where(both & 1, both, -both)[-1])
    return acc


#: What the loop computes; checked on every call, so the loop cannot be
#: skipped or changed without notice.
_EXPECTED = (_interpreter_work(), _array_work())


def reference_seconds() -> float:
    """Host seconds one pass of the reference loop takes now."""
    start = time.perf_counter()
    got = (_interpreter_work(), _array_work())
    seconds = time.perf_counter() - start
    if got != _EXPECTED:
        raise RuntimeError(f"reference loop computed {got}, expected {_EXPECTED}")
    return seconds
