"""Machine-speed calibration for the benchmark's timings.

The benchmark's host shares its CPUs: the speed of the same code swings by
up to 2x in spells of seconds to minutes.  A calibration task is fixed work
that uses no quatype code; run beside the program's calls, it slows and
speeds up with them, so ``wall time * speed_scale(task, samples)`` reports
the program's cost at one reference speed.

Interpreter-bound and memory-bound code do not swing together, so there are
two tasks, and each workload names the one that tracks its own calls
(``corpus.Corpus.calibration``).  NOTES.md has the measurements.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# each task's time at the reference speed: about its median on the
# reference machine of NOTES.md.  A unit only; changing it rescales timings.
REFERENCE_S = {"interpreter": 0.0040, "memory": 0.0050}
MEMORY_SLOTS = 1 << 19  # int64 elements the memory task gathers: 4 MiB, past L2


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


_SMALL = np.arange(256, dtype=np.float64)
_MEMORY_ARRAYS = []  # (values, permutation), made on first use: 8 MiB that peak_rss_mb should not carry


def interpreter() -> float:
    """Wall seconds of a fixed task: an integer loop, small-object and dict
    work, and small numpy array operations, with no quatype code.

    The host's speed swings by up to 2x in spells of seconds; a sample taken
    between two calls slows with them, so dividing the calls' times by
    nearby samples leaves the program's own cost.  The collector is off
    while it runs, so the size of the program's heap cannot change it.
    """
    a = _SMALL
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    for i in range(15000):
        acc += i * i % 7
    d = {}
    for i in range(2500):
        pair = _Pair(i, (i, i + 1))
        d[pair.b] = pair.a ^ (i >> 3)
    sorted(d.values())
    for _ in range(60):
        x = np.multiply.outer(a[:32], a[:32]).ravel()
        np.bitwise_xor(np.arange(1024), 5)
        x.sum()
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def memory() -> float:
    """Wall seconds of a random gather and an add over 4 MiB arrays, the
    access pattern of the dense product kernel at n = 11, 12."""
    if not _MEMORY_ARRAYS:
        _MEMORY_ARRAYS.append((np.arange(MEMORY_SLOTS, dtype=np.int64),
                               np.random.default_rng(0).permutation(MEMORY_SLOTS)))
    values, perm = _MEMORY_ARRAYS[0]
    t0 = time.perf_counter()
    x = values[perm]
    x += values
    x.sum()
    return time.perf_counter() - t0


TASKS = {"interpreter": interpreter, "memory": memory}


def speed_scale(task: str, samples: list[float]) -> float:
    """Factor taking wall times measured beside these samples of a task to
    the reference speed."""
    return REFERENCE_S[task] / statistics.median(samples)
