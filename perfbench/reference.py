"""A fixed piece of work that measures how fast the machine is right now.

The shared machines the benchmark runs on change speed by up to 2x, in
spells from seconds to minutes, for every process alike.  run.py times this
work right before each command and divides the command's time by it, so that
a spell that slows both cancels out.  The work imitates the mix the commands
do, on fixed data and with the standard library and NumPy only, so that it
never changes with the version of gecedit under test:

* an edit-distance table over token lists (the alignment behind ``tag`` and
  ``score``),
* n-gram counting (GLEU and F0.5 in ``score``),
* string splitting, joining and dictionary look-ups (``noise``, file I/O),
* scatter-adds and exponentials on a weight-sized array (``train-toy``,
  ``predict``).
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

# Seconds this work takes on an unloaded 2-vCPU x86-64 VM (Python 3.11,
# NumPy 2.4).  Rates are scaled to this speed; see run.py.
NOMINAL_SECONDS = 0.004

_SOURCE = "he go to the school with a friends of him and they was late for class again".split()
_TARGET = "he goes to school with a friend of his and they were late for the class again".split()
_WEIGHTS = np.zeros((100, 2048))
_COLUMNS = np.arange(0, 2048, 7)


def _edit_distance(a: list[str], b: list[str]) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        row = [i]
        for j, y in enumerate(b, 1):
            row.append(min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = row
    return prev[-1]


def _ngrams(tokens: list[str]) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for n in range(1, 5) for i in range(len(tokens) - n + 1))


def work() -> float:
    """Do the fixed work once; returns a value that depends on all of it."""
    total = 0
    for _ in range(6):
        total += _edit_distance(_SOURCE, _TARGET)
        total += sum((_ngrams(_SOURCE) & _ngrams(_TARGET)).values())
        index = {word: k for k, word in enumerate(" ".join(_TARGET).split())}
        total += sum(index.get(word.lower(), 0) for word in _SOURCE)
    for _ in range(4):
        np.add.at(_WEIGHTS, (slice(None), _COLUMNS), 1e-3)
    total += float(np.exp(-_WEIGHTS[:, :256]).sum())
    return total


def seconds() -> float:
    """Wall seconds that ``work`` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
