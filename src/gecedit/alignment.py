"""Token-level alignment between a source sentence and a target sentence.

The hot kernel is the C extension ``_align_fast`` when it was built, with
``_align_py`` as the pure-Python fallback and reference; both give the same
output.  The active backend is chosen once at import and reported in
``BACKEND`` (``"c"`` or ``"python"``).  Every caller goes through
``align_ops``, which trims the common token suffix before the kernel runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from gecedit._align_py import OP_DEL, OP_INS, OP_KEEP
from gecedit._align_py import align_ops as _align_ops_py

try:  # pragma: no cover - depends on how the package was built
    from gecedit._align_fast import align_ops as _align_ops_fast

    BACKEND = "c"
except ImportError:  # pragma: no cover
    _align_ops_fast = None
    BACKEND = "python"


def available_backends() -> dict[str, Callable]:
    """Alignment kernels importable in this environment, by name."""
    backends: dict[str, Callable] = {"python": _align_ops_py}
    if _align_ops_fast is not None:
        backends["c"] = _align_ops_fast
    return backends


def _suffix_trimmed(kernel: Callable) -> Callable:
    """``kernel`` with the longest common token suffix aligned by KEEP ops
    outside the DP.

    The result equals ``kernel``'s on the whole pair.  Where ``src[i-1] ==
    tgt[j-1]`` the kernel records KEEP unless a delete or an insert is strictly
    cheaper, and neither can be: by induction over the DP, in floating point
    as in exact arithmetic, ``D[i-1][j-1] <= D[i-1][j] + 1`` and
    ``D[i-1][j-1] <= D[i][j-1] + 1``.  So the backtrace from the last cell walks
    the common suffix diagonally into the cell where both prefixes end, and the
    DP up to that cell is the kernel's DP on the prefixes.  A common prefix cannot be trimmed the same
    way, because the kernel breaks ties toward the end of the pair:
    ``["a", "a"] -> ["a"]`` deletes the first ``"a"``, not the second.
    """

    def align_ops(src: Sequence[str], tgt: Sequence[str]) -> list[tuple[int, int, int]]:
        """Minimal-cost monotone edit script between two token sequences:
        (op, src_index, tgt_index) triples, -1 for the side an op does not touch."""
        n, m = len(src), len(tgt)
        k = 0
        while k < n and k < m and src[n - 1 - k] == tgt[m - 1 - k]:
            k += 1
        if not k:
            return kernel(src, tgt)
        ops = kernel(src[: n - k], tgt[: m - k])
        ops.extend((OP_KEEP, i, j) for i, j in zip(range(n - k, n), range(m - k, m)))
        return ops

    return align_ops


# What every caller uses: the active kernel, trimmed.
align_ops = _suffix_trimmed(_align_ops_fast or _align_ops_py)


@dataclass(frozen=True)
class AlignedPair:
    """A (source, target) pair plus per-source-token target spans.

    ``spans[i]`` is a half-open index range into ``target``; spans are in
    order, non-overlapping, and jointly cover the whole target.  Target tokens
    inserted between source tokens belong to the preceding source token's
    span; insertions before the first source token belong to span 0.
    """

    source: tuple[str, ...]
    target: tuple[str, ...]
    spans: tuple[tuple[int, int], ...]

    def span_tokens(self, i: int) -> list[str]:
        start, end = self.spans[i]
        return list(self.target[start:end])


def align(source: Sequence[str], target: Sequence[str]) -> AlignedPair:
    """Align source tokens to target spans via the minimal edit script."""
    if len(source) == 0:
        raise ValueError("cannot align an empty source sentence")
    ops = align_ops(list(source), list(target))
    counts = [0] * len(source)
    cursor = -1  # last source index that consumed a target token
    for op, i, _j in ops:
        if op == OP_INS:
            counts[max(cursor, 0)] += 1
        elif op != OP_DEL:
            counts[i] += 1
            cursor = i
        else:
            cursor = i
    spans = []
    pos = 0
    for c in counts:
        spans.append((pos, pos + c))
        pos += c
    assert pos == len(target)
    return AlignedPair(tuple(source), tuple(target), tuple(spans))
