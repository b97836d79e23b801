"""Pure-Python token alignment kernel.

The minimal-cost monotone alignment used by the edit tagger: Levenshtein over
tokens with unit insert/delete cost and a character-overlap discount for
substitutions, so that similar tokens pair up instead of being deleted and
re-inserted.  This is the reference: the C kernel in ``_align_fast.c`` fills
the whole DP table and must give identical output.

This kernel fills only a band of the table (Ukkonen, 1985).  A path through
cell ``(i, j)`` makes at least ``|d| + |d - (n - m)|`` inserts and deletes,
with ``d = i - j``, and each adds exactly 1.0 to a float sum that never
decreases, so its cost is at least that count.  The first pass fills the
cells where the count is at most ``|n - m| + 2``.  If the band's cost is
below the count of the nearest diagonal outside it, no optimal path leaves
the band, and every cell on the full table's backtrace keeps its value and
its tie-broken op.  Otherwise one more pass fills the cells whose count is at
most the band's cost, which passes that test.

Substitution costs are computed on first use by an in-band cell and memoised
per call by (source token, target token).  Equal tokens cost 0.0.  A pair
costs 1.0 without an LCS when either of two exact upper bounds on the LCS
(the shorter token's length, or the size of the two tokens' character
multiset intersection) already rules out reaching the similarity threshold.
The remaining pairs get their LCS from the bit-parallel recurrence over
Python ints.  The cost formula, the DP recurrence, its tie-breaking and the
backtrace are those of a kernel that runs a full character LCS in every cell
of the whole table, which the tests keep as the reference, so the output is
identical.
"""

from __future__ import annotations

from typing import Sequence

OP_KEEP = 0
OP_SUB = 1
OP_DEL = 2
OP_INS = 3


def _char_masks(a: str) -> dict[str, int]:
    """Bit ``k`` of ``masks[ch]`` is set when ``a[k] == ch``."""
    masks: dict[str, int] = {}
    bit = 1
    for ch in a:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    return masks


def _lcs_bits(masks: dict[str, int], la: int, b: str) -> int:
    """LCS length of ``b`` and the ``la``-character string ``masks`` came from.

    Bit-parallel recurrence (Allison & Dix, 1986; Hyyrö, 2004): the zero bits
    of ``v`` among its low ``la`` bits count the LCS.  Carries past bit
    ``la - 1`` never flow back down, so masking once at the end suffices.
    """
    v = -1
    for ch in b:
        u = v & masks.get(ch, 0)
        v = (v + u) | (v - u)
    return la - (v & ((1 << la) - 1)).bit_count()


def _bag_bits(a: str, index: dict[tuple[str, int], int]) -> int:
    """The characters of ``a`` as a set of (char, occurrence number) pairs.

    The set is encoded as an int with one bit per pair, numbered by ``index``,
    which grows as new pairs appear; tokens compared with each other must share
    one ``index``.  The popcount of two such sets' intersection is the size of
    the multiset intersection of the two strings' characters, an upper bound on
    their LCS length.
    """
    seen: dict[str, int] = {}
    bits = 0
    for ch in a:
        k = seen.get(ch, 0)
        seen[ch] = k + 1
        bits |= 1 << index.setdefault((ch, k), len(index))
    return bits


def _sub_cost(a: str, b: str, bags: dict[str, int], index: dict[tuple[str, int], int]) -> float:
    """Substitution cost of source token ``a`` by target token ``b``.

    The cost is 0.0 for equal tokens and otherwise ``1.0 - sim / 2.0`` when
    ``sim = 2 * LCS / (la + lb)`` reaches 0.5, else 1.0.  A pair whose length
    bound ``min(la, lb)`` or character-bag bound is below ``(la + lb) / 4``
    costs 1.0 without an LCS: with integers ``4 * ub <= la + lb - 1`` the true
    ``sim`` is at most ``0.5 - 1 / (2 * (la + lb))``, far more than half an
    ulp below 0.5, so the correctly rounded float ``sim`` is below 0.5 too.
    ``bags`` memoises each token's character bag over ``index``; a bag is
    built only once the length bound has passed.
    """
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    total = la + lb
    if 4 * (la if la < lb else lb) < total:
        return 1.0
    bag_a = bags.get(a)
    if bag_a is None:
        bag_a = bags[a] = _bag_bits(a, index)
    bag_b = bags.get(b)
    if bag_b is None:
        bag_b = bags[b] = _bag_bits(b, index)
    if 4 * (bag_a & bag_b).bit_count() < total:
        return 1.0
    sim = 2.0 * _lcs_bits(_char_masks(a), la, b) / total
    return 1.0 - sim / 2.0 if sim >= 0.5 else 1.0


_INF = float("inf")


def _band_dp(
    src: Sequence[str],
    tgt: Sequence[str],
    bound: int,
    costs: dict[str, dict[str, float]],
    bags: dict[str, int],
    index: dict[tuple[str, int], int],
) -> tuple[float, bytearray]:
    """The DP over the cells ``(i, j)`` whose indel lower bound
    ``|d| + |d - (n - m)|``, with ``d = i - j``, is at most ``bound``.

    Returns the cost at ``(n, m)`` and the op of every cell, laid out as in
    the full ``(n + 1) x (m + 1)`` table; cells outside the band count as
    unreachable.  ``costs`` (source token -> target token -> cost), ``bags``
    and ``index`` are the caller's memos, shared by both passes.
    """
    n, m = len(src), len(tgt)
    delta = n - m
    slack = (bound - abs(delta)) // 2
    dlo = min(0, delta) - slack  # the band is the diagonals dlo <= i - j <= dhi
    dhi = max(0, delta) + slack
    width = m + 1
    opmat = bytearray((n + 1) * width)
    # The band's right edge never moves left, so a column just past it has not
    # been written in any row and still holds _INF.
    prev = [_INF] * width
    cur = [_INF] * width
    jhi = min(m, -dlo)
    prev[0] = 0.0
    for j in range(1, jhi + 1):
        prev[j] = float(j)
        opmat[j] = OP_INS
    for i in range(1, n + 1):
        a = src[i - 1]
        row = costs.get(a)
        if row is None:
            row = costs[a] = {}
        base = i * width
        jlo = i - dhi
        if jlo <= 0:
            cur[0] = left = float(i)
            opmat[base] = OP_DEL
            jlo = 1
        else:
            left = _INF  # the cell left of the band
        jhi = i - dlo
        if jhi > m:
            jhi = m
        diag = prev[jlo - 1]
        for j in range(jlo, jhi + 1):
            b = tgt[j - 1]
            c = row.get(b)
            if c is None:
                c = row[b] = _sub_cost(a, b, bags, index)
            up = prev[j]
            best = diag + c
            op = OP_KEEP if c == 0.0 else OP_SUB
            t = up + 1.0
            if t < best:
                best = t
                op = OP_DEL
            t = left + 1.0
            if t < best:
                best = t
                op = OP_INS
            cur[j] = left = best
            diag = up
            opmat[base + j] = op
        prev, cur = cur, prev
    return prev[m], opmat


def align_ops(src: Sequence[str], tgt: Sequence[str]) -> list[tuple[int, int, int]]:
    """Minimal-cost monotone edit script between two token sequences.

    Returns (op, src_index, tgt_index) triples in left-to-right order, with -1
    for the side an op does not touch.  Ties are broken preferring
    keep/substitute, then delete, then insert.
    """
    n, m = len(src), len(tgt)
    memo: tuple[dict, dict, dict] = ({}, {}, {})
    bound = abs(n - m) + 2
    cost, opmat = _band_dp(src, tgt, bound, *memo)
    if not cost < bound + 2:  # a path that leaves the band makes bound + 2 indels or more
        cost, opmat = _band_dp(src, tgt, int(cost), *memo)

    width = m + 1
    out: list[tuple[int, int, int]] = []
    i, j = n, m
    while i > 0 or j > 0:
        op = opmat[i * width + j]
        if op == OP_INS:
            j -= 1
            out.append((OP_INS, -1, j))
        elif op == OP_DEL:
            i -= 1
            out.append((OP_DEL, i, -1))
        else:
            i -= 1
            j -= 1
            out.append((op, i, j))
    out.reverse()
    return out
