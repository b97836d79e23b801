"""Pure-Python token alignment kernel.

The minimal-cost monotone alignment used by the edit tagger: Levenshtein over
tokens with unit insert/delete cost and a character-overlap discount for
substitutions, so that similar tokens pair up instead of being deleted and
re-inserted.  This is the reference: the C kernel in ``_align_fast.c`` ports
it and must give identical output.

The DP reads substitution costs from a table built once per call with one
entry per distinct (source token, target token) pair.  Equal tokens cost 0.0.
A pair costs 1.0 without an LCS when either of two exact upper bounds on the
LCS (the shorter token's length, or the size of the two tokens' character
multiset intersection) already rules out reaching the similarity threshold.
The remaining pairs get their LCS from the bit-parallel recurrence over Python
ints.  The cost formula, the DP recurrence, its tie-breaking and the
backtrace are those of a kernel that runs a full character LCS in every DP
cell, which the tests keep as the reference, so the output is identical.
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


def _cost_rows(src: Sequence[str], tgt: Sequence[str]) -> dict[str, list[float]]:
    """Substitution cost of each distinct source token at every target position.

    The cost is 0.0 for equal tokens and otherwise ``1.0 - sim / 2.0`` when
    ``sim = 2 * LCS / (la + lb)`` reaches 0.5, else 1.0.  Each distinct
    (source, target) token pair is costed once.  A pair whose length bound
    ``min(la, lb)`` or character-bag bound is below ``(la + lb) / 4`` costs
    1.0 without an LCS: with integers ``4 * ub <= la + lb - 1`` the true
    ``sim`` is at most ``0.5 - 1 / (2 * (la + lb))``, far more than half an
    ulp below 0.5, so the correctly rounded float ``sim`` is below 0.5 too.
    """
    index: dict[tuple[str, int], int] = {}
    tgt_info = [(b, len(b), _bag_bits(b, index)) for b in dict.fromkeys(tgt)]
    rows: dict[str, list[float]] = {}
    for a in src:
        if a in rows:
            continue
        la = len(a)
        bag_a = _bag_bits(a, index)
        masks = None
        costs: dict[str, float] = {}
        for b, lb, bag_b in tgt_info:
            total = la + lb
            if a == b:
                c = 0.0
            elif 4 * (la if la < lb else lb) < total or 4 * (bag_a & bag_b).bit_count() < total:
                c = 1.0
            else:
                if masks is None:
                    masks = _char_masks(a)
                sim = 2.0 * _lcs_bits(masks, la, b) / total
                c = 1.0 - sim / 2.0 if sim >= 0.5 else 1.0
            costs[b] = c
        rows[a] = [costs[b] for b in tgt]
    return rows


def align_ops(src: Sequence[str], tgt: Sequence[str]) -> list[tuple[int, int, int]]:
    """Minimal-cost monotone edit script between two token sequences.

    Returns (op, src_index, tgt_index) triples in left-to-right order, with -1
    for the side an op does not touch.  Ties are broken preferring
    keep/substitute, then delete, then insert.
    """
    n, m = len(src), len(tgt)
    rows = _cost_rows(src, tgt)
    width = m + 1
    opmat = bytearray((n + 1) * width)
    for j in range(1, width):
        opmat[j] = OP_INS
    prev = [float(j) for j in range(width)]
    cur = [0.0] * width
    for i in range(1, n + 1):
        row = rows[src[i - 1]]
        cur[0] = float(i)
        base = i * width
        opmat[base] = OP_DEL
        for j in range(1, width):
            c = row[j - 1]
            best = prev[j - 1] + c
            op = OP_KEEP if c == 0.0 else OP_SUB
            t = prev[j] + 1.0
            if t < best:
                best = t
                op = OP_DEL
            t = cur[j - 1] + 1.0
            if t < best:
                best = t
                op = OP_INS
            cur[j] = best
            opmat[base + j] = op
        prev, cur = cur, prev

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
