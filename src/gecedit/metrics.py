"""Scoring: span-edit extraction, untyped precision/recall/F0.5, and GLEU."""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from gecedit._align_py import OP_DEL, OP_INS, OP_KEEP
from gecedit.alignment import align_ops

SpanEdit = tuple[int, int, str]


def extract_spans(source: Sequence[str], other: Sequence[str]) -> set[SpanEdit]:
    """Span edits turning ``source`` into ``other``.

    Each edit is (start, end, replacement) with half-open source indices and
    a space-joined replacement string; adjacent differing regions are merged
    into one edit.
    """
    if len(source) == 0:
        raise ValueError("extract_spans requires a non-empty source sentence")
    ops = align_ops(list(source), list(other))
    edits: list[tuple[int, int, list[str]]] = []
    pos = 0  # number of source tokens consumed
    for op, _i, j in ops:
        if op == OP_KEEP:
            pos += 1
            continue
        if op == OP_INS:
            start, end, repl = pos, pos, [other[j]]
        elif op == OP_DEL:
            start, end, repl = pos, pos + 1, []
            pos += 1
        else:  # substitution
            start, end, repl = pos, pos + 1, [other[j]]
            pos += 1
        if edits and edits[-1][1] == start:
            prev = edits[-1]
            edits[-1] = (prev[0], end, prev[2] + repl)
        else:
            edits.append((start, end, repl))
    return {(s, e, " ".join(r)) for s, e, r in edits}


def f_beta(precision: float, recall: float, beta: float = 0.5) -> float:
    b2 = beta * beta
    denom = b2 * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + b2) * precision * recall / denom


class F05Accumulator:
    """Pools per-sentence edit matches corpus-wide before taking ratios."""

    def __init__(self) -> None:
        self.tp = 0
        self.n_hyp = 0
        self.n_ref = 0

    def add(self, hyp_edits: set[SpanEdit], ref_edits: set[SpanEdit]) -> None:
        self.tp += len(hyp_edits & ref_edits)
        self.n_hyp += len(hyp_edits)
        self.n_ref += len(ref_edits)

    def result(self) -> dict[str, float]:
        if self.n_hyp == 0:
            precision = 1.0 if self.n_ref == 0 else 0.0
        else:
            precision = self.tp / self.n_hyp
        if self.n_ref == 0:
            recall = 1.0 if self.n_hyp == 0 else 0.0
        else:
            recall = self.tp / self.n_ref
        return {"P": precision, "R": recall, "F0.5": f_beta(precision, recall)}


def _ngram_counts(tokens: Sequence[str], n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for gram in zip(*(tokens[k:] for k in range(n))):
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _reference_rows(
    source: Sequence[str],
    hypothesis: Sequence[str],
    refs: Sequence[Sequence[str]],
    n_max: int,
) -> list[list[int]]:
    """One integer row per reference of a sentence: the reference length,
    then for each order 1..n_max the hypothesis n-gram matches minus the
    penalty, floored at 0.  The hypothesis and source n-grams are counted
    once and shared by all references.

    With ``h``, ``s`` and ``r`` an n-gram's count in the hypothesis, source
    and reference, it matches ``min(h, r)`` times and is penalized
    ``min(h, max(s - r, 0))`` times: the reference changed it away from the
    source but the hypothesis kept it.
    """
    orders = range(1, n_max + 1)
    # per order, each hypothesis n-gram with its hypothesis and source counts
    hyp_grams = []
    for n in orders:
        src_counts = _ngram_counts(source, n)
        hyp_grams.append(
            [(gram, h, src_counts.get(gram, 0)) for gram, h in _ngram_counts(hypothesis, n).items()]
        )
    rows = []
    for ref in refs:
        row = [len(ref)]
        for n, grams in zip(orders, hyp_grams):
            r_counts = _ngram_counts(ref, n)
            score = 0
            for gram, h, s in grams:
                r = r_counts.get(gram, 0)
                score += h if h < r else r
                if s > r:
                    score -= h if h < s - r else s - r
            row.append(score if score > 0 else 0)
        rows.append(row)
    return rows


def _picks(rng: random.Random, n_refs: Sequence[int], draws: int) -> list[int]:
    """The reference picks of ``draws`` draws, draw after draw: one per
    sentence, below its reference count, from the calls CPython's
    ``rng.randrange(k)`` makes itself: ``k.bit_length()`` random bits, drawn
    again while they reach ``k``."""
    getrandbits = rng.getrandbits
    picks: list[int] = []
    append = picks.append
    for k, bits in [(k, k.bit_length()) for k in n_refs] * draws:
        r = getrandbits(bits)
        while r >= k:
            r = getrandbits(bits)
        append(r)
    return picks


def _draw_scores(sums: np.ndarray, hyp_len: int, den: Sequence[int]) -> list[float]:
    """GLEU of each single-reference draw in a block: row ``d`` of the int64
    ``sums`` adds up the chosen reference row of every sentence in draw ``d``;
    ``hyp_len`` and ``den`` depend on the hypotheses only.

    The logarithm of an order's precision depends only on its numerator, so
    it is taken once per distinct numerator; a zero numerator's is -inf,
    which gives its draw exp(-inf) = 0.0.  The orders are added in order,
    elementwise, which rounds as the scalar adds do.
    """
    if hyp_len == 0:  # then no order has n-grams either
        return [0.0] * len(sums)
    orders = [n for n in range(len(den)) if den[n]]
    log_sum = np.zeros(len(sums))
    for n in orders:
        nums, inverse = np.unique(sums[:, 1 + n], return_inverse=True)
        logs = [math.log(v / den[n]) if v else -math.inf for v in nums.tolist()]
        log_sum += np.array(logs)[inverse]
    bp = np.minimum(0.0, 1.0 - sums[:, 0] / hyp_len)
    return [math.exp(x) for x in (bp + log_sum / len(orders)).tolist()]


# Draws whose picked rows are gathered at once: at most this many rows, so the
# gather's memory does not grow with the corpus.
_GATHER_ROWS = 1 << 16


def gleu(
    sources: Sequence[Sequence[str]],
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[Sequence[str]]],
    n_max: int = 4,
    seed: int = 0,
    samples: int = 500,
) -> float:
    """Corpus-level GLEU in [0, 1].

    Modified n-gram precision with source-kept n-grams subtracted, geometric
    mean over orders 1..n_max, BLEU brevity penalty.  With multiple
    references per sentence the score is the mean over ``samples`` seeded
    single-reference draws: draw after draw, each sentence picks reference
    ``random.Random(seed).randrange(k)`` of its ``k``, and the scores equal
    that formulation's to the bit.  The picks come from the generator's own
    ``getrandbits`` calls, as ``randrange`` makes them.  The n-gram
    statistics of every (sentence, reference) pair are counted once, in
    plain dicts, into an integer row; a draw's score needs only the sum of
    its picked rows, which an int64 gather computes exactly for a block of
    draws at a time, and one routine scores the block.  A corpus with one
    reference per sentence is scored as a single draw.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if len(hypotheses) == 0:
        raise ValueError("empty hypothesis stream")
    if not (len(sources) == len(hypotheses) == len(references)):
        raise ValueError("sources, hypotheses, and references must be equal length")
    for i, refs in enumerate(references):
        if len(refs) < 1:
            raise ValueError(f"sentence {i} has no reference")
    hyp_len = sum(len(hyp) for hyp in hypotheses)
    den = [sum(max(len(hyp) + 1 - n, 0) for hyp in hypotheses) for n in range(1, n_max + 1)]
    n_refs = [len(refs) for refs in references]
    # every (sentence, reference) row, each sentence's rows in turn
    table = np.array(
        [
            row
            for src, hyp, refs in zip(sources, hypotheses, references)
            for row in _reference_rows(src, hyp, refs, n_max)
        ],
        dtype=np.int64,
    )
    if max(n_refs) == 1:
        return _draw_scores(table.sum(axis=0, keepdims=True), hyp_len, den)[0]
    first = np.cumsum(n_refs) - n_refs  # each sentence's first row
    block = max(1, _GATHER_ROWS // len(n_refs))
    rng = random.Random(seed)
    total = 0.0
    for start in range(0, samples, block):
        draws = min(block, samples - start)
        picks = np.fromiter(_picks(rng, n_refs, draws), np.intp).reshape(draws, len(n_refs))
        for score in _draw_scores(table[picks + first].sum(axis=1), hyp_len, den):
            total += score
    return total / samples
