"""Scoring: span-edit extraction, untyped precision/recall/F0.5, and GLEU."""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Sequence

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
        self.sentences = 0

    def add(self, hyp_edits: set[SpanEdit], ref_edits: set[SpanEdit]) -> None:
        self.tp += len(hyp_edits & ref_edits)
        self.n_hyp += len(hyp_edits)
        self.n_ref += len(ref_edits)
        self.sentences += 1

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


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[k : k + n]) for k in range(len(tokens) - n + 1))


def _reference_rows(
    source: Sequence[str],
    hypothesis: Sequence[str],
    refs: Sequence[Sequence[str]],
    n_max: int,
) -> list[tuple[int, ...]]:
    """One integer row per reference of a sentence: the reference length,
    then for each order 1..n_max the hypothesis n-gram matches minus the
    penalty, floored at 0.  The hypothesis and source n-grams are counted
    once and shared by all references."""
    orders = range(1, n_max + 1)
    hyp_counts = [_ngram_counts(hypothesis, n) for n in orders]
    src_counts = [_ngram_counts(source, n) for n in orders]
    rows = []
    for ref in refs:
        row = [len(ref)]
        for n, h, s in zip(orders, hyp_counts, src_counts):
            r = _ngram_counts(ref, n)
            matches = sum((h & r).values())
            # n-grams the reference changed away from the source but the
            # hypothesis kept are penalized
            penalty = sum((h & (s - r)).values())
            row.append(max(matches - penalty, 0))
        rows.append(tuple(row))
    return rows


def _gleu_from_rows(
    picked: Sequence[tuple[int, ...]], hyp_len: int, den: Sequence[int]
) -> float:
    """GLEU of one single-reference draw: ``picked`` holds the chosen
    reference row of every sentence; ``hyp_len`` and ``den`` depend on the
    hypotheses only."""
    if hyp_len == 0:
        return 0.0
    ref_len, *num = (sum(column) for column in zip(*picked))
    log_sum = 0.0
    orders = 0
    for n in range(len(den)):
        if den[n] == 0:
            continue
        if num[n] == 0:
            return 0.0
        log_sum += math.log(num[n] / den[n])
        orders += 1
    if orders == 0:
        return 0.0
    bp = min(0.0, 1.0 - ref_len / hyp_len)
    return math.exp(bp + log_sum / orders)


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
    single-reference draws.  The n-gram statistics of every (sentence,
    reference) pair are computed once; a draw only adds up integer rows.
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
    rows = [
        _reference_rows(src, hyp, refs, n_max)
        for src, hyp, refs in zip(sources, hypotheses, references)
    ]
    if all(len(r) == 1 for r in rows):
        return _gleu_from_rows([r[0] for r in rows], hyp_len, den)
    rng = random.Random(seed)
    total = 0.0
    for _ in range(samples):
        picked = [r[rng.randrange(len(r))] for r in rows]
        total += _gleu_from_rows(picked, hyp_len, den)
    return total / samples
