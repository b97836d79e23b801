"""Desk-scale trainable multi-head tagger.

A deterministic hashed-feature linear encoder stands in for the heavy
contextual encoder; on top of it sit a correction head over the full edit
space plus binary heads for deletion, insertion, substitution, merge,
transformation, and detection.  The joint loss is the correction
cross-entropy plus a lambda-weighted sum of the auxiliary cross-entropies.
The head/loss machinery only sees "token context -> sparse vector", so the
encoder is swappable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
from dataclasses import dataclass
from itertools import accumulate, islice
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from gecedit.labels import BINARY_STREAMS, streams
from gecedit.tags import EditTag, TagSet

FEATURE_TEMPLATES_V1 = (
    "token",
    "lower",
    "char_bigrams",
    "char_trigrams",
    "neighbors_1",
    "neighbors_2",
    "boundary",
)

AUX_HEADS_5 = ("deletion", "insertion", "substitution", "detection")

_CLIP = 1e-300


class TrainingDivergedError(ValueError):
    def __init__(self, step: int, epoch: int):
        self.step = step
        self.epoch = epoch
        super().__init__(f"loss became NaN by the end of epoch {epoch} (update step {step})")


def _hash_feature(text: str, dim: int) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


# The features of a token in context: its own (``_local_strings``), one per
# neighbour role (offset, and the pad standing in past the sentence's edge),
# and "bos"/"eos" on the first and last token.
_ROLES = (("w-1", -1, "<s>"), ("w+1", 1, "</s>"), ("w-2", -2, "<s>"), ("w+2", 2, "</s>"))


def _local_strings(tok: str) -> list[str]:
    low = tok.lower()
    return [
        f"w0={tok}",
        f"lw0={low}",
        *(f"ng2={low[k:k + 2]}" for k in range(len(low) - 1)),
        *(f"ng3={low[k:k + 3]}" for k in range(len(low) - 2)),
    ]


# Tokens an encoder's memo holds before it is emptied: the distinct tokens of a
# 128-line block of ordinary text fit.  An entry takes 0.46 KB for words of about
# 6 characters and 0.64 KB for 20 (tracemalloc, dim 4096, the key included), so
# a full memo holds 0.9-1.3 MB.
_MEMO_TOKENS = 2048


class FeatureEncoder:
    """Deterministic hashed sparse features for a token in context.

    A token's hashes depend only on the token and ``dim``, so the encoder
    memoises them: ``encode`` hashes a token's strings on its first use and
    keeps them in a private memo, which it empties when the memo holds
    ``_MEMO_TOKENS`` tokens and another one is new.
    """

    def __init__(self, dim: int = 4096):
        if dim < 2:
            raise ValueError("feature dimension must be >= 2")
        self.dim = dim
        self._pads = np.asarray(
            [_hash_feature(f"{role}={pad}", dim) for role, _, pad in _ROLES], dtype=np.int64
        )
        self._bos = _hash_feature("bos", dim)
        self._eos = _hash_feature("eos", dim)
        self._memo: dict[str, tuple[np.ndarray, tuple[int, ...]]] = {}

    def feature_strings(self, tokens: Sequence[str], i: int) -> list[str]:
        n = len(tokens)
        feats = _local_strings(tokens[i])
        for role, offset, pad in _ROLES:
            j = i + offset
            feats.append(f"{role}={tokens[j] if 0 <= j < n else pad}")
        if i == 0:
            feats.append("bos")
        if i == n - 1:
            feats.append("eos")
        return feats

    def _hashes(self, tok: str) -> tuple[np.ndarray, tuple[int, ...]]:
        """A token's sorted distinct local feature hashes, and its hash in each
        neighbour role."""
        return (
            np.asarray(
                sorted({_hash_feature(s, self.dim) for s in _local_strings(tok)}), dtype=np.int64
            ),
            tuple(_hash_feature(f"{role}={tok}", self.dim) for role, _, _ in _ROLES),
        )

    def encode(self, sentences: Sequence[Sequence[str]]) -> "EncodedBlock":
        """Each position's sorted distinct feature hashes, for the tokens of
        ``sentences`` in turn: one sort and dedupe of (token, hash) keys."""
        memo = self._memo
        entries = []
        for tokens in sentences:
            for tok in tokens:
                entry = memo.get(tok)
                if entry is None:
                    if len(memo) >= _MEMO_TOKENS:
                        memo.clear()
                    entry = memo[tok] = self._hashes(tok)
                entries.append(entry)
        n, dim = len(entries), self.dim
        lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
        if not n:
            empty = np.empty(0, dtype=np.int64)
            return EncodedBlock(empty, empty, empty, lengths)
        token = np.arange(n, dtype=np.int64)
        ends = np.cumsum(lengths)
        first = np.repeat(ends - lengths, lengths)  # each token's sentence: its first token
        last = np.repeat(ends - 1, lengths)  # and its last
        roles = np.asarray([near for _, near in entries], dtype=np.int64)
        # A key is token * dim + hash: sorting the keys sorts each token's
        # hashes, and the distinct keys are each token's distinct hashes.
        local = [loc for loc, _ in entries]
        keys = [np.repeat(token * dim, list(map(len, local))) + np.concatenate(local)]
        for r, (_, offset, _) in enumerate(_ROLES):
            j = token + offset
            inside = (j >= first) & (j <= last)
            keys.append(token * dim + np.where(inside, roles[np.clip(j, 0, n - 1), r], self._pads[r]))
        whole = lengths > 0
        keys.append((ends - lengths)[whole] * dim + self._bos)
        keys.append((ends - 1)[whole] * dim + self._eos)
        keys = np.sort(np.concatenate(keys))
        distinct = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        keys = keys[distinct]
        tok_of = keys // dim
        sizes = np.bincount(tok_of, minlength=n)
        return EncodedBlock(keys - tok_of * dim, np.cumsum(sizes) - sizes, tok_of, lengths)


@dataclass
class EncodedBlock:
    """Concatenated sparse feature indices of a block of sentences.

    Token t, numbered over the block, has the features
    ``idx[starts[t]:starts[t + 1]]``; ``tok_of`` names the token of each entry
    of ``idx``, and ``lengths`` holds each sentence's token count.
    """

    idx: np.ndarray
    starts: np.ndarray
    tok_of: np.ndarray
    lengths: np.ndarray

    @property
    def n_tokens(self) -> int:
        return len(self.starts)

    def sentences(self) -> list["EncodedBlock"]:
        """Each sentence's own record, over views of this block's arrays."""
        tokens = [0, *accumulate(self.lengths.tolist())]  # where each sentence starts
        cols = np.append(self.starts, self.idx.size)[tokens].tolist()  # in entries of idx
        starts = self.starts - np.repeat(cols[:-1], self.lengths)
        tok_of = self.tok_of - np.repeat(tokens[:-1], np.diff(cols))
        return [
            EncodedBlock(
                self.idx[cols[k] : cols[k + 1]],
                starts[tokens[k] : tokens[k + 1]],
                tok_of[cols[k] : cols[k + 1]],
                self.lengths[k : k + 1],
            )
            for k in range(len(self.lengths))
        ]

    def lone(self) -> list[int]:
        """The tokens that are a sentence of their own, when the block holds
        more sentences than one (see ``_sums``)."""
        if len(self.lengths) < 2:
            return []
        return (np.cumsum(self.lengths) - 1)[self.lengths == 1].tolist()


def _aux_heads(heads: int) -> tuple[str, ...]:
    if heads not in (5, 7):
        raise ValueError("heads must be 5 or 7")
    return BINARY_STREAMS if heads == 7 else AUX_HEADS_5


def weight_rows(tags: int, heads: int) -> int:
    """The rows of the weight matrix of a ``heads``-head model over ``tags`` tags."""
    return tags + 2 * len(_aux_heads(heads))


class MultiHeadModel:
    """Linear softmax heads over hashed features; 5- or 7-head variants.

    ``weights`` stacks the heads' rows in ``head_names`` order: ``len(tagset)``
    correction rows, then two per auxiliary head.  ``W[name]`` views its rows.
    It is stored feature-major (Fortran order), so each feature column that a
    sentence gathers or updates is contiguous.
    """

    def __init__(
        self,
        tagset: TagSet,
        encoder: Optional[FeatureEncoder] = None,
        lam: float = 0.5,
        heads: int = 7,
    ):
        self.aux_heads = _aux_heads(heads)
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
        self.tagset = tagset
        self.encoder = encoder if encoder is not None else FeatureEncoder()
        self.lam = float(lam)
        self.heads = heads
        rows = weight_rows(len(tagset), heads)
        try:
            self.weights = np.zeros((rows, self.encoder.dim), order="F")
        except (MemoryError, ValueError):  # ValueError: too big for any address space
            raise MemoryError(
                f"cannot allocate the {rows} x {self.encoder.dim} weight matrix"
            ) from None

    @property
    def W(self) -> Mapping[str, np.ndarray]:
        """A read-only mapping from head name to a view of its rows of ``weights``."""
        return MappingProxyType(self.split(self.weights))

    @property
    def head_names(self) -> tuple[str, ...]:
        return ("correction",) + self.aux_heads

    def split(self, rows: np.ndarray) -> dict[str, np.ndarray]:
        """Views of each head's row block of an array laid out like ``weights``."""
        n = len(self.tagset)
        bounds = [0, *range(n, n + 2 * len(self.aux_heads) + 1, 2)]
        return {name: rows[a:b] for name, a, b in zip(self.head_names, bounds, bounds[1:])}


def _sums(z: np.ndarray, axis: int, lone: Sequence[int] = ()) -> np.ndarray:
    """``z.sum(axis, keepdims=True)``, with each column in ``lone`` (axis 0)
    summed on its own.  NumPy sums a column of a wider array in row order but a
    one-column array pairwise, so a one-token sentence's column in a block
    gets the bits it has when the sentence is alone."""
    total = z.sum(axis=axis, keepdims=True)
    for t in lone:
        total[0, t] = z[:, t].sum()
    return total


def _softmax(z: np.ndarray, axis: int, lone: Sequence[int] = ()) -> np.ndarray:
    z -= z.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= _sums(z, axis, lone)
    return z


# The elements (weight rows x columns) of the largest array that predicting a
# block makes: a run's gather of weight columns, or one token's if that is
# larger, and a decode run's probabilities, a column per token, or one
# sentence's if that is larger.  0.5 MB: 550 columns of a 119-row model (a
# ~100-tag tagset) and 13 of one with the bundled 5,019 tags.  Not a setting.
_ARRAY_ELEMENTS = 1 << 16


def _runs(ends: np.ndarray, width: int) -> list[tuple[int, int]]:
    """Runs of consecutive tokens, as (first, end) tokens, whose feature
    entries number at most ``width``, or one token that has more; ``ends[t]`` is
    the entry after token t's last."""
    runs, a, first = [], 0, 0
    while a < len(ends):
        b = max(a + 1, int(np.searchsorted(ends, first + width, "right")))
        runs.append((a, b))
        a, first = b, int(ends[b - 1])
    return runs


def _probs(model: MultiHeadModel, enc: EncodedBlock) -> np.ndarray:
    """Per-head probabilities of every token of a block: (weight rows, tokens).
    A token's logits are its own ``reduceat`` segment of gathered weight columns,
    gathered in ``_runs`` of tokens; each head is normalised once, the correction
    block along its slow axis, where NumPy sums in row order (see ``_sums``)."""
    W = model.weights
    top = int(enc.idx.max()) if enc.idx.size else -1
    if top >= W.shape[1]:
        raise ValueError(f"feature index {top} out of range for weights of dimension {W.shape[1]}")
    width = max(1, _ARRAY_ELEMENTS // W.shape[0])
    if enc.idx.size <= width:  # one run: its sums are the array, with no copy
        z = np.add.reduceat(W[:, enc.idx], enc.starts, axis=1)
    else:
        z = np.empty((W.shape[0], enc.n_tokens))
        ends = np.append(enc.starts[1:], enc.idx.size)
        for a, b in _runs(ends, width):
            first = enc.starts[a]
            idx = enc.idx[first : ends[b - 1]]  # W[:, idx] stays a temporary: one gather at a time
            z[:, a:b] = np.add.reduceat(W[:, idx], enc.starts[a:b] - first, axis=1)
    n = len(model.tagset)
    _softmax(z[:n], 0, enc.lone())
    _softmax(z[n:].reshape(len(model.aux_heads), 2, enc.n_tokens), 1)
    return z


Batch = Sequence[tuple[Sequence[str], Sequence[EditTag]]]


@dataclass
class ScatterPlan:
    """How one sentence's per-token gradients add up onto its feature columns.

    ``cols`` are the sentence's distinct feature columns, ascending.  Layer r
    of ``layers`` holds the r-th occurrence, in ``idx`` order, of each column
    as (position in ``cols``, token) arrays.  A layer names each column at most
    once, so adding the layers in turn with a fancy-index ``+=`` gives every
    element the additions that ``np.add.at`` makes, in the same order.
    (``np.add.reduceat`` would not: it does not sum long segments in order.)
    """

    cols: np.ndarray
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    @classmethod
    def of_sentences(cls, encs: Sequence[EncodedBlock]) -> list["ScatterPlan"]:
        """The plan of each sentence, built for all of them in one set of array
        operations: entries are sorted by (sentence, column), then by (sentence,
        rank), and the result is cut into each sentence's columns and layers."""
        sizes = np.fromiter((e.idx.size for e in encs), dtype=np.int64, count=len(encs))
        sent = np.repeat(np.arange(len(encs), dtype=np.int64), sizes)
        idx = np.concatenate([e.idx for e in encs] or [np.empty(0, np.int64)])
        tok = np.concatenate([e.tok_of for e in encs] or [np.empty(0, np.int64)])
        by_col = np.lexsort((idx, sent))  # stable: each column's entries in idx order
        sent, idx, tok = sent[by_col], idx[by_col], tok[by_col]
        first = np.ones(idx.size, dtype=bool)
        first[1:] = (idx[1:] != idx[:-1]) | (sent[1:] != sent[:-1])
        col = np.cumsum(first) - 1  # the entry's column, numbered over all sentences
        rank = np.arange(idx.size) - np.flatnonzero(first)[col]
        ncols = np.bincount(sent[first], minlength=len(encs))
        pos = col - (np.cumsum(ncols) - ncols)[sent]
        by_rank = np.lexsort((rank, sent))  # stable: each layer's columns stay ascending
        sent, pos, tok, rank = sent[by_rank], pos[by_rank], tok[by_rank], rank[by_rank]
        cuts = np.flatnonzero((np.diff(sent) != 0) | (np.diff(rank) != 0)) + 1
        starts = [0, *cuts.tolist()] if idx.size else []
        layers: list[list] = [[] for _ in encs]
        for a, b, s in zip(starts, [*starts[1:], idx.size], sent[starts].tolist()):
            layers[s].append((pos[a:b], tok[a:b]))
        cols = np.split(idx[first], np.cumsum(ncols)[:-1])
        return [cls(c, tuple(ls)) for c, ls in zip(cols, layers)]

    def scatter(self, delta: np.ndarray) -> np.ndarray:
        """Sum the token columns of ``delta`` onto ``cols``: (rows, len(cols))."""
        out = np.zeros((delta.shape[0], self.cols.size), order="F")
        for pos, tok in self.layers:
            out[:, pos] += delta[:, tok]
        return out


Encoded = list[tuple[EncodedBlock, np.ndarray, ScatterPlan]]


# Sentences per ``encode`` call when a dataset is encoded, which bounds the
# block's key arrays.
_ENCODE_SENTENCES = 128


def _encode_batch(model: MultiHeadModel, batch: Batch) -> Encoded:
    """Encode each sentence, with the weight row of each head's gold label per
    token and the plan that scatters its gradient."""
    golds = []
    for tokens, tags in batch:
        if len(tags) != len(tokens):
            raise ValueError("labels and tokens are misaligned")
        gold = [[model.tagset.id_of(t) for t in tags]]
        binary = streams(tags)
        for j, name in enumerate(model.aux_heads):
            gold.append([len(model.tagset) + 2 * j + y for y in binary[name]])
        golds.append(np.asarray(gold, dtype=np.int64))
    encs = []
    for k in range(0, len(batch), _ENCODE_SENTENCES):
        block = [tokens for tokens, _ in batch[k : k + _ENCODE_SENTENCES]]
        encs += model.encoder.encode(block).sentences()
    return list(zip(encs, golds, ScatterPlan.of_sentences(encs)))


def head_losses(model: MultiHeadModel, batch: Batch, *, encoded=None) -> dict[str, float]:
    """Mean token-level cross-entropy per head over the whole batch."""
    if encoded is None:
        encoded = _encode_batch(model, batch)
    if not encoded:
        raise ValueError("empty batch")
    sums = np.zeros(len(model.head_names))
    total = 0
    for enc, gold, _ in encoded:
        total += enc.n_tokens
        picked = _probs(model, enc)[gold, np.arange(enc.n_tokens)]
        sums += (-np.log(np.clip(picked, _CLIP, None))).sum(axis=1)
    if total == 0:
        raise ValueError("batch contains no tokens")
    return {name: float(s) / total for name, s in zip(model.head_names, sums)}


def total_loss(model: MultiHeadModel, batch: Batch, *, encoded=None) -> float:
    """Correction loss plus lambda-weighted sum of auxiliary losses."""
    losses = head_losses(model, batch, encoded=encoded)
    return losses["correction"] + model.lam * sum(
        losses[name] for name in model.aux_heads
    )


def _row_weights(model: MultiHeadModel) -> np.ndarray:
    """Each weight row's factor in the total loss: 1 or lambda."""
    return np.repeat([1.0, model.lam], [len(model.tagset), 2 * len(model.aux_heads)])


def _sentence_grad(
    model: MultiHeadModel,
    enc: EncodedBlock,
    gold: np.ndarray,
    plan: ScatterPlan,
    scale: np.ndarray,
) -> np.ndarray:
    """Gradient of one sentence's loss, with row ``r`` scaled by ``scale[r]``, on
    the plan's columns: a (weight rows, columns) block."""
    delta = _probs(model, enc)
    delta[gold, np.arange(enc.n_tokens)] -= 1.0
    delta *= scale[:, None]
    return plan.scatter(delta)


def grad_total_loss(model: MultiHeadModel, batch: Batch) -> np.ndarray:
    """Analytic gradient of total_loss, laid out like ``weights``."""
    encoded = _encode_batch(model, batch)
    if not encoded:
        raise ValueError("empty batch")
    total = sum(enc.n_tokens for enc, _, _ in encoded)
    scale = _row_weights(model) / total
    grad = np.zeros_like(model.weights)
    for enc, gold, plan in encoded:
        grad[:, plan.cols] += _sentence_grad(model, enc, gold, plan, scale)
    return grad


def train(
    model: MultiHeadModel,
    dataset: Batch,
    epochs: int = 10,
    lr: float = 0.5,
    seed: int = 0,
) -> list[float]:
    """Per-sentence Adagrad training; returns the per-epoch loss curve.

    Deterministic for a fixed seed: zero init, seeded shuffling, fixed update
    order.  The per-element accumulator starts at zero on every call.
    """
    if not dataset:
        raise ValueError("empty dataset")
    encoded = _encode_batch(model, dataset)
    if any(enc.n_tokens == 0 for enc, _, _ in encoded):
        raise ValueError("every training example needs at least one token")
    accum = np.zeros_like(model.weights)
    row_weights = _row_weights(model)
    rng = np.random.default_rng(seed)
    order = np.arange(len(encoded))
    history: list[float] = []
    step = 0
    # A divergence overflows before the epoch-end loss reads NaN: report it once.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            rng.shuffle(order)
            for si in order:
                enc, gold, plan = encoded[si]
                step += 1
                grad = _sentence_grad(model, enc, gold, plan, row_weights / enc.n_tokens)
                cols = plan.cols
                acc = accum[:, cols]
                acc += grad * grad
                accum[:, cols] = acc
                model.weights[:, cols] -= lr * grad / (np.sqrt(acc) + 1e-8)
            epoch_loss = total_loss(model, dataset, encoded=encoded)
            if math.isnan(epoch_loss):
                raise TrainingDivergedError(step, epoch)
            history.append(epoch_loss)
    return history


def predict_tags(
    model: MultiHeadModel,
    sentences: Sequence[Sequence[str]],
    keep_bias: float = 0.0,
    min_error_prob: float = 0.0,
) -> list[list[EditTag]]:
    """Decode a block of sentences with the inference tweaks, from one encode
    and one forward pass over each run of whole sentences whose probabilities
    hold at most ``_ARRAY_ELEMENTS`` elements (or one sentence that holds more).

    ``keep_bias`` (above -1) is added to the KEEP probability (post-softmax,
    then renormalized); if no token of a sentence has a detection-head error
    probability that reaches ``min_error_prob`` (capped at 1), the whole
    sentence decodes to KEEP.
    """
    if not keep_bias > -1.0:
        raise ValueError(f"keep_bias must be greater than -1, got {keep_bias}")
    width = max(1, _ARRAY_ELEMENTS // model.weights.shape[0])
    tags, run, size = [], [], 0
    for tokens in sentences:
        if run and size + len(tokens) > width:
            tags += _decode(model, run, keep_bias, min_error_prob)
            run, size = [], 0
        run.append(tokens)
        size += len(tokens)
    return tags + _decode(model, run, keep_bias, min_error_prob)


def _decode(
    model: MultiHeadModel,
    sentences: Sequence[Sequence[str]],
    keep_bias: float,
    min_error_prob: float,
) -> list[list[EditTag]]:
    """``predict_tags`` over one run of sentences, all of its tokens at once."""
    enc = model.encoder.encode(sentences)
    if not enc.n_tokens:
        return [[] for _ in sentences]
    keep_id = model.tagset.keep_id
    head_probs = model.split(_probs(model, enc))
    probs = head_probs["correction"]
    probs[keep_id] += keep_bias
    probs /= _sums(probs, 0, enc.lone())
    ids = probs.argmax(axis=0)
    ids[probs[ids, np.arange(enc.n_tokens)] == probs[keep_id]] = keep_id
    # reduceat gives an empty segment the element at its index, which is past
    # the end for a trailing one: only the non-empty sentences are segments.
    whole = enc.lengths > 0
    firsts = (np.cumsum(enc.lengths) - enc.lengths)[whole]
    error = np.maximum.reduceat(head_probs["detection"][1], firsts)
    ids[np.repeat(error < min(min_error_prob, 1.0), enc.lengths[whole])] = keep_id
    tags = map(model.tagset.tag_of, ids.tolist())
    return [list(islice(tags, n)) for n in enc.lengths.tolist()]


def gradient_check(model: MultiHeadModel, batch: Batch, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if len(batch) > 5:
        raise ValueError("gradient_check expects at most 5 sentences")
    if model.encoder.dim > 200:
        raise ValueError("gradient_check expects feature dimension <= 200")
    encoded = _encode_batch(model, batch)
    analytic = grad_total_loss(model, batch)
    W = model.weights
    worst = 0.0
    for r, c in np.ndindex(W.shape):
        orig = W[r, c]
        W[r, c] = orig + h
        lp = total_loss(model, batch, encoded=encoded)
        W[r, c] = orig - h
        lm = total_loss(model, batch, encoded=encoded)
        W[r, c] = orig
        numeric = (lp - lm) / (2.0 * h)
        a = analytic[r, c]
        scale = max(1e-8, abs(numeric) + abs(a))
        worst = max(worst, abs(numeric - a) / scale)
    return worst


_MODEL_FORMAT = "gecedit-model"
_DUMP_BLOCK_BYTES = 1 << 20


def _row_blocks(rows: int, dim: int):
    """Row ranges of about ``_DUMP_BLOCK_BYTES`` of weights each (at least one row):
    dumps are written and read a block at a time, so the C-order copy of the
    feature-major weights stays small."""
    step = max(1, _DUMP_BLOCK_BYTES // (8 * dim))
    for a in range(0, rows, step):
        yield a, min(a + step, rows)


def save_model(model: MultiHeadModel, path: Union[str, Path]) -> None:
    """Write the versioned model dump; load followed by save is byte-stable."""
    header = {
        "format": _MODEL_FORMAT,
        "version": 1,
        "dim": model.encoder.dim,
        "lambda": model.lam,
        "heads": model.heads,
        "templates": list(FEATURE_TEMPLATES_V1),
        "tags": list(model.tagset.names),
        "arrays": [[name, *W.shape] for name, W in model.W.items()],
    }
    with open(path, "wb") as fp:
        fp.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fp.write(b"\n")
        # C order stacks the heads' rows, so this is the per-head arrays in turn
        for a, b in _row_blocks(*model.weights.shape):
            fp.write(np.ascontiguousarray(model.weights[a:b], dtype="<f8"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_model(path: Union[str, Path]) -> MultiHeadModel:
    """Read a model dump written by ``save_model``.

    Raises ``ValueError`` when the header lacks a key or holds a value of the
    wrong type, when its arrays are not the heads and shapes of the model it
    describes, when weight data is missing or follows the last array, or when a
    weight is not finite.  When the path is a regular file, missing data is
    found from its size before the weights are allocated; a pipe is read until
    it ends.
    """
    with open(path, "rb") as fp:
        info = os.fstat(fp.fileno())
        line = fp.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except ValueError:  # not UTF-8 or not JSON
            header = None
        if (
            not isinstance(header, dict)
            or header.get("format") != _MODEL_FORMAT
            or header.get("version") != 1
        ):
            raise ValueError(f"{path}:1: not a model file this version understands")
        for key in ("tags", "dim", "lambda", "heads", "templates", "arrays"):
            if key not in header:
                raise ValueError(f"{path}: model header lacks the key {key!r}")
        lam = header["lambda"]
        for key, ok, kind in (
            ("tags", _is_strings(header["tags"]), "a list of strings"),
            ("dim", _is_int(header["dim"]), "an integer"),
            ("lambda", _is_int(lam) or isinstance(lam, float), "a number"),
            ("heads", _is_int(header["heads"]), "an integer"),
            ("templates", _is_strings(header["templates"]), "a list of strings"),
        ):
            if not ok:
                raise ValueError(f"{path}: model header {key!r} must be {kind}: {header[key]!r}")
        tagset = TagSet(header["tags"], origin=f"{path}: model header 'tags'")
        try:
            encoder = FeatureEncoder(dim=header["dim"])
            aux_heads = _aux_heads(header["heads"])
            if tuple(header["templates"]) != FEATURE_TEMPLATES_V1:
                raise ValueError(f"unsupported template set {header['templates']!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: model header: {exc}") from None
        expected = [["correction", len(tagset), encoder.dim]]
        expected += [[name, 2, encoder.dim] for name in aux_heads]
        if header["arrays"] != expected:
            raise ValueError(
                f"{path}: weight arrays {header['arrays']} do not match the heads and "
                f"shapes of a {header['heads']}-head model with {len(tagset)} tags and "
                f"dim {encoder.dim}: expected {expected}"
            )
        rows = weight_rows(len(tagset), header["heads"])
        truncated = f"{path}: truncated weight data"
        if stat.S_ISREG(info.st_mode) and info.st_size - len(line) < rows * encoder.dim * 8:
            raise ValueError(truncated)
        try:
            model = MultiHeadModel(tagset, encoder, lam=lam, heads=header["heads"])
        except (ValueError, MemoryError) as exc:  # lambda out of range, or weights too big
            raise ValueError(f"{path}: {exc}") from None
        for a, b in _row_blocks(rows, encoder.dim):
            raw = fp.read((b - a) * encoder.dim * 8)
            if len(raw) != (b - a) * encoder.dim * 8:
                raise ValueError(truncated)
            block = np.frombuffer(raw, dtype="<f8").reshape(b - a, encoder.dim)
            if not np.isfinite(block).all():
                row = a + int(np.isfinite(block).all(axis=1).argmin())
                name = next(k for k, r in model.split(np.arange(rows)).items() if row in r)
                raise ValueError(f"{path}: weight array {name!r} holds a non-finite weight")
            model.weights[a:b] = block
        if fp.read(1):
            raise ValueError(f"{path}: trailing bytes after the last weight array")
    return model
