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
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from gecedit.labels import MultiHeadLabels
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

AUX_HEADS_7 = ("deletion", "insertion", "substitution", "merge", "transformation", "detection")
AUX_HEADS_5 = ("deletion", "insertion", "substitution", "detection")

_CLIP = 1e-300


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int, epoch: int):
        self.step = step
        self.epoch = epoch
        super().__init__(f"loss became NaN at update step {step} (epoch {epoch})")


def _hash_feature(text: str, dim: int) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


class FeatureEncoder:
    """Deterministic hashed sparse features for a token in context."""

    def __init__(self, dim: int = 4096, templates: Sequence[str] = FEATURE_TEMPLATES_V1):
        if dim < 2:
            raise ValueError("feature dimension must be >= 2")
        if tuple(templates) != FEATURE_TEMPLATES_V1:
            raise ValueError(f"unsupported template set {templates!r}")
        self.dim = dim
        self.templates = FEATURE_TEMPLATES_V1

    def feature_strings(self, tokens: Sequence[str], i: int) -> list[str]:
        tok = tokens[i]
        feats = [f"w0={tok}", f"lw0={tok.lower()}"]
        low = tok.lower()
        feats.extend(f"ng2={low[k:k + 2]}" for k in range(len(low) - 1))
        feats.extend(f"ng3={low[k:k + 3]}" for k in range(len(low) - 2))
        n = len(tokens)
        feats.append(f"w-1={tokens[i - 1] if i >= 1 else '<s>'}")
        feats.append(f"w+1={tokens[i + 1] if i + 1 < n else '</s>'}")
        feats.append(f"w-2={tokens[i - 2] if i >= 2 else '<s>'}")
        feats.append(f"w+2={tokens[i + 2] if i + 2 < n else '</s>'}")
        if i == 0:
            feats.append("bos")
        if i == n - 1:
            feats.append("eos")
        return feats

    def encode(self, tokens: Sequence[str]) -> "EncodedSentence":
        idx_parts = []
        starts = []
        tok_of = []
        pos = 0
        for i in range(len(tokens)):
            hashed = sorted(
                {_hash_feature(s, self.dim) for s in self.feature_strings(tokens, i)}
            )
            starts.append(pos)
            pos += len(hashed)
            idx_parts.extend(hashed)
            tok_of.extend([i] * len(hashed))
        return EncodedSentence(
            idx=np.asarray(idx_parts, dtype=np.int64),
            starts=np.asarray(starts, dtype=np.int64),
            tok_of=np.asarray(tok_of, dtype=np.int64),
            n_tokens=len(tokens),
        )


@dataclass
class EncodedSentence:
    """Concatenated sparse feature indices for one sentence."""

    idx: np.ndarray
    starts: np.ndarray
    tok_of: np.ndarray
    n_tokens: int


def _aux_heads(heads: int) -> tuple[str, ...]:
    if heads not in (5, 7):
        raise ValueError("heads must be 5 or 7")
    return AUX_HEADS_7 if heads == 7 else AUX_HEADS_5


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
        self.weights = np.zeros(
            (len(tagset) + 2 * len(self.aux_heads), self.encoder.dim), order="F"
        )
        self.W: Mapping[str, np.ndarray] = MappingProxyType(self.split(self.weights))

    # A mapping proxy does not pickle, so ``W`` is rebuilt from ``weights``.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["W"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.W = MappingProxyType(self.split(self.weights))

    @property
    def head_names(self) -> tuple[str, ...]:
        return ("correction",) + self.aux_heads

    def split(self, rows: np.ndarray) -> dict[str, np.ndarray]:
        """Views of each head's row block of an array laid out like ``weights``."""
        n = len(self.tagset)
        bounds = [0, *range(n, n + 2 * len(self.aux_heads) + 1, 2)]
        return {name: rows[a:b] for name, a, b in zip(self.head_names, bounds, bounds[1:])}

    def copy(self) -> "MultiHeadModel":
        other = MultiHeadModel(self.tagset, self.encoder, self.lam, self.heads)
        other.weights[...] = self.weights
        return other


def _softmax(z: np.ndarray, axis: int) -> np.ndarray:
    z -= z.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


def _logits(W: np.ndarray, enc: EncodedSentence) -> np.ndarray:
    """Logits of every row of ``W`` for every token: (rows, tokens)."""
    top = int(enc.idx.max()) if enc.idx.size else -1
    if top >= W.shape[1]:
        raise ValueError(f"feature index {top} out of range for weights of dimension {W.shape[1]}")
    return np.add.reduceat(W[:, enc.idx], enc.starts, axis=1)


def _probs(model: MultiHeadModel, enc: EncodedSentence) -> np.ndarray:
    """Per-head probabilities, laid out like ``_logits``.  The correction block
    is normalised along its slow axis: NumPy sums a contiguous axis pairwise."""
    z = _logits(model.weights, enc)
    _softmax(z[: len(model.tagset)], axis=0)
    _softmax(z[len(model.tagset) :].reshape(len(model.aux_heads), 2, enc.n_tokens), axis=1)
    return z


def forward(
    model: MultiHeadModel, features: Union[EncodedSentence, Sequence[str]]
) -> dict[str, np.ndarray]:
    """Per-token probability rows for every head; rows sum to 1."""
    enc = features if isinstance(features, EncodedSentence) else model.encoder.encode(features)
    return {name: p.T for name, p in model.split(_probs(model, enc)).items()}


Batch = Sequence[tuple[Sequence[str], MultiHeadLabels]]


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
    def of(cls, enc: EncodedSentence) -> "ScatterPlan":
        by_col = np.argsort(enc.idx, kind="stable")  # each column's entries in idx order
        sorted_idx = enc.idx[by_col]
        first = np.diff(sorted_idx, prepend=-1) != 0
        pos = np.cumsum(first) - 1
        rank = np.arange(pos.size) - np.flatnonzero(first)[pos]
        by_rank = np.argsort(rank, kind="stable")
        pos, tok, rank = pos[by_rank], enc.tok_of[by_col[by_rank]], rank[by_rank]
        cuts = [0, *(np.flatnonzero(np.diff(rank)) + 1).tolist(), rank.size]
        return cls(sorted_idx[first], tuple((pos[a:b], tok[a:b]) for a, b in zip(cuts, cuts[1:])))

    def scatter(self, delta: np.ndarray) -> np.ndarray:
        """Sum the token columns of ``delta`` onto ``cols``: (rows, len(cols))."""
        out = np.zeros((delta.shape[0], self.cols.size), order="F")
        for pos, tok in self.layers:
            out[:, pos] += delta[:, tok]
        return out


Encoded = list[tuple[EncodedSentence, np.ndarray, ScatterPlan]]


def _encode_batch(model: MultiHeadModel, batch: Batch) -> Encoded:
    """Encode each sentence, with the weight row of each head's gold label per
    token and the plan that scatters its gradient."""
    out = []
    for tokens, labels in batch:
        if len(labels) != len(tokens):
            raise ValueError("labels and tokens are misaligned")
        gold = [[model.tagset.id_of(t) for t in labels.correction]]
        for j, name in enumerate(model.aux_heads):
            gold.append([len(model.tagset) + 2 * j + y for y in labels.stream(name)])
        enc = model.encoder.encode(tokens)
        out.append((enc, np.asarray(gold, dtype=np.int64), ScatterPlan.of(enc)))
    return out


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
    enc: EncodedSentence,
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


def grad_total_loss(model: MultiHeadModel, batch: Batch) -> dict[str, np.ndarray]:
    """Analytic gradient of total_loss with respect to every head matrix."""
    encoded = _encode_batch(model, batch)
    if not encoded:
        raise ValueError("empty batch")
    total = sum(enc.n_tokens for enc, _, _ in encoded)
    scale = _row_weights(model) / total
    grad = np.zeros_like(model.weights)
    for enc, gold, plan in encoded:
        grad[:, plan.cols] += _sentence_grad(model, enc, gold, plan, scale)
    return model.split(grad)


def train(
    model: MultiHeadModel,
    dataset: Batch,
    epochs: int = 10,
    lr: float = 0.5,
    seed: int = 0,
    optimizer: str = "adagrad",
) -> list[float]:
    """Per-sentence gradient training; returns the per-epoch loss curve.

    Deterministic for a fixed seed: zero init, seeded shuffling, fixed update
    order.  ``optimizer`` is "sgd" or "adagrad" (per-parameter step scaling).
    """
    if not dataset:
        raise ValueError("empty dataset")
    if optimizer not in ("sgd", "adagrad"):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    encoded = _encode_batch(model, dataset)
    if any(enc.n_tokens == 0 for enc, _, _ in encoded):
        raise ValueError("every training example needs at least one token")
    accum = np.zeros_like(model.weights) if optimizer == "adagrad" else None
    row_weights = _row_weights(model)
    rng = np.random.default_rng(seed)
    order = np.arange(len(encoded))
    history: list[float] = []
    step = 0
    for epoch in range(epochs):
        rng.shuffle(order)
        for si in order:
            enc, gold, plan = encoded[si]
            step += 1
            grad = _sentence_grad(model, enc, gold, plan, row_weights / enc.n_tokens)
            cols = plan.cols
            if accum is not None:
                acc = accum[:, cols]
                acc += grad * grad
                accum[:, cols] = acc
                model.weights[:, cols] -= lr * grad / (np.sqrt(acc) + 1e-8)
            else:
                model.weights[:, cols] -= lr * grad
        epoch_loss = total_loss(model, dataset, encoded=encoded)
        if math.isnan(epoch_loss):
            raise TrainingDivergedError(step, epoch)
        history.append(epoch_loss)
    return history


def predict_tags(
    model: MultiHeadModel,
    tokens: Sequence[str],
    keep_bias: float = 0.0,
    min_error_prob: float = 0.0,
) -> list[EditTag]:
    """Decode one sentence with the inference tweaks.

    ``keep_bias`` is added to the KEEP probability (post-softmax, then
    renormalized); if no token's detection-head error probability reaches
    ``min_error_prob`` the whole sentence decodes to KEEP.
    """
    if not tokens:
        return []
    min_error_prob = min(max(min_error_prob, 0.0), 1.0)
    keep_id = model.tagset.keep_id
    keep_tag = model.tagset.tag_of(keep_id)
    enc = model.encoder.encode(tokens)
    if min_error_prob > 0.0:
        p_err = _softmax(_logits(model.W["detection"], enc), axis=0)[1]
        if float(p_err.max()) < min_error_prob:
            return [keep_tag] * len(tokens)
    probs = _softmax(_logits(model.W["correction"], enc), axis=0).T
    probs[:, keep_id] += keep_bias
    probs /= probs.sum(axis=1, keepdims=True)
    ids = probs.argmax(axis=1)
    keep_ties = probs[np.arange(len(tokens)), ids] == probs[:, keep_id]
    ids[keep_ties] = keep_id
    return [model.tagset.tag_of(int(i)) for i in ids]


def gradient_check(model: MultiHeadModel, batch: Batch, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if len(batch) > 5:
        raise ValueError("gradient_check expects at most 5 sentences")
    if model.encoder.dim > 200:
        raise ValueError("gradient_check expects feature dimension <= 200")
    encoded = _encode_batch(model, batch)
    analytic = np.concatenate(list(grad_total_loss(model, batch).values()))  # stacked like weights
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
        "templates": list(model.encoder.templates),
        "tags": [t.render() for t in model.tagset],
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
    describes, or when weight data is missing or follows the last array.  When
    the path is a regular file, missing data is found from its size before the
    weights are allocated; a pipe is read until it ends.
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
        tagset = TagSet(header["tags"])
        encoder = FeatureEncoder(dim=header["dim"], templates=tuple(header["templates"]))
        aux_heads = _aux_heads(header["heads"])
        expected = [["correction", len(tagset), encoder.dim]]
        expected += [[name, 2, encoder.dim] for name in aux_heads]
        if header["arrays"] != expected:
            raise ValueError(
                f"{path}: weight arrays {header['arrays']} do not match the heads and "
                f"shapes of a {header['heads']}-head model with {len(tagset)} tags and "
                f"dim {encoder.dim}: expected {expected}"
            )
        rows = len(tagset) + 2 * len(aux_heads)
        truncated = f"{path}: truncated weight data"
        if stat.S_ISREG(info.st_mode) and info.st_size - len(line) < rows * encoder.dim * 8:
            raise ValueError(truncated)
        model = MultiHeadModel(tagset, encoder, lam=lam, heads=header["heads"])
        for a, b in _row_blocks(rows, encoder.dim):
            raw = fp.read((b - a) * encoder.dim * 8)
            if len(raw) != (b - a) * encoder.dim * 8:
                raise ValueError(truncated)
            model.weights[a:b] = np.frombuffer(raw, dtype="<f8").reshape(b - a, encoder.dim)
        if fp.read(1):
            raise ValueError(f"{path}: trailing bytes after the last weight array")
    return model
