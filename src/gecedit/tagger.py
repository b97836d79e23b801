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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

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


class MultiHeadModel:
    """Linear softmax heads over hashed features; 5- or 7-head variants."""

    def __init__(
        self,
        tagset: TagSet,
        encoder: Optional[FeatureEncoder] = None,
        lam: float = 0.5,
        heads: int = 7,
    ):
        if heads not in (5, 7):
            raise ValueError("heads must be 5 or 7")
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
        self.tagset = tagset
        self.encoder = encoder if encoder is not None else FeatureEncoder()
        self.lam = float(lam)
        self.heads = heads
        self.aux_heads = AUX_HEADS_7 if heads == 7 else AUX_HEADS_5
        self.W: dict[str, np.ndarray] = {
            "correction": np.zeros((len(tagset), self.encoder.dim))
        }
        for name in self.aux_heads:
            self.W[name] = np.zeros((2, self.encoder.dim))

    @property
    def head_names(self) -> tuple[str, ...]:
        return ("correction",) + self.aux_heads

    def head_weight(self, name: str) -> float:
        return 1.0 if name == "correction" else self.lam

    def copy(self) -> "MultiHeadModel":
        other = MultiHeadModel(self.tagset, self.encoder, self.lam, self.heads)
        for name, W in self.W.items():
            other.W[name] = W.copy()
        return other


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _head_probs(model: MultiHeadModel, name: str, enc: EncodedSentence) -> np.ndarray:
    W = model.W[name]
    if enc.idx.size and int(enc.idx.max()) >= W.shape[1]:
        raise ValueError(
            f"feature index {int(enc.idx.max())} out of range for head {name} "
            f"with dimension {W.shape[1]}"
        )
    gathered = W[:, enc.idx]
    logits = np.add.reduceat(gathered, enc.starts, axis=1).T
    return _softmax(logits)


def forward(
    model: MultiHeadModel, features: Union[EncodedSentence, Sequence[str]]
) -> dict[str, np.ndarray]:
    """Per-token probability rows for every head; rows sum to 1."""
    enc = features if isinstance(features, EncodedSentence) else model.encoder.encode(features)
    return {name: _head_probs(model, name, enc) for name in model.head_names}


def _labels_for_head(model: MultiHeadModel, name: str, labels: MultiHeadLabels) -> np.ndarray:
    if name == "correction":
        return np.asarray([model.tagset.id_of(t) for t in labels.correction], dtype=np.int64)
    return np.asarray(labels.stream(name), dtype=np.int64)


Batch = Sequence[tuple[Sequence[str], MultiHeadLabels]]


def _encode_batch(model: MultiHeadModel, batch: Batch) -> list[tuple[EncodedSentence, MultiHeadLabels]]:
    out = []
    for tokens, labels in batch:
        if len(labels) != len(tokens):
            raise ValueError("labels and tokens are misaligned")
        out.append((model.encoder.encode(tokens), labels))
    return out


def head_losses(model: MultiHeadModel, batch: Batch, *, encoded=None) -> dict[str, float]:
    """Mean token-level cross-entropy per head over the whole batch."""
    if encoded is None:
        encoded = _encode_batch(model, batch)
    if not encoded:
        raise ValueError("empty batch")
    sums = {name: 0.0 for name in model.head_names}
    total = 0
    for enc, labels in encoded:
        total += enc.n_tokens
        for name in model.head_names:
            probs = _head_probs(model, name, enc)
            y = _labels_for_head(model, name, labels)
            picked = np.clip(probs[np.arange(enc.n_tokens), y], _CLIP, None)
            sums[name] += float(-np.log(picked).sum())
    if total == 0:
        raise ValueError("batch contains no tokens")
    return {name: s / total for name, s in sums.items()}


def total_loss(model: MultiHeadModel, batch: Batch, *, encoded=None) -> float:
    """Correction loss plus lambda-weighted sum of auxiliary losses."""
    losses = head_losses(model, batch, encoded=encoded)
    return losses["correction"] + model.lam * sum(
        losses[name] for name in model.aux_heads
    )


def grad_total_loss(model: MultiHeadModel, batch: Batch) -> dict[str, np.ndarray]:
    """Analytic gradient of total_loss with respect to every head matrix."""
    encoded = _encode_batch(model, batch)
    if not encoded:
        raise ValueError("empty batch")
    total = sum(enc.n_tokens for enc, _ in encoded)
    grads = {name: np.zeros_like(W) for name, W in model.W.items()}
    for enc, labels in encoded:
        for name in model.head_names:
            probs = _head_probs(model, name, enc)
            y = _labels_for_head(model, name, labels)
            delta = probs
            delta[np.arange(enc.n_tokens), y] -= 1.0
            delta *= model.head_weight(name) / total
            np.add.at(grads[name], (slice(None), enc.idx), delta.T[:, enc.tok_of])
    return grads


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
    label_ids = [
        {name: _labels_for_head(model, name, labels) for name in model.head_names}
        for _, labels in encoded
    ]
    accum = {name: np.zeros_like(W) for name, W in model.W.items()} if optimizer == "adagrad" else None
    rng = np.random.default_rng(seed)
    order = np.arange(len(encoded))
    history: list[float] = []
    step = 0
    for epoch in range(epochs):
        rng.shuffle(order)
        for si in order:
            enc, _ = encoded[si]
            step += 1
            cols, inv = np.unique(enc.idx, return_inverse=True)
            for name in model.head_names:
                probs = _head_probs(model, name, enc)
                y = label_ids[si][name]
                delta = probs
                delta[np.arange(enc.n_tokens), y] -= 1.0
                delta *= model.head_weight(name) / enc.n_tokens
                gsub = np.zeros((model.W[name].shape[0], cols.size))
                np.add.at(gsub, (slice(None), inv), delta.T[:, enc.tok_of])
                if accum is not None:
                    acc = accum[name]
                    acc[:, cols] += gsub * gsub
                    model.W[name][:, cols] -= lr * gsub / (np.sqrt(acc[:, cols]) + 1e-8)
                else:
                    model.W[name][:, cols] -= lr * gsub
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
        p_err = _head_probs(model, "detection", enc)[:, 1]
        if float(p_err.max()) < min_error_prob:
            return [keep_tag] * len(tokens)
    probs = _head_probs(model, "correction", enc)
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
    analytic = grad_total_loss(model, batch)
    worst = 0.0
    for name in model.head_names:
        W = model.W[name]
        rows, cols = W.shape
        for r in range(rows):
            for c in range(cols):
                orig = W[r, c]
                W[r, c] = orig + h
                lp = total_loss(model, batch, encoded=encoded)
                W[r, c] = orig - h
                lm = total_loss(model, batch, encoded=encoded)
                W[r, c] = orig
                numeric = (lp - lm) / (2.0 * h)
                a = analytic[name][r, c]
                scale = max(1e-8, abs(numeric) + abs(a))
                worst = max(worst, abs(numeric - a) / scale)
    return worst


_MODEL_FORMAT = "gecedit-model"


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
        "arrays": [[name, *model.W[name].shape] for name in model.head_names],
    }
    with open(path, "wb") as fp:
        fp.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fp.write(b"\n")
        for name in model.head_names:
            fp.write(np.ascontiguousarray(model.W[name], dtype="<f8").tobytes())


def load_model(path: Union[str, Path]) -> MultiHeadModel:
    """Read a model dump written by ``save_model``.

    Raises ``ValueError`` when the header's arrays are not the heads and
    shapes of the model the header describes, or when weight data is missing
    or follows the last array.
    """
    with open(path, "rb") as fp:
        header = json.loads(fp.readline().decode("utf-8"))
        if header.get("format") != _MODEL_FORMAT or header.get("version") != 1:
            raise ValueError(f"{path}: not a model file this version understands")
        tagset = TagSet(header["tags"])
        encoder = FeatureEncoder(dim=header["dim"], templates=tuple(header["templates"]))
        model = MultiHeadModel(tagset, encoder, lam=header["lambda"], heads=header["heads"])
        expected = [[name, *model.W[name].shape] for name in model.head_names]
        if header["arrays"] != expected:
            raise ValueError(
                f"{path}: weight arrays {header['arrays']} do not match the heads and "
                f"shapes of a {model.heads}-head model with {len(tagset)} tags and "
                f"dim {encoder.dim}: expected {expected}"
            )
        for name, rows, cols in expected:
            raw = fp.read(rows * cols * 8)
            if len(raw) != rows * cols * 8:
                raise ValueError(f"{path}: truncated weight data for head {name}")
            model.W[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
        if fp.read(1):
            raise ValueError(f"{path}: trailing bytes after the last weight array")
    return model
