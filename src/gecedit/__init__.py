"""Edit-tag toolkit for grammatical error correction.

Core pieces: converting parallel sentences to per-token edit tags and back
(seq2edit / edit2seq with iterative refinement), multi-head label derivation,
rule-driven synthetic-error generation, span-F0.5/GLEU scoring, and a
desk-scale trainable multi-head tagger.
"""

from gecedit.alignment import BACKEND, AlignedPair, align, available_backends
from gecedit.core import detokenize, tokenize
from gecedit.edit2seq import TagApplicationError, apply_tag, edit2seq, refine
from gecedit.labels import derive_labels
from gecedit.lexicon import (
    Lexicon,
    PatternInventories,
    load_lexicon,
    load_patterns,
)
from gecedit.metrics import extract_spans, gleu
from gecedit.noiser import (
    NoiseProfile,
    Noiser,
    build_edit_dictionary,
    load_profile,
)
from gecedit.seq2edit import classify_edit, seq2edit
from gecedit.tagger import (
    FeatureEncoder,
    MultiHeadModel,
    gradient_check,
    load_model,
    predict_tags,
    save_model,
    total_loss,
    train,
)
from gecedit.tags import EditTag, TagError, TagFamily, TagSet, load_tagset

__version__ = "0.1.0"

__all__ = [
    "AlignedPair",
    "BACKEND",
    "EditTag",
    "FeatureEncoder",
    "Lexicon",
    "MultiHeadModel",
    "NoiseProfile",
    "Noiser",
    "PatternInventories",
    "TagApplicationError",
    "TagError",
    "TagFamily",
    "TagSet",
    "align",
    "apply_tag",
    "available_backends",
    "build_edit_dictionary",
    "classify_edit",
    "derive_labels",
    "detokenize",
    "edit2seq",
    "extract_spans",
    "gleu",
    "gradient_check",
    "load_lexicon",
    "load_model",
    "load_patterns",
    "load_profile",
    "load_tagset",
    "predict_tags",
    "refine",
    "save_model",
    "seq2edit",
    "tokenize",
    "total_loss",
    "train",
]
