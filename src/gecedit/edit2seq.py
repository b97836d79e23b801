"""Application of edit-tag sequences to sentences, plus iterative refinement."""

from __future__ import annotations

import logging
from typing import Callable, Optional, Sequence

from gecedit.lexicon import Lexicon
from gecedit.tags import EditTag, TagFamily
from gecedit.transforms import MERGE_JOINERS, apply_suffix, apply_transform

logger = logging.getLogger(__name__)


class TagApplicationError(ValueError):
    """A tag cannot be applied to its token (index is filled by edit2seq)."""

    def __init__(self, tag: EditTag, reason: str, index: Optional[int] = None):
        self.tag = tag
        self.reason = reason
        self.index = index
        where = f" at token {index}" if index is not None else ""
        super().__init__(f"cannot apply {tag.render()}{where}: {reason}")


def apply_tag(
    token: str,
    next_token: Optional[str],
    tag: EditTag,
    lexicon: Lexicon,
) -> tuple[list[str], bool]:
    """Apply one tag to a token; returns (output tokens, consumed_next).

    UNKNOWN copies the token unchanged.  Merge tags require a next token and
    consume it; transform/suffix tags raise TagApplicationError when their
    rule does not apply (verb not in the lexicon, missing suffix, ...).
    """
    fam = tag.family
    if fam is TagFamily.KEEP or fam is TagFamily.UNKNOWN:
        return [token], False
    if fam is TagFamily.DELETE:
        return [], False
    if fam is TagFamily.APPEND:
        return [token, tag.payload], False
    if fam is TagFamily.REPLACE:
        return [tag.payload], False
    if fam is TagFamily.MERGE:
        if next_token is None:
            raise TagApplicationError(tag, "no next token to merge with")
        return [token + MERGE_JOINERS[tag.payload] + next_token], True
    if fam is TagFamily.TRANSFORM:
        out = apply_transform(tag.payload, token, lexicon)
        if out is None:
            raise TagApplicationError(tag, f"transform does not apply to {token!r}")
        return out, False
    if fam is TagFamily.SUFFIXTRANSFORM:
        out = apply_suffix(tag.payload, token)
        if out is None:
            raise TagApplicationError(tag, f"suffix edit does not apply to {token!r}")
        return [out], False
    raise TagApplicationError(tag, "unsupported tag family")


def edit2seq(
    source: Sequence[str],
    edits: Sequence[EditTag],
    lexicon: Lexicon,
    *,
    on_error: str = "raise",
) -> list[str]:
    """Apply an edit sequence left to right, skipping merge-consumed tokens.

    ``on_error="copy"`` downgrades tag-application failures to copying the
    source token (with a warning) instead of raising; learned predictors can
    emit inapplicable tags and inference must not crash on them.
    """
    if len(edits) != len(source):
        raise ValueError(
            f"edit sequence length {len(edits)} != source length {len(source)}"
        )
    out: list[str] = []
    skip = False
    for i, (token, tag) in enumerate(zip(source, edits)):
        if skip:
            skip = False
            continue
        nxt = source[i + 1] if i + 1 < len(source) else None
        try:
            produced, consumed = apply_tag(token, nxt, tag, lexicon)
        except TagApplicationError as exc:
            if on_error == "copy":
                logger.warning("token %d: %s; copying source token", i, exc)
                produced, consumed = [token], False
            else:
                raise TagApplicationError(exc.tag, exc.reason, index=i) from None
        out.extend(produced)
        skip = consumed
    return out


# The longest a pass may leave a sentence of n source tokens, as
# ``_GROWTH * n + _SLACK``, for it to be refined again.  An APPEND or SPLIT tag
# makes two or more tokens of one, so a model that appends to every token would
# otherwise double the sentence on every pass.  Constants, not settings.
_GROWTH = 2
_SLACK = 4


def refine(
    sources: Sequence[Sequence[str]],
    predictor: Callable[[list[list[str]]], Sequence[Sequence[EditTag]]],
    max_iters: int,
    lexicon: Lexicon,
) -> tuple[list[list[str]], int]:
    """Repeatedly predict and apply edits to each sentence until an all-KEEP
    pass or the cap, all sentences in lockstep: each pass makes one
    ``predictor`` call on the sentences still being refined.  A sentence
    leaves after an all-KEEP pass, when its edits delete every token, or when
    a pass leaves it longer than ``_GROWTH`` times its source's length plus
    ``_SLACK`` tokens.

    Returns (final sentences, number of sentence passes made, summed over
    the sentences).  Inapplicable predicted tags leave their token unchanged.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    current = [list(source) for source in sources]
    live = list(range(len(current)))
    passes = 0
    for _ in range(max_iters):
        if not live:
            break
        passes += len(live)
        still = []
        for k, edits in zip(live, predictor([current[k] for k in live]), strict=True):
            if all(tag.family is TagFamily.KEEP for tag in edits):
                continue
            current[k] = edit2seq(current[k], edits, lexicon, on_error="copy")
            if 0 < len(current[k]) <= _GROWTH * len(sources[k]) + _SLACK:
                still.append(k)
        live = still
    return current, passes
