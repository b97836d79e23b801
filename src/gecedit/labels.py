"""Per-token labels for the seven classification subtasks.

A labeled example is a sentence's tokens and its correction tags, one per
token: the tags are the only label data.  The six binary streams follow from
them by one rule, ``streams``: detection marks every non-KEEP position
(including UNKNOWN), and each of the five type streams marks the positions
whose tag is of its family, so at most one fires per position and none at
UNKNOWN.
"""

from __future__ import annotations

import json
from typing import Sequence

from gecedit.core import is_token
from gecedit.tags import EditTag, TagFamily

BINARY_STREAMS = ("deletion", "insertion", "substitution", "merge", "transformation", "detection")

# The one label rule: the binary streams a tag of each family marks.
_STREAMS_OF = {
    TagFamily.KEEP: (),
    TagFamily.DELETE: ("deletion", "detection"),
    TagFamily.APPEND: ("insertion", "detection"),
    TagFamily.REPLACE: ("substitution", "detection"),
    TagFamily.MERGE: ("merge", "detection"),
    TagFamily.TRANSFORM: ("transformation", "detection"),
    TagFamily.SUFFIXTRANSFORM: ("transformation", "detection"),
    TagFamily.UNKNOWN: ("detection",),
}


def streams(tags: Sequence[EditTag]) -> dict[str, list[int]]:
    """Every binary stream of the correction tags, by name in ``BINARY_STREAMS`` order."""
    out = {name: [0] * len(tags) for name in BINARY_STREAMS}
    for i, tag in enumerate(tags):
        for name in _STREAMS_OF[tag.family]:
            out[name][i] = 1
    return out


def derive_labels(source: Sequence[str], edits: Sequence[EditTag]) -> tuple[EditTag, ...]:
    """The correction tags of a source, checked against its length."""
    if len(edits) != len(source):
        raise ValueError(
            f"edit sequence length {len(edits)} != source length {len(source)}"
        )
    return tuple(edits)


def to_json_line(tokens: Sequence[str], tags: Sequence[EditTag]) -> str:
    obj = {
        "tokens": list(tokens),
        "correction": [t.render() for t in tags],
        **streams(tags),
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def from_json_line(line: str) -> tuple[list[str], tuple[EditTag, ...]]:
    """Parse one record into its tokens and correction tags; raises
    ``ValueError`` for any malformed record, including JSON nested too deeply
    to parse, one with an empty token or a token holding whitespace, and one
    whose binary streams hold anything but integers (JSON ``true`` and ``1.0``
    included) or are not those of its correction tags."""
    try:
        obj = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for key in ("tokens", "correction", *BINARY_STREAMS):
        if not isinstance(obj.get(key), list):
            raise ValueError(f"key {key!r} must hold a list")
    if not all(isinstance(t, str) for t in obj["tokens"] + obj["correction"]):
        raise ValueError("tokens and correction tags must be strings")
    tokens = list(obj["tokens"])
    for i, tok in enumerate(tokens):
        if not is_token(tok):
            raise ValueError(f"token {i} {tok!r} is empty or holds whitespace")
    tags = tuple(EditTag.parse(t) for t in obj["correction"])
    if len(tokens) != len(tags):
        raise ValueError(f"{len(tokens)} tokens but {len(tags)} correction tags")
    for name, derived in streams(tags).items():
        if not all(type(v) is int for v in obj[name]):
            raise ValueError(f"key {name!r} must hold integers 0 and 1, found {obj[name]}")
        if obj[name] != derived:
            raise ValueError(
                f"key {name!r} holds {obj[name]}, but the correction tags give {derived}"
            )
    return tokens, tags
