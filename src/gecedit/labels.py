"""Per-token labels for the seven classification subtasks.

The correction tags are the only label data.  The six binary streams follow
from them by one rule: detection marks every non-KEEP position (including
UNKNOWN), and each of the five type streams marks the positions whose tag is
of its family, so at most one fires per position and none at UNKNOWN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True)
class MultiHeadLabels:
    correction: tuple[EditTag, ...]

    def streams(self) -> dict[str, list[int]]:
        """Every binary stream of the tags, by name in ``BINARY_STREAMS`` order."""
        out = {name: [0] * len(self.correction) for name in BINARY_STREAMS}
        for i, tag in enumerate(self.correction):
            for name in _STREAMS_OF[tag.family]:
                out[name][i] = 1
        return out

    def stream(self, name: str) -> tuple[int, ...]:
        """The binary stream ``name`` (one of ``BINARY_STREAMS``) of the tags."""
        return tuple(self.streams()[name])

    def __len__(self) -> int:
        return len(self.correction)


def derive_labels(source: Sequence[str], edits: Sequence[EditTag]) -> MultiHeadLabels:
    """The labels of a correction sequence, checked against its source's length."""
    if len(edits) != len(source):
        raise ValueError(
            f"edit sequence length {len(edits)} != source length {len(source)}"
        )
    return MultiHeadLabels(tuple(edits))


def to_json_line(tokens: Sequence[str], labels: MultiHeadLabels) -> str:
    obj = {
        "tokens": list(tokens),
        "correction": [t.render() for t in labels.correction],
        **labels.streams(),
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def from_json_line(line: str) -> tuple[list[str], MultiHeadLabels]:
    """Parse one record; raises ``ValueError`` for any malformed record,
    including one with an empty token or a token holding whitespace, and one
    whose binary streams hold anything but integers (JSON ``true`` and ``1.0``
    included) or are not those of its correction tags."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for key in ("tokens", "correction", *BINARY_STREAMS):
        if not isinstance(obj.get(key), list):
            raise ValueError(f"key {key!r} must hold a list")
    if not all(isinstance(t, str) for t in obj["tokens"] + obj["correction"]):
        raise ValueError("tokens and correction tags must be strings")
    tokens = list(obj["tokens"])
    for i, tok in enumerate(tokens):
        if tok.split() != [tok]:  # the token format of ``gecedit.core``
            raise ValueError(f"token {i} {tok!r} is empty or holds whitespace")
    labels = MultiHeadLabels(tuple(EditTag.parse(t) for t in obj["correction"]))
    if len(tokens) != len(labels):
        raise ValueError(f"{len(tokens)} tokens but {len(labels)} correction tags")
    for name, derived in labels.streams().items():
        if not all(type(v) is int for v in obj[name]):
            raise ValueError(f"key {name!r} must hold integers 0 and 1, found {obj[name]}")
        if obj[name] != derived:
            raise ValueError(
                f"key {name!r} holds {obj[name]}, but the correction tags give {derived}"
            )
    return tokens, labels
