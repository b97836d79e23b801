"""Per-token label streams for the seven classification subtasks.

The six binary streams are derived from the correction stream: detection
marks every non-KEEP position (including UNKNOWN), and exactly one of the
five type streams fires for delete/append/replace/merge/transform positions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

from gecedit.tags import EditTag, TagFamily

BINARY_STREAMS = ("deletion", "insertion", "substitution", "merge", "transformation", "detection")

_FAMILY_TO_STREAM = {
    TagFamily.DELETE: "deletion",
    TagFamily.APPEND: "insertion",
    TagFamily.REPLACE: "substitution",
    TagFamily.MERGE: "merge",
    TagFamily.TRANSFORM: "transformation",
    TagFamily.SUFFIXTRANSFORM: "transformation",
}


@dataclass(frozen=True)
class MultiHeadLabels:
    deletion: tuple[int, ...]
    insertion: tuple[int, ...]
    substitution: tuple[int, ...]
    merge: tuple[int, ...]
    transformation: tuple[int, ...]
    detection: tuple[int, ...]
    correction: tuple[EditTag, ...]

    def stream(self, name: str) -> tuple[int, ...]:
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.correction)


def derive_labels(source: Sequence[str], edits: Sequence[EditTag]) -> MultiHeadLabels:
    """Expand a correction sequence into the seven parallel label streams."""
    if len(edits) != len(source):
        raise ValueError(
            f"edit sequence length {len(edits)} != source length {len(source)}"
        )
    streams = {name: [0] * len(edits) for name in BINARY_STREAMS}
    for i, tag in enumerate(edits):
        if tag.family is TagFamily.KEEP:
            continue
        streams["detection"][i] = 1
        stream = _FAMILY_TO_STREAM.get(tag.family)
        if stream is not None:  # UNKNOWN belongs to no type stream
            streams[stream][i] = 1
    return MultiHeadLabels(
        correction=tuple(edits),
        **{name: tuple(vals) for name, vals in streams.items()},
    )


def to_json_line(tokens: Sequence[str], labels: MultiHeadLabels) -> str:
    obj = {
        "tokens": list(tokens),
        "correction": [t.render() for t in labels.correction],
    }
    for name in BINARY_STREAMS:
        obj[name] = list(labels.stream(name))
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def from_json_line(line: str) -> tuple[list[str], MultiHeadLabels]:
    """Parse one record; raises ``ValueError`` for any malformed record."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for key in ("tokens", "correction", *BINARY_STREAMS):
        if not isinstance(obj.get(key), list):
            raise ValueError(f"key {key!r} must hold a list")
    if not all(isinstance(t, str) for t in obj["tokens"] + obj["correction"]):
        raise ValueError("tokens and correction tags must be strings")
    tokens = list(obj["tokens"])
    correction = tuple(EditTag.parse(t) for t in obj["correction"])
    streams = {name: tuple(obj[name]) for name in BINARY_STREAMS}
    labels = MultiHeadLabels(correction=correction, **streams)
    if len(tokens) != len(correction):
        raise ValueError(f"{len(tokens)} tokens but {len(correction)} correction tags")
    if any(len(labels.stream(n)) != len(correction) for n in BINARY_STREAMS):
        raise ValueError("label streams have inconsistent lengths")
    if any(y not in (0, 1) for n in BINARY_STREAMS for y in labels.stream(n)):
        raise ValueError("binary label streams must hold only 0 and 1")
    return tokens, labels


def read_labeled(fp: Iterable[str]) -> Iterator[tuple[list[str], MultiHeadLabels]]:
    """Iterate (tokens, labels) records from a JSON-lines stream."""
    for line in fp:
        line = line.strip()
        if line:
            yield from_json_line(line)


def write_labeled(fp: TextIO, records: Iterable[tuple[Sequence[str], MultiHeadLabels]]) -> int:
    count = 0
    for tokens, labels in records:
        fp.write(to_json_line(tokens, labels) + "\n")
        count += 1
    return count
