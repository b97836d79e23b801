"""Edit-space primitives: tag families, tag parsing/rendering, and tagset files.

The rule name a MERGE, TRANSFORM or SUFFIXTRANSFORM tag carries must be a key
of the matching rule table in ``transforms``; ``MERGE_NAMES``,
``TRANSFORM_NAMES`` and ``SUFFIX_NAMES`` list those keys in canonical order.
A tagset file is plain UTF-8 text, one tag string per line; integer ids are
assigned densely in file order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from gecedit.core import is_token, read_lines
from gecedit.transforms import MERGE_JOINERS, SUFFIX_NAMES, SUFFIX_RULES, TRANSFORMS


class TagError(ValueError):
    """Malformed tag string or invalid tagset file."""


class TagFamily(enum.Enum):
    KEEP = "KEEP"
    DELETE = "DELETE"
    APPEND = "APPEND"
    REPLACE = "REPLACE"
    MERGE = "MERGE"
    TRANSFORM = "TRANSFORM"
    SUFFIXTRANSFORM = "SUFFIXTRANSFORM"
    UNKNOWN = "UNKNOWN"


MERGE_NAMES = tuple(MERGE_JOINERS)
TRANSFORM_NAMES = tuple(TRANSFORMS)

_PAYLOADLESS = frozenset((TagFamily.KEEP, TagFamily.DELETE, TagFamily.UNKNOWN))


@dataclass(frozen=True, slots=True)
class EditTag:
    """One edit operation, optionally parameterized by a token or rule name."""

    family: TagFamily
    payload: str | None = None

    def __post_init__(self) -> None:
        fam, pay = self.family, self.payload
        if fam in _PAYLOADLESS:
            if pay is not None:
                raise TagError(f"{fam.value} takes no payload, got {pay!r}")
        elif fam in (TagFamily.APPEND, TagFamily.REPLACE):
            if pay is None or not is_token(pay):
                raise TagError(f"{fam.value} payload must be a non-empty token, got {pay!r}")
        elif fam is TagFamily.MERGE:
            if pay not in MERGE_JOINERS:
                raise TagError(f"MERGE payload must be one of {MERGE_NAMES}, got {pay!r}")
        elif fam is TagFamily.TRANSFORM:
            if pay not in TRANSFORMS:
                raise TagError(f"unknown TRANSFORM name {pay!r}")
        elif fam is TagFamily.SUFFIXTRANSFORM:
            if pay not in SUFFIX_RULES:
                raise TagError(f"unknown SUFFIXTRANSFORM name {pay!r}")

    def render(self) -> str:
        if self.payload is None:
            return f"${self.family.value}"
        return f"${self.family.value}_{self.payload}"

    @classmethod
    def parse(cls, text: str) -> "EditTag":
        if not text.startswith("$"):
            raise TagError(f"tag must start with '$': {text!r}")
        body = text[1:]
        if body in ("KEEP", "DELETE", "UNKNOWN"):
            return cls(TagFamily[body])
        name, sep, payload = body.partition("_")
        if not sep:
            raise TagError(f"unknown tag {text!r}")
        try:
            fam = TagFamily[name]
        except KeyError:
            raise TagError(f"unknown tag family in {text!r}") from None
        if fam in _PAYLOADLESS:
            raise TagError(f"{fam.value} takes no payload: {text!r}")
        return cls(fam, payload)


KEEP_TAG = EditTag(TagFamily.KEEP)
DELETE_TAG = EditTag(TagFamily.DELETE)
UNKNOWN_TAG = EditTag(TagFamily.UNKNOWN)


class TagSet:
    """The enumerated edit space: dense id <-> tag mapping in file order.

    A tag's identity is its text: ``names`` holds the tag strings and every
    lookup is by text.  ``tag_of`` parses one name, on its first use, and
    iterating the set yields every name's ``EditTag`` through it.  ``origin``,
    a file name, starts each error message: ``origin:line:`` for a malformed
    tag, ``origin:`` for a fault of the set as a whole.
    """

    def __init__(self, names: Iterable[str], origin: str | None = None):
        self.names = tuple(names)
        index: dict[str, int] = {}
        duplicate = None
        for i, name in enumerate(self.names):
            # Nearly every line of a large tagset is an APPEND or REPLACE tag,
            # valid when its payload is a token; EditTag.parse checks the rest.
            head, _, payload = name.partition("_")
            if not (head in ("$APPEND", "$REPLACE") and is_token(payload)):
                try:
                    EditTag.parse(name)
                except TagError as exc:
                    raise TagError(f"{origin}:{i + 1}: {exc}" if origin else str(exc)) from None
            if index.setdefault(name, i) != i and duplicate is None:
                duplicate = f"duplicate tag {name} (lines {index[name] + 1} and {i + 1})"
        # Set-wide faults come after every tag parsed: a malformed line is reported first.
        fault = duplicate
        for required in ("$KEEP", "$DELETE", "$UNKNOWN"):
            if fault is None and required not in index:
                fault = f"tagset must contain {required}"
        if fault is not None:
            raise TagError(f"{origin}: {fault}" if origin else fault)
        self._index = index
        self.keep_id = index["$KEEP"]
        self._parsed: dict[int, EditTag] = {}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, tag: Union[EditTag, str]) -> bool:
        key = tag.render() if isinstance(tag, EditTag) else tag
        return key in self._index

    def __iter__(self):
        return map(self.tag_of, range(len(self.names)))

    def id_of(self, tag: Union[EditTag, str]) -> int:
        key = tag.render() if isinstance(tag, EditTag) else tag
        try:
            return self._index[key]
        except KeyError:
            raise TagError(f"tag {key} not in tagset") from None

    def tag_of(self, tag_id: int) -> EditTag:
        tag = self._parsed.get(tag_id)
        if tag is None:
            tag = self._parsed[tag_id] = EditTag.parse(self.names[tag_id])
        return tag


def load_tagset(path: Union[str, Path]) -> TagSet:
    """Read a tagset file; rejects duplicates and malformed tag strings."""
    return TagSet(read_lines(path), origin=str(path))
