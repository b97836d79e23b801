"""Edit-space primitives: tag families, tag parsing/rendering, and tagset files.

A tagset file is plain UTF-8 text, one tag string per line; integer ids are
assigned densely in file order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from gecedit.core import read_lines


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


MERGE_NAMES = ("HYPHEN", "SPACE")

# Case/split/agreement/verb rewrites, in canonical (id) order.
TRANSFORM_NAMES = (
    "AGREEMENT_PLURAL",
    "AGREEMENT_SINGULAR",
    "CASE_CAPITAL",
    "CASE_LOWER",
    "CASE_UPPER",
    "SPLIT_HYPHEN",
    "VERB_VBD_VB",
    "VERB_VBD_VBG",
    "VERB_VBD_VBN",
    "VERB_VBD_VBZ",
    "VERB_VBG_VB",
    "VERB_VBG_VBD",
    "VERB_VBG_VBN",
    "VERB_VBG_VBZ",
    "VERB_VBN_VB",
    "VERB_VBN_VBD",
    "VERB_VBN_VBG",
    "VERB_VBN_VBZ",
    "VERB_VBZ_VB",
    "VERB_VBZ_VBD",
    "VERB_VBZ_VBG",
    "VERB_VBZ_VBN",
    "VERB_VB_VBD",
    "VERB_VB_VBG",
    "VERB_VB_VBN",
    "VERB_VB_VBZ",
)

# Literal suffix edits, in canonical (id) order.  X_TO_Y rewrites suffix x to y,
# REMOVE_x strips x, APPEND_x concatenates x; all operate on lowercase suffixes.
SUFFIX_NAMES = (
    "AL_TO_E",
    "APPEND_able",
    "APPEND_age",
    "APPEND_al",
    "APPEND_ation",
    "APPEND_d",
    "APPEND_ed",
    "APPEND_er",
    "APPEND_es",
    "APPEND_est",
    "APPEND_ful",
    "APPEND_ing",
    "APPEND_ist",
    "APPEND_ive",
    "APPEND_ly",
    "APPEND_n",
    "APPEND_ness",
    "APPEND_ship",
    "APPEND_wise",
    "APPEND_y",
    "ATION_TO_ING",
    "CE_TO_T",
    "D_TO_S",
    "D_TO_T",
    "ED_TO_ING",
    "ED_TO_S",
    "ER_TO_EST",
    "EST_TO_ER",
    "E_TO_AL",
    "E_TO_ING",
    "ICAL_TO_Y",
    "IC_TO_Y",
    "IES_TO_Y",
    "ILY_TO_Y",
    "ING_TO_ATION",
    "ING_TO_E",
    "ING_TO_ED",
    "ING_TO_ION",
    "ING_TO_S",
    "ION_TO_ING",
    "N_TO_ING",
    "REMOVE_able",
    "REMOVE_age",
    "REMOVE_al",
    "REMOVE_ation",
    "REMOVE_d",
    "REMOVE_ed",
    "REMOVE_er",
    "REMOVE_es",
    "REMOVE_est",
    "REMOVE_ful",
    "REMOVE_ing",
    "REMOVE_ive",
    "REMOVE_less",
    "REMOVE_ly",
    "REMOVE_n",
    "REMOVE_ness",
    "REMOVE_y",
    "S_TO_D",
    "S_TO_ED",
    "S_TO_ING",
    "S_TO_T",
    "T_TO_CE",
    "T_TO_D",
    "T_TO_S",
    "Y_TO_IC",
    "Y_TO_ICAL",
    "Y_TO_IED",
    "Y_TO_IES",
    "Y_TO_ILY",
)

_TRANSFORM_SET = frozenset(TRANSFORM_NAMES)
_SUFFIX_SET = frozenset(SUFFIX_NAMES)
_PAYLOADLESS = frozenset((TagFamily.KEEP, TagFamily.DELETE, TagFamily.UNKNOWN))


def _is_token(text: str) -> bool:
    """Non-empty and free of whitespace."""
    return text.split() == [text]


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
            if pay is None or not _is_token(pay):
                raise TagError(f"{fam.value} payload must be a non-empty token, got {pay!r}")
        elif fam is TagFamily.MERGE:
            if pay not in MERGE_NAMES:
                raise TagError(f"MERGE payload must be one of {MERGE_NAMES}, got {pay!r}")
        elif fam is TagFamily.TRANSFORM:
            if pay not in _TRANSFORM_SET:
                raise TagError(f"unknown TRANSFORM name {pay!r}")
        elif fam is TagFamily.SUFFIXTRANSFORM:
            if pay not in _SUFFIX_SET:
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
MERGE_SPACE_TAG = EditTag(TagFamily.MERGE, "SPACE")
MERGE_HYPHEN_TAG = EditTag(TagFamily.MERGE, "HYPHEN")


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
            if not (head in ("$APPEND", "$REPLACE") and _is_token(payload)):
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
