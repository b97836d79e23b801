"""Bundled linguistic data: verb-form lexicon, irregular plurals, and the
error-pattern inventories used by the synthetic-noise generator.

File formats
------------
verbs.tsv               lemma<TAB>VBD<TAB>VBG<TAB>VBN<TAB>VBZ (lemma is the VB form)
irregular_plurals.tsv   singular<TAB>plural
prepositions.txt        one entry per line; an empty line is the empty entry
determiners.txt         same as prepositions.txt
letter_patterns.tsv     pattern<TAB>replacement, in inventory order
vowel_combinations.txt  one two-letter combination per line
similar_sound.tsv       letter<TAB>comma-separated substitutes
adjectives.txt          one adjective per line
manifest.json           {"files": {name: sha256-hex}}

verbs.tsv and irregular_plurals.tsv are read by one row rule: every non-empty
column must be a token, so that a verb or agreement rewrite yields one token.
A lemma, a singular or a plural may appear on one line only; a repeat is an
error that names the line of its first use.  ``Lexicon(verb_forms, plural_of)``
derives ``singular_of`` from ``plural_of``.

``load_lexicon`` and ``load_patterns`` parse through ``core.read_once``: files
that hold the bytes of an earlier load in the process give that load's object
again, which callers share and must not change.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional, Union

from gecedit.core import DataFile, is_token, read_once

VERB_FORM_NAMES = ("VB", "VBD", "VBG", "VBN", "VBZ")

# whitespace that ``str.split`` splits at, the tab separator aside
_SPACE_NOT_TAB = re.compile(r"[^\S\t]").search


class LexiconError(ValueError):
    """Malformed or missing lexicon data."""


class PatternDataError(ValueError):
    """Missing pattern file or checksum mismatch."""


@cache
def data_dir() -> Path:
    """Directory holding the bundled data files."""
    return Path(resources.files("gecedit").joinpath("data"))


@dataclass
class Lexicon:
    """Verb inflections and irregular noun numbers.

    Keys are lowercase and lookups are case-sensitive.
    """

    verb_forms: dict[str, dict[str, str]]
    plural_of: dict[str, str]
    singular_of: dict[str, str] = field(init=False, repr=False)
    _by_surface: dict[str, list[tuple[str, str]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # exact, since a plural appears on one line only
        self.singular_of = {plural: singular for singular, plural in self.plural_of.items()}
        self._by_surface = {}
        for lemma, forms in self.verb_forms.items():
            for form_name in VERB_FORM_NAMES:
                surface = forms.get(form_name)
                if surface:
                    self._by_surface.setdefault(surface, []).append((lemma, form_name))

    def forms_of(self, surface: str) -> list[tuple[str, str]]:
        """All (lemma, form name) readings of a surface token, in file order."""
        return self._by_surface.get(surface, [])

    def form(self, lemma: str, form_name: str) -> Optional[str]:
        return self.verb_forms.get(lemma, {}).get(form_name)

    def is_verb(self, surface: str) -> bool:
        return surface in self._by_surface


def _rows(file: DataFile, width: int, shape: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, columns) for each non-blank line of a tab-separated lexicon
    file.  A line must have ``width`` columns and no whitespace but its tabs,
    so that every non-empty column is a token."""
    path = file.path
    for lineno, line in enumerate(file.lines(), start=1):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != width:
            raise LexiconError(f"{path}:{lineno}: expected {shape}, got {len(cols)}")
        if _SPACE_NOT_TAB(line):
            bad = next(col for col in cols if col and not is_token(col))
            raise LexiconError(f"{path}:{lineno}: {bad!r} is not a token")
        yield lineno, cols


def load_lexicon(
    verbs_path: Union[str, Path, None] = None,
    plurals_path: Union[str, Path, None] = None,
) -> Lexicon:
    """Load the verb lexicon and irregular-plural list (bundled when a path is None)."""
    return read_once(
        _parse_lexicon,
        default_verbs_path() if verbs_path is None else verbs_path,
        default_plurals_path() if plurals_path is None else plurals_path,
    )


def _parse_lexicon(verbs: DataFile, plurals: DataFile) -> Lexicon:
    first_line: dict[tuple[str, str], int] = {}

    def once(path: Union[str, Path], lineno: int, column: str, word: str) -> None:
        first = first_line.setdefault((column, word), lineno)
        if first != lineno:
            raise LexiconError(
                f"{path}:{lineno}: duplicate {column} {word!r} (first on line {first})"
            )

    verb_forms: dict[str, dict[str, str]] = {}
    for lineno, cols in _rows(verbs, 5, "5 columns"):
        lemma = cols[0]
        if not lemma or lemma != lemma.lower():
            raise LexiconError(f"{verbs.path}:{lineno}: lemma must be non-empty lowercase")
        once(verbs.path, lineno, "lemma", lemma)
        verb_forms[lemma] = {name: word for name, word in zip(VERB_FORM_NAMES, cols) if word}

    plural_of: dict[str, str] = {}
    for lineno, (singular, plural) in _rows(plurals, 2, "singular<TAB>plural (2 columns)"):
        if not singular or not plural:
            raise LexiconError(f"{plurals.path}:{lineno}: singular and plural must be non-empty")
        once(plurals.path, lineno, "singular", singular)
        once(plurals.path, lineno, "plural", plural)
        plural_of[singular] = plural
    return Lexicon(verb_forms, plural_of)


PATTERN_FILES = (
    "prepositions.txt",
    "determiners.txt",
    "letter_patterns.tsv",
    "vowel_combinations.txt",
    "similar_sound.tsv",
    "adjectives.txt",
)


@dataclass(frozen=True)
class PatternInventories:
    """Inventories backing the rule-driven corruption operations."""

    prepositions: tuple[str, ...]
    determiners: tuple[str, ...]
    letter_patterns: tuple[tuple[str, str], ...]
    vowel_combinations: tuple[str, ...]
    similar_sound: tuple[tuple[str, tuple[str, ...]], ...]
    adjectives: frozenset[str]


def load_patterns(directory: Union[str, Path, None] = None) -> PatternInventories:
    """Load and checksum-verify the pattern inventories (bundled when ``directory``
    is None)."""
    directory = os.fspath(data_dir() if directory is None else directory)
    if not directory:
        raise PatternDataError("missing pattern directory: ''")
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise PatternDataError(f"missing manifest: {manifest_path}")
    paths = [os.path.join(directory, name) for name in PATTERN_FILES]
    for path in paths:
        if not os.path.exists(path):
            raise PatternDataError(f"missing pattern file: {path}")
    return read_once(_parse_patterns, manifest_path, *paths)


def _parse_patterns(manifest_file: DataFile, *files: DataFile) -> PatternInventories:
    """The inventories of ``files``, in ``PATTERN_FILES`` order, once each file's
    bytes match the SHA-256 that ``manifest_file`` lists for it."""
    text = manifest_file.text  # outside the try: a bad byte is already a file:line error
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        raise PatternDataError(f"{manifest_file.path}: {exc}") from None
    expected = manifest.get("files", {}) if isinstance(manifest, dict) else None
    if not isinstance(expected, dict):
        raise PatternDataError(
            f'{manifest_file.path}: expected {{"files": {{name: sha256-hex}}}}'
        )
    for name, file in zip(PATTERN_FILES, files):
        if name not in expected:
            raise PatternDataError(f"{name} not listed in manifest")
        digest = hashlib.sha256(file.data).hexdigest()
        if digest != expected[name]:
            raise PatternDataError(
                f"checksum mismatch for {name}: {digest} != {expected[name]}"
            )
    (prepositions, determiners, letter_patterns, vowel_combinations, similar_sound,
     adjectives) = (file.lines() for file in files)

    def entries(lines: list[str]) -> list[str]:
        return [line for line in lines if line]

    return PatternInventories(
        prepositions=tuple(prepositions),
        determiners=tuple(determiners),
        letter_patterns=tuple(
            (k, v) for k, _, v in (ln.partition("\t") for ln in entries(letter_patterns))
        ),
        vowel_combinations=tuple(entries(vowel_combinations)),
        similar_sound=tuple(
            (k, tuple(v.split(",")))
            for k, _, v in (ln.partition("\t") for ln in entries(similar_sound))
        ),
        adjectives=frozenset(entries(adjectives)),
    )


def default_tagset_path() -> Path:
    return data_dir() / "default.tagset"


def default_profile_path() -> Path:
    return data_dir() / "default.profile"


def default_verbs_path() -> Path:
    return data_dir() / "verbs.tsv"


def default_plurals_path() -> Path:
    return data_dir() / "irregular_plurals.tsv"
