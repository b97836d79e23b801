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

Every non-empty column of verbs.tsv and irregular_plurals.tsv must be a token,
so that a verb or agreement rewrite yields one token, and a lemma, a singular
or a plural may appear on one line only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from gecedit.core import is_token, read_lines, read_text

VERB_FORM_NAMES = ("VB", "VBD", "VBG", "VBN", "VBZ")


class LexiconError(ValueError):
    """Malformed or missing lexicon data."""


class PatternDataError(ValueError):
    """Missing pattern file or checksum mismatch."""


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
    singular_of: dict[str, str]
    _by_surface: dict[str, list[tuple[str, str]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
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
        forms = self.verb_forms.get(lemma)
        if forms is None:
            return None
        return forms.get(form_name)

    def is_verb(self, surface: str) -> bool:
        return surface in self._by_surface


def _check_tokens(path: Path, lineno: int, cols: list[str]) -> None:
    """Every non-empty column of a lexicon line must be a token."""
    for col in cols:
        if col and not is_token(col):
            raise LexiconError(f"{path}:{lineno}: {col!r} is not a token")


def load_lexicon(
    verbs_path: Union[str, Path, None] = None,
    plurals_path: Union[str, Path, None] = None,
) -> Lexicon:
    """Load the verb lexicon and irregular-plural list (bundled by default)."""
    verbs_path = Path(verbs_path) if verbs_path else default_verbs_path()
    plurals_path = Path(plurals_path) if plurals_path else default_plurals_path()

    verb_forms: dict[str, dict[str, str]] = {}
    for lineno, line in enumerate(read_lines(verbs_path), start=1):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise LexiconError(f"{verbs_path}:{lineno}: expected 5 columns, got {len(cols)}")
        _check_tokens(verbs_path, lineno, cols)
        lemma = cols[0]
        if not lemma or lemma != lemma.lower():
            raise LexiconError(f"{verbs_path}:{lineno}: lemma must be non-empty lowercase")
        if lemma in verb_forms:
            raise LexiconError(f"{verbs_path}:{lineno}: duplicate lemma {lemma!r}")
        forms = {"VB": lemma}
        for name, surface in zip(VERB_FORM_NAMES[1:], cols[1:]):
            if surface:
                forms[name] = surface
        verb_forms[lemma] = forms

    plural_of: dict[str, str] = {}
    singular_of: dict[str, str] = {}
    first_line: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(read_lines(plurals_path), start=1):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 2 or not cols[0] or not cols[1]:
            raise LexiconError(f"{plurals_path}:{lineno}: expected singular<TAB>plural")
        _check_tokens(plurals_path, lineno, cols)
        singular, plural = cols
        for column, word in (("singular", singular), ("plural", plural)):
            first = first_line.setdefault((column, word), lineno)
            if first != lineno:
                raise LexiconError(
                    f"{plurals_path}:{lineno}: duplicate {column} {word!r} (first on line {first})"
                )
        plural_of[singular] = plural
        singular_of[plural] = singular

    return Lexicon(verb_forms, plural_of, singular_of)


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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_patterns(directory: Union[str, Path, None] = None) -> PatternInventories:
    """Load and checksum-verify the pattern inventories."""
    directory = Path(directory) if directory else data_dir()
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise PatternDataError(f"missing manifest: {manifest_path}")
    manifest = json.loads(read_text(manifest_path))
    expected = manifest.get("files", {})
    for name in PATTERN_FILES:
        path = directory / name
        if not path.exists():
            raise PatternDataError(f"missing pattern file: {path}")
        if name not in expected:
            raise PatternDataError(f"{name} not listed in manifest")
        digest = _sha256(path)
        if digest != expected[name]:
            raise PatternDataError(
                f"checksum mismatch for {name}: {digest} != {expected[name]}"
            )

    def entries(name: str) -> list[str]:
        return [line for line in read_lines(directory / name) if line]

    return PatternInventories(
        prepositions=tuple(read_lines(directory / "prepositions.txt")),
        determiners=tuple(read_lines(directory / "determiners.txt")),
        letter_patterns=tuple(
            (k, v) for k, _, v in (ln.partition("\t") for ln in entries("letter_patterns.tsv"))
        ),
        vowel_combinations=tuple(entries("vowel_combinations.txt")),
        similar_sound=tuple(
            (k, tuple(v.split(",")))
            for k, _, v in (ln.partition("\t") for ln in entries("similar_sound.tsv"))
        ),
        adjectives=frozenset(entries("adjectives.txt")),
    )


def default_tagset_path() -> Path:
    return data_dir() / "default.tagset"


def default_profile_path() -> Path:
    return data_dir() / "default.profile"


def default_verbs_path() -> Path:
    return data_dir() / "verbs.tsv"


def default_plurals_path() -> Path:
    return data_dir() / "irregular_plurals.tsv"
