"""Token rewriting behind transform and suffix tags.

Every function here is mechanical and total-where-possible: it either returns
the rewritten token(s) or None when the rule does not apply.  Tag
classification relies on this by simulating the rewrite and accepting a tag
only when the output reproduces the aligned target exactly, so anything
classified is guaranteed to apply back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from gecedit.tags import SUFFIX_NAMES, TRANSFORM_NAMES

if TYPE_CHECKING:  # pragma: no cover
    from gecedit.lexicon import Lexicon

_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")
VOWELS = "aeiou"


def _suffix_rule(name: str) -> tuple[str, str]:
    if name.startswith("REMOVE_"):
        return name[len("REMOVE_"):], ""
    if name.startswith("APPEND_"):
        return "", name[len("APPEND_"):]
    old, _, new = name.partition("_TO_")
    return old.lower(), new.lower()


# SUFFIXTRANSFORM name -> (old ending, new ending): the rule rewrites stem + old
# to stem + new.
SUFFIX_RULES = {name: _suffix_rule(name) for name in SUFFIX_NAMES}

# VERB_<source form>_<target form> -> (source form, target form).
VERB_RULES = {
    name: tuple(name.split("_")[1:]) for name in TRANSFORM_NAMES if name.startswith("VERB_")
}


def pluralize(word: str, lexicon: "Lexicon") -> str:
    """Rule-based pluralization with irregular lookup."""
    irr = lexicon.plural_of.get(word)
    if irr is not None:
        return irr
    if word.endswith(_SIBILANT_ENDINGS):
        return word + "es"
    if len(word) >= 2 and word.endswith("y") and word[-2].lower() not in VOWELS:
        return word[:-1] + "ies"
    return word + "s"


def singularize(word: str, lexicon: "Lexicon") -> Optional[str]:
    """Inverse of pluralize; None when the word does not look plural."""
    irr = lexicon.singular_of.get(word)
    if irr is not None:
        return irr
    if len(word) >= 4 and word.endswith("ies"):
        return word[:-3] + "y"
    if word.endswith("es") and len(word) > 2:
        stem = word[:-2]
        if stem.endswith(_SIBILANT_ENDINGS):
            return stem
    if word.endswith("s") and not word.endswith("ss") and len(word) > 1:
        return word[:-1]
    return None


def _apply_case(name: str, token: str) -> Optional[str]:
    if name == "CASE_CAPITAL":
        return token[0].upper() + token[1:]
    if name == "CASE_LOWER":
        return token.lower()
    if name == "CASE_UPPER":
        return token.upper()
    return None


def _apply_verb(name: str, token: str, lexicon: "Lexicon") -> Optional[str]:
    src_form, tgt_form = VERB_RULES[name]
    for lemma, form in lexicon.forms_of(token):
        if form != src_form:
            continue
        out = lexicon.form(lemma, tgt_form)
        if out is not None:
            return out
    return None


def apply_suffix(name: str, token: str) -> Optional[str]:
    """Literal suffix edit named by the SUFFIXTRANSFORM rule: ``stem + old``
    becomes ``stem + new``, provided the result is not empty."""
    old, new = SUFFIX_RULES[name]
    if token.endswith(old):
        return token[: len(token) - len(old)] + new or None
    return None


def apply_transform(name: str, token: str, lexicon: "Lexicon") -> Optional[list[str]]:
    """Apply a TRANSFORM rule; returns the output tokens or None."""
    if name.startswith("CASE_"):
        out = _apply_case(name, token)
        return None if out is None else [out]
    if name == "SPLIT_HYPHEN":
        if "-" not in token:
            return None
        left, _, right = token.partition("-")
        if not left or not right:
            return None
        return [left, right]
    if name == "AGREEMENT_PLURAL":
        return [pluralize(token, lexicon)]
    if name == "AGREEMENT_SINGULAR":
        out = singularize(token, lexicon)
        return None if out is None else [out]
    if name in VERB_RULES:
        out = _apply_verb(name, token, lexicon)
        return None if out is None else [out]
    return None
