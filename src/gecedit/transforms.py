"""The edit rules behind merge, transform and suffix tags, each stated once.

``TRANSFORMS``, ``SUFFIX_RULES`` and ``MERGE_JOINERS`` map each rule name, in
canonical (id) order, to its rule.  ``tags`` takes the rule names from their
keys, and tag application (``edit2seq``) and classification (``seq2edit``)
both read the rules here.  A rewrite returns the rewritten token(s), or None
when the rule does not apply.  Classification simulates the rewrite and
accepts a tag only when the output reproduces the aligned target exactly, so
anything classified is guaranteed to apply back.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Optional

from gecedit.lexicon import VERB_FORM_NAMES, Lexicon

_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")
VOWELS = "aeiou"

# MERGE name -> what joins the two merged tokens.
MERGE_JOINERS = {"HYPHEN": "-", "SPACE": ""}

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

# VERB_<source form>_<target form> -> (source form, target form), for every
# ordered pair of distinct forms, in name order.
VERB_RULES = dict(
    sorted((f"VERB_{src}_{tgt}", (src, tgt)) for src, tgt in permutations(VERB_FORM_NAMES, 2))
)


def pluralize(word: str, lexicon: Lexicon) -> str:
    """Rule-based pluralization with irregular lookup."""
    irr = lexicon.plural_of.get(word)
    if irr is not None:
        return irr
    if word.endswith(_SIBILANT_ENDINGS):
        return word + "es"
    if len(word) >= 2 and word.endswith("y") and word[-2].lower() not in VOWELS:
        return word[:-1] + "ies"
    return word + "s"


def singularize(word: str, lexicon: Lexicon) -> Optional[str]:
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


Rewrite = Callable[[str, Lexicon], Optional[list[str]]]


def _singular(token: str, lexicon: Lexicon) -> Optional[list[str]]:
    out = singularize(token, lexicon)
    return None if out is None else [out]


def _split_hyphen(token: str, lexicon: Lexicon) -> Optional[list[str]]:
    left, _, right = token.partition("-")
    return [left, right] if left and right else None


def _verb_rewrite(src_form: str, tgt_form: str) -> Rewrite:
    """The lemma's ``tgt_form`` of the first reading of a token as ``src_form``
    whose lemma has one."""

    def rewrite(token: str, lexicon: Lexicon) -> Optional[list[str]]:
        for lemma, form in lexicon.forms_of(token):
            if form == src_form:
                out = lexicon.form(lemma, tgt_form)
                if out is not None:
                    return [out]
        return None

    return rewrite


# TRANSFORM name -> rewrite, in canonical (id) order.
TRANSFORMS: dict[str, Rewrite] = {
    "AGREEMENT_PLURAL": lambda token, lexicon: [pluralize(token, lexicon)],
    "AGREEMENT_SINGULAR": _singular,
    "CASE_CAPITAL": lambda token, _lexicon: [token[0].upper() + token[1:]],
    "CASE_LOWER": lambda token, _lexicon: [token.lower()],
    "CASE_UPPER": lambda token, _lexicon: [token.upper()],
    "SPLIT_HYPHEN": _split_hyphen,
    **{name: _verb_rewrite(*forms) for name, forms in VERB_RULES.items()},
}


def apply_suffix(name: str, token: str) -> Optional[str]:
    """Literal suffix edit named by the SUFFIXTRANSFORM rule: ``stem + old``
    becomes ``stem + new``, provided the result is not empty."""
    old, new = SUFFIX_RULES[name]
    if token.endswith(old):
        return token[: len(token) - len(old)] + new or None
    return None


def apply_transform(name: str, token: str, lexicon: Lexicon) -> Optional[list[str]]:
    """Apply a TRANSFORM rule; returns the output tokens or None."""
    return TRANSFORMS[name](token, lexicon)
