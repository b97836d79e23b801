"""Rule-driven corruption of clean sentences into errorful sources.

Corruption samples a per-sentence error count (Poisson around the profile's
expected count), then for each error draws an operation according to the
profile weights and applies it.  Every operation edits token positions that
no earlier operation touched, so each source token receives at most one edit
per sentence.  Everything is a pure function of (profile seed, line seed).
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, islice
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from gecedit.alignment import AlignedPair, align
from gecedit.core import CorpusFormatError, parse_pair_line, read_lines, text_lines
from gecedit.lexicon import Lexicon, load_patterns
from gecedit.transforms import VOWELS, pluralize, singularize

OPERATIONS = (
    "token_dict",
    "type_preposition",
    "type_determiner",
    "type_verbform",
    "type_noun_number",
    "type_pos",
    "ngram_swap",
    "ngram_insert",
    "ngram_delete",
    "ngram_replace",
    "char_pattern",
    "vowel_swap",
    "similar_sound",
    "adjective_adverb",
)

# The verb types that type_verbform draws among, in draw order, each mapped
# onto its lexicon form name.  Several types share a form, so a form is drawn
# in proportion to its number of types.
VERB_TYPE_FORMS = {
    "inf": "VB",
    "1sg": "VB",
    "2sg": "VB",
    "3sg": "VBZ",
    "pl": "VB",
    "part": "VBG",
    "p": "VBD",
    "1sgp": "VBD",
    "2sgp": "VBD",
    "3sgp": "VBD",
    "ppl": "VBD",
    "ppart": "VBN",
}

MAX_RETRIES = 10

# The largest expected_errors: the Poisson sampler compares a running product
# with exp(-expected_errors), which stays a normal double up to about 708.
MAX_EXPECTED_ERRORS = 700.0


def literal_suffix_safe(adjective: str) -> bool:
    """Whether the adjective's comparative and superlative are it plus -er and
    -est: not when a final e or y or a doubled consonant (big -> bigger)
    changes the spelling."""
    if len(adjective) < 3 or adjective[-1] in "ey":
        return False
    a, b, c = adjective[-3:]
    return not (a not in VOWELS and b in VOWELS and c not in VOWELS and c not in "wxy")


def literal_ly_safe(adjective: str) -> bool:
    """Whether the adjective's adverb is it plus -ly: not for a final y."""
    return not adjective.endswith("y")


class ProfileError(ValueError):
    """Malformed noise-profile file or inconsistent configuration."""


def _checked(what: str, value: float, upper: float) -> float:
    """``value`` if it is finite and in ``[0, upper]``; a NaN would hang the
    Poisson sampler, which stops only when a running product falls below
    ``exp(-expected_errors)``."""
    if not (math.isfinite(value) and 0.0 <= value <= upper):
        raise ProfileError(f"{what} must be a finite number in [0, {upper:g}], got {value}")
    return value


@dataclass
class NoiseProfile:
    """Per-operation weights plus the sentence-level error-count parameter."""

    weights: dict[str, float] = field(default_factory=dict)
    expected_errors: float = 1.0
    rng_seed: int = 0
    edit_dict_path: Optional[Path] = None

    def __post_init__(self) -> None:
        for name, value in self.weights.items():
            if name not in OPERATIONS:
                raise ProfileError(f"unknown operation {name!r}")
            _checked(f"weight for {name}", value, 1.0)
        _checked("expected_errors", self.expected_errors, MAX_EXPECTED_ERRORS)

    def active_operations(self) -> list[tuple[str, float]]:
        return [(name, w) for name, w in self.weights.items() if w > 0.0]


def load_profile(path: Union[str, Path]) -> NoiseProfile:
    """Parse a key=value profile file ('#' starts a comment); each key may
    be set once."""
    path = Path(path)
    first_set: dict[str, int] = {}  # each key -> the line that set it
    weights: dict[str, float] = {}
    expected = 1.0
    seed = 0
    edit_dict: Optional[Path] = None
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProfileError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key in first_set:
                raise ProfileError(f"duplicate key {key!r} (first set on line {first_set[key]})")
            first_set[key] = lineno
            if key == "expected_errors":
                expected = _checked(key, float(value), MAX_EXPECTED_ERRORS)
            elif key == "rng_seed":
                seed = int(value)
            elif key == "edit_dict":
                edit_dict = (path.parent / value).resolve()
                if not edit_dict.is_file():
                    raise ProfileError(f"edit_dict {value!r} is not a file")
            elif key in OPERATIONS:
                weights[key] = _checked(f"weight for {key}", float(value), 1.0)
            else:
                raise ProfileError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ProfileError(f"{path}:{lineno}: {exc}") from None
    return NoiseProfile(weights, expected, seed, edit_dict)


def build_edit_dictionary(pairs: Iterable[AlignedPair]) -> dict[str, dict[str, int]]:
    """Single-token substitutions seen in ``pairs``: correct token ->
    {erroneous variant: count}, both in first-seen order."""
    d: dict[str, dict[str, int]] = {}
    for pair in pairs:
        for i, token in enumerate(pair.source):
            span = pair.span_tokens(i)
            if len(span) == 1 and span[0] != token:
                d.setdefault(span[0], Counter())[token] += 1
    return d


def build_edit_dictionary_from_file(path: Union[str, Path]) -> dict[str, dict[str, int]]:
    def pairs():
        for lineno, line in enumerate(text_lines(path), start=1):
            if not line.strip():
                continue
            try:
                src, tgt = parse_pair_line(line)
            except CorpusFormatError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
            if src:
                yield align(src, tgt)

    return build_edit_dictionary(pairs())


def _line_rng(global_seed: int, line_seed: int) -> random.Random:
    digest = hashlib.blake2b(
        f"{global_seed}:{line_seed}".encode(), digest_size=8
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _draw_variant(variants: dict[str, int], rng: random.Random) -> str:
    """One variant, drawn with probability proportional to its count."""
    cumulative = list(accumulate(variants.values()))
    return list(variants)[bisect_right(cumulative, rng.randrange(cumulative[-1]))]


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0.0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


class _SentenceState:
    """Working token list plus one flag per token: whether an operation has
    edited it.  The two lists change by the same slice operations."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.edited = [False] * len(tokens)

    def unedited(self) -> list[int]:
        return [i for i, edited in enumerate(self.edited) if not edited]

    def window_free(self, p: int, n: int) -> bool:
        return not any(self.edited[p : p + n])

    def replace_span(self, p: int, new: Sequence[str]) -> None:
        self.tokens[p : p + len(new)] = new
        self.edited[p : p + len(new)] = [True] * len(new)

    def insert_span(self, p: int, new: Sequence[str]) -> None:
        self.tokens[p:p] = new
        self.edited[p:p] = [True] * len(new)

    @staticmethod
    def _restore_site(p: int, n: int) -> int:
        """The token whose edit restores deleted tokens ``p .. p+n-1``: the
        one before them, or at the sentence start the one after."""
        return p - 1 if p > 0 else p + n

    def can_delete(self, p: int, n: int) -> bool:
        """Whether deleting ``n`` tokens at ``p`` leaves a token, and neither
        they nor their restore site has been edited yet."""
        return (
            n < len(self.tokens)
            and not self.edited[self._restore_site(p, n)]
            and self.window_free(p, n)
        )

    def delete_span(self, p: int, n: int) -> None:
        """Delete ``n`` tokens at ``p``, as ``can_delete`` allowed, and mark
        the token that restores them as edited."""
        self.edited[self._restore_site(p, n)] = True
        del self.tokens[p : p + n]
        del self.edited[p : p + n]


class Noiser:
    """Bundles a profile with the inventories it draws from."""

    def __init__(
        self,
        profile: NoiseProfile,
        edit_dict: Optional[dict[str, dict[str, int]]] = None,
        *,
        lexicon: Lexicon,
    ):
        self.profile = profile
        self.lexicon = lexicon
        self.patterns = load_patterns()
        if edit_dict is None and profile.edit_dict_path is not None:
            edit_dict = build_edit_dictionary_from_file(profile.edit_dict_path)
        self.edit_dict = edit_dict

        active = profile.active_operations()
        self._op_names = [name for name, _ in active]
        self._op_weights = [w for _, w in active]
        if "token_dict" in self._op_names and not self.edit_dict:
            raise ProfileError("token_dict has weight > 0 but no edit dictionary is loaded")

        self._prep_set = frozenset(p for p in self.patterns.prepositions if p)
        self._det_set = frozenset(d for d in self.patterns.determiners if d)
        self._vowel_swaps = tuple((c, c[::-1]) for c in self.patterns.vowel_combinations)

    # -- public API ---------------------------------------------------------

    def corrupt(self, clean: Sequence[str], line_seed: int) -> tuple[list[str], Counter]:
        """Corrupt one sentence; returns (tokens, realized op counts)."""
        if not clean:
            raise ValueError("cannot corrupt an empty sentence")
        rng = _line_rng(self.profile.rng_seed, line_seed)
        n_errors = _poisson(rng, self.profile.expected_errors)
        state = _SentenceState(list(clean))
        realized: Counter = Counter()
        if not self._op_names:
            return state.tokens, realized
        for _ in range(n_errors):
            for _attempt in range(MAX_RETRIES):
                name = rng.choices(self._op_names, weights=self._op_weights, k=1)[0]
                if _OPERATION_FUNCS[name](self, state, rng):
                    realized[name] += 1
                    break
        return state.tokens, realized

    # -- operations ---------------------------------------------------------
    # Each returns True when it edited the sentence, False when inapplicable.

    @staticmethod
    def _rewrite_one(st: _SentenceState, rng: random.Random, cands, rewrite) -> bool:
        """Rewrite one token: draw a ``(position, detail)`` pair from ``cands``
        and replace the token with ``rewrite(token, detail, rng)``, unless
        that is empty or the token itself."""
        if not cands:
            return False
        i, detail = rng.choice(cands)
        new = rewrite(st.tokens[i], detail, rng)
        if not new or new == st.tokens[i]:
            return False
        st.replace_span(i, [new])
        return True

    def _rewrite_substring(self, st: _SentenceState, rng: random.Random, table, pick) -> bool:
        """Rewrite one token through ``_rewrite_one``: a candidate is a
        ``(key, detail)`` entry of ``table`` whose key occurs in an unedited
        token, and the first occurrence of that key becomes
        ``pick(detail, rng)``."""
        cands = [(i, entry) for i in st.unedited() for entry in table if entry[0] in st.tokens[i]]
        return self._rewrite_one(
            st, rng, cands, lambda tok, kv, rng_: tok.replace(kv[0], pick(kv[1], rng_), 1)
        )

    def _op_token_dict(self, st: _SentenceState, rng: random.Random) -> bool:
        d = self.edit_dict
        cands = [(i, d[st.tokens[i]]) for i in st.unedited() if st.tokens[i] in d]
        return self._rewrite_one(
            st, rng, cands, lambda _tok, variants, rng_: _draw_variant(variants, rng_)
        )

    def _swap_from_inventory(
        self, st: _SentenceState, rng: random.Random, inventory: Sequence[str], members: frozenset
    ) -> bool:
        cands = [i for i in st.unedited() if st.tokens[i] in members]
        if not cands:
            return False
        i = rng.choice(cands)
        choices = [w for w in inventory if w != st.tokens[i]]
        new = rng.choice(choices)
        if new == "":
            if not st.can_delete(i, 1):
                return False
            st.delete_span(i, 1)
        else:
            st.replace_span(i, [new])
        return True

    def _op_type_preposition(self, st, rng) -> bool:
        return self._swap_from_inventory(st, rng, self.patterns.prepositions, self._prep_set)

    def _op_type_determiner(self, st, rng) -> bool:
        return self._swap_from_inventory(st, rng, self.patterns.determiners, self._det_set)

    def _op_type_verbform(self, st, rng) -> bool:
        lex = self.lexicon

        def rewrite(token, lemma, rng_):
            forms = [
                form
                for name in VERB_TYPE_FORMS.values()
                if (form := lex.form(lemma, name)) not in (None, token)
            ]
            return rng_.choice(forms) if forms else None

        cands = [(i, forms[0][0]) for i in st.unedited() if (forms := lex.forms_of(st.tokens[i]))]
        return self._rewrite_one(st, rng, cands, rewrite)

    def _noun_flip(self, token: str) -> Optional[str]:
        lex = self.lexicon
        if token in lex.singular_of:
            flip = lex.singular_of[token]
            return flip if flip != token else None
        if token in lex.plural_of:
            flip = lex.plural_of[token]
            return flip if flip != token else None
        if len(token) < 3 or not token.isalpha() or token != token.lower():
            return None
        if token in self._prep_set or token in self._det_set or lex.is_verb(token):
            return None
        s = singularize(token, lex)
        if s is not None and len(s) >= 2 and pluralize(s, lex) == token:
            return s
        p = pluralize(token, lex)
        if singularize(p, lex) == token:
            return p
        return None

    def _op_type_noun_number(self, st, rng) -> bool:
        cands = [
            (i, flip) for i in st.unedited() if (flip := self._noun_flip(st.tokens[i])) is not None
        ]
        return self._rewrite_one(st, rng, cands, lambda _tok, flip, _rng: flip)

    def _pos_conversions(self, token: str) -> list[str]:
        adj = self.patterns.adjectives
        if token in self._prep_set or token in self._det_set:
            return []
        out: list[str] = []
        if token in adj:
            if literal_suffix_safe(token):
                out.extend([token + "er", token + "est"])
            if literal_ly_safe(token):
                out.append(token + "ly")
        elif token.endswith("ly") and token[:-2] in adj:
            out.append(token[:-2])
        elif token.endswith("est") and token[:-3] in adj:
            out.extend([token[:-3], token[:-3] + "er"])
        elif token.endswith("er") and token[:-2] in adj:
            out.extend([token[:-2], token[:-2] + "est"])
        else:
            flip = self._noun_flip(token)
            if flip is not None:
                out.append(flip)
        return out

    def _op_type_pos(self, st, rng) -> bool:
        cands = [(i, conv) for i in st.unedited() if (conv := self._pos_conversions(st.tokens[i]))]
        return self._rewrite_one(st, rng, cands, lambda _tok, conv, rng_: rng_.choice(conv))

    def _ngram_sizes(self, rng, limit: int) -> Optional[int]:
        sizes = [n for n in (2, 3) if n <= limit]
        if not sizes:
            return None
        return rng.choice(sizes)

    def _op_ngram_swap(self, st, rng) -> bool:
        n = self._ngram_sizes(rng, len(st.tokens))
        if n is None:
            return False
        starts = [
            p
            for p in range(len(st.tokens) - n + 1)
            if st.window_free(p, n) and st.tokens[p : p + n] != st.tokens[p : p + n][::-1]
        ]
        if not starts:
            return False
        p = rng.choice(starts)
        st.replace_span(p, st.tokens[p : p + n][::-1])
        return True

    def _op_ngram_insert(self, st, rng) -> bool:
        n = self._ngram_sizes(rng, len(st.tokens))
        if n is None:
            return False
        q = rng.randrange(len(st.tokens) - n + 1)
        words = list(st.tokens[q : q + n])
        p = rng.randrange(len(st.tokens) + 1)
        st.insert_span(p, words)
        return True

    def _op_ngram_delete(self, st, rng) -> bool:
        n = self._ngram_sizes(rng, len(st.tokens) - 1)
        if n is None:
            return False
        starts = [p for p in range(len(st.tokens) - n + 1) if st.can_delete(p, n)]
        if not starts:
            return False
        st.delete_span(rng.choice(starts), n)
        return True

    def _op_ngram_replace(self, st, rng) -> bool:
        n = self._ngram_sizes(rng, len(st.tokens))
        if n is None:
            return False
        # The pairs (p, q) are every free window p and every window q at least n
        # away that differs from it, in (p, q) order.  They are counted per p,
        # not listed, and drawn with the call ``rng.choice(pairs)`` would make.
        m = len(st.tokens) - n + 1
        windows = [tuple(st.tokens[p : p + n]) for p in range(m)]
        at: dict[tuple[str, ...], list[int]] = {}  # each window -> its positions, ascending
        for p, window in enumerate(windows):
            at.setdefault(window, []).append(p)
        free = [p for p in range(m) if st.window_free(p, n)]
        counts = []
        for p in free:
            same = at[windows[p]]
            far = max(0, p - n + 1) + max(0, m - p - n)  # the q at distance >= n
            equal = bisect_right(same, p - n) + len(same) - bisect_left(same, p + n)  # and equal
            counts.append(far - equal)
        cumulative = list(accumulate(counts))
        if not cumulative or not cumulative[-1]:
            return False
        k = rng.randrange(cumulative[-1])
        i = bisect_right(cumulative, k)
        p = free[i]
        k -= cumulative[i] - counts[i]  # the pair's rank among p's
        pairs = (q for q in range(m) if abs(p - q) >= n and windows[q] != windows[p])
        q = next(islice(pairs, k, None))
        st.replace_span(p, windows[q])
        return True

    def _op_char_pattern(self, st, rng) -> bool:
        return self._rewrite_substring(
            st, rng, self.patterns.letter_patterns, lambda new, _rng: new
        )

    def _op_vowel_swap(self, st, rng) -> bool:
        return self._rewrite_substring(st, rng, self._vowel_swaps, lambda new, _rng: new)

    def _op_similar_sound(self, st, rng) -> bool:
        return self._rewrite_substring(
            st, rng, self.patterns.similar_sound, lambda subs, rng_: rng_.choice(subs)
        )

    def _op_adjective_adverb(self, st, rng) -> bool:
        adj = self.patterns.adjectives
        cands = []
        for i in st.unedited():
            tok = st.tokens[i]
            if tok in adj and not tok.endswith("ly"):
                cands.append((i, tok + "ly"))
            elif tok.endswith("ly") and tok[:-2] in adj:
                cands.append((i, tok[:-2]))
        return self._rewrite_one(st, rng, cands, lambda _tok, new, _rng: new)


_OPERATION_FUNCS = {name: getattr(Noiser, f"_op_{name}") for name in OPERATIONS}
