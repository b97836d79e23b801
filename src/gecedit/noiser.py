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
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO, Union

from gecedit.alignment import AlignedPair, align
from gecedit.core import format_pair_line, tokenize
from gecedit.lexicon import Lexicon, PatternInventories, load_lexicon, load_patterns
from gecedit.transforms import pluralize, singularize

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

# Verb types from the error-pattern inventory mapped onto lexicon form names.
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

_VOWELS = "aeiou"
MAX_RETRIES = 10


class ProfileError(ValueError):
    """Malformed noise-profile file or inconsistent configuration."""


def _checked(what: str, value: float, upper: float = math.inf) -> float:
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
        _checked("expected_errors", self.expected_errors)

    def active_operations(self) -> list[tuple[str, float]]:
        return [(name, w) for name, w in self.weights.items() if w > 0.0]


def load_profile(path: Union[str, Path]) -> NoiseProfile:
    """Parse a key=value profile file ('#' starts a comment)."""
    path = Path(path)
    weights: dict[str, float] = {}
    expected = 1.0
    seed = 0
    edit_dict: Optional[Path] = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProfileError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key == "expected_errors":
                expected = _checked(key, float(value))
            elif key == "rng_seed":
                seed = int(value)
            elif key == "edit_dict":
                edit_dict = (path.parent / value).resolve()
            elif key in OPERATIONS:
                weights[key] = _checked(f"weight for {key}", float(value), 1.0)
            else:
                raise ProfileError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ProfileError(f"{path}:{lineno}: {exc}") from None
    return NoiseProfile(weights, expected, seed, edit_dict)


class EditDictionary:
    """Observed erroneous variants per correct token, applied correct->error."""

    def __init__(self) -> None:
        self._entries: dict[str, dict[str, int]] = {}

    def add(self, correct: str, variant: str, count: int = 1) -> None:
        self._entries.setdefault(correct, {})
        self._entries[correct][variant] = self._entries[correct].get(variant, 0) + count

    def has(self, correct: str) -> bool:
        return correct in self._entries

    def variants(self, correct: str) -> list[tuple[str, int]]:
        return list(self._entries.get(correct, {}).items())

    def __len__(self) -> int:
        return len(self._entries)

    def is_empty(self) -> bool:
        return not self._entries


def build_edit_dictionary(pairs: Iterable[AlignedPair]) -> EditDictionary:
    """Collect single-token substitutions (correct -> seen error) from pairs."""
    d = EditDictionary()
    for pair in pairs:
        for i, token in enumerate(pair.source):
            span = pair.span_tokens(i)
            if len(span) == 1 and span[0] != token:
                d.add(correct=span[0], variant=token)
    return d


def build_edit_dictionary_from_file(path: Union[str, Path]) -> EditDictionary:
    from gecedit.core import parse_pair_line

    def pairs():
        with open(path, encoding="utf-8") as fp:
            for line in fp:
                if not line.strip():
                    continue
                src, tgt = parse_pair_line(line)
                if src:
                    yield align(src, tgt)

    return build_edit_dictionary(pairs())


def _line_rng(global_seed: int, line_seed: int) -> random.Random:
    digest = hashlib.blake2b(
        f"{global_seed}:{line_seed}".encode(), digest_size=8
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


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
    """Working token list plus the set of already-edited (locked) positions."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.locked: set[int] = set()

    def unlocked(self) -> list[int]:
        return [i for i in range(len(self.tokens)) if i not in self.locked]

    def is_locked(self, i: int) -> bool:
        return i in self.locked

    def window_free(self, p: int, n: int) -> bool:
        return all(p + k not in self.locked for k in range(n))

    def replace(self, i: int, new: str) -> None:
        self.tokens[i] = new
        self.locked.add(i)

    def replace_span(self, p: int, new: Sequence[str]) -> None:
        self.tokens[p : p + len(new)] = list(new)
        self.locked.update(range(p, p + len(new)))

    def insert_span(self, p: int, new: Sequence[str]) -> None:
        n = len(new)
        self.tokens[p:p] = list(new)
        self.locked = {(k if k < p else k + n) for k in self.locked}
        self.locked.update(range(p, p + n))

    def delete_span(self, p: int, n: int) -> None:
        # The restore edit lands on the preceding token, so lock it too.
        del self.tokens[p : p + n]
        self.locked = {(k if k < p else k - n) for k in self.locked}
        if p > 0:
            self.locked.add(p - 1)
        elif self.tokens:
            self.locked.add(0)


class Noiser:
    """Bundles a profile with the inventories it draws from."""

    def __init__(
        self,
        profile: NoiseProfile,
        edit_dict: Optional[EditDictionary] = None,
        lexicon: Optional[Lexicon] = None,
        patterns: Optional[PatternInventories] = None,
    ):
        self.profile = profile
        self.lexicon = lexicon if lexicon is not None else load_lexicon()
        self.patterns = patterns if patterns is not None else load_patterns()
        if edit_dict is None and profile.edit_dict_path is not None:
            edit_dict = build_edit_dictionary_from_file(profile.edit_dict_path)
        self.edit_dict = edit_dict

        active = profile.active_operations()
        self._op_names = [name for name, _ in active]
        self._op_weights = [w for _, w in active]
        if "token_dict" in self._op_names and (self.edit_dict is None or self.edit_dict.is_empty()):
            raise ProfileError("token_dict has weight > 0 but no edit dictionary is loaded")
        required = {
            "type_preposition": self.patterns.prepositions,
            "type_determiner": self.patterns.determiners,
            "type_verbform": self.patterns.verb_types,
            "type_pos": self.patterns.pos_types,
            "char_pattern": self.patterns.letter_patterns,
            "vowel_swap": self.patterns.vowel_combinations,
            "similar_sound": self.patterns.similar_sound,
            "adjective_adverb": self.patterns.adjective_list,
        }
        for name in self._op_names:
            inventory = required.get(name)
            if inventory is not None and not inventory:
                raise ProfileError(f"{name} has weight > 0 but its inventory is empty")

        self._prep_set = frozenset(p for p in self.patterns.prepositions if p)
        self._det_set = frozenset(d for d in self.patterns.determiners if d)

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

    def _op_token_dict(self, st: _SentenceState, rng: random.Random) -> bool:
        d = self.edit_dict
        cands = [i for i in st.unlocked() if d.has(st.tokens[i])]
        if not cands:
            return False
        i = rng.choice(cands)
        variants = d.variants(st.tokens[i])
        total = sum(c for _, c in variants)
        pick = rng.randrange(total)
        acc = 0
        for variant, count in variants:
            acc += count
            if pick < acc:
                if variant == st.tokens[i]:
                    return False
                st.replace(i, variant)
                return True
        return False

    def _swap_from_inventory(
        self, st: _SentenceState, rng: random.Random, inventory: Sequence[str], members: frozenset
    ) -> bool:
        cands = [i for i in st.unlocked() if st.tokens[i] in members]
        if not cands:
            return False
        i = rng.choice(cands)
        choices = [w for w in inventory if w != st.tokens[i]]
        new = rng.choice(choices)
        if new == "":
            if len(st.tokens) == 1 or (i > 0 and st.is_locked(i - 1)):
                return False
            st.delete_span(i, 1)
        else:
            st.replace(i, new)
        return True

    def _op_type_preposition(self, st, rng) -> bool:
        return self._swap_from_inventory(st, rng, self.patterns.prepositions, self._prep_set)

    def _op_type_determiner(self, st, rng) -> bool:
        return self._swap_from_inventory(st, rng, self.patterns.determiners, self._det_set)

    def _op_type_verbform(self, st, rng) -> bool:
        lex = self.lexicon
        cands = [i for i in st.unlocked() if lex.forms_of(st.tokens[i])]
        if not cands:
            return False
        i = rng.choice(cands)
        token = st.tokens[i]
        lemma, _ = lex.forms_of(token)[0]
        types = [
            t
            for t in self.patterns.verb_types
            if t in VERB_TYPE_FORMS
            and lex.form(lemma, VERB_TYPE_FORMS[t]) not in (None, token)
        ]
        if not types:
            return False
        chosen = rng.choice(types)
        st.replace(i, lex.form(lemma, VERB_TYPE_FORMS[chosen]))
        return True

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
        cands = [i for i in st.unlocked() if self._noun_flip(st.tokens[i]) is not None]
        if not cands:
            return False
        i = rng.choice(cands)
        st.replace(i, self._noun_flip(st.tokens[i]))
        return True

    def _literal_suffix_safe(self, token: str) -> bool:
        # Reject tokens whose -er/-est/-ly form needs orthographic changes.
        if len(token) < 3 or token[-1] in "ey":
            return False
        a, b, c = token[-3], token[-2], token[-1]
        if a not in _VOWELS and b in _VOWELS and c not in _VOWELS and c not in "wxy":
            return False  # consonant doubling (big -> bigger)
        return True

    def _pos_conversions(self, token: str) -> list[str]:
        adj = self.patterns.adjectives
        if token in self._prep_set or token in self._det_set:
            return []
        out: list[str] = []
        if token in adj:
            if self._literal_suffix_safe(token):
                out.extend([token + "er", token + "est"])
            if not token.endswith("ly") and not token.endswith("y"):
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
        cands = [i for i in st.unlocked() if self._pos_conversions(st.tokens[i])]
        if not cands:
            return False
        i = rng.choice(cands)
        st.replace(i, rng.choice(self._pos_conversions(st.tokens[i])))
        return True

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
        starts = [
            p
            for p in range(len(st.tokens) - n + 1)
            if st.window_free(p, n) and (p == 0 or not st.is_locked(p - 1))
        ]
        if not starts:
            return False
        st.delete_span(rng.choice(starts), n)
        return True

    def _op_ngram_replace(self, st, rng) -> bool:
        n = self._ngram_sizes(rng, len(st.tokens))
        if n is None:
            return False
        pairs = [
            (p, q)
            for p in range(len(st.tokens) - n + 1)
            if st.window_free(p, n)
            for q in range(len(st.tokens) - n + 1)
            if abs(p - q) >= n and st.tokens[p : p + n] != st.tokens[q : q + n]
        ]
        if not pairs:
            return False
        p, q = rng.choice(pairs)
        st.replace_span(p, list(st.tokens[q : q + n]))
        return True

    def _rewrite_within_token(self, st, rng, candidates, rewrite) -> bool:
        if not candidates:
            return False
        choice = rng.choice(candidates)
        i = choice[0]
        new = rewrite(st.tokens[i], choice, rng)
        if not new or new == st.tokens[i]:
            return False
        st.replace(i, new)
        return True

    def _op_char_pattern(self, st, rng) -> bool:
        cands = [
            (i, key, val)
            for i in st.unlocked()
            for key, val in self.patterns.letter_patterns
            if key in st.tokens[i]
        ]
        return self._rewrite_within_token(
            st, rng, cands, lambda tok, c, _rng: tok.replace(c[1], c[2], 1)
        )

    def _op_vowel_swap(self, st, rng) -> bool:
        cands = [
            (i, combo)
            for i in st.unlocked()
            for combo in self.patterns.vowel_combinations
            if combo in st.tokens[i]
        ]
        return self._rewrite_within_token(
            st, rng, cands, lambda tok, c, _rng: tok.replace(c[1], c[1][::-1], 1)
        )

    def _op_similar_sound(self, st, rng) -> bool:
        cands = [
            (i, key, variants)
            for i in st.unlocked()
            for key, variants in self.patterns.similar_sound
            if key in st.tokens[i]
        ]
        return self._rewrite_within_token(
            st, rng, cands, lambda tok, c, rng_: tok.replace(c[1], rng_.choice(c[2]), 1)
        )

    def _op_adjective_adverb(self, st, rng) -> bool:
        adj = self.patterns.adjectives
        cands = []
        for i in st.unlocked():
            tok = st.tokens[i]
            if tok in adj and not tok.endswith("ly"):
                cands.append((i, tok + "ly"))
            elif tok.endswith("ly") and tok[:-2] in adj:
                cands.append((i, tok[:-2]))
        if not cands:
            return False
        i, new = rng.choice(cands)
        st.replace(i, new)
        return True


_OPERATION_FUNCS = {
    "token_dict": Noiser._op_token_dict,
    "type_preposition": Noiser._op_type_preposition,
    "type_determiner": Noiser._op_type_determiner,
    "type_verbform": Noiser._op_type_verbform,
    "type_noun_number": Noiser._op_type_noun_number,
    "type_pos": Noiser._op_type_pos,
    "ngram_swap": Noiser._op_ngram_swap,
    "ngram_insert": Noiser._op_ngram_insert,
    "ngram_delete": Noiser._op_ngram_delete,
    "ngram_replace": Noiser._op_ngram_replace,
    "char_pattern": Noiser._op_char_pattern,
    "vowel_swap": Noiser._op_vowel_swap,
    "similar_sound": Noiser._op_similar_sound,
    "adjective_adverb": Noiser._op_adjective_adverb,
}


def corrupt_sentence(
    clean: Sequence[str],
    profile: NoiseProfile,
    edit_dict: Optional[EditDictionary],
    lexicon: Lexicon,
    line_seed: int,
    patterns: Optional[PatternInventories] = None,
) -> list[str]:
    """One-shot corruption of a single sentence (see Noiser for pipelines)."""
    noiser = Noiser(profile, edit_dict=edit_dict, lexicon=lexicon, patterns=patterns)
    return noiser.corrupt(clean, line_seed)[0]


def generate_corpus(
    lines: Iterable[str],
    noiser: Union[Noiser, NoiseProfile],
    out_fp: TextIO,
) -> dict:
    """Corrupt a line stream into corrupted<TAB>clean pairs; returns stats.

    Accepts a Noiser or a bare NoiseProfile (bundled inventories are used).
    Blank input lines produce no pair and are counted in the stats.
    """
    if isinstance(noiser, NoiseProfile):
        noiser = Noiser(noiser)
    sentences = 0
    skipped = 0
    realized: Counter = Counter()
    for idx, line in enumerate(lines):
        tokens = tokenize(line)
        if not tokens:
            skipped += 1
            continue
        corrupted, counts = noiser.corrupt(tokens, idx)
        out_fp.write(format_pair_line(corrupted, tokens) + "\n")
        realized.update(counts)
        sentences += 1
    return corpus_stats(sentences, skipped, realized)


def corpus_stats(sentences: int, skipped_blank: int, realized: Counter) -> dict:
    """The stats of a noised corpus: line counts and realized operation counts."""
    return {
        "sentences": sentences,
        "skipped_blank": skipped_blank,
        "errors_total": sum(realized.values()),
        "operations": {name: realized.get(name, 0) for name in OPERATIONS},
    }
