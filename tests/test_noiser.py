import contextlib
import io
import json
import random
import tracemalloc
from collections import Counter
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecedit.alignment import align
from gecedit.cli import main
from gecedit.edit2seq import edit2seq
from gecedit.noiser import (
    MAX_EXPECTED_ERRORS,
    MAX_RETRIES,
    OPERATIONS,
    VERB_TYPE_FORMS,
    NoiseProfile,
    Noiser,
    ProfileError,
    _line_rng,
    _poisson,
    _SentenceState,
    build_edit_dictionary,
    load_profile,
)
from gecedit.seq2edit import seq2edit
from gecedit.tags import TagFamily

from corpus_util import make_compound_corpus, make_corpus, vocabulary


class TestProfile:
    def test_load(self, tmp_path):
        p = tmp_path / "p.profile"
        p.write_text("# comment\ntype_preposition = 0.5\nexpected_errors = 2.0\nrng_seed = 4\n")
        prof = load_profile(p)
        assert prof.weights == {"type_preposition": 0.5}
        assert prof.expected_errors == 2.0 and prof.rng_seed == 4

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "p.profile"
        p.write_text("type_nonsense = 1.0\n")
        with pytest.raises(ProfileError):
            load_profile(p)

    def test_weight_range_enforced(self):
        with pytest.raises(ProfileError):
            NoiseProfile({"type_preposition": 1.5})

    # A NaN mean would make the Poisson sampler loop forever, so it must be
    # refused when the profile is read, before any sentence is corrupted.
    @pytest.mark.parametrize(
        "line",
        [
            "expected_errors = nan",
            "expected_errors = inf",
            "expected_errors = -1",
            "expected_errors = 701",
            "type_preposition = nan",
            "type_preposition = -inf",
            "type_preposition = -0.5",
        ],
    )
    def test_non_finite_or_negative_value_names_its_line(self, tmp_path, line):
        p = tmp_path / "p.profile"
        p.write_text(f"rng_seed = 1\n{line}\n")
        with pytest.raises(ProfileError, match=rf"^{p}:2: .* must be a finite number"):
            load_profile(p)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 701.0])
    def test_non_finite_values_rejected_by_the_profile_itself(self, value):
        with pytest.raises(ProfileError, match="expected_errors"):
            NoiseProfile(expected_errors=value)
        with pytest.raises(ProfileError, match="type_preposition"):
            NoiseProfile({"type_preposition": value})

    def test_expected_errors_bound_is_accepted(self, tmp_path):
        assert MAX_EXPECTED_ERRORS == 700.0
        p = tmp_path / "p.profile"
        p.write_text("expected_errors = 700\n")
        assert load_profile(p).expected_errors == 700.0
        assert NoiseProfile(expected_errors=700.0).expected_errors == 700.0

    def test_poisson_is_not_capped_at_the_bound(self):
        # exp(-lam) underflows past about 708, where the running product
        # reached 0 after about 745 factors and so capped every draw there.
        rng = random.Random(1)
        draws = [_poisson(rng, MAX_EXPECTED_ERRORS) for _ in range(200)]
        assert abs(sum(draws) / len(draws) - 700) < 8  # 4 standard errors

    def test_duplicate_key_names_both_lines(self, tmp_path):
        p = tmp_path / "p.profile"
        p.write_text("type_preposition = 1.0\nrng_seed = 2\ntype_preposition = 0.0\n")
        with pytest.raises(
            ProfileError,
            match=rf"^{p}:3: duplicate key 'type_preposition' \(first set on line 1\)$",
        ):
            load_profile(p)

    def test_token_dict_requires_dictionary(self, lexicon):
        with pytest.raises(ProfileError, match="dictionary"):
            Noiser(NoiseProfile({"token_dict": 1.0}), lexicon=lexicon)


class TestEditDictionary:
    def test_single_substitution(self, lexicon):
        pair = align("I am hapy".split(), "I am happy".split())
        d = build_edit_dictionary([pair])
        assert d == {"happy": {"hapy": 1}}

    def test_identity_corpus_empty(self, lexicon):
        pair = align(["same", "words"], ["same", "words"])
        assert build_edit_dictionary([pair]) == {}

    def test_counts_accumulate(self):
        pairs = [align("I am hapy".split(), "I am happy".split()) for _ in range(2)]
        d = build_edit_dictionary(pairs)
        assert d == {"happy": {"hapy": 2}}

    def test_token_dict_corruption(self, lexicon):
        d = {"happy": {"hapy": 3}}
        prof = NoiseProfile({"token_dict": 1.0}, expected_errors=5.0, rng_seed=1)
        noiser = Noiser(prof, edit_dict=d, lexicon=lexicon)
        out, counts = noiser.corrupt(["very", "happy", "indeed"], 0)
        assert out == ["very", "hapy", "indeed"]
        assert counts["token_dict"] == 1  # position locking caps it at one


class TestCorrupt:
    def test_zero_probability_profile_is_identity(self, lexicon):
        prof = NoiseProfile({}, expected_errors=3.0, rng_seed=0)
        noiser = Noiser(prof, lexicon=lexicon)
        clean = "He lives in the city .".split()
        assert noiser.corrupt(clean, 0)[0] == clean

    def test_deterministic(self, lexicon):
        prof = NoiseProfile({"type_preposition": 1.0, "similar_sound": 0.5}, 2.0, 9)
        clean = "He lives in the city .".split()
        a = Noiser(prof, lexicon=lexicon).corrupt(clean, 3)
        b = Noiser(prof, lexicon=lexicon).corrupt(clean, 3)
        assert a == b

    def test_different_line_seeds_vary(self, lexicon):
        prof = NoiseProfile({"type_preposition": 1.0}, 2.0, 9)
        noiser = Noiser(prof, lexicon=lexicon)
        clean = "He lives in the city .".split()
        outs = {tuple(noiser.corrupt(clean, i)[0]) for i in range(30)}
        assert len(outs) > 1

    def test_empty_sentence_rejected(self, lexicon):
        noiser = Noiser(NoiseProfile({}), lexicon=lexicon)
        with pytest.raises(ValueError):
            noiser.corrupt([], 0)

    def test_preposition_only_swaps_prepositions(self, lexicon, patterns, default_tagset):
        prof = NoiseProfile({"type_preposition": 1.0}, expected_errors=1.5, rng_seed=17)
        noiser = Noiser(prof, lexicon=lexicon)
        preps = set(patterns.prepositions)
        corpus = make_corpus(150, seed=1)
        edits_seen = 0
        for i, clean in enumerate(corpus):
            corrupted, counts = noiser.corrupt(clean, i)
            tags = seq2edit(corrupted, clean, lexicon, default_tagset)
            for tag in tags:
                if tag.family is TagFamily.KEEP:
                    continue
                edits_seen += 1
                assert tag.family in (TagFamily.REPLACE, TagFamily.APPEND)
                assert tag.payload in preps
        assert edits_seen > 50

    def test_preposition_swap_on_live_in_rome(self, lexicon, patterns):
        prof = NoiseProfile({"type_preposition": 1.0}, expected_errors=5.0, rng_seed=2)
        noiser = Noiser(prof, lexicon=lexicon)
        clean = ["I", "live", "in", "Rome"]
        swapped = 0
        for i in range(20):
            out, counts = noiser.corrupt(clean, i)
            if not counts:
                assert out == clean
                continue
            swapped += 1
            if len(out) == len(clean):  # swapped to another preposition
                assert out[2] != "in" and out[2] in patterns.prepositions
                assert out[:2] == ["I", "live"] and out[3] == "Rome"
            else:  # swapped to the empty entry, i.e. deleted
                assert out == ["I", "live", "Rome"]
        assert swapped > 10

    def test_char_pattern_station(self, lexicon):
        prof = NoiseProfile({"char_pattern": 1.0}, expected_errors=5.0, rng_seed=0)
        noiser = Noiser(prof, lexicon=lexicon)
        outs = {tuple(noiser.corrupt(["station"], i)[0]) for i in range(30)}
        assert outs <= {("station",), ("stasion",)}
        assert ("stasion",) in outs

    def test_vowel_swap(self, lexicon):
        prof = NoiseProfile({"vowel_swap": 1.0}, expected_errors=5.0, rng_seed=0)
        noiser = Noiser(prof, lexicon=lexicon)
        outs = {tuple(noiser.corrupt(["team"], i)[0]) for i in range(30)}
        assert ("taem",) in outs

    def test_adjective_adverb(self, lexicon):
        prof = NoiseProfile({"adjective_adverb": 1.0}, expected_errors=5.0, rng_seed=0)
        noiser = Noiser(prof, lexicon=lexicon)
        outs = {tuple(noiser.corrupt(["slow"], i)[0]) for i in range(20)}
        assert ("slowly",) in outs

    def test_verbform_swaps_within_lemma(self, lexicon):
        prof = NoiseProfile({"type_verbform": 1.0}, expected_errors=5.0, rng_seed=0)
        noiser = Noiser(prof, lexicon=lexicon)
        forms = {"go", "goes", "went", "going", "gone"}
        for i in range(20):
            out, counts = noiser.corrupt(["she", "goes", "home"], i)
            assert out[1] in forms
            if counts:
                assert out[1] != "goes"

    def test_noun_number_flip(self, lexicon):
        prof = NoiseProfile({"type_noun_number": 1.0}, expected_errors=5.0, rng_seed=0)
        noiser = Noiser(prof, lexicon=lexicon)
        out, counts = noiser.corrupt(["nice", "cities", "here"], 1)
        if counts:
            assert out[1] == "city"

    def test_ngram_delete_keeps_sentence_nonempty(self, lexicon):
        prof = NoiseProfile({"ngram_delete": 1.0}, expected_errors=8.0, rng_seed=0)
        noiser = Noiser(prof, lexicon=lexicon)
        for i in range(30):
            out, _ = noiser.corrupt(["a", "b", "c"], i)
            assert len(out) >= 1

    def test_at_most_one_edit_per_token(self, lexicon, default_tagset):
        # With ngram_delete excluded, a single tag->apply pass must
        # reproduce the clean sentence whenever no UNKNOWN appears.
        prof = NoiseProfile(
            {
                "type_preposition": 1.0,
                "type_determiner": 1.0,
                "ngram_swap": 1.0,
                "ngram_insert": 1.0,
                "ngram_replace": 1.0,
                "similar_sound": 1.0,
            },
            expected_errors=2.5,
            rng_seed=5,
        )
        noiser = Noiser(prof, lexicon=lexicon)
        corpus = make_corpus(200, seed=3)
        exact = 0
        for i, clean in enumerate(corpus):
            corrupted, _ = noiser.corrupt(clean, i)
            tags = seq2edit(corrupted, clean, lexicon, default_tagset)
            if all(t.family is not TagFamily.UNKNOWN for t in tags):
                assert edit2seq(corrupted, tags, lexicon) == clean
                exact += 1
        assert exact >= 190


def _noise(tmp_path, text, name):
    """Run the ``noise`` command on ``text``; returns (pairs text, printed stats)."""
    (tmp_path / "in.txt").write_text(text, encoding="utf-8")
    (tmp_path / "p.profile").write_text("type_preposition = 1.0\nrng_seed = 3\n")
    out, stdout = tmp_path / f"{name}.tsv", io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([
            "noise", "--in", str(tmp_path / "in.txt"), "--profile", str(tmp_path / "p.profile"),
            "--out", str(out), "--workers", "1",
        ]) == 0
    return out.read_text(encoding="utf-8"), json.loads(stdout.getvalue())


class TestGenerateCorpus:
    """Corpus generation through the ``noise`` command."""

    def test_empty_input(self, tmp_path):
        pairs, stats = _noise(tmp_path, "", "out")
        assert pairs == ""
        assert stats["sentences"] == 0 and stats["errors_total"] == 0

    def test_pair_format_and_determinism(self, tmp_path):
        lines = ["He lives in the city .", "", "She works at the office ."]
        pairs1, stats1 = _noise(tmp_path, "".join(line + "\n" for line in lines), "out1")
        pairs2, _ = _noise(tmp_path, "".join(line + "\n" for line in lines), "out2")
        assert pairs1 == pairs2
        assert stats1["sentences"] == 2 and stats1["skipped_blank"] == 1
        for line in pairs1.splitlines():
            corrupted, clean = line.split("\t")
            assert clean in lines

    def test_realized_distribution_tracks_weights(self, lexicon):
        ops = ["type_preposition", "type_determiner", "type_verbform", "ngram_swap", "similar_sound"]
        prof = NoiseProfile({op: 1.0 for op in ops}, expected_errors=1.0, rng_seed=11)
        noiser = Noiser(prof, lexicon=lexicon)
        corpus = make_compound_corpus(8000, seed=2)
        realized: Counter = Counter()
        for i, clean in enumerate(corpus):
            _, counts = noiser.corrupt(clean, i)
            realized.update(counts)
        total = sum(realized.values())
        assert total > 6000
        for op in ops:
            share = realized[op] / total
            assert abs(share - 0.2) / 0.2 < 0.10, (op, share)


def test_reversibility_unknown_rate(lexicon, default_tagset):
    profile = NoiseProfile(
        {
            "type_preposition": 1.0,
            "type_determiner": 1.0,
            "type_verbform": 1.0,
            "type_noun_number": 1.0,
            "type_pos": 1.0,
            "ngram_swap": 1.0,
            "ngram_insert": 1.0,
            "ngram_delete": 1.0,
            "ngram_replace": 1.0,
            "char_pattern": 1.0,
            "vowel_swap": 1.0,
            "similar_sound": 1.0,
            "adjective_adverb": 1.0,
        },
        expected_errors=1.5,
        rng_seed=23,
    )
    noiser = Noiser(profile, lexicon=lexicon)
    corpus = make_corpus(400, seed=8)
    unknown = edited = 0
    for i, clean in enumerate(corpus):
        corrupted, _ = noiser.corrupt(clean, i)
        for tag in seq2edit(corrupted, clean, lexicon, default_tagset):
            if tag.family is not TagFamily.KEEP:
                edited += 1
            if tag.family is TagFamily.UNKNOWN:
                unknown += 1
    assert edited > 0
    assert unknown / edited <= 0.05


def _edited_positions(st_):
    return {i for i, edited in enumerate(st_.edited) if edited}


class TestDeletionRestoreSite:
    """A deletion's restore edit lands on the token before the deleted ones,
    or at the sentence start on the token after them; that token must not
    have been edited already."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_ngram_delete_spares_a_locked_token_after_the_start(self, lexicon, n):
        noiser = Noiser(NoiseProfile({}), lexicon=lexicon)
        clean = [f"t{k}" for k in range(6)]
        for seed in range(100):
            st_ = _SentenceState(list(clean))
            st_.edited[n] = True
            if noiser._op_ngram_delete(st_, random.Random(seed)) and st_.tokens[0] != "t0":
                assert len(clean) - len(st_.tokens) != n, (seed, st_.tokens)
            assert len(st_.edited) == len(st_.tokens)

    def test_empty_inventory_entry_spares_a_locked_token_after_the_start(self, lexicon):
        noiser = Noiser(NoiseProfile({}), lexicon=lexicon)
        assert "" in noiser.patterns.prepositions
        refused = 0
        for seed in range(100):
            st_ = _SentenceState(["in", "t1", "t2"])
            st_.edited[1] = True
            if noiser._op_type_preposition(st_, random.Random(seed)):
                assert len(st_.tokens) == 3, (seed, st_.tokens)
            else:
                refused += 1  # drew the empty entry, i.e. a deletion
            assert len(st_.edited) == len(st_.tokens)
        assert refused > 0

    @pytest.mark.parametrize("p, tokens, locked", [(0, ["c", "d"], {0}), (2, ["a", "b"], {1})])
    def test_delete_span_locks_the_restore_site(self, p, tokens, locked):
        """``locked`` is the set of positions marked edited afterwards."""
        st_ = _SentenceState(["a", "b", "c", "d"])
        st_.delete_span(p, 2)
        assert st_.tokens == tokens and _edited_positions(st_) == locked
        assert len(st_.edited) == len(st_.tokens)


# -- reference operations -------------------------------------------------------
# The single-token operations and the two deleting ones as they were written
# before Noiser._rewrite_one, each picking, checking and replacing by itself,
# over an EditDictionary-like mapping.  They differ from that code only by the
# deletion guard: a deletion at the sentence start also needs a free token
# after the deleted ones.  ngram_replace compares the slices of every (p, q)
# pair, as written before the Noiser built each window once, so the test pins
# its candidate order.  ngram_swap and ngram_insert are the Noiser's own.
# All of them run on ReferenceState, the sentence state as it was before it
# kept one edited flag per token, so the Noiser's state is checked against an
# independent one.


class ReferenceState:
    """Working token list plus the set of already-edited (locked) positions."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.locked: set[int] = set()

    def unlocked(self) -> list[int]:
        return [i for i in range(len(self.tokens)) if i not in self.locked]

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
            and self._restore_site(p, n) not in self.locked
            and self.window_free(p, n)
        )

    def delete_span(self, p: int, n: int) -> None:
        """Delete ``n`` tokens at ``p``, as ``can_delete`` allowed, and lock
        the token that restores them."""
        self.locked.add(self._restore_site(p, n))
        del self.tokens[p : p + n]
        self.locked = {(k if k < p else k - n) for k in self.locked}


def reference_delete_span(st_, p, n):
    del st_.tokens[p : p + n]
    st_.locked = {(k if k < p else k - n) for k in st_.locked}
    if p > 0:
        st_.locked.add(p - 1)
    elif st_.tokens:
        st_.locked.add(0)


def reference_token_dict(nz, st_, rng):
    d = nz.edit_dict
    cands = [i for i in st_.unlocked() if st_.tokens[i] in d]
    if not cands:
        return False
    i = rng.choice(cands)
    variants = list(d[st_.tokens[i]].items())
    total = sum(c for _, c in variants)
    pick = rng.randrange(total)
    acc = 0
    for variant, count in variants:
        acc += count
        if pick < acc:
            if variant == st_.tokens[i]:
                return False
            st_.replace(i, variant)
            return True
    return False


def reference_swap_from_inventory(st_, rng, inventory, members):
    cands = [i for i in st_.unlocked() if st_.tokens[i] in members]
    if not cands:
        return False
    i = rng.choice(cands)
    choices = [w for w in inventory if w != st_.tokens[i]]
    new = rng.choice(choices)
    if new == "":
        if len(st_.tokens) == 1 or (i > 0 and i - 1 in st_.locked):
            return False
        if i == 0 and 1 in st_.locked:  # the guard
            return False
        reference_delete_span(st_, i, 1)
    else:
        st_.replace(i, new)
    return True


def reference_type_preposition(nz, st_, rng):
    return reference_swap_from_inventory(st_, rng, nz.patterns.prepositions, nz._prep_set)


def reference_type_determiner(nz, st_, rng):
    return reference_swap_from_inventory(st_, rng, nz.patterns.determiners, nz._det_set)


def reference_type_verbform(nz, st_, rng):
    lex = nz.lexicon
    cands = [i for i in st_.unlocked() if lex.forms_of(st_.tokens[i])]
    if not cands:
        return False
    i = rng.choice(cands)
    token = st_.tokens[i]
    lemma, _ = lex.forms_of(token)[0]
    types = [t for t in VERB_TYPE_FORMS if lex.form(lemma, VERB_TYPE_FORMS[t]) not in (None, token)]
    if not types:
        return False
    chosen = rng.choice(types)
    st_.replace(i, lex.form(lemma, VERB_TYPE_FORMS[chosen]))
    return True


def reference_type_noun_number(nz, st_, rng):
    cands = [i for i in st_.unlocked() if nz._noun_flip(st_.tokens[i]) is not None]
    if not cands:
        return False
    i = rng.choice(cands)
    st_.replace(i, nz._noun_flip(st_.tokens[i]))
    return True


def reference_type_pos(nz, st_, rng):
    cands = [i for i in st_.unlocked() if nz._pos_conversions(st_.tokens[i])]
    if not cands:
        return False
    i = rng.choice(cands)
    st_.replace(i, rng.choice(nz._pos_conversions(st_.tokens[i])))
    return True


def reference_ngram_delete(nz, st_, rng):
    n = nz._ngram_sizes(rng, len(st_.tokens) - 1)
    if n is None:
        return False
    starts = [
        p
        for p in range(len(st_.tokens) - n + 1)
        if st_.window_free(p, n)
        and (p == 0 or p - 1 not in st_.locked)
        and not (p == 0 and n in st_.locked)  # the guard
    ]
    if not starts:
        return False
    reference_delete_span(st_, rng.choice(starts), n)
    return True


def reference_ngram_replace(nz, st_, rng):
    n = nz._ngram_sizes(rng, len(st_.tokens))
    if n is None:
        return False
    pairs = [
        (p, q)
        for p in range(len(st_.tokens) - n + 1)
        if st_.window_free(p, n)
        for q in range(len(st_.tokens) - n + 1)
        if abs(p - q) >= n and st_.tokens[p : p + n] != st_.tokens[q : q + n]
    ]
    if not pairs:
        return False
    p, q = rng.choice(pairs)
    st_.replace_span(p, list(st_.tokens[q : q + n]))
    return True


def reference_rewrite_within_token(st_, rng, candidates, rewrite):
    if not candidates:
        return False
    choice = rng.choice(candidates)
    i = choice[0]
    new = rewrite(st_.tokens[i], choice, rng)
    if not new or new == st_.tokens[i]:
        return False
    st_.replace(i, new)
    return True


def reference_char_pattern(nz, st_, rng):
    cands = [
        (i, key, val)
        for i in st_.unlocked()
        for key, val in nz.patterns.letter_patterns
        if key in st_.tokens[i]
    ]
    return reference_rewrite_within_token(
        st_, rng, cands, lambda tok, c, _rng: tok.replace(c[1], c[2], 1)
    )


def reference_vowel_swap(nz, st_, rng):
    cands = [
        (i, combo)
        for i in st_.unlocked()
        for combo in nz.patterns.vowel_combinations
        if combo in st_.tokens[i]
    ]
    return reference_rewrite_within_token(
        st_, rng, cands, lambda tok, c, _rng: tok.replace(c[1], c[1][::-1], 1)
    )


def reference_similar_sound(nz, st_, rng):
    cands = [
        (i, key, variants)
        for i in st_.unlocked()
        for key, variants in nz.patterns.similar_sound
        if key in st_.tokens[i]
    ]
    return reference_rewrite_within_token(
        st_, rng, cands, lambda tok, c, rng_: tok.replace(c[1], rng_.choice(c[2]), 1)
    )


def reference_adjective_adverb(nz, st_, rng):
    adj = nz.patterns.adjectives
    cands = []
    for i in st_.unlocked():
        tok = st_.tokens[i]
        if tok in adj and not tok.endswith("ly"):
            cands.append((i, tok + "ly"))
        elif tok.endswith("ly") and tok[:-2] in adj:
            cands.append((i, tok[:-2]))
    if not cands:
        return False
    i, new = rng.choice(cands)
    st_.replace(i, new)
    return True


REFERENCE_OPERATIONS = {
    name: globals().get(f"reference_{name}") or getattr(Noiser, f"_op_{name}")
    for name in OPERATIONS
}


def reference_corrupt(nz, clean, line_seed):
    rng = _line_rng(nz.profile.rng_seed, line_seed)
    n_errors = _poisson(rng, nz.profile.expected_errors)
    state = ReferenceState(list(clean))
    realized = Counter()
    active = nz.profile.active_operations()
    if not active:
        return state.tokens, realized
    names, weights = [name for name, _ in active], [w for _, w in active]
    for _ in range(n_errors):
        for _attempt in range(MAX_RETRIES):
            name = rng.choices(names, weights=weights, k=1)[0]
            if REFERENCE_OPERATIONS[name](nz, state, rng):
                realized[name] += 1
                break
    return state.tokens, realized


_POOL = sorted(vocabulary()) + [
    "in", "on", "a", "an", "slowly", "quickly", "children", "mice", "went", "going",
    "gone", "beautiful", "friendly", "easiest", "bigger", "night", "phone", "knowledge",
    "cities", "boxes", "receive", "believe", "team", "great", "happy", "sea",
]
_SENTENCES = make_corpus(40, seed=21) + make_compound_corpus(40, seed=22)


@pytest.fixture(scope="module")
def built_edit_dict(lexicon):
    seed_profile = NoiseProfile(
        {"char_pattern": 1.0, "similar_sound": 1.0, "vowel_swap": 1.0, "type_verbform": 1.0},
        expected_errors=2.0,
        rng_seed=3,
    )
    noiser = Noiser(seed_profile, lexicon=lexicon)
    corpus = make_corpus(150, seed=23) + make_compound_corpus(150, seed=24)
    d = build_edit_dictionary(align(noiser.corrupt(c, i)[0], c) for i, c in enumerate(corpus))
    assert len(d) > 20
    return d


@settings(max_examples=300, deadline=None)
@given(
    weights=st.dictionaries(
        st.sampled_from(OPERATIONS),
        st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        min_size=1,
    ),
    expected_errors=st.floats(0.0, 6.0),
    rng_seed=st.integers(0, 2**32),
    lines=st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from(_SENTENCES),
                st.lists(st.sampled_from(_POOL), min_size=1, max_size=12),
            ),
            st.integers(0, 2**63),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_corrupt_matches_reference_operations(
    lexicon, built_edit_dict, weights, expected_errors, rng_seed, lines
):
    profile = NoiseProfile(weights, expected_errors, rng_seed)
    noiser = Noiser(profile, edit_dict=built_edit_dict, lexicon=lexicon)
    for clean, line_seed in lines:
        assert noiser.corrupt(clean, line_seed) == reference_corrupt(noiser, clean, line_seed)


class TestNgramReplaceCounts:
    """``_op_ngram_replace`` counts its (p, q) pairs instead of listing them,
    and draws the pair that ``reference_ngram_replace`` picks from its list."""

    @pytest.mark.parametrize("seed", range(5))
    def test_choice_draws_as_randrange(self, seed):
        # ``rng.choice(pairs)`` on this interpreter makes the call
        # ``rng.randrange(len(pairs))`` makes, and leaves the generator there.
        for total in (1, 2, 3, 7, 1000, 2**31 + 5, 9 * 10**6):
            a, b = random.Random(seed), random.Random(seed)
            assert a.choice(range(total)) == b.randrange(total)
            assert a.getstate() == b.getstate()

    @settings(max_examples=60, deadline=None)
    @given(
        vocab=st.integers(1, 4),
        length=st.integers(50, 400),
        locked=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        seed=st.integers(0, 2**32),
    )
    def test_long_lines_match_the_reference(self, lexicon, vocab, length, locked, seed):
        """Lines of few distinct words, so that many windows are equal."""
        noiser = Noiser(NoiseProfile({}), lexicon=lexicon)
        draw = random.Random(seed)
        tokens = [f"w{draw.randrange(vocab)}" for _ in range(length)]
        taken = {k for k in range(length) if draw.random() < locked}
        ours, ref = _SentenceState(list(tokens)), ReferenceState(list(tokens))
        ours.edited, ref.locked = [k in taken for k in range(length)], set(taken)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert noiser._op_ngram_replace(ours, rng) == reference_ngram_replace(noiser, ref, ref_rng)
        assert (ours.tokens, _edited_positions(ours)) == (ref.tokens, ref.locked)
        assert len(ours.edited) == len(ours.tokens)
        assert rng.getstate() == ref_rng.getstate()

    def test_a_long_line_is_drawn_in_bounded_memory(self, lexicon):
        """One call on a 3,000-token line peaks under 4 MB of Python
        allocations (0.7 MB here); listing its 9 million pairs took about
        880 MB and 3 s."""
        noiser = Noiser(NoiseProfile({}), lexicon=lexicon)
        draw = random.Random(7)
        st_ = _SentenceState([f"w{draw.randrange(50)}" for _ in range(3000)])
        tracemalloc.start()
        try:
            assert noiser._op_ngram_replace(st_, random.Random(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
