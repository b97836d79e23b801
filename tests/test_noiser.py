import io
from collections import Counter

import pytest

from gecedit.alignment import align
from gecedit.edit2seq import edit2seq
from gecedit.noiser import (
    EditDictionary,
    NoiseProfile,
    Noiser,
    ProfileError,
    build_edit_dictionary,
    corrupt_sentence,
    generate_corpus,
    load_profile,
)
from gecedit.seq2edit import seq2edit
from gecedit.tags import TagFamily

from corpus_util import make_compound_corpus, make_corpus


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_values_rejected_by_the_profile_itself(self, value):
        with pytest.raises(ProfileError, match="expected_errors"):
            NoiseProfile(expected_errors=value)
        with pytest.raises(ProfileError, match="type_preposition"):
            NoiseProfile({"type_preposition": value})

    def test_token_dict_requires_dictionary(self, lexicon):
        with pytest.raises(ProfileError, match="dictionary"):
            Noiser(NoiseProfile({"token_dict": 1.0}), lexicon=lexicon)


class TestEditDictionary:
    def test_single_substitution(self, lexicon):
        pair = align("I am hapy".split(), "I am happy".split())
        d = build_edit_dictionary([pair])
        assert d.variants("happy") == [("hapy", 1)]

    def test_identity_corpus_empty(self, lexicon):
        pair = align(["same", "words"], ["same", "words"])
        assert build_edit_dictionary([pair]).is_empty()

    def test_counts_accumulate(self):
        pairs = [align("I am hapy".split(), "I am happy".split()) for _ in range(2)]
        d = build_edit_dictionary(pairs)
        assert d.variants("happy") == [("hapy", 2)]

    def test_token_dict_corruption(self, lexicon):
        d = EditDictionary()
        d.add("happy", "hapy", 3)
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
        a = corrupt_sentence(clean, prof, None, lexicon, 3)
        b = corrupt_sentence(clean, prof, None, lexicon, 3)
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


class TestGenerateCorpus:
    def test_empty_input(self, lexicon):
        noiser = Noiser(NoiseProfile({"type_preposition": 1.0}), lexicon=lexicon)
        out = io.StringIO()
        stats = generate_corpus([], noiser, out)
        assert out.getvalue() == ""
        assert stats["sentences"] == 0 and stats["errors_total"] == 0

    def test_pair_format_and_determinism(self, lexicon):
        noiser = Noiser(NoiseProfile({"type_preposition": 1.0}, 1.0, 3), lexicon=lexicon)
        lines = ["He lives in the city .", "", "She works at the office ."]
        out1, out2 = io.StringIO(), io.StringIO()
        stats1 = generate_corpus(lines, noiser, out1)
        generate_corpus(lines, noiser, out2)
        assert out1.getvalue() == out2.getvalue()
        assert stats1["sentences"] == 2 and stats1["skipped_blank"] == 1
        for line in out1.getvalue().splitlines():
            corrupted, clean = line.split("\t")
            assert clean in lines

    def test_accepts_bare_profile(self):
        out = io.StringIO()
        stats = generate_corpus(
            ["He lives in the city ."],
            NoiseProfile({"type_preposition": 1.0}, 1.0, 3),
            out,
        )
        assert stats["sentences"] == 1
        assert out.getvalue().endswith("\tHe lives in the city .\n")

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
