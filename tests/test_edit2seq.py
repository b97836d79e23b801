import logging

import pytest

from gecedit.edit2seq import _GROWTH, _SLACK, TagApplicationError, apply_tag, edit2seq, refine
from gecedit.seq2edit import seq2edit
from gecedit.tags import EditTag, KEEP_TAG

T = EditTag.parse


class TestApplyTag:
    def test_keep(self, lexicon):
        assert apply_tag("x", None, T("$KEEP"), lexicon) == (["x"], False)

    def test_delete(self, lexicon):
        assert apply_tag("x", None, T("$DELETE"), lexicon) == ([], False)

    def test_unknown_copies_token(self, lexicon):
        assert apply_tag("anything", None, T("$UNKNOWN"), lexicon) == (["anything"], False)

    def test_append_and_replace(self, lexicon):
        assert apply_tag("a", None, T("$APPEND_b"), lexicon) == (["a", "b"], False)
        assert apply_tag("a", None, T("$REPLACE_b"), lexicon) == (["b"], False)

    def test_merge_hyphen_consumes_next(self, lexicon):
        assert apply_tag("well", "known", T("$MERGE_HYPHEN"), lexicon) == (["well-known"], True)

    def test_merge_space(self, lexicon):
        assert apply_tag("over", "all", T("$MERGE_SPACE"), lexicon) == (["overall"], True)

    def test_merge_without_next_fails(self, lexicon):
        with pytest.raises(TagApplicationError):
            apply_tag("over", None, T("$MERGE_SPACE"), lexicon)

    def test_verb_transform(self, lexicon):
        assert apply_tag("go", None, T("$TRANSFORM_VERB_VB_VBD"), lexicon) == (["went"], False)

    def test_verb_transform_unknown_token_fails(self, lexicon):
        with pytest.raises(TagApplicationError):
            apply_tag("zzz", None, T("$TRANSFORM_VERB_VB_VBD"), lexicon)

    def test_case_and_split(self, lexicon):
        assert apply_tag("he", None, T("$TRANSFORM_CASE_CAPITAL"), lexicon) == (["He"], False)
        assert apply_tag("well-known", None, T("$TRANSFORM_SPLIT_HYPHEN"), lexicon) == (
            ["well", "known"],
            False,
        )

    def test_split_without_hyphen_fails(self, lexicon):
        with pytest.raises(TagApplicationError):
            apply_tag("plain", None, T("$TRANSFORM_SPLIT_HYPHEN"), lexicon)

    def test_agreement(self, lexicon):
        assert apply_tag("book", None, T("$TRANSFORM_AGREEMENT_PLURAL"), lexicon) == (["books"], False)
        assert apply_tag("people", None, T("$TRANSFORM_AGREEMENT_SINGULAR"), lexicon) == (["person"], False)

    def test_suffix_append_remove_replace(self, lexicon):
        assert apply_tag("kind", None, T("$SUFFIXTRANSFORM_APPEND_ness"), lexicon) == (["kindness"], False)
        assert apply_tag("kindness", None, T("$SUFFIXTRANSFORM_REMOVE_ness"), lexicon) == (["kind"], False)
        assert apply_tag("easy", None, T("$SUFFIXTRANSFORM_Y_TO_ILY"), lexicon) == (["easily"], False)

    def test_suffix_remove_missing_suffix_fails(self, lexicon):
        with pytest.raises(TagApplicationError):
            apply_tag("kind", None, T("$SUFFIXTRANSFORM_REMOVE_ness"), lexicon)


class TestEdit2Seq:
    def test_all_keep_identity(self, lexicon):
        src = ["a", "b", "c"]
        assert edit2seq(src, [KEEP_TAG] * 3, lexicon) == src

    def test_deletion(self, lexicon):
        assert edit2seq(["a", "b"], [T("$DELETE"), T("$KEEP")], lexicon) == ["b"]

    def test_verb_roundtrip(self, lexicon):
        edits = [T("$KEEP"), T("$TRANSFORM_VERB_VB_VBD"), T("$KEEP"), T("$KEEP")]
        assert edit2seq("He go to school".split(), edits, lexicon) == "He went to school".split()

    def test_merge_skips_consumed_token(self, lexicon):
        edits = [T("$MERGE_SPACE"), T("$KEEP"), T("$KEEP")]
        assert edit2seq("over all fine".split(), edits, lexicon) == ["overall", "fine"]

    def test_length_mismatch_rejected(self, lexicon):
        with pytest.raises(ValueError, match="length"):
            edit2seq(["a", "b"], [KEEP_TAG], lexicon)

    def test_error_carries_token_index(self, lexicon):
        edits = [T("$KEEP"), T("$TRANSFORM_VERB_VB_VBD")]
        with pytest.raises(TagApplicationError) as exc:
            edit2seq(["ok", "zzz"], edits, lexicon)
        assert exc.value.index == 1

    def test_copy_mode_keeps_token(self, lexicon, caplog):
        edits = [T("$KEEP"), T("$TRANSFORM_VERB_VB_VBD")]
        with caplog.at_level(logging.WARNING, logger="gecedit.edit2seq"):
            out = edit2seq(["ok", "zzz"], edits, lexicon, on_error="copy")
        assert out == ["ok", "zzz"]
        assert any("copying" in rec.message for rec in caplog.records)


def each(predictor):
    """A block predictor that calls a sentence predictor on each sentence."""
    return lambda sentences: [predictor(tokens) for tokens in sentences]


class TestRefine:
    def test_all_keep_predictor_fixpoint(self, lexicon):
        src = ["a", "b"]
        out, iters = refine([src], each(lambda toks: [KEEP_TAG] * len(toks)), 4, lexicon)
        assert out == [src] and iters == 1

    def test_two_pass_insertions(self, lexicon, default_tagset):
        source = "He lives in the city .".split()
        target = "He lives in the very same city .".split()
        assert "$APPEND_very" in default_tagset and "$APPEND_same" in default_tagset

        def predictor(toks):
            return seq2edit(toks, target, lexicon, default_tagset)

        [out], iters = refine([source], each(predictor), 4, lexicon)
        assert out == target
        assert iters == 3  # two corrective passes plus the all-KEEP pass

    def test_two_appends_converge_in_two_applying_passes(self, lexicon, default_tagset):
        # One token needs two appended tokens after it; with the iteration
        # budget capped at 2, both corrective passes run and the output
        # already equals the target (the all-KEEP pass would be the third).
        source = "He lives in the city .".split()
        target = "He lives in the very same city .".split()

        def predictor(toks):
            return seq2edit(toks, target, lexicon, default_tagset)

        [out], iters = refine([source], each(predictor), 2, lexicon)
        assert out == target and iters == 2

    def test_max_iters_one_returns_intermediate(self, lexicon, default_tagset):
        source = "He lives in the city .".split()
        target = "He lives in the very same city .".split()

        def predictor(toks):
            return seq2edit(toks, target, lexicon, default_tagset)

        [out], iters = refine([source], each(predictor), 1, lexicon)
        assert iters == 1
        assert out != target and out != source

    def test_fixpoint_monotone_in_max_iters(self, lexicon, default_tagset):
        source = "He lives at the city .".split()
        target = "He lives in the city .".split()

        def predictor(toks):
            return seq2edit(toks, target, lexicon, default_tagset)

        [out4], _ = refine([source], each(predictor), 4, lexicon)
        [out8], _ = refine([source], each(predictor), 8, lexicon)
        assert out4 == out8 == target

    def test_lenient_mode_survives_bad_tags(self, lexicon):
        calls = []

        def predictor(toks):
            calls.append(list(toks))
            if len(calls) == 1:
                return [T("$TRANSFORM_VERB_VB_VBD")] * len(toks)
            return [KEEP_TAG] * len(toks)

        [out], iters = refine([["zzz"]], each(predictor), 4, lexicon)
        assert out == ["zzz"] and iters == 2

    def test_a_sentence_grown_past_the_bound_is_refined_no_further(self, lexicon):
        # Appending to every token doubles a sentence on every pass: without the
        # bound, 12 passes would turn 6 tokens into 24,576.
        sources = ["He lives in the city .".split(), ["Hi"], ["a", "b"]]
        bounds = [_GROWTH * len(s) + _SLACK for s in sources]
        assert bounds == [16, 6, 8]
        doubling = each(lambda toks: [T("$APPEND_the")] * len(toks))
        outs, passes = refine(sources, doubling, 12, lexicon)
        # 6 -> 12 -> 24; 1 -> 2 -> 4 -> 8; 2 -> 4 -> 8 (at its bound, refined again) -> 16
        assert [len(out) for out in outs] == [24, 8, 16]
        assert passes == 2 + 3 + 3
        assert all(len(out) <= 2 * bound for out, bound in zip(outs, bounds))
        assert outs[1] == ["Hi", *["the"] * 7]

    def test_max_iters_validation(self, lexicon):
        with pytest.raises(ValueError):
            refine([["a"]], each(lambda t: [KEEP_TAG]), 0, lexicon)
