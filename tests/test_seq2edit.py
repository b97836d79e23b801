import random
import string

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gecedit.alignment import align
from gecedit.edit2seq import edit2seq, refine
from gecedit.lexicon import load_lexicon
from gecedit.noiser import NoiseProfile, Noiser
from gecedit.seq2edit import classify_edit, seq2edit
from gecedit.tags import (
    DELETE_TAG,
    KEEP_TAG,
    SUFFIX_NAMES,
    TRANSFORM_NAMES,
    UNKNOWN_TAG,
    EditTag,
    TagFamily,
    TagSet,
    load_tagset,
)
from gecedit.transforms import (
    SUFFIX_RULES,
    TRANSFORMS,
    VERB_RULES,
    apply_suffix,
    apply_transform,
    pluralize,
    singularize,
)

from corpus_util import make_corpus


def render(tags):
    return [t.render() for t in tags]


# -- reference classifier -------------------------------------------------------
# The classifier before rule tables: every candidate rule the tagset contains
# is tried on every token, in priority order.

def _candidates(names, family):
    return tuple((n, EditTag(family, n), EditTag(family, n).render()) for n in names)


_CASE = _candidates(("CASE_CAPITAL", "CASE_LOWER", "CASE_UPPER"), TagFamily.TRANSFORM)
_SPLIT = _candidates(("SPLIT_HYPHEN",), TagFamily.TRANSFORM)
_AGREEMENT_AND_VERB = _candidates(
    ("AGREEMENT_PLURAL", "AGREEMENT_SINGULAR")
    + tuple(n for n in TRANSFORM_NAMES if n.startswith("VERB_")),
    TagFamily.TRANSFORM,
)
_SUFFIX = _candidates(SUFFIX_NAMES, TagFamily.SUFFIXTRANSFORM)


def reference_classify_edit(src_token, tgt_span, lexicon, tagset):
    span = list(tgt_span)
    if span == [src_token]:
        return KEEP_TAG
    if not span:
        return DELETE_TAG

    if len(span) == 1:
        target = span[0]
        for name, tag, rendered in _CASE:
            if rendered in tagset and apply_transform(name, src_token, lexicon) == [target]:
                return tag
    if len(span) == 2:
        name, tag, rendered = _SPLIT[0]
        if rendered in tagset and apply_transform(name, src_token, lexicon) == span:
            return tag
    if len(span) == 1:
        target = span[0]
        for name, tag, rendered in _AGREEMENT_AND_VERB:
            if rendered in tagset and apply_transform(name, src_token, lexicon) == [target]:
                return tag
        for name, tag, rendered in _SUFFIX:
            if rendered in tagset and apply_suffix(name, src_token) == target:
                return tag
        if "$REPLACE_" + target in tagset:
            return EditTag(TagFamily.REPLACE, target)
    if len(span) >= 2 and span[0] == src_token and "$APPEND_" + span[1] in tagset:
        return EditTag(TagFamily.APPEND, span[1])
    return UNKNOWN_TAG


# -- reference suffix rules -----------------------------------------------------
# The suffix rules before the rule tables: each call parses the rule name.

def reference_apply_suffix(name, token):
    if name.startswith("REMOVE_"):
        suffix = name[len("REMOVE_"):]
        if token.endswith(suffix) and len(token) > len(suffix):
            return token[: -len(suffix)]
        return None
    if name.startswith("APPEND_"):
        return token + name[len("APPEND_"):]
    old, _, new = name.partition("_TO_")
    old, new = old.lower(), new.lower()
    if token.endswith(old) and len(token) >= len(old):
        return token[: -len(old)] + new
    return None


def reference_suffix_ends(name):
    if name.startswith("REMOVE_"):
        return name[len("REMOVE_"):], ""
    if name.startswith("APPEND_"):
        return "", name[len("APPEND_"):]
    old, _, new = name.partition("_TO_")
    return old.lower(), new.lower()


# -- reference transform rules --------------------------------------------------
# The transform rules before the rule table: a literal of the names, in
# canonical (id) order, and an if-chain that dispatches on them.

REFERENCE_TRANSFORM_NAMES = (
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


def reference_apply_transform(name, token, lexicon):
    if name.startswith("CASE_"):
        if name == "CASE_CAPITAL":
            return [token[0].upper() + token[1:]]
        if name == "CASE_LOWER":
            return [token.lower()]
        if name == "CASE_UPPER":
            return [token.upper()]
        return None
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
    if name.startswith("VERB_"):
        src_form, tgt_form = name.split("_")[1:]
        for lemma, form in lexicon.forms_of(token):
            if form != src_form:
                continue
            out = lexicon.form(lemma, tgt_form)
            if out is not None:
                return [out]
    return None


def test_rule_tables_cover_every_rule_name():
    assert TRANSFORM_NAMES == REFERENCE_TRANSFORM_NAMES
    assert list(TRANSFORMS) == list(REFERENCE_TRANSFORM_NAMES)
    assert list(SUFFIX_RULES) == list(SUFFIX_NAMES)
    for name in SUFFIX_NAMES:
        assert SUFFIX_RULES[name] == reference_suffix_ends(name), name
    verb_names = [n for n in REFERENCE_TRANSFORM_NAMES if n.startswith("VERB_")]
    assert list(VERB_RULES) == verb_names
    for name in verb_names:
        assert VERB_RULES[name] == tuple(name.split("_")[1:]), name


def test_apply_suffix_matches_reference_exhaustively():
    """Every suffix rule on every stem followed by every rule ending or a tail of
    one, so each rule meets tokens it fits, misses by one letter, or empties."""
    endings = {""}
    for old, new in SUFFIX_RULES.values():
        for ending in (old, new):
            endings.update(ending[k:] for k in range(len(ending)))
    stems = ["", "ß", "İ", "i̇", "walk", "stud", *string.ascii_lowercase, *string.ascii_uppercase]
    tokens = sorted({stem + ending for stem in stems for ending in endings})
    for name in SUFFIX_NAMES:
        for token in tokens:
            assert apply_suffix(name, token) == reference_apply_suffix(name, token), (name, token)


# Tokens: lexicon verb forms (homographs such as "lay" have several readings),
# words that the suffix and agreement rules rewrite, case traps ('ß'.upper() ==
# 'SS', 'İ'.lower() == 'i̇'), and arbitrary Unicode.
_LEXICON = load_lexicon()
_VERB_FORMS = sorted({f for forms in _LEXICON.verb_forms.values() for f in forms.values()})
_ENDINGS = sorted({
    part
    for name in SUFFIX_NAMES
    for part in name.lower().removeprefix("remove_").removeprefix("append_").split("_to_")
})
_WORDS = ["book", "easy", "nation", "city", "cities", "he", "usa", "well-known", "a-", "-b",
          "child", "children", "ß", "SS", "straße", "İstanbul", "i̇", "café"]
_CHARS = "abeilnstyßSİIi\u0301-\U00010348"


@st.composite
def _tokens(draw):
    token = draw(st.one_of(
        st.sampled_from(_VERB_FORMS),
        st.sampled_from(_WORDS),
        st.text(_CHARS, min_size=1, max_size=7),
        st.text(min_size=1, max_size=5),
    ))
    if draw(st.booleans()):  # a suffix variant of a word
        token = token[: len(token) - draw(st.integers(0, 2))] + draw(st.sampled_from(_ENDINGS))
        token = token or "x"
    return token


def test_transforms_match_reference_on_every_listed_word():
    for token in _VERB_FORMS + _WORDS:
        for name, rewrite in TRANSFORMS.items():
            expected = reference_apply_transform(name, token, _LEXICON)
            assert rewrite(token, _LEXICON) == expected, (name, token)
            assert apply_transform(name, token, _LEXICON) == expected, (name, token)


@settings(max_examples=1000, deadline=None)
@given(token=_tokens())
def test_transforms_match_reference(token):
    for name, rewrite in TRANSFORMS.items():
        assert rewrite(token, _LEXICON) == reference_apply_transform(name, token, _LEXICON), name


@st.composite
def _classified_pairs(draw):
    token = draw(_tokens())
    other = st.one_of(
        st.sampled_from(_VERB_FORMS + _WORDS), st.text(_CHARS, min_size=1, max_size=7)
    )
    kind = draw(st.sampled_from(("rule", "rule", "rule", "ending", "any", "append")))
    span = None
    if kind == "rule":  # the output of a rule that applies to the token
        outputs = [apply_transform(name, token, _LEXICON) for name in TRANSFORM_NAMES]
        outputs += [[apply_suffix(name, token)] for name in SUFFIX_NAMES]
        outputs = [out for out in outputs if out and out[0] is not None and all(out)]
        span = draw(st.sampled_from(outputs)) if outputs else None
    elif kind == "ending":
        cut = draw(st.integers(0, min(5, len(token) - 1)))
        span = [token[: len(token) - cut] + draw(st.sampled_from(_ENDINGS))]
    elif kind == "append":
        span = [token, draw(st.one_of(st.sampled_from(["the", "in", "a"]), other))]
    if span is None:
        span = draw(st.lists(other, max_size=3))
    return token, span


@pytest.fixture(scope="module")
def rule_tagsets(default_tagset):
    """The bundled tagset, the benchmark's compact one, and one with every other rule."""
    compact = ["$KEEP", "$DELETE", "$UNKNOWN", "$TRANSFORM_VERB_VB_VBZ", "$TRANSFORM_VERB_VBZ_VB"]
    for word in ("in", "at", "on", "to", "with", "the", "a", "an", "that", "this"):
        compact += [f"$REPLACE_{word}", f"$APPEND_{word}"]
    rules = [t.render() for t in default_tagset if t.family in (
        TagFamily.TRANSFORM, TagFamily.SUFFIXTRANSFORM)]
    alternate = compact + [r for r in rules[::2] if r not in compact]
    return default_tagset, TagSet(compact), TagSet(alternate)


def test_rule_tables_match_reference_on_every_verb_form(lexicon, rule_tagsets):
    """Every lexicon surface form against every verb rule's output, so that a
    rule reached only through a homograph's later reading is tried too."""
    verb_names = [n for n in TRANSFORM_NAMES if n.startswith("VERB_")]
    for surface in _VERB_FORMS:
        for name in verb_names:
            out = apply_transform(name, surface, lexicon)
            if out is None:
                continue
            for tagset in rule_tagsets:
                assert classify_edit(surface, out, lexicon, tagset) == reference_classify_edit(
                    surface, out, lexicon, tagset
                ), (surface, name)


@settings(max_examples=2000, deadline=None)
@given(pair=_classified_pairs())
def test_rule_tables_match_reference_classifier(lexicon, rule_tagsets, pair):
    token, span = pair
    for tagset in rule_tagsets:
        assert classify_edit(token, span, lexicon, tagset) == reference_classify_edit(
            token, span, lexicon, tagset
        )


class TestClassifyEdit:
    def test_keep(self, lexicon, default_tagset):
        assert classify_edit("x", ["x"], lexicon, default_tagset).render() == "$KEEP"

    def test_delete(self, lexicon, default_tagset):
        assert classify_edit("x", [], lexicon, default_tagset).render() == "$DELETE"

    def test_verb_form(self, lexicon, default_tagset):
        tag = classify_edit("go", ["went"], lexicon, default_tagset)
        assert tag.render() == "$TRANSFORM_VERB_VB_VBD"

    def test_agreement_beats_suffix_and_verb(self, lexicon, default_tagset):
        # "books" is also VBZ of "book" in principle, but agreement has
        # priority; the roundtrip check keeps the choice honest.
        tag = classify_edit("book", ["books"], lexicon, default_tagset)
        assert tag.render() == "$TRANSFORM_AGREEMENT_PLURAL"
        assert edit2seq(["book"], [tag], lexicon) == ["books"]

    def test_suffix_literal(self, lexicon, default_tagset):
        tag = classify_edit("easy", ["easily"], lexicon, default_tagset)
        assert tag.render() == "$SUFFIXTRANSFORM_Y_TO_ILY"

    def test_case_transforms(self, lexicon, default_tagset):
        assert classify_edit("he", ["He"], lexicon, default_tagset).render() == "$TRANSFORM_CASE_CAPITAL"
        assert classify_edit("He", ["he"], lexicon, default_tagset).render() == "$TRANSFORM_CASE_LOWER"
        assert classify_edit("usa", ["USA"], lexicon, default_tagset).render() == "$TRANSFORM_CASE_UPPER"

    def test_split_hyphen(self, lexicon, default_tagset):
        tag = classify_edit("well-known", ["well", "known"], lexicon, default_tagset)
        assert tag.render() == "$TRANSFORM_SPLIT_HYPHEN"

    def test_replace_from_inventory(self, lexicon, default_tagset):
        tag = classify_edit("wrnog", ["wrong"], lexicon, default_tagset)
        assert tag.render() == "$REPLACE_wrong"

    def test_append_second_token(self, lexicon, default_tagset):
        tag = classify_edit("lives", ["lives", "in"], lexicon, default_tagset)
        assert tag.render() == "$APPEND_in"

    def test_multi_insertion_encodes_first_only(self, lexicon, default_tagset):
        tag = classify_edit("lives", ["lives", "in", "the"], lexicon, default_tagset)
        assert tag.render() == "$APPEND_in"

    def test_unknown_fallback(self, lexicon, default_tagset):
        assert classify_edit("zzz", ["qqqxyzzy"], lexicon, default_tagset).render() == "$UNKNOWN"
        assert classify_edit("a", ["zzzz", "a"], lexicon, default_tagset).render() == "$UNKNOWN"

    def test_pure_function(self, lexicon, default_tagset):
        args = ("go", ["went"], lexicon, default_tagset)
        assert classify_edit(*args) == classify_edit(*args)

    def test_respects_tagset_membership(self, lexicon):
        small = TagSet(["$KEEP", "$DELETE", "$UNKNOWN", "$REPLACE_went"])
        assert classify_edit("go", ["went"], lexicon, small).render() == "$REPLACE_went"
        tiny = TagSet(["$KEEP", "$DELETE", "$UNKNOWN"])
        assert classify_edit("go", ["went"], lexicon, tiny).render() == "$UNKNOWN"


class TestSeq2Edit:
    def test_verb_sentence(self, lexicon, default_tagset):
        tags = seq2edit("He go to school".split(), "He went to school".split(), lexicon, default_tagset)
        assert render(tags) == ["$KEEP", "$TRANSFORM_VERB_VB_VBD", "$KEEP", "$KEEP"]

    def test_identity_all_keep(self, lexicon, default_tagset):
        src = "a quiet evening".split()
        assert render(seq2edit(src, src, lexicon, default_tagset)) == ["$KEEP"] * 3

    def test_merge_space(self, lexicon, default_tagset):
        tags = seq2edit("over all fine".split(), "overall fine".split(), lexicon, default_tagset)
        assert render(tags) == ["$MERGE_SPACE", "$KEEP", "$KEEP"]

    def test_merge_hyphen(self, lexicon, default_tagset):
        tags = seq2edit("well known fact".split(), "well-known fact".split(), lexicon, default_tagset)
        assert render(tags) == ["$MERGE_HYPHEN", "$KEEP", "$KEEP"]

    def test_merge_requires_tag_in_tagset(self, lexicon):
        small = TagSet(["$KEEP", "$DELETE", "$UNKNOWN"])
        tags = seq2edit("over all".split(), ["overall"], lexicon, small)
        assert "$MERGE_SPACE" not in render(tags)

    def test_empty_source_rejected(self, lexicon, default_tagset):
        with pytest.raises(ValueError):
            seq2edit([], ["a"], lexicon, default_tagset)

    def test_empty_target_all_delete(self, lexicon, default_tagset):
        tags = seq2edit(["a", "b"], [], lexicon, default_tagset)
        assert render(tags) == ["$DELETE", "$DELETE"]

    def test_length_contract_random(self, lexicon, default_tagset):
        rng = random.Random(11)
        vocab = ["the", "a", "cat", "cats", "go", "went", "over", "all", "overall", "x-y"]
        for _ in range(300):
            src = [rng.choice(vocab) for _ in range(rng.randrange(1, 8))]
            tgt = [rng.choice(vocab) for _ in range(rng.randrange(0, 8))]
            assert len(seq2edit(src, tgt, lexicon, default_tagset)) == len(src)


def test_roundtrip_on_single_edit_noise(lexicon, default_tagset):
    profile = NoiseProfile(
        {
            "type_preposition": 1.0,
            "type_determiner": 1.0,
            "type_verbform": 1.0,
            "type_noun_number": 1.0,
            "char_pattern": 1.0,
            "similar_sound": 1.0,
            "ngram_swap": 1.0,
        },
        expected_errors=1.2,
        rng_seed=21,
    )
    noiser = Noiser(profile, lexicon=lexicon)
    clean = make_corpus(300, seed=5)
    checked = 0
    for i, target in enumerate(clean):
        corrupted, _ = noiser.corrupt(target, i)
        tags = seq2edit(corrupted, target, lexicon, default_tagset)
        if all(t.family is not TagFamily.UNKNOWN for t in tags):
            assert edit2seq(corrupted, tags, lexicon) == target
            checked += 1
    assert checked >= 290  # tag-expressible ops should almost never fall out


# -- the round-trip invariant on arbitrary pairs --------------------------------

_PAIR_TOKEN = st.one_of(
    st.sampled_from(_VERB_FORMS + _WORDS + ["ice", "cream", "icecream", "well", "known", "the",
                                            "an", "over", "all", "overall", "İ", "\U00010348"]),
    st.text(_CHARS, min_size=1, max_size=4),
)


@st.composite
def _edited_pairs(draw):
    """A source and a target made from it by merges, splits, rule outputs,
    replacements, deletions and insertions, or an unrelated target."""
    source = draw(st.lists(_PAIR_TOKEN, min_size=1, max_size=6))
    if draw(st.integers(0, 4)) == 0:
        return source, draw(st.lists(_PAIR_TOKEN, max_size=6))
    target = []
    i = 0
    while i < len(source):
        token = source[i]
        op = draw(st.sampled_from(("keep", "merge", "merge", "rule", "replace", "delete", "insert")))
        if op == "merge" and i + 1 < len(source):
            target.append(token + draw(st.sampled_from(("", "-"))) + source[i + 1])
            i += 2
            continue
        if op == "rule":
            outputs = [apply_transform(name, token, _LEXICON) for name in TRANSFORM_NAMES]
            outputs += [[apply_suffix(name, token)] for name in SUFFIX_NAMES]
            outputs = [out for out in outputs if out and all(out)]
            target += draw(st.sampled_from(outputs)) if outputs else [token]
        elif op == "replace":
            target.append(draw(_PAIR_TOKEN))
        elif op == "insert":
            target += [token, *draw(st.lists(_PAIR_TOKEN, min_size=1, max_size=2))]
        elif op != "delete":
            target.append(token)
        i += 1
    return source, target


@settings(max_examples=1000, deadline=None)
@example(pair=(["ice", "cream"], ["icecream", "the"]))
@example(pair=(["well", "known"], ["well-known", "an"]))
@given(pair=_edited_pairs())
def test_roundtrip_on_arbitrary_pairs(lexicon, default_tagset, pair):
    """One tag per source token, and an exact round trip when no tag is UNKNOWN
    and no token's aligned span is longer than 2: a tag encodes at most the
    first token inserted after its own."""
    source, target = pair
    edits = seq2edit(source, target, lexicon, default_tagset)
    assert len(edits) == len(source)
    spans = align(source, target).spans
    if all(t.family is not TagFamily.UNKNOWN for t in edits) and all(
        end - start <= 2 for start, end in spans
    ):
        assert edit2seq(source, edits, lexicon) == target, render(edits)


@settings(max_examples=300, deadline=None)
@given(pair=_edited_pairs(), max_iters=st.integers(1, 5))
def test_refine_is_idempotent_at_its_fixpoint(lexicon, default_tagset, pair, max_iters):
    """With an oracle predictor (seq2edit towards the target), a refine that
    ended on an all-KEEP pass returns its output unchanged, after one pass,
    when run on that output."""
    source, target = pair
    passes = []

    def oracle(sentences):
        passes.append([seq2edit(tokens, target, lexicon, default_tagset) for tokens in sentences])
        return passes[-1]

    [out], _ = refine([source], oracle, max_iters, lexicon)
    assume(all(t.family is TagFamily.KEEP for t in passes[-1][0]))
    assert refine([out], oracle, max_iters, lexicon) == ([out], 1)


def test_coverage_monotonicity_without_transform_families(lexicon, default_tagset, tmp_path):
    full_lines = [t.render() for t in default_tagset]
    stripped = [
        line
        for line in full_lines
        if not line.startswith("$TRANSFORM_") and not line.startswith("$SUFFIXTRANSFORM_")
    ]
    stripped_path = tmp_path / "stripped.tagset"
    stripped_path.write_text("".join(l + "\n" for l in stripped))
    stripped_ts = load_tagset(stripped_path)

    profile = NoiseProfile(
        {"type_verbform": 1.0, "type_noun_number": 1.0, "adjective_adverb": 1.0},
        expected_errors=1.5,
        rng_seed=2,
    )
    noiser = Noiser(profile, lexicon=lexicon)
    clean = make_corpus(200, seed=9)

    def unknown_rate(tagset):
        unknown = edited = 0
        for i, target in enumerate(clean):
            corrupted, _ = noiser.corrupt(target, i)
            for tag in seq2edit(corrupted, target, lexicon, tagset):
                if tag.family is not TagFamily.KEEP:
                    edited += 1
                if tag.family is TagFamily.UNKNOWN:
                    unknown += 1
        return unknown / edited if edited else 0.0

    assert unknown_rate(stripped_ts) >= unknown_rate(default_tagset)
