import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecedit.lexicon import default_tagset_path
from gecedit.tags import (
    SUFFIX_NAMES,
    TRANSFORM_NAMES,
    EditTag,
    TagError,
    TagFamily,
    TagSet,
    load_tagset,
)


def test_minimal_tagset(tmp_path):
    path = tmp_path / "min.tagset"
    path.write_text("$KEEP\n$DELETE\n$UNKNOWN\n")
    ts = load_tagset(path)
    assert len(ts) == 3
    assert ts.id_of("$KEEP") == 0
    assert ts.tag_of(1).family is TagFamily.DELETE


def test_default_contains_merge_tags(default_tagset):
    hyphen = default_tagset.id_of("$MERGE_HYPHEN")
    space = default_tagset.id_of("$MERGE_SPACE")
    assert hyphen != space


def test_default_contains_verb_transform(default_tagset):
    assert "$TRANSFORM_VERB_VB_VBD" in default_tagset


def test_render_parse_roundtrip_whole_default_tagset(default_tagset):
    for tag in default_tagset:
        assert EditTag.parse(tag.render()) == tag
        assert EditTag.parse(tag.render()).render() == tag.render()


def test_parse_payloads():
    tag = EditTag.parse("$APPEND_well-known")
    assert tag.family is TagFamily.APPEND and tag.payload == "well-known"
    tag = EditTag.parse("$REPLACE_foo_bar")
    assert tag.payload == "foo_bar"
    tag = EditTag.parse("$SUFFIXTRANSFORM_APPEND_wise")
    assert tag.family is TagFamily.SUFFIXTRANSFORM and tag.payload == "APPEND_wise"


@pytest.mark.parametrize(
    "bad",
    [
        "KEEP",  # missing $
        "$KEEP_x",  # payload on a bare tag
        "$MERGE_COLON",  # unknown merge joiner
        "$TRANSFORM_NOPE",  # unknown transform name
        "$SUFFIXTRANSFORM_Q_TO_X",  # unknown suffix rule
        "$APPEND_",  # empty payload
        "$WHATEVER_x",  # unknown family
        "",  # blank line
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(TagError):
        EditTag.parse(bad)


def test_duplicate_tag_rejected(tmp_path):
    path = tmp_path / "dup.tagset"
    path.write_text("$KEEP\n$DELETE\n$UNKNOWN\n$KEEP\n")
    with pytest.raises(TagError, match="duplicate"):
        load_tagset(path)


def test_required_tags_enforced(tmp_path):
    path = tmp_path / "nounknown.tagset"
    path.write_text("$KEEP\n$DELETE\n")
    with pytest.raises(TagError, match=r"\$UNKNOWN"):
        load_tagset(path)


def test_id_assignment_stable_across_loads():
    first = load_tagset(default_tagset_path())
    second = load_tagset(default_tagset_path())
    assert [t.render() for t in first] == [t.render() for t in second]
    for tag in first:
        assert first.id_of(tag) == second.id_of(tag)


def test_inventories(default_tagset):
    assert "$APPEND_the" in default_tagset
    assert "$REPLACE_the" in default_tagset
    families = [tag.family for tag in default_tagset]
    assert families.count(TagFamily.APPEND) == 1193
    assert families.count(TagFamily.REPLACE) == 3725


def test_catalog_sizes():
    assert len(TRANSFORM_NAMES) == 26
    assert len(SUFFIX_NAMES) == 70


def test_tag_validation_direct():
    with pytest.raises(TagError):
        EditTag(TagFamily.APPEND, "two words")
    with pytest.raises(TagError):
        EditTag(TagFamily.KEEP, "x")
    with pytest.raises(TagError):
        EditTag(TagFamily.MERGE, "COMMA")


def test_tagset_from_strings():
    ts = TagSet(["$KEEP", "$DELETE", "$UNKNOWN", "$REPLACE_a"])
    assert ts.id_of(EditTag(TagFamily.REPLACE, "a")) == 3
    assert "$REPLACE_a" in ts
    assert "$REPLACE_b" not in ts
    with pytest.raises(TagError):
        ts.id_of("$REPLACE_b")


# -- the one-pass parse against EditTag.parse ------------------------------------

def reference_tagset(lines, origin=None):
    """(tags, ids) as built by parsing every line with EditTag.parse first and
    checking the set after, or the TagError."""
    tags = []
    for lineno, line in enumerate(lines, start=1):
        try:
            tags.append(EditTag.parse(line))
        except TagError as exc:
            raise TagError(f"{origin}:{lineno}: {exc}" if origin else str(exc)) from None
    ids = {}
    fault = None
    for i, tag in enumerate(tags):
        key = tag.render()
        if key in ids:
            fault = f"duplicate tag {key} (lines {ids[key] + 1} and {i + 1})"
            break
        ids[key] = i
    for required in ("$KEEP", "$DELETE", "$UNKNOWN"):
        if fault is None and required not in ids:
            fault = f"tagset must contain {required}"
    if fault is not None:
        raise TagError(f"{origin}: {fault}" if origin else fault)
    return tuple(tags), ids


# Payloads with every kind of whitespace str.split and str.isspace know, and
# characters that are not whitespace though they look empty.
_PAYLOAD = st.text(
    "ab_$ßİ\u0301\U0001f600 \t\x0b\x0c\x1c\x85\xa0\u2028\u3000\u200b\ufeff", max_size=4
)
_LINE = st.one_of(
    st.builds(lambda head, payload: head + payload, st.sampled_from([
        "$REPLACE_", "$APPEND_", "$REPLACE", "$APPEND", "$REPLACE__", "$KEEP_", "$MERGE_",
        "$TRANSFORM_", "$SUFFIXTRANSFORM_", "$UNKNOWN_", "$BOGUS_", "REPLACE_", "$replace_",
    ]), _PAYLOAD),
    st.sampled_from(["$KEEP", "$DELETE", "$UNKNOWN", "$MERGE_SPACE", "$MERGE_HYPHEN",
                     "$TRANSFORM_CASE_LOWER", "$SUFFIXTRANSFORM_ING_TO_ED", "$REPLACE_a",
                     "$APPEND_a", "", "$", "$KEEP "]),
    st.text(max_size=6),
)


_VALID_LINE = st.one_of(
    st.builds(lambda head, payload: head + payload, st.sampled_from(["$REPLACE_", "$APPEND_"]),
              st.text("ab_$ßİ\u0301\U0001f600\u200b\ufeff", min_size=1, max_size=4)),
    st.sampled_from([t.render() for t in load_tagset(default_tagset_path())][3:40]),
)


@st.composite
def _tagset_lines(draw):
    """Mostly valid sets; about a quarter each lack a required tag, repeat a tag,
    or have malformed lines."""
    sometimes = st.sampled_from([False, False, False, True])
    lines = draw(st.lists(_VALID_LINE, max_size=12, unique=True))
    if lines and draw(sometimes):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    if draw(sometimes):
        for line in draw(st.lists(_LINE, min_size=1, max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), line)
    missing = draw(st.sampled_from([None] * 9 + ["$KEEP", "$DELETE", "$UNKNOWN"]))
    for tag in ("$KEEP", "$DELETE", "$UNKNOWN"):
        if tag != missing:
            lines.insert(draw(st.integers(0, len(lines))), tag)
    return lines


@settings(max_examples=1000, deadline=None)
@given(lines=_tagset_lines(), origin=st.sampled_from([None, "x.tagset"]))
def test_one_pass_parse_matches_edit_tag_parse(lines, origin):
    try:
        expected = reference_tagset(lines, origin)
    except TagError as exc:
        with pytest.raises(TagError) as raised:
            TagSet(lines, origin=origin)
        assert str(raised.value) == str(exc)
        return
    tagset = TagSet(lines, origin=origin)
    tags, ids = expected
    assert tagset.names == tuple(lines)
    assert tagset._index == ids
    assert tagset.keep_id == ids["$KEEP"]
    assert not tagset._parsed  # parsed on first use only
    assert tuple(tagset) == tags
    assert [type(t) for t in tagset] == [EditTag] * len(tags)
    assert [t.render() for t in tagset] == list(tagset.names)
    for tag in tags:
        if tag.family in (TagFamily.APPEND, TagFamily.REPLACE):
            assert f"${tag.family.value}_{tag.payload}" in tagset


def test_load_tagset_parses_the_bundled_file_as_edit_tag_parse_does():
    path = default_tagset_path()
    lines = path.read_text(encoding="utf-8").splitlines()
    tags, ids = reference_tagset(lines)
    tagset = load_tagset(path)
    assert tagset.names == tuple(lines) and tagset._index == ids
    assert tuple(tagset) == tags


def test_tag_of_parses_only_the_ids_asked_for():
    # a TagSet of its own: load_tagset shares one per file content
    tagset = TagSet(load_tagset(default_tagset_path()).names)
    asked = [len(tagset) - 1, 0, 7, 0]
    assert [tagset.tag_of(i) for i in asked] == [EditTag.parse(tagset.names[i]) for i in asked]
    assert sorted(tagset._parsed) == [0, 7, len(tagset) - 1]
    assert [tagset.tag_of(i) for i in range(len(tagset))] == list(map(EditTag.parse, tagset.names))
    assert tuple(tagset) == tuple(map(EditTag.parse, tagset.names))
