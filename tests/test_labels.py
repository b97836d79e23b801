import json
from pathlib import Path

import pytest

from gecedit.labels import (
    BINARY_STREAMS,
    derive_labels,
    from_json_line,
    streams,
    to_json_line,
)
from gecedit.tags import EditTag

T = EditTag.parse
ROOT = Path(__file__).resolve().parents[1]

# One tag of every family, in the order of TagFamily.
EVERY_FAMILY = (
    "$KEEP",
    "$DELETE",
    "$APPEND_x",
    "$REPLACE_y",
    "$MERGE_SPACE",
    "$TRANSFORM_CASE_UPPER",
    "$SUFFIXTRANSFORM_APPEND_ly",
    "$UNKNOWN",
)


def test_all_keep_all_zero():
    labels = derive_labels(["a", "b"], [T("$KEEP"), T("$KEEP")])
    for name in BINARY_STREAMS:
        assert streams(labels)[name] == [0, 0]


def test_deletion_stream():
    labels = derive_labels(["a", "b"], [T("$DELETE"), T("$KEEP")])
    assert streams(labels)["deletion"] == [1, 0]
    assert streams(labels)["detection"] == [1, 0]
    for name in ("insertion", "substitution", "merge", "transformation"):
        assert streams(labels)[name] == [0, 0]


def test_transformation_stream():
    labels = derive_labels(["a", "easy"], [T("$KEEP"), T("$SUFFIXTRANSFORM_Y_TO_ILY")])
    assert streams(labels)["transformation"] == [0, 1]
    assert streams(labels)["detection"] == [0, 1]


def test_one_tag_of_every_family():
    tags = [T(t) for t in EVERY_FAMILY]
    labels = derive_labels(["w"] * len(tags), tags)
    assert streams(labels)["deletion"] == [0, 1, 0, 0, 0, 0, 0, 0]
    assert streams(labels)["insertion"] == [0, 0, 1, 0, 0, 0, 0, 0]
    assert streams(labels)["substitution"] == [0, 0, 0, 1, 0, 0, 0, 0]
    assert streams(labels)["merge"] == [0, 0, 0, 0, 1, 0, 0, 0]
    assert streams(labels)["transformation"] == [0, 0, 0, 0, 0, 1, 1, 0]
    assert streams(labels)["detection"] == [0, 1, 1, 1, 1, 1, 1, 1]
    type_streams = [streams(labels)[n] for n in BINARY_STREAMS if n != "detection"]
    # detection is the OR of the type streams except at UNKNOWN positions
    for i in range(len(tags) - 1):
        assert streams(labels)["detection"][i] == max(s[i] for s in type_streams)
    # UNKNOWN: detected but typeless
    assert streams(labels)["detection"][-1] == 1
    assert all(s[-1] == 0 for s in type_streams)


def test_benchmark_label_line_follows_the_label_rule(monkeypatch):
    """The benchmark writes train-toy's records with its own copy of the rule."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.inputs import label_line

    tokens = ["w"] * len(EVERY_FAMILY)
    labels = derive_labels(tokens, [T(t) for t in EVERY_FAMILY])
    line = label_line(tokens, list(EVERY_FAMILY))
    assert from_json_line(line) == (tokens, labels)
    assert line == to_json_line(tokens, labels)


def test_at_most_one_type_stream_active():
    tags = [T("$MERGE_HYPHEN"), T("$APPEND_a"), T("$UNKNOWN"), T("$KEEP")]
    labels = derive_labels(["w"] * 4, tags)
    type_streams = ("deletion", "insertion", "substitution", "merge", "transformation")
    for i in range(4):
        assert sum(streams(labels)[n][i] for n in type_streams) <= 1


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        derive_labels(["a"], [T("$KEEP"), T("$KEEP")])


def test_json_roundtrip():
    tokens = ["He", "go"]
    labels = derive_labels(tokens, [T("$KEEP"), T("$TRANSFORM_VERB_VB_VBD")])
    line = to_json_line(tokens, labels)
    obj = json.loads(line)
    assert obj["tokens"] == tokens
    assert obj["correction"] == ["$KEEP", "$TRANSFORM_VERB_VB_VBD"]
    tokens2, labels2 = from_json_line(line)
    assert tokens2 == tokens and labels2 == labels


@pytest.mark.parametrize("value", [2, -1])
def test_binary_label_outside_zero_one_rejected(value):
    line = to_json_line(["a", "b"], derive_labels(["a", "b"], [T("$DELETE"), T("$KEEP")]))
    obj = json.loads(line)
    obj["detection"][1] = value
    with pytest.raises(ValueError, match="key 'detection' holds .* but the correction tags give"):
        from_json_line(json.dumps(obj))


def _without(key):
    obj = json.loads(to_json_line(["a"], derive_labels(["a"], [T("$DELETE")])))
    del obj[key]
    return json.dumps(obj)


def _with(key, value):
    obj = json.loads(to_json_line(["a"], derive_labels(["a"], [T("$DELETE")])))
    obj[key] = value
    return json.dumps(obj)


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "expected a JSON object"),
        ("7", "expected a JSON object"),
        (_without("deletion"), "'deletion' must hold a list"),
        (_without("tokens"), "'tokens' must hold a list"),
        (_with("merge", 0), "'merge' must hold a list"),
        (_with("tokens", ["a", 1]), "must be strings"),
        (_with("correction", [None]), "must be strings"),
        (_with("tokens", ["a", "b"]), "2 tokens but 1 correction tags"),
        (_with("deletion", [0]), r"key 'deletion' holds \[0\], but the correction tags give \[1\]"),
        (_with("deletion", [True]), r"key 'deletion' must hold integers 0 and 1, found \[True\]"),
        (_with("detection", [1.0]), r"key 'detection' must hold integers 0 and 1, found \[1.0\]"),
        (_with("merge", [False]), r"key 'merge' must hold integers 0 and 1, found \[False\]"),
        (_with("tokens", [""]), "token 0 '' is empty or holds whitespace"),
        (_with("tokens", ["a b"]), "token 0 'a b' is empty or holds whitespace"),
        (_with("tokens", ["a\n"]), r"token 0 'a\\n' is empty or holds whitespace"),
        (_with("tokens", ["a\u00a0b"]), r"token 0 'a\\xa0b' is empty or holds whitespace"),
        ("{", "Expecting"),
        ("[" * 200_000, "JSON nested too deeply"),
    ],
    ids=["list", "number", "no-stream", "no-tokens", "stream-int", "token-int",
         "tag-null", "token-count", "stream-contradicts-tags", "stream-bool", "stream-float",
         "stream-false", "token-empty", "token-space", "token-newline", "token-no-break-space",
         "not-json", "nested-too-deeply"],
)
def test_malformed_record_is_a_value_error(line, message):
    with pytest.raises(ValueError, match=message):
        from_json_line(line)
