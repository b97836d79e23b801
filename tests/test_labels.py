import io
import json

import pytest

from gecedit.labels import (
    BINARY_STREAMS,
    derive_labels,
    from_json_line,
    read_labeled,
    to_json_line,
    write_labeled,
)
from gecedit.tags import EditTag

T = EditTag.parse


def test_all_keep_all_zero():
    labels = derive_labels(["a", "b"], [T("$KEEP"), T("$KEEP")])
    for name in BINARY_STREAMS:
        assert labels.stream(name) == (0, 0)


def test_deletion_stream():
    labels = derive_labels(["a", "b"], [T("$DELETE"), T("$KEEP")])
    assert labels.deletion == (1, 0)
    assert labels.detection == (1, 0)
    for name in ("insertion", "substitution", "merge", "transformation"):
        assert labels.stream(name) == (0, 0)


def test_transformation_stream():
    labels = derive_labels(["a", "easy"], [T("$KEEP"), T("$SUFFIXTRANSFORM_Y_TO_ILY")])
    assert labels.transformation == (0, 1)
    assert labels.detection == (0, 1)


def test_one_tag_of_every_family():
    tags = [
        T("$KEEP"),
        T("$DELETE"),
        T("$APPEND_x"),
        T("$REPLACE_y"),
        T("$MERGE_SPACE"),
        T("$TRANSFORM_CASE_UPPER"),
        T("$SUFFIXTRANSFORM_APPEND_ly"),
        T("$UNKNOWN"),
    ]
    labels = derive_labels(["w"] * len(tags), tags)
    assert labels.deletion == (0, 1, 0, 0, 0, 0, 0, 0)
    assert labels.insertion == (0, 0, 1, 0, 0, 0, 0, 0)
    assert labels.substitution == (0, 0, 0, 1, 0, 0, 0, 0)
    assert labels.merge == (0, 0, 0, 0, 1, 0, 0, 0)
    assert labels.transformation == (0, 0, 0, 0, 0, 1, 1, 0)
    assert labels.detection == (0, 1, 1, 1, 1, 1, 1, 1)
    # detection is the OR of the type streams except at UNKNOWN positions
    for i in range(len(tags) - 1):
        or_types = max(
            labels.deletion[i],
            labels.insertion[i],
            labels.substitution[i],
            labels.merge[i],
            labels.transformation[i],
        )
        assert labels.detection[i] == or_types
    # UNKNOWN: detected but typeless
    assert labels.detection[-1] == 1
    assert all(labels.stream(n)[-1] == 0 for n in BINARY_STREAMS if n != "detection")


def test_at_most_one_type_stream_active():
    tags = [T("$MERGE_HYPHEN"), T("$APPEND_a"), T("$UNKNOWN"), T("$KEEP")]
    labels = derive_labels(["w"] * 4, tags)
    type_streams = ("deletion", "insertion", "substitution", "merge", "transformation")
    for i in range(4):
        assert sum(labels.stream(n)[i] for n in type_streams) <= 1


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


def test_read_write_stream():
    tokens = ["a"]
    labels = derive_labels(tokens, [T("$DELETE")])
    buf = io.StringIO()
    assert write_labeled(buf, [(tokens, labels)]) == 1
    buf.seek(0)
    records = list(read_labeled(buf))
    assert records == [(tokens, labels)]


@pytest.mark.parametrize("value", [2, -1])
def test_binary_label_outside_zero_one_rejected(value):
    line = to_json_line(["a", "b"], derive_labels(["a", "b"], [T("$DELETE"), T("$KEEP")]))
    obj = json.loads(line)
    obj["detection"][1] = value
    with pytest.raises(ValueError, match="0 and 1"):
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
        ("{", "Expecting"),
    ],
    ids=["list", "number", "no-stream", "no-tokens", "stream-int", "token-int",
         "tag-null", "token-count", "not-json"],
)
def test_malformed_record_is_a_value_error(line, message):
    with pytest.raises(ValueError, match=message):
        from_json_line(line)
