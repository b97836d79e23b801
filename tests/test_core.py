import pytest

from gecedit.core import (
    CorpusFormatError,
    detokenize,
    format_pair_line,
    is_token,
    parse_pair_line,
    tokenize,
)


def test_is_token_matches_isspace_on_every_code_point():
    for cp in range(0x110000):
        ch = chr(cp)
        old = not ch.isspace()
        assert is_token(ch) is old, hex(cp)
        assert is_token("a" + ch + "b") is old, hex(cp)
    assert not is_token("")


def test_tokenize_whitespace_split():
    assert tokenize("He go .") == ["He", "go", "."]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \t ") == []


def test_tokenize_keeps_hyphenated_word_whole():
    assert tokenize("well-known") == ["well-known"]


def test_pair_line_roundtrip():
    src, tgt = parse_pair_line("a b\tc d\n")
    assert src == ["a", "b"] and tgt == ["c", "d"]
    assert format_pair_line(src, tgt) == "a b\tc d"


def test_pair_line_requires_tab():
    with pytest.raises(CorpusFormatError):
        parse_pair_line("no tab here")


def test_pair_line_rejects_a_second_tab():
    with pytest.raises(CorpusFormatError, match="found 2 tabs"):
        parse_pair_line("a b\tc\td")


def test_detokenize():
    assert detokenize(["a", "b"]) == "a b"
