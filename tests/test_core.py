import pytest

from gecedit import core
from gecedit.core import (
    CorpusFormatError,
    detokenize,
    format_pair_line,
    is_token,
    parse_pair_line,
    read_lines,
    read_once,
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


def test_read_once_parses_each_content_once_and_keeps_no_fault(tmp_path):
    """Equal bytes give the first parse's object, whatever the path; a file
    decodes as ``read_lines`` reads it; a parse that raises is run again on
    the next call, and its error names that call's path."""
    calls = []

    def parse(file):
        calls.append(file.path)
        lines = file.lines()
        if lines[0] == "bad":
            raise ValueError(f"{file.path}:1: bad")
        return lines

    a, b = tmp_path / "a", tmp_path / "b"
    for path in (a, b):
        path.write_bytes(b"\xef\xbb\xbfx\r\ny\rz\n")
    first = read_once(parse, a)
    assert first == read_lines(a) == ["x", "y", "z"]
    assert read_once(parse, b) is first and calls == [a]
    a.write_bytes(b"bad\n")
    b.write_bytes(b"bad\n")
    for path in (a, b, a):
        with pytest.raises(ValueError, match=f"^{path}:1: bad$"):
            read_once(parse, path)
    assert calls == [a, a, b, a]
    (tmp_path / "c").write_bytes(b"ok\n\xff\n")
    with pytest.raises(CorpusFormatError, match=f"^{tmp_path / 'c'}:2: not valid UTF-8"):
        read_once(parse, tmp_path / "c")


def test_read_once_keeps_the_most_recently_used_results(tmp_path):
    calls = []

    def parse(file):
        calls.append(file.path)
        return object()

    paths = [tmp_path / str(k) for k in range(core._READ_ONCE_ENTRIES + 1)]
    for k, path in enumerate(paths):
        path.write_text(f"{k}\n")
    kept = [read_once(parse, path) for path in paths[:-1]]
    assert read_once(parse, paths[0]) is kept[0]  # now the most recently used
    read_once(parse, paths[-1])  # one more than the bound: the least recently used goes
    calls.clear()
    assert [read_once(parse, path) for path in (paths[0], *paths[2:-1])] == [kept[0], *kept[2:]]
    assert calls == []
    assert read_once(parse, paths[1]) is not kept[1] and calls == [paths[1]]
