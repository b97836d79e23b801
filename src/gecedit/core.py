"""Sentences, tokenization, and the line-oriented corpus formats.

Tokens are plain strings (non-empty, no internal whitespace); a sentence is a
list of tokens.  Corpora are pre-tokenized text: one sentence per line, tokens
space-separated; parallel corpora put ``source<TAB>target`` on each line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence, Union

class CorpusFormatError(ValueError):
    """A corpus line violates the expected format, or a text file is not UTF-8."""


def _not_utf8(path: Union[str, Path], exc: UnicodeDecodeError) -> CorpusFormatError:
    r"""The first undecodable byte of ``path`` as a ``path:line`` error.

    A streaming decoder reports offsets within the chunk it was decoding, so
    the file is read again as bytes to place the fault.  Lines are counted as
    text mode splits them: at ``\n``, ``\r\n`` and a lone ``\r``.
    """
    try:
        data = Path(path).read_bytes()
        data.decode("utf-8")
    except UnicodeDecodeError as first:
        head = data[: first.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        lineno = head.count("\n") + 1
        bad = data[first.start : first.end].hex()
        return CorpusFormatError(f"{path}:{lineno}: not valid UTF-8: {first.reason} 0x{bad}")
    except OSError:  # a pipe cannot be read again
        pass
    return CorpusFormatError(f"{path}: not valid UTF-8: {exc.reason}")


def read_text(path: Union[str, Path]) -> str:
    """The whole of a UTF-8 text file, newlines translated as text mode does;
    an undecodable byte is a ``path:line`` error."""
    try:
        with open(path, encoding="utf-8") as fp:
            return fp.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def read_lines(path: Union[str, Path]) -> list[str]:
    """The lines of a UTF-8 text file without their newlines, as ``read_text``
    splits them at ``\\n``: line k of the file is item k - 1."""
    lines = read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def text_lines(path: Union[str, Path]) -> Iterator[str]:
    """The lines of a UTF-8 text file, each with its newline, as text mode reads
    them; an undecodable byte is a ``path:line`` error."""
    try:
        with open(path, encoding="utf-8") as fp:
            yield from fp
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def is_token(text: str) -> bool:
    """Whether ``text`` is a token: non-empty and free of whitespace."""
    return text.split() == [text]


def tokenize(line: str) -> list[str]:
    """Split a pre-tokenized line on whitespace; empty line gives []."""
    return line.split()


def detokenize(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


def parse_pair_line(line: str) -> tuple[list[str], list[str]]:
    """Parse one ``source<TAB>target`` parallel-corpus line."""
    line = line.rstrip("\n")
    tabs = line.count("\t")
    if tabs != 1:
        raise CorpusFormatError(f"expected source<TAB>target, found {tabs} tabs")
    src, _, tgt = line.partition("\t")
    return tokenize(src), tokenize(tgt)


def format_pair_line(source: Sequence[str], target: Sequence[str]) -> str:
    return f"{detokenize(source)}\t{detokenize(target)}"
