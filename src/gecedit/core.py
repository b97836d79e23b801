"""Sentences, tokenization, and the line-oriented corpus formats.

Tokens are plain strings (non-empty, no internal whitespace); a sentence is a
list of tokens.  Corpora are pre-tokenized text: one sentence per line, tokens
space-separated; parallel corpora put ``source<TAB>target`` on each line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar, Union

_T = TypeVar("_T")


class CorpusFormatError(ValueError):
    """A corpus line violates the expected format, or a text file is not UTF-8."""


def _not_utf8(
    path: Union[str, Path], exc: UnicodeDecodeError, data: bytes | None = None
) -> CorpusFormatError:
    r"""The first undecodable byte of ``path`` as a ``path:line`` error.

    ``data`` is the file's bytes.  A streaming decoder reports offsets within
    the chunk it was decoding, so without ``data`` the file is read again as
    bytes to place the fault.  Lines are counted as text mode splits them: at
    ``\n``, ``\r\n`` and a lone ``\r``.
    """
    try:
        if data is None:
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


def _read_bytes(path: Union[str, Path]) -> bytes:
    with open(path, "rb") as fp:
        return fp.read()


def _decode(path: Union[str, Path], data: bytes) -> str:
    """``data``, the bytes of the file ``path``, as UTF-8 text less any leading
    byte-order mark, newlines translated as text mode does; an undecodable
    byte is a ``path:line`` error."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc, data) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _split_lines(text: str) -> list[str]:
    """The lines of ``text`` without their newlines, split at ``\\n``: line k
    is item k - 1, and a final newline ends the last line."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_text(path: Union[str, Path]) -> str:
    """The whole of a UTF-8 text file, decoded by ``_decode``."""
    return _decode(path, _read_bytes(path))


def read_lines(path: Union[str, Path]) -> list[str]:
    """The lines of a UTF-8 text file, ``read_text`` split by ``_split_lines``."""
    return _split_lines(read_text(path))


class DataFile(NamedTuple):
    """A file as ``read_once`` hands it to a parser: its path as given and
    its bytes, read once."""

    path: Union[str, Path]
    data: bytes

    @property
    def text(self) -> str:
        """The bytes decoded as ``read_text`` decodes a file."""
        return _decode(self.path, self.data)

    def lines(self) -> list[str]:
        """The lines as ``read_lines`` returns them."""
        return _split_lines(self.text)


# The results of read_once, least recently used first: (parse, (bytes, ...)) ->
# result.  The bound holds a pipeline's data at once: the lexicon pair, the
# pattern inventories and two tagsets, with room to spare.
_READ_ONCE_ENTRIES = 8
_read_once: dict = {}
_MISSING = object()


def read_once(parse: Callable[..., _T], *paths: Union[str, Path]) -> _T:
    """``parse(*files)``, each file a ``DataFile`` of one of ``paths``.

    Every file is opened and read once.  When each holds the bytes it held at
    an earlier call with the same ``parse`` that returned, whatever the paths,
    that call's result is returned again: the same object, which callers must
    not change.  Otherwise ``parse`` reads the bytes just read.  A parse that
    raises keeps nothing, and the ``_READ_ONCE_ENTRIES`` most recently used
    results are kept.  The result must not depend on the paths, which only
    errors may name.
    """
    data = tuple(map(_read_bytes, paths))
    key = (parse, data)
    result = _read_once.pop(key, _MISSING)
    if result is _MISSING:
        result = parse(*map(DataFile, paths, data))
        if len(_read_once) >= _READ_ONCE_ENTRIES:
            del _read_once[next(iter(_read_once))]
    _read_once[key] = result
    return result


def text_lines(path: Union[str, Path]) -> Iterator[str]:
    """The lines of a UTF-8 text file less any leading byte-order mark, each with
    its newline, as text mode reads them; an undecodable byte is a ``path:line`` error."""
    try:
        with open(path, encoding="utf-8-sig") as fp:
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
