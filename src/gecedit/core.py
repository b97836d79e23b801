"""Sentences, tokenization, and the line-oriented corpus formats.

Tokens are plain strings (non-empty, no internal whitespace); a sentence is a
list of tokens.  Corpora are pre-tokenized text: one sentence per line, tokens
space-separated; parallel corpora put ``source<TAB>target`` on each line.
"""

from __future__ import annotations

from typing import Sequence

Token = str
Sentence = list[str]


class CorpusFormatError(ValueError):
    """A corpus line violates the expected format."""


def tokenize(line: str) -> list[str]:
    """Split a pre-tokenized line on whitespace; empty line gives []."""
    return line.split()


def detokenize(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


def check_sentence(tokens: Sequence[str]) -> None:
    """Validate token invariants: non-empty, no internal whitespace."""
    for i, tok in enumerate(tokens):
        if not tok:
            raise CorpusFormatError(f"empty token at position {i}")
        if any(ch.isspace() for ch in tok):
            raise CorpusFormatError(f"token {tok!r} at position {i} contains whitespace")


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
