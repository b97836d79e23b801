"""Output checks that hold for any correct version of gecedit.

Each check returns a list of problems; an empty list means it passed.  They
read the files a command wrote and use only the package's public API.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

_STREAMS = ("deletion", "insertion", "substitution", "merge", "transformation", "detection")
_MAX_REPORTED = 3
_MAX_PASSES = 8


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def noise(clean: Path, pairs: Path) -> list[str]:
    """Every non-blank clean line comes back as the target column, in order."""
    expected = [" ".join(line.split()) for line in _lines(clean) if line.split()]
    got = [line.partition("\t")[2] for line in _lines(pairs)]
    if len(got) != len(expected):
        return [f"noise wrote {len(got)} pairs for {len(expected)} clean lines"]
    bad = [i + 1 for i, (g, e) in enumerate(zip(got, expected)) if g != e]
    return [f"noise target differs from clean input at pair {i}" for i in bad[:_MAX_REPORTED]]


def tag(pairs: Path, labels: Path, lexicon, tagset) -> tuple[list[str], int, int]:
    """Length contract and round trip of every tag line.

    Returns (problems, UNKNOWN tags, edited tokens).  A line with no
    ``$UNKNOWN`` must turn its source into its target through ``edit2seq``.
    Tags encode only the first of several tokens inserted at one position,
    so such lines are re-tagged and applied again, as refinement does, until
    the target appears; lines that meet ``$UNKNOWN`` on the way are skipped.
    """
    from gecedit import edit2seq, seq2edit
    from gecedit.tags import EditTag, TagFamily

    problems: list[str] = []
    pair_lines = _lines(pairs)
    label_lines = _lines(labels)
    if len(pair_lines) != len(label_lines):
        return [f"tag wrote {len(label_lines)} lines for {len(pair_lines)} pairs"], 0, 0
    unknown = edited = 0
    for lineno, (pair, record) in enumerate(zip(pair_lines, label_lines), start=1):
        source, _, target = pair.partition("\t")
        target = target.split()
        obj = json.loads(record)
        tags = obj["correction"]
        lengths = {len(obj["tokens"]), len(tags)} | {len(obj[s]) for s in _STREAMS}
        if obj["tokens"] != source.split() or lengths != {len(obj["tokens"])}:
            problems.append(f"tag line {lineno}: |edits| != |source|")
            continue
        edited += sum(t != "$KEEP" for t in tags)
        if "$UNKNOWN" in tags:
            unknown += tags.count("$UNKNOWN")
            continue
        current = edit2seq(obj["tokens"], [EditTag.parse(t) for t in tags], lexicon)
        for _ in range(_MAX_PASSES - 1):
            if current == target:
                break
            retag = seq2edit(current, target, lexicon, tagset)
            if any(t.family is TagFamily.UNKNOWN for t in retag):
                break
            current = edit2seq(current, retag, lexicon)
        else:
            if current != target:
                problems.append(f"tag line {lineno}: no round trip in {_MAX_PASSES} passes")
    return problems[:_MAX_REPORTED], unknown, edited


def train(stdout: str, model_path: Path, n_tags: int) -> list[str]:
    """Finite final loss, and the saved model reloads with the full tagset."""
    from gecedit import load_model

    loss = json.loads(stdout)["final_loss"]
    if not math.isfinite(loss):
        return [f"train-toy final loss is {loss}"]
    model = load_model(model_path)
    if len(model.tagset) != n_tags:
        return [f"reloaded model has {len(model.tagset)} tags, expected {n_tags}"]
    return []


def predict(src: Path, hyp: Path) -> list[str]:
    """One output line per input line; blank exactly where the input is."""
    src_lines, hyp_lines = _lines(src), _lines(hyp)
    if len(src_lines) != len(hyp_lines):
        return [f"predict wrote {len(hyp_lines)} lines for {len(src_lines)} inputs"]
    bad = [
        i + 1
        for i, (s, h) in enumerate(zip(src_lines, hyp_lines))
        if bool(s.split()) != bool(h.split())
    ]
    return [f"predict line {i}: blank mismatch" for i in bad[:_MAX_REPORTED]]


def score(stdout: str, n_lines: int) -> tuple[list[str], dict]:
    """Sentence count matches and every score lies in [0, 1]."""
    report = json.loads(stdout)
    problems = []
    if report.get("sentence_count") != n_lines:
        problems.append(f"score counted {report.get('sentence_count')} of {n_lines} sentences")
    for key in ("P", "R", "F0.5", "GLEU"):
        value = report.get(key)
        if not isinstance(value, float) or not 0.0 <= value <= 1.0:
            problems.append(f"score {key} = {value!r} is not in [0, 1]")
    return problems, report


def same_bytes(a: Path, b: Path, what: str) -> list[str]:
    return [] if a.read_bytes() == b.read_bytes() else [f"{what}: outputs differ"]


def backends_agree(pairs) -> list[str]:
    """Every available alignment kernel gives the same edit script."""
    from gecedit import available_backends

    kernels = available_backends()
    reference = kernels.pop("python")
    problems = []
    for name, kernel in kernels.items():
        mismatches = sum(kernel(s, t) != reference(s, t) for s, t in pairs)
        if mismatches:
            problems.append(f"{name} kernel disagrees with python on {mismatches} pairs")
    return problems
