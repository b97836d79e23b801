"""Seeded mutation fuzz of every command's input files.

Small valid inputs of the six commands are written once; each case then
mutates one input file of one command in one way (a flipped or inserted byte;
a dropped, duplicated, truncated or swapped line; an inserted tab or ``\\r``),
runs the command in this process through ``cli.main`` with ``--workers 1``,
and restores the file.  Every run must exit 0 or 2, and every exit-2 message
must start with the path of one of the command's input files.  The cases come
from one fixed seed, so a failure reproduces by its case number.
"""

import contextlib
import io
import json
import random

import pytest

from gecedit import cli
from gecedit.core import format_pair_line

from corpus_util import make_corpus

SEED = 6021
CASES = 200

TAGS = [
    "$KEEP", "$DELETE", "$UNKNOWN", "$MERGE_HYPHEN", "$MERGE_SPACE", "$TRANSFORM_CASE_CAPITAL",
    "$TRANSFORM_VERB_VB_VBZ", "$TRANSFORM_AGREEMENT_PLURAL", "$SUFFIXTRANSFORM_ING_TO_ED",
    *(f"${kind}_{w}" for w in ("in", "at", "to", "the", "a") for kind in ("APPEND", "REPLACE")),
]


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """Each command's argv and the input files it reads, all valid as written."""
    d = tmp_path_factory.mktemp("fuzz")
    clean = [" ".join(s) for s in make_corpus(12, seed=3)]
    corrupted = [
        line.replace(" in ", " at ", 1).replace(" the ", " ", 1).replace("lives", "live", 1)
        for line in clean
    ]
    files = {
        "tagset": _write(d / "x.tagset", "".join(t + "\n" for t in TAGS)),
        "lexicon": _write(d / "verbs.tsv", "live\tlived\tliving\tlived\tlives\n"
                                           "go\twent\tgoing\tgone\tgoes\n"),
        "plurals": _write(d / "plurals.tsv", "child\tchildren\nfoot\tfeet\n"),
        "pairs": _write(d / "pairs.tsv", "".join(
            format_pair_line(c.split(), t.split()) + "\n" for c, t in zip(corrupted, clean))),
        "clean": _write(d / "clean.txt", "".join(line + "\n" for line in clean[:8]) + "\n"),
        "edit_dict": _write(d / "ed.tsv", "in\tat\nthe\ta\n"),
        "profile": _write(d / "p.profile", "# dense\ntype_preposition = 1.0\n"
                                           "type_determiner = 0.5\ntoken_dict = 0.5\n"
                                           "edit_dict = ed.tsv\nexpected_errors = 1.5\n"
                                           "rng_seed = 4\n"),
        "src": _write(d / "src.txt", "".join(line + "\n" for line in corrupted)),
        "ref": _write(d / "ref.txt", "".join(line + "\n" for line in clean)),
        "ref2": _write(d / "ref2.txt", "".join(line + "\n" for line in corrupted)),
    }
    shared = ["--lexicon", files["lexicon"], "--plurals", files["plurals"]]
    labels, model = d / "labels.jsonl", d / "model.bin"
    files["labels"], files["model"] = labels, model
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["tag", "--src-tgt", str(files["pairs"]), "--tagset", str(files["tagset"]),
                         "--out", str(labels), "--workers", "1", *map(str, shared)]) == 0
        assert cli.main(["train-toy", "--data", str(labels), "--tagset", str(files["tagset"]),
                         "--out", str(model), "--epochs", "2", "--dim", "64"]) == 0
    records = [json.loads(line) for line in labels.read_text(encoding="utf-8").splitlines()]
    files["edits"] = _write(d / "edits.txt", "".join(" ".join(r["correction"]) + "\n" for r in records))
    out = d / "out"

    def command(*argv, inputs):
        return [str(a) for a in argv], [files[name] for name in inputs]

    return [
        command("tag", "--src-tgt", files["pairs"], "--tagset", files["tagset"], "--out", out,
                *shared, inputs=("pairs", "tagset", "lexicon", "plurals")),
        command("apply", "--src", files["src"], "--edits", files["edits"], "--out", out,
                *shared, inputs=("src", "edits", "lexicon", "plurals")),
        command("noise", "--in", files["clean"], "--profile", files["profile"], "--out", out,
                *shared, inputs=("clean", "profile", "edit_dict", "lexicon", "plurals")),
        command("train-toy", "--data", labels, "--tagset", files["tagset"], "--out", out,
                "--epochs", "1", "--dim", "64", inputs=("labels", "tagset")),
        command("predict", "--model", model, "--in", files["src"], "--out", out, *shared,
                inputs=("model", "src", "lexicon", "plurals")),
        command("score", "--src", files["src"], "--hyp", files["ref2"], "--ref", files["ref"],
                "--ref", files["ref2"], inputs=("src", "ref2", "ref")),
    ]


def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True) or [b""]


def _mutate(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One random single-file mutation of ``data``: its name and the new bytes."""
    kind = rng.choice(["flip", "insert", "drop", "duplicate", "truncate", "tab", "cr", "swap"])
    at = rng.randrange(len(data) + 1)
    if kind == "flip" and data:
        at = min(at, len(data) - 1)
        return kind, data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
    if kind in ("insert", "flip"):
        return "insert", data[:at] + bytes([rng.randrange(256)]) + data[at:]
    if kind in ("tab", "cr"):
        return kind, data[:at] + (b"\t" if kind == "tab" else b"\r") + data[at:]
    lines = _lines(data)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "truncate":
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return kind, b"".join(lines)


def test_mutated_inputs_exit_zero_or_two_naming_the_file(commands):
    rng = random.Random(SEED)
    failures, exits = [], {0: 0, 2: 0}
    for case in range(CASES):
        argv, inputs = rng.choice(commands)
        path = rng.choice(inputs)
        original = path.read_bytes()
        kind, mutated = _mutate(original, rng)
        path.write_bytes(mutated)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--workers", "1"] if argv[0] != "train-toy" else argv)
        finally:
            path.write_bytes(original)
        message = err.getvalue().partition("gecedit: error: ")[2]
        where = f"case {case}: {argv[0]} with {kind} in {path.name} ({mutated[:120]!r})"
        if code not in (0, 2):
            failures.append(f"{where}: exit {code}: {err.getvalue()[-300:]}")
        elif code == 2 and not any(message.startswith(str(p)) for p in inputs):
            failures.append(f"{where}: message names no input file: {message[:300]}")
        else:
            exits[code] += 1
    assert not failures, "\n".join(failures)
    assert exits[0] and exits[2], exits  # the mutations reach both outcomes
