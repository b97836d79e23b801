import functools
import json
import os
import pickle
import shlex
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from gecedit import cli, tagger
from gecedit.cli import _pool_size, _start_method, main
from gecedit.labels import BINARY_STREAMS
from gecedit.lexicon import (
    _parse_lexicon,
    data_dir,
    default_plurals_path,
    default_verbs_path,
    load_lexicon,
)
from gecedit.core import DataFile, format_pair_line, tokenize
from gecedit.noiser import OPERATIONS, Noiser, load_profile
from gecedit.tagger import FeatureEncoder, MultiHeadModel, save_model
from gecedit.tags import TagSet, load_tagset

from corpus_util import make_corpus

SMALL_TAGS = [
    "$KEEP", "$DELETE", "$UNKNOWN", "$MERGE_HYPHEN", "$MERGE_SPACE",
    "$TRANSFORM_VERB_VB_VBD",
]
for _w in ("in", "at", "to", "with", "for", "the", "a", "an", "this", "that"):
    SMALL_TAGS.append(f"$REPLACE_{_w}")
    SMALL_TAGS.append(f"$APPEND_{_w}")


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "small.tagset").write_text("".join(t + "\n" for t in SMALL_TAGS))
    (tmp_path / "profile.txt").write_text(
        "type_preposition = 1.0\ntype_determiner = 1.0\nexpected_errors = 1.0\nrng_seed = 3\n"
    )
    clean = make_corpus(120, seed=42)
    (tmp_path / "clean.txt").write_text("".join(" ".join(s) + "\n" for s in clean))
    return tmp_path


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gecedit.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "tag" in proc.stdout and "score" in proc.stdout


@pytest.mark.parametrize("command", ["tag", "apply", "noise", "train-toy", "predict", "score"])
def test_subcommand_help(command):
    assert main([command, "--help"]) == 0


def test_coverage_command_and_noise_stats_flag_are_gone(workdir, capsys):
    # tag prints the coverage line and noise its stats, so neither needs its own way out
    pairs = _write(workdir / "pairs.tsv", "a\tb\n")
    assert main(["coverage", "--src-tgt", pairs, "--workers", "1"]) == 1
    assert "invalid choice: 'coverage'" in capsys.readouterr().err
    assert main([
        "noise", "--in", str(workdir / "clean.txt"), "--out", str(workdir / "x.tsv"),
        "--stats", str(workdir / "stats.json"), "--workers", "1",
    ]) == 1
    assert "unrecognized arguments: --stats" in capsys.readouterr().err
    assert not (workdir / "x.tsv").exists() and not (workdir / "stats.json").exists()


def test_readme_command_line_examples_parse():
    """Every ``gecedit`` example in README's "Command line" block parses, so a
    removed command or flag cannot stay in the docs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("\n```", 1)[0]
    examples = [
        line for line in block.replace("\\\n", " ").splitlines() if line.startswith("gecedit ")
    ]
    assert [shlex.split(line)[1] for line in examples] == [
        "noise", "tag", "apply", "train-toy", "predict", "score",
    ]
    parser = cli.build_parser()
    for line in examples:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_usage_error_exits_one():
    proc = run_cli("tag")  # missing required arguments
    assert proc.returncode == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_usage_error(workdir, capsys, workers):
    # rejected while parsing, before any input is read or worker started
    assert main([
        "tag", "--src-tgt", str(workdir / "missing.tsv"), "--out", str(workdir / "out.jsonl"),
        "--workers", workers,
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: gecedit tag")
    assert f"argument --workers: must be at least 1, got {workers}" in err
    assert not (workdir / "out.jsonl").exists()


def test_pool_size_capped_at_cores():
    assert _pool_size(1, 8, 64) == 1
    assert _pool_size(3, 8, 64) == 3
    assert _pool_size(64, 8, 64) == 8
    assert _pool_size(4, 1, 64) == 1
    assert _pool_size(4, None, 64) == 1  # core count unknown: sequential


def test_pool_size_capped_at_input_chunks():
    assert _pool_size(4, 8, 3) == 3
    assert _pool_size(4, 8, 4) == 4
    assert _pool_size(4, 8, 1) == 1  # the input fills one chunk: in-process
    assert _pool_size(4, 8, 0) == 1  # empty input
    assert _pool_size(8, 2, 3) == 2


def test_start_method_falls_back_without_fork():
    assert _start_method(["fork", "spawn", "forkserver"]) == "fork"
    assert _start_method(["spawn"]) is None  # platform default, e.g. on Windows
    assert _start_method(["spawn", "forkserver"]) is None


def test_data_error_exits_two(workdir):
    bad = workdir / "bad.tsv"
    bad.write_text("no tab on this line\n")
    proc = run_cli(
        "tag", "--src-tgt", bad, "--tagset", workdir / "small.tagset",
        "--out", workdir / "out.jsonl", "--workers", 1,
    )
    assert proc.returncode == 2
    assert "bad.tsv:1" in proc.stderr


def test_noise_tag_apply_roundtrip(workdir):
    pairs = workdir / "pairs.tsv"
    assert main([
        "noise", "--in", str(workdir / "clean.txt"), "--profile", str(workdir / "profile.txt"),
        "--out", str(pairs), "--workers", "1",
    ]) == 0
    labels = workdir / "labels.jsonl"
    assert main([
        "tag", "--src-tgt", str(pairs), "--tagset", str(workdir / "small.tagset"),
        "--out", str(labels), "--workers", "1",
    ]) == 0

    src = workdir / "src.txt"
    edits = workdir / "edits.txt"
    targets = []
    with open(labels) as fp, open(src, "w") as fs, open(edits, "w") as fe:
        for line in fp:
            obj = json.loads(line)
            fs.write(" ".join(obj["tokens"]) + "\n")
            fe.write(" ".join(obj["correction"]) + "\n")
    targets = [line.split("\t")[1] for line in pairs.read_text().splitlines()]

    hyp = workdir / "hyp.txt"
    assert main([
        "apply", "--src", str(src), "--edits", str(edits), "--out", str(hyp), "--workers", "1",
    ]) == 0
    restored = hyp.read_text().splitlines()
    unknown_free = [
        i for i, line in enumerate(edits.read_text().splitlines()) if "$UNKNOWN" not in line
    ]
    assert unknown_free, "expected mostly expressible corruptions"
    for i in unknown_free:
        assert restored[i] == targets[i]


def test_apply_all_keep_reproduces_source(workdir):
    src = workdir / "s.txt"
    src.write_text("He lives in the city .\nShe works at the office .\n")
    edits = workdir / "e.txt"
    edits.write_text("$KEEP $KEEP $KEEP $KEEP $KEEP $KEEP\n$KEEP $KEEP $KEEP $KEEP $KEEP $KEEP\n")
    out = workdir / "o.txt"
    assert main(["apply", "--src", str(src), "--edits", str(edits), "--out", str(out), "--workers", "1"]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_apply_line_count_mismatch(workdir):
    src = workdir / "s.txt"
    src.write_text("a b\nc d\n")
    edits = workdir / "e.txt"
    edits.write_text("$KEEP $KEEP\n")
    out = workdir / "o.txt"
    assert main(["apply", "--src", str(src), "--edits", str(edits), "--out", str(out), "--workers", "1"]) == 2


def test_noise_deterministic_and_worker_invariant(workdir, capsys):
    # 360 lines fill three 128-line chunks, so more than one worker starts a pool
    clean = workdir / "clean3.txt"
    clean.write_text((workdir / "clean.txt").read_text() * 3)
    outs = []
    for name, workers in (("a.tsv", 1), ("b.tsv", 1), ("c.tsv", 3)):
        out = workdir / name
        assert main([
            "noise", "--in", str(clean), "--profile", str(workdir / "profile.txt"),
            "--out", str(out), "--seed", "9", "--workers", str(workers),
        ]) == 0
        outs.append((out.read_bytes(), capsys.readouterr().out))
    assert outs[0] == outs[1] == outs[2]


def test_tag_worker_invariant(workdir, capsys):
    pairs = workdir / "pairs.tsv"
    main([
        "noise", "--in", str(workdir / "clean.txt"), "--profile", str(workdir / "profile.txt"),
        "--out", str(pairs), "--workers", "1",
    ])
    capsys.readouterr()
    pairs.write_text(pairs.read_text() * 3)  # three 128-line chunks, so --workers 2 starts a pool
    results = []
    for name, workers in (("l1.jsonl", 1), ("l2.jsonl", 2)):
        out = workdir / name
        assert main([
            "tag", "--src-tgt", str(pairs), "--tagset", str(workdir / "small.tagset"),
            "--out", str(out), "--workers", str(workers),
        ]) == 0
        results.append((out.read_bytes(), capsys.readouterr().out))
    assert results[0] == results[1]


def test_train_predict_pipeline(workdir):
    pairs = workdir / "pairs.tsv"
    labels = workdir / "labels.jsonl"
    main(["noise", "--in", str(workdir / "clean.txt"), "--profile", str(workdir / "profile.txt"),
          "--out", str(pairs), "--workers", "1"])
    main(["tag", "--src-tgt", str(pairs), "--tagset", str(workdir / "small.tagset"),
          "--out", str(labels), "--workers", "1"])
    model = workdir / "model.bin"
    assert main([
        "train-toy", "--data", str(labels), "--tagset", str(workdir / "small.tagset"),
        "--out", str(model), "--epochs", "6", "--dim", "1024", "--seed", "2",
    ]) == 0

    src = workdir / "src.txt"
    src.write_text("".join(line.split("\t")[0] + "\n" for line in pairs.read_text().splitlines()[:30]))
    out1 = workdir / "p1.txt"
    out2 = workdir / "p2.txt"
    assert main(["predict", "--model", str(model), "--in", str(src), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["predict", "--model", str(model), "--in", str(src), "--out", str(out2), "--workers", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_train_five_head_variant(workdir):
    pairs = workdir / "pairs.tsv"
    labels = workdir / "labels.jsonl"
    main(["noise", "--in", str(workdir / "clean.txt"), "--profile", str(workdir / "profile.txt"),
          "--out", str(pairs), "--workers", "1"])
    main(["tag", "--src-tgt", str(pairs), "--tagset", str(workdir / "small.tagset"),
          "--out", str(labels), "--workers", "1"])
    model = workdir / "m5.bin"
    assert main([
        "train-toy", "--data", str(labels), "--tagset", str(workdir / "small.tagset"),
        "--out", str(model), "--heads", "5", "--epochs", "2", "--dim", "256",
    ]) == 0
    from gecedit.tagger import load_model

    loaded = load_model(model)
    assert loaded.heads == 5
    assert "merge" not in loaded.W and "detection" in loaded.W
    out = workdir / "p5.txt"
    src = workdir / "s5.txt"
    src.write_text("He lives in the city .\n")
    assert main(["predict", "--model", str(model), "--in", str(src), "--out", str(out),
                 "--workers", "1"]) == 0


def test_predict_min_error_prob_one_copies_input(workdir):
    ts = TagSet(SMALL_TAGS)
    model = MultiHeadModel(ts, FeatureEncoder(dim=256))
    model_path = workdir / "zero.bin"
    save_model(model, model_path)
    src = workdir / "in.txt"
    src.write_text("He lives in the city .\nShe works at the office .\n")
    out = workdir / "out.txt"
    assert main([
        "predict", "--model", str(model_path), "--in", str(src), "--out", str(out),
        "--min-error-prob", "1.0", "--workers", "1",
    ]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_predict_of_a_model_that_appends_everywhere_stays_bounded(workdir):
    ts = TagSet(["$KEEP", "$DELETE", "$UNKNOWN", "$APPEND_the"])
    model = MultiHeadModel(ts, FeatureEncoder(dim=256))
    model.W["correction"][ts.id_of("$APPEND_the")] = 5.0
    model_path = workdir / "doubling.bin"
    save_model(model, model_path)
    src = workdir / "in.txt"
    src.write_text("He lives in the city .\n\nHi\n")
    out = workdir / "out.txt"
    assert main([
        "predict", "--model", str(model_path), "--in", str(src), "--out", str(out),
        "--iters", "40", "--workers", "1",
    ]) == 0
    # each pass doubles a line, until a pass leaves it longer than 2n + 4 tokens
    lines = out.read_text().split("\n")
    assert [len(line.split()) for line in lines] == [24, 0, 8, 0]
    assert lines[2] == " ".join(["Hi"] + ["the"] * 7)


def test_predict_rejects_model_with_trailing_bytes(workdir, capsys):
    model_path = workdir / "model.bin"
    save_model(MultiHeadModel(TagSet(SMALL_TAGS), FeatureEncoder(dim=16)), model_path)
    with open(model_path, "ab") as fp:
        fp.write(b"\x00")
    src = workdir / "in.txt"
    src.write_text("He lives in the city .\n")
    assert main([
        "predict", "--model", str(model_path), "--in", str(src),
        "--out", str(workdir / "out.txt"), "--workers", "1",
    ]) == 2
    assert "trailing bytes" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tags", "dim", "lambda", "heads", "templates", "arrays"])
def test_predict_rejects_model_header_missing_a_key(workdir, capsys, key):
    model_path = workdir / "model.bin"
    save_model(MultiHeadModel(TagSet(SMALL_TAGS), FeatureEncoder(dim=16)), model_path)
    head, _, body = model_path.read_bytes().partition(b"\n")
    header = json.loads(head)
    del header[key]
    model_path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    src = workdir / "in.txt"
    src.write_text("He lives in the city .\n")
    assert main([
        "predict", "--model", str(model_path), "--in", str(src),
        "--out", str(workdir / "out.txt"), "--workers", "1",
    ]) == 2
    assert f"model header lacks the key {key!r}" in capsys.readouterr().err


def _set_header(key, value):
    def edit(header):
        header[key] = value
        return header

    return edit


def _huge_dim(header):
    header["dim"] = 10_000_000
    for array in header["arrays"]:
        array[2] = 10_000_000
    return header


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_header("dim", "16"), "'dim' must be an integer"),
        (_set_header("dim", True), "'dim' must be an integer"),
        (_set_header("heads", 7.0), "'heads' must be an integer"),
        (_set_header("lambda", "x"), "'lambda' must be a number"),
        (_set_header("lambda", False), "'lambda' must be a number"),
        (_set_header("tags", 5), "'tags' must be a list of strings"),
        (_set_header("tags", ["$KEEP", 5]), "'tags' must be a list of strings"),
        (_set_header("templates", 5), "'templates' must be a list of strings"),
        (_set_header("dim", 10_000_000), "weight arrays"),
        (_huge_dim, "truncated weight data"),  # checked before the weights are allocated
        (lambda header: [header], "not a model file"),
        (_set_header("heads", 6), "model.bin: model header: heads must be 5 or 7"),
        (_set_header("dim", 1), "model.bin: model header: feature dimension must be >= 2"),
        (_set_header("templates", ["x"]), "model.bin: model header: unsupported template set"),
        (_set_header("lambda", 2.0), "model.bin: lambda must be in [0, 1]"),
        (_set_header("lambda", float("nan")), "model.bin: lambda must be in [0, 1]"),
        (lambda header: b"[" * 200_000, "model.bin:1: not a model file"),
    ],
    ids=["dim-str", "dim-bool", "heads-float", "lambda-str", "lambda-bool", "tags-int",
         "tags-item-int", "templates-int", "dim-huge", "dim-huge-arrays", "header-list",
         "heads-6", "dim-1", "templates-unknown", "lambda-above-1", "lambda-nan",
         "header-nested-too-deeply"],
)
def test_predict_rejects_malformed_model_header(workdir, capsys, edit, message):
    model_path = workdir / "model.bin"
    save_model(MultiHeadModel(TagSet(SMALL_TAGS), FeatureEncoder(dim=16)), model_path)
    head, _, body = model_path.read_bytes().partition(b"\n")
    header = edit(json.loads(head))
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    model_path.write_bytes(header + b"\n" + body)
    src = workdir / "in.txt"
    src.write_text("He lives in the city .\n")
    assert main([
        "predict", "--model", str(model_path), "--in", str(src),
        "--out", str(workdir / "out.txt"), "--workers", "1",
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"gecedit: error: {model_path}") and message in err


def test_score_reports_metrics(workdir, capsys):
    (workdir / "src.txt").write_text("a b c\nd e f\n")
    (workdir / "hyp.txt").write_text("a x c\nd e f\n")
    (workdir / "ref.txt").write_text("a x c\nd e f\n")
    assert main([
        "score", "--src", str(workdir / "src.txt"), "--hyp", str(workdir / "hyp.txt"),
        "--ref", str(workdir / "ref.txt"), "--metric", "both", "--workers", "1",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["P"] == 1.0 and report["R"] == 1.0 and report["F0.5"] == 1.0
    assert report["GLEU"] == pytest.approx(1.0)
    assert report["sentence_count"] == 2


def test_score_f05_uses_only_the_first_reference(workdir, capsys):
    (workdir / "src.txt").write_text("a b c\nd e f\n")
    (workdir / "hyp.txt").write_text("a x c\nd e f\n")
    (workdir / "ref.txt").write_text("a x c\nd e f\n")
    (workdir / "ref2.txt").write_text("a b y\nd q f\n")
    base = ["score", "--src", str(workdir / "src.txt"), "--hyp", str(workdir / "hyp.txt"),
            "--ref", str(workdir / "ref.txt"), "--metric", "both", "--workers", "1"]
    assert main(base) == 0
    one = json.loads(capsys.readouterr().out)
    assert main([*base, "--ref", str(workdir / "ref2.txt")]) == 0
    two = json.loads(capsys.readouterr().out)
    assert {k: two[k] for k in ("P", "R", "F0.5")} == {k: one[k] for k in ("P", "R", "F0.5")}
    # the second reference disagrees with the hypothesis, so GLEU does see it
    assert two["GLEU"] < one["GLEU"]


def test_score_line_count_mismatch(workdir, capsys):
    (workdir / "src.txt").write_text("a b c\n")
    (workdir / "hyp.txt").write_text("a x c\nd\n")
    (workdir / "ref.txt").write_text("a x c\n")
    assert main([
        "score", "--src", str(workdir / "src.txt"), "--hyp", str(workdir / "hyp.txt"),
        "--ref", str(workdir / "ref.txt"), "--workers", "1",
    ]) == 2


def test_coverage_report(workdir, capsys):
    """``tag`` prints the tag-family histogram and UNKNOWN rate of what it wrote."""
    pairs = workdir / "pairs.tsv"
    pairs.write_text("He go to school\tHe went to school\nthe cat\tthe cat\n")
    full = workdir / "full.tagset"
    full.write_text("".join(t + "\n" for t in SMALL_TAGS))
    assert main([
        "tag", "--src-tgt", str(pairs), "--tagset", str(full), "--out", str(workdir / "o.jsonl"),
        "--workers", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and len((workdir / "o.jsonl").read_text().splitlines()) == 2
    report = json.loads(out)
    assert report["pairs"] == 2
    assert report["tokens"] == 6
    assert report["edited"] == 1
    assert report["families"]["TRANSFORM"] == 1
    assert report["unknown_rate"] == 0.0


def test_stats_file(workdir, capsys):
    """``noise`` prints its stats as one JSON line."""
    assert main([
        "noise", "--in", str(workdir / "clean.txt"), "--profile", str(workdir / "profile.txt"),
        "--out", str(workdir / "x.tsv"), "--workers", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    stats = json.loads(out)
    assert stats["sentences"] == 120
    assert set(stats["operations"]) >= {"type_preposition", "type_determiner"}
    assert stats["errors_total"] == sum(stats["operations"].values())


def test_noise_stats_equal_generate_corpus(workdir, capsys):
    """``noise`` writes each line's ``Noiser.corrupt`` pair, and the stats it
    prints are their counts summed, with the blank lines skipped."""
    clean = workdir / "with_blanks.txt"
    lines = (workdir / "clean.txt").read_text().splitlines(keepends=True)
    clean.write_text("".join(lines[:40]) + "\n  \n" + "".join(lines[40:80]) + "\n")
    assert main([
        "noise", "--in", str(clean), "--profile", str(workdir / "profile.txt"),
        "--out", str(workdir / "x.tsv"), "--seed", "5", "--workers", "1",
    ]) == 0
    profile = load_profile(workdir / "profile.txt")
    profile.rng_seed = 5
    noiser = Noiser(profile, lexicon=load_lexicon())
    pairs, realized, skipped = [], dict.fromkeys(OPERATIONS, 0), 0
    for idx, line in enumerate(clean.read_text(encoding="utf-8").splitlines()):
        tokens = tokenize(line)
        if not tokens:
            skipped += 1
            continue
        corrupted, counts = noiser.corrupt(tokens, idx)
        pairs.append(format_pair_line(corrupted, tokens) + "\n")
        for name, count in counts.items():
            realized[name] += count
    assert skipped == 3 and len(pairs) == 80
    expected = {
        "sentences": 80,
        "skipped_blank": 3,
        "errors_total": sum(realized.values()),
        "operations": realized,
    }
    assert capsys.readouterr().out == json.dumps(expected, sort_keys=True) + "\n"
    assert (workdir / "x.tsv").read_text() == "".join(pairs)


# -- the exit-code contract ---------------------------------------------------
# Each case writes its inputs into the work directory and returns the argv;
# every command runs in this process, the line-parallel ones with one worker.

def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _label(tag, stream):
    """A one-token record tagged ``tag``, marked in ``stream`` and in detection."""
    marked = {stream, "detection"}
    return json.dumps({"tokens": ["a"], "correction": [tag],
                       **{name: [int(name in marked)] for name in BINARY_STREAMS}})


_LABEL = _label("$DELETE", "deletion")
_EMPTY_LABEL = json.dumps({"tokens": [], "correction": [], **{name: [] for name in BINARY_STREAMS}})


def _tag(pairs="a b\ta c\n", tagset=None, **flags):
    def argv(d):
        out = ["tag", "--src-tgt", _write(d / "pairs.tsv", pairs), "--out", str(d / "o.jsonl")]
        out += ["--tagset", _write(d / "x.tagset", tagset or "".join(t + "\n" for t in SMALL_TAGS))]
        for flag, text in flags.items():
            out += [f"--{flag}", _write(d / f"{flag}.tsv", text)]
        return out
    return argv


def _noise(profile):
    return lambda d: ["noise", "--in", _write(d / "in.txt", "a b\n"),
                      "--profile", _write(d / "p.profile", profile), "--out", str(d / "o.tsv")]


def _train(labels, *flags):
    return lambda d: ["train-toy", "--data", _write(d / "labels.jsonl", labels),
                      "--tagset", _write(d / "x.tagset", "".join(t + "\n" for t in SMALL_TAGS)),
                      "--out", str(d / "m.bin"), "--dim", "16", *flags]


def _predict(model="not a model\n", *flags):
    return lambda d: ["predict", "--model", _write(d / "model.bin", model),
                      "--in", _write(d / "in.txt", "a b\n"), "--out", str(d / "o.txt"), *flags]


def _predict_bogus_header_tag(d):
    argv = _predict()(d)
    model = d / "model.bin"
    save_model(MultiHeadModel(TagSet(SMALL_TAGS), FeatureEncoder(dim=16)), model)
    # the fourth header tag, $MERGE_HYPHEN, becomes a tag of no family
    model.write_bytes(model.read_bytes().replace(b'"$MERGE_HYPHEN"', b'"$BOGUS_x"', 1))
    return argv


def _predict_nan_weight(d):
    argv = _predict()(d)
    model = MultiHeadModel(TagSet(SMALL_TAGS), FeatureEncoder(dim=16))
    model.weights[0, 0] = np.nan
    save_model(model, d / "model.bin")
    return argv


def _apply_edits(edits):
    return lambda d: ["apply", "--src", _write(d / "s.txt", "a b\n"),
                      "--edits", _write(d / "e.txt", edits), "--out", str(d / "o.txt")]


def _apply_lexicon(verbs):
    return lambda d: ["apply", "--src", _write(d / "s.txt", "I go home\n"),
                      "--edits", _write(d / "e.txt", "$KEEP $TRANSFORM_VERB_VB_VBD $KEEP\n"),
                      "--lexicon", _write(d / "verbs.tsv", verbs), "--out", str(d / "o.txt")]


def _score_empty_source(*flags):
    return lambda d: ["score", "--src", _write(d / "src.txt", "a\n\n"),
                      "--hyp", _write(d / "hyp.txt", "a\nb\n"),
                      "--ref", _write(d / "ref.txt", "a\nb\n"), *flags]


def _score_no_sentences(*flags):
    return lambda d: ["score", "--src", _write(d / "src.txt", ""), "--hyp", _write(d / "hyp.txt", ""),
                      "--ref", _write(d / "ref.txt", ""), *flags]


def _noise_edit_dict(d):
    _write(d / "ed.tsv", "in\tat\nbad line\n")
    return _noise("edit_dict = ed.tsv\ntoken_dict = 1.0\n")(d)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (_tag("a b\ta b\na b\tc\td\n"), 2, "pairs.tsv:2: expected source<TAB>target, found 2 tabs"),
        (_tag("a b\n"), 2, "pairs.tsv:1: expected source<TAB>target"),
        (_tag(tagset="$KEEP\n$DELETE\n$UNKNOWN\n$BOGUS\n"), 2, "x.tagset:4: "),
        (_tag(tagset="$KEEP\n$DELETE\n"), 2, "x.tagset: tagset must contain $UNKNOWN"),
        (_tag(lexicon="go\twent\n"), 2, "lexicon.tsv:1: expected 5 columns"),
        (_tag(lexicon="go\twent\tgoing\tgone\tgoes\n\n\ngo\n"), 2,
         "lexicon.tsv:4: expected 5 columns"),
        (_tag(plurals="child\tchildren\n\nfoot\n"), 2, "plurals.tsv:3: expected singular<TAB>plural"),
        (_tag(plurals="person\tpeople\nperson\tpersons\n"), 2,
         "plurals.tsv:2: duplicate singular 'person' (first on line 1)"),
        (_tag(plurals="person\tpeople\n\nhuman\tpeople\n"), 2,
         "plurals.tsv:3: duplicate plural 'people' (first on line 1)"),
        (_tag(plurals="child\tchildren\nfoot\t\n"), 2,
         "plurals.tsv:2: singular and plural must be non-empty"),
        (_tag(plurals="child\tlittle ones\n"), 2, "plurals.tsv:1: 'little ones' is not a token"),
        (_tag(lexicon="do\tdid\tdoing\tdone\tdoes\ngo\twent up\tgoing\tgone\tgoes\n"), 2,
         "lexicon.tsv:2: 'went up' is not a token"),
        (_apply_lexicon("go\twent\tgoing\tgone\tgoes\u00a0\n"), 2,
         "verbs.tsv:1: 'goes\\xa0' is not a token"),
        (_tag(lexicon="go\twent\tgoing\tgone\tgoes\ngo\twent\tgoing\tgone\tgoes\n"), 2,
         "lexicon.tsv:2: duplicate lemma 'go' (first on line 1)"),
        (_tag(lexicon="\twent\tgoing\tgone\tgoes\n"), 2,
         "lexicon.tsv:1: lemma must be non-empty lowercase"),
        (lambda d: [*_tag()(d), "--lexicon", ""], 2, "No such file or directory: ''"),
        (lambda d: [*_tag()(d), "--plurals", ""], 2, "No such file or directory: ''"),
        (_tag("\tb\n"), 2, "pairs.tsv:1: empty source sentence"),
        (_apply_edits("$KEEP $NOPE\n"), 2, "e.txt:1: "),
        (_apply_edits("$KEEP\n"), 2, "e.txt:1: edit sequence length 1 != source length 2"),
        (_apply_edits("$KEEP $MERGE_SPACE\n"), 2, "e.txt:1: cannot apply"),
        (_noise("expected_errors = x\n"), 2, "p.profile:1: could not convert"),
        (_noise("rng_seed = 2\nexpected_errors = inf\n"), 2, "p.profile:2: expected_errors"),
        (_noise("type_preposition = -1\n"), 2, "p.profile:1: weight for type_preposition"),
        (_noise("expected_errors = 701\n"), 2,
         "p.profile:1: expected_errors must be a finite number in [0, 700], got 701.0"),
        (_noise("type_preposition = 1.0\nrng_seed = 2\ntype_preposition = 0.0\n"), 2,
         "p.profile:3: duplicate key 'type_preposition' (first set on line 1)"),
        # a form feed or a line separator does not end a line
        (_noise("# a\x0cb\nexpected_errors = x\n"), 2, "p.profile:2: could not convert"),
        (_noise("# a\u2028b\nexpected_errors = x\n"), 2, "p.profile:2: could not convert"),
        (_train("[1, 2]\n"), 2, "labels.jsonl:1: expected a JSON object"),
        (_train(_LABEL + "\n" + "[" * 200_000 + "\n"), 2, "labels.jsonl:2: JSON nested too deeply"),
        (_train(_LABEL + "\n" + _LABEL.replace('"deletion"', '"del"') + "\n"), 2,
         "labels.jsonl:2: key 'deletion' must hold a list"),
        (_train(_label("$APPEND_zzz", "insertion") + "\n"), 2,
         "labels.jsonl:1: tag $APPEND_zzz not in tagset"),
        (_train(_LABEL + "\n" + _LABEL.replace('"detection": [1]', '"detection": [0]') + "\n"), 2,
         "labels.jsonl:2: key 'detection' holds [0], but the correction tags give [1]"),
        (_train(_LABEL + "\n" + _LABEL.replace('"deletion": [1]', '"deletion": [true]') + "\n"), 2,
         "labels.jsonl:2: key 'deletion' must hold integers 0 and 1, found [True]"),
        (_train(_LABEL + "\n" + _LABEL.replace('"detection": [1]', '"detection": [1.0]') + "\n"), 2,
         "labels.jsonl:2: key 'detection' must hold integers 0 and 1, found [1.0]"),
        (_train(_LABEL + "\n" + _EMPTY_LABEL + "\n"), 2,
         "labels.jsonl:2: a training example needs at least one token"),
        (_train(_LABEL + "\n" + _LABEL.replace('"tokens": ["a"]', '"tokens": ["a b"]') + "\n"), 2,
         "labels.jsonl:2: token 0 'a b' is empty or holds whitespace"),
        (_train(_LABEL + "\n" + _LABEL.replace('"tokens": ["a"]', '"tokens": [""]') + "\n"), 2,
         "labels.jsonl:2: token 0 '' is empty or holds whitespace"),
        (_train(_LABEL + "\n", "--lr", "1e308"), 2,
         "loss became NaN by the end of epoch 1 (update step 1)"),
        (_train(_LABEL + "\n", "--optimizer", "sgd"), 1, "unrecognized arguments: --optimizer sgd"),
        (_train(_LABEL + "\n", "--epochs", "0"), 1, "argument --epochs: must be at least 1"),
        (_train(_LABEL + "\n", "--lr", "nan"), 1, "argument --lr: must be a finite number"),
        (_train(_LABEL + "\n", "--lambda", "inf"), 1, "argument --lambda: must be a finite"),
        (_train(_LABEL + "\n", "--lambda", "1.5"), 1, "argument --lambda: must be in [0, 1]"),
        (_train(_LABEL + "\n", "--lambda", "-0.1"), 1, "argument --lambda: must be in [0, 1]"),
        (_train(_LABEL + "\n", "--lr", "-1"), 1, "argument --lr: must be greater than 0"),
        (_train(_LABEL + "\n", "--lr", "0"), 1, "argument --lr: must be greater than 0"),
        (_train(_LABEL + "\n", "--dim", "1"), 1, "argument --dim: must be at least 2, got 1"),
        # the data is malformed, so exit 1 shows it is not read
        (_train("[1, 2]\n", "--seed", "-1"), 1, "argument --seed: must be at least 0, got -1"),
        # 38 x 10**14 float64 weights exceed any address space, so nothing is allocated
        (_train(_LABEL + "\n", "--dim", str(10**14)), 2,
         f"--dim {10**14}: cannot allocate the 38 x {10**14} weight matrix"),
        (_noise_edit_dict, 2, "ed.tsv:2: expected source<TAB>target, found 0 tabs"),
        (_noise("token_dict = 1.0\n"), 2,
         "p.profile: token_dict has weight > 0 but no edit dictionary is loaded"),
        (_noise("token_dict = 1.0\nedit_dict = nowhere.tsv\n"), 2,
         "p.profile:2: edit_dict 'nowhere.tsv' is not a file"),
        (_predict_bogus_header_tag, 2,
         "model.bin: model header 'tags':4: unknown tag family in '$BOGUS_x'"),
        (_predict_nan_weight, 2, "model.bin: weight array 'correction' holds a non-finite weight"),
        (_predict(), 2, "model.bin:1: not a model file"),
        (_predict("\xff\n"), 2, "model.bin:1: not a model file"),
        (_predict("x", "--iters", "0"), 1, "argument --iters: must be at least 1"),
        (_predict("x", "--keep-bias", "nan"), 1, "argument --keep-bias: must be a finite"),
        (_predict("x", "--keep-bias", "-1"), 1, "argument --keep-bias: must be greater than -1"),
        (_predict("x", "--keep-bias", "-2"), 1, "argument --keep-bias: must be greater than -1"),
        (_predict("x", "--min-error-prob", "inf"), 1, "argument --min-error-prob: must be a"),
        (_predict("x", "--min-error-prob", "1.5"), 1, "argument --min-error-prob: must be in [0, 1]"),
        (_predict("x", "--min-error-prob", "-0.1"), 1, "argument --min-error-prob: must be in [0, 1]"),
        (_score_empty_source(), 2, "src.txt:2: empty source sentence"),
        (_score_empty_source("--metric", "f05"), 2, "src.txt:2: empty source sentence"),
        (_score_empty_source("--metric", "gleu"), 2, "src.txt:2: empty source sentence"),
        (_score_no_sentences(), 2, "src.txt: no sentences"),
        (_score_no_sentences("--metric", "f05"), 2, "src.txt: no sentences"),
        (_score_no_sentences("--metric", "gleu"), 2, "src.txt: no sentences"),
    ],
    ids=["tag-two-tabs", "tag-no-tab", "tag-bad-tag", "tag-no-unknown", "tag-lexicon",
         "tag-lexicon-blank-lines", "tag-plurals-blank-line", "tag-plurals-duplicate-singular",
         "tag-plurals-duplicate-plural", "tag-plurals-empty-column",
         "tag-plurals-not-token", "tag-lexicon-not-token",
         "apply-lexicon-not-token", "tag-lexicon-duplicate-lemma", "tag-lexicon-empty-lemma",
         "tag-lexicon-empty-path", "tag-plurals-empty-path", "tag-empty-source",
         "apply-bad-tag", "apply-tag-count", "apply-inapplicable-tag", "noise-expected-x",
         "noise-expected-inf", "noise-negative-weight", "noise-expected-above-bound",
         "noise-duplicate-key",
         "noise-profile-form-feed", "noise-profile-line-separator", "train-not-object",
         "train-nested-too-deeply",
         "train-missing-stream", "train-tag-not-in-tagset", "train-detection-contradicts-tags",
         "train-deletion-bool", "train-detection-float", "train-no-tokens",
         "train-token-with-space", "train-empty-token", "train-diverges",
         "train-optimizer-removed", "train-epochs-0",
         "train-lr-nan", "train-lambda-inf", "train-lambda-above-1", "train-lambda-negative",
         "train-lr-negative", "train-lr-zero", "train-dim-1", "train-seed-negative",
         "train-dim-unallocatable",
         "noise-edit-dict-line", "noise-token-dict-without-dictionary", "noise-edit-dict-missing",
         "predict-header-tag", "predict-nan-weight", "predict-not-model", "predict-not-utf8",
         "predict-iters-0",
         "predict-keep-bias-nan", "predict-keep-bias-minus-1", "predict-keep-bias-minus-2",
         "predict-min-error-prob-inf", "predict-min-error-prob-above-1",
         "predict-min-error-prob-negative", "score-empty-source", "score-empty-source-f05",
         "score-empty-source-gleu", "score-no-sentences", "score-no-sentences-f05",
         "score-no-sentences-gleu"],
)
def test_malformed_input_exit_code_and_location(tmp_path, capsys, argv, code, message):
    argv = argv(tmp_path)
    if argv[0] != "train-toy":
        argv += ["--workers", "1"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err
    if code == 2:
        assert err.startswith("gecedit: error: ") and "Traceback" not in err


def test_diverging_train_writes_one_stderr_line(tmp_path):
    """NumPy's overflow warnings stay off stderr: the divergence is its one line."""
    proc = run_cli(*_train(_LABEL + "\n", "--lr", "1e308")(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr == "gecedit: error: loss became NaN by the end of epoch 1 (update step 1)\n"


def test_train_dim_beyond_the_machine_memory_exits_two(tmp_path, capsys, monkeypatch):
    """A ``--dim`` whose weights the machine's memory cannot hold is refused
    before they are allocated; here the machine holds about the 38 x 16
    weights' 4,864 bytes."""
    argv = _train(_LABEL + "\n")(tmp_path)
    monkeypatch.setattr(cli, "_memory_bytes", lambda: 4863)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "gecedit: error: --dim 16: cannot allocate the 38 x 16 weight matrix: "
        "4864 bytes, more than the machine's 4863 bytes of memory\n"
    )
    assert not (tmp_path / "m.bin").exists()
    monkeypatch.setattr(cli, "_memory_bytes", lambda: 4864)
    assert main(argv) == 0
    assert tagger.load_model(tmp_path / "m.bin").weights.shape == (38, 16)


def test_memory_bytes_reads_the_machine_or_nothing(monkeypatch):
    if hasattr(os, "sysconf"):
        assert cli._memory_bytes() == os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(os, "sysconf", unknown, raising=False)
    assert cli._memory_bytes() is None


_apply = _apply_edits("$KEEP $KEEP\n")


def _score(d):
    return ["score", "--src", _write(d / "src.txt", "a\n"),
            "--hyp", _write(d / "hyp.txt", "a\n"), "--ref", _write(d / "ref.txt", "a\n")]


@pytest.mark.parametrize(
    "argv, name, newline",
    [
        (_tag(), "x.tagset", b"\n"),
        (_tag(), "pairs.tsv", b"\n"),
        (_tag(), "pairs.tsv", b"\r\n"),
        (_tag(), "pairs.tsv", b"\r"),
        (_tag(lexicon="go\twent\tgoing\tgone\tgoes\n"), "lexicon.tsv", b"\n"),
        (_tag(plurals="child\tchildren\n"), "plurals.tsv", b"\n"),
        (lambda d: ["tag", "--src-tgt", _write(d / "pairs.tsv", "a\tb\n"),
                    "--out", str(d / "o.jsonl")], "pairs.tsv", b"\n"),
        (_noise("rng_seed = 2\n"), "p.profile", b"\n"),
        (_noise("rng_seed = 2\n"), "in.txt", b"\n"),
        (_train(_LABEL + "\n"), "labels.jsonl", b"\n"),
        (_apply, "s.txt", b"\n"),
        (_apply, "e.txt", b"\n"),
        (_score, "src.txt", b"\n"),
        (_score, "ref.txt", b"\n"),
    ],
    ids=["tag-tagset", "tag-pairs", "tag-pairs-crlf", "tag-pairs-cr", "tag-lexicon",
         "tag-plurals", "tag-pairs-default-tagset", "noise-profile", "noise-in", "train-data",
         "apply-src", "apply-edits", "score-src", "score-ref"],
)
def test_undecodable_input_exits_two_with_file_and_line(tmp_path, capsys, argv, name, newline):
    argv = argv(tmp_path)
    if argv[0] != "train-toy":
        argv += ["--workers", "1"]
    path = tmp_path / name
    first = path.read_bytes().split(b"\n")[0]
    path.write_bytes(first + newline + b"\xff" + newline)  # line 2 is the byte 0xff
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"gecedit: error: {path}:2: not valid UTF-8: invalid start byte 0xff\n"


def _predict_zero_model(d):
    argv = _predict()(d)
    save_model(MultiHeadModel(TagSet(SMALL_TAGS), FeatureEncoder(dim=16)), d / "model.bin")
    return argv


def _score_pairs(d):
    return ["score", "--src", _write(d / "src.txt", "I go to the home of my friend every day\n"),
            "--hyp", _write(d / "hyp.txt", "I go to the house of my friends every day\n"),
            "--ref", _write(d / "ref.txt", "I go to the house of my friend each day\n"),
            "--metric", "both"]


_AGREEMENT_TAGS = "".join(t + "\n" for t in [*SMALL_TAGS, "$TRANSFORM_AGREEMENT_PLURAL"])


@pytest.mark.parametrize(
    "argv, name",
    [
        (_tag("I go home\tI went home\n", lexicon="go\twent\tgoing\tgone\tgoes\n"), "lexicon.tsv"),
        (_tag("a child\ta children\n", _AGREEMENT_TAGS, plurals="child\tchildren\n"),
         "plurals.tsv"),
        (_tag("I go home\tI went home\n"), "x.tagset"),
        (_tag("I go home\tI went home\n"), "pairs.tsv"),
        (_noise("rng_seed = 2\n"), "p.profile"),
        (_noise("rng_seed = 2\n"), "in.txt"),
        (_train(_LABEL + "\n"), "labels.jsonl"),
        (_apply, "s.txt"),
        (_apply, "e.txt"),
        (_predict_zero_model, "in.txt"),
        (_score_pairs, "src.txt"),
        (_score_pairs, "hyp.txt"),
        (_score_pairs, "ref.txt"),
    ],
    ids=["tag-lexicon", "tag-plurals", "tag-tagset", "tag-pairs", "noise-profile", "noise-in",
         "train-data", "apply-src", "apply-edits", "predict-in", "score-src", "score-hyp",
         "score-ref"],
)
def test_leading_byte_order_mark_is_ignored(tmp_path, capsys, argv, name):
    """A UTF-8 byte-order mark before an input's first line changes nothing:
    the exit code, standard output and ``--out`` bytes are the BOM-free file's."""
    argv = argv(tmp_path)
    if argv[0] != "train-toy":
        argv += ["--workers", "1"]
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None

    def run():
        if out is not None and out.exists():
            out.unlink()
        code = main(argv)
        written = out.read_bytes() if out is not None and out.exists() else None
        return code, capsys.readouterr(), written

    plain = run()
    assert plain[0] == 0, plain[1].err
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run() == plain


# -- shared inputs are loaded before any worker starts -------------------------

@pytest.mark.parametrize(
    "argv, message",
    [
        (_tag(tagset="$KEEP\n$DELETE\n"), "x.tagset: tagset must contain $UNKNOWN"),
        (_tag(tagset="$KEEP\n$KEEP\n"), "x.tagset: duplicate tag $KEEP"),
        (_tag(plurals="child\n"), "plurals.tsv:1: expected singular<TAB>plural"),
        (lambda d: ["apply", "--src", _write(d / "s.txt", "a\n"),
                    "--edits", _write(d / "e.txt", "$KEEP\n"), "--out", str(d / "o.txt"),
                    "--lexicon", _write(d / "verbs.tsv", "Go\twent\tgoing\tgone\tgoes\n")],
         "verbs.tsv:1: lemma must be non-empty lowercase"),
        (_noise("expected_errors = x\n"), "p.profile:1: could not convert"),
        (_noise("expected_errors = nan\n"), "p.profile:1: expected_errors"),
        (_predict(), "model.bin:1: not a model file"),
        (lambda d: ["score", "--src", _write(d / "src.txt", "a\n"),
                    "--hyp", _write(d / "hyp.txt", "a\nb\n"),
                    "--ref", _write(d / "ref.txt", "a\n")],
         "hyp.txt: hyp stream has 2 lines, source has 1 (--src "),
        (lambda d: ["score", "--src", _write(d / "src.txt", "a\n"),
                    "--hyp", _write(d / "hyp.txt", "a\n"), "--ref", _write(d / "ref.txt", "a\n"),
                    "--ref", _write(d / "ref2.txt", "")],
         "ref2.txt: ref stream has 0 lines, source has 1 (--src "),
    ],
    ids=["tag-tagset", "tag-duplicate-tag", "tag-plurals", "apply-lexicon",
         "noise-profile", "noise-profile-nan", "predict-model", "score-line-count",
         "score-second-ref-short"],
)
def test_shared_input_error_exits_before_the_worker_pool(tmp_path, capsys, monkeypatch,
                                                         argv, message):
    entered = []

    def refuse(*args):
        entered.append(args)
        raise AssertionError("_map_ordered entered")

    monkeypatch.setattr(cli, "_map_ordered", refuse)
    assert main([*argv(tmp_path), "--workers", "2"]) == 2
    assert message in capsys.readouterr().err
    assert not entered


# -- the state each command hands its workers ----------------------------------

@pytest.fixture()
def trained_model(workdir):
    pairs, labels, model = workdir / "pairs.tsv", workdir / "labels.jsonl", workdir / "m.bin"
    tagset = str(workdir / "small.tagset")
    assert main(["noise", "--in", str(workdir / "clean.txt"), "--out", str(pairs),
                 "--profile", str(workdir / "profile.txt"), "--workers", "1"]) == 0
    assert main(["tag", "--src-tgt", str(pairs), "--tagset", tagset, "--out", str(labels),
                 "--workers", "1"]) == 0
    assert main(["train-toy", "--data", str(labels), "--tagset", tagset, "--out", str(model),
                 "--epochs", "2", "--dim", "256"]) == 0
    return model


def test_each_command_state_survives_pickling(workdir, trained_model, monkeypatch, capsys):
    """Under a start method other than fork each worker gets the state pickled:
    every line function must give the same results from the unpickled copy."""
    calls = []

    def record(func, items, workers, state):
        calls.append((func, list(items), state))
        return iter(())

    monkeypatch.setattr(cli, "_map_ordered", record)
    pairs, src = str(workdir / "pairs.tsv"), workdir / "src.txt"
    sources = [line.split("\t")[0] for line in Path(pairs).read_text().splitlines()]
    src.write_text("".join(s + "\n" for s in sources))
    edits = workdir / "edits.txt"
    edits.write_text("".join(" ".join(["$KEEP"] * len(s.split())) + "\n" for s in sources))
    tail = ["--workers", "2"]
    for argv in (
        ["tag", "--src-tgt", pairs, "--tagset", str(workdir / "small.tagset"),
         "--out", str(workdir / "o.jsonl")],
        ["apply", "--src", str(src), "--edits", str(edits), "--out", str(workdir / "o.txt")],
        ["noise", "--in", str(workdir / "clean.txt"), "--profile", str(workdir / "profile.txt"),
         "--out", str(workdir / "o.tsv"), "--seed", "4"],
        ["predict", "--model", str(trained_model), "--in", str(src),
         "--out", str(workdir / "o.txt"), "--keep-bias", "0.2"],
        ["score", "--src", str(src), "--hyp", str(src), "--ref", pairs, "--metric", "f05"],
    ):
        assert main([*argv, *tail]) == 0, argv
    capsys.readouterr()
    # each command's input fits one block; a line command maps a line function over it
    names = [getattr(func, "args", [func])[0].__name__ for func, _, _ in calls]
    assert names == ["_tag_line", "_apply_line", "_noise_line", "_predict_block", "_score_line"]

    for (func, items, state), name in zip(calls, names):
        assert 0 < len(items) <= cli._CHUNK, name
        cli._set_state(state)
        expected = func(items)
        cli._set_state(pickle.loads(pickle.dumps(state)))
        assert pickle.loads(pickle.dumps(func))(items) == expected, name

    model = calls[3][2]["model"]
    assert np.abs(model.weights).sum() > 0  # trained, not the zero initialisation
    restored = pickle.loads(pickle.dumps(model))
    assert np.array_equal(restored.weights, model.weights)
    assert restored.weights.flags.f_contiguous
    assert isinstance(restored.W, MappingProxyType)
    assert list(restored.W) == list(model.W)
    for name, rows in restored.W.items():
        assert np.shares_memory(rows, restored.weights), name
        assert np.array_equal(rows, model.W[name]), name


def test_line_state_is_dropped_when_the_map_ends(workdir, trained_model, capsys, monkeypatch):
    """Once predict returns, on success or on a fault inside the map, none of
    its state stays behind in this process."""
    loaded = []
    real_set_state = cli._set_state

    def set_state(state):
        loaded.append(state)
        real_set_state(state)

    monkeypatch.setattr(cli, "_set_state", set_state)
    src = workdir / "src.txt"
    argv = ["predict", "--model", str(trained_model), "--in", str(src),
            "--out", str(workdir / "o.txt"), "--workers", "1"]
    for text, code in ((b"a b c\nd e f\n", 0), (b"a b c\n\xff\n", 2)):
        src.write_bytes(text)
        loaded.clear()
        assert main(argv) == code
        assert [sorted(state) for state in loaded] == [
            ["iters", "keep_bias", "lexicon", "min_error_prob", "model"]
        ]
        assert cli._G == {}
    assert f"{src}:2: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, link",
    [
        ("tag", "--src-tgt", False),
        ("apply", "--edits", False),
        ("noise", "--in", False),
        ("predict", "--model", False),
        ("predict", "--in", True),
        ("train-toy", "--data", False),
        ("train-toy", "--tagset", True),
        ("apply", "--lexicon", False),
        ("predict", "--plurals", True),
        ("noise", "edit_dict", False),
        ("noise", "edit_dict", True),
    ],
)
def test_out_that_names_an_input_exits_one_and_keeps_it(workdir, trained_model, capsys,
                                                       monkeypatch, command, flag, link):
    """``--out`` naming an input, by its path or by a hard link to it, is a
    usage error that names both flags; the input is not opened for writing.
    ``--lexicon`` and ``--plurals`` are left at their bundled defaults, here
    copies in a data directory of the test's own, read by a parser built after
    the redirect.  ``edit_dict`` is the input that ``--profile`` names."""
    data = workdir / "data"
    data.mkdir()
    for path in data_dir().iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    monkeypatch.setattr("gecedit.lexicon.data_dir", lambda: data)
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
    defaults = {"--lexicon": str(data / "verbs.tsv"), "--plurals": str(data / "irregular_plurals.tsv")}
    src = _write(workdir / "src.txt", "a b\nc\n")
    inputs = {
        "tag": {"--src-tgt": str(workdir / "pairs.tsv"), "--tagset": str(workdir / "small.tagset")},
        "apply": {"--src": src, "--edits": _write(workdir / "edits.txt", "$KEEP $KEEP\n$KEEP\n")},
        "noise": {"--in": str(workdir / "clean.txt"), "--profile": str(workdir / "profile.txt")},
        "predict": {"--model": str(trained_model), "--in": src},
        "train-toy": {"--data": str(workdir / "labels.jsonl"),
                      "--tagset": str(workdir / "small.tagset")},
    }[command]
    if flag == "edit_dict":
        inputs["--profile"] = _write(workdir / "ed.profile", "edit_dict = ed.tsv\ntoken_dict = 1.0\n")
        target = Path(_write(workdir / "ed.tsv", "in\tat\n")).resolve()
        what = f"the edit_dict {target} named by --profile {inputs['--profile']}"
    else:
        target = Path(inputs[flag] if flag in inputs else defaults[flag])
        what = f"{flag} {target}"
    before = target.read_bytes()
    out = target
    if link:
        out = workdir / "link"
        os.link(target, out)
    capsys.readouterr()
    argv = [command, *(arg for pair in inputs.items() for arg in pair), "--out", str(out)]
    assert main([*argv, "--workers", "1"] if command != "train-toy" else argv) == 1
    err = capsys.readouterr().err
    assert err == f"gecedit {command}: error: --out {out} is the same file as {what}\n"
    assert target.read_bytes() == before


# -- pools, faults and the encoder memo over several 128-line blocks --------------

def _three_block_inputs(workdir):
    """Source, edits, hypothesis and reference files of 360 lines, three ``_CHUNK``
    blocks, from the trained model's labeled corpus."""
    records = [json.loads(line) for line in (workdir / "labels.jsonl").read_text().splitlines()] * 3
    targets = [line.split("\t")[1] for line in (workdir / "pairs.tsv").read_text().splitlines()] * 3
    assert 2 * cli._CHUNK < len(records) <= 3 * cli._CHUNK
    sources = [" ".join(r["tokens"]) for r in records]
    return {
        "src": _write(workdir / "src3.txt", "".join(s + "\n" for s in sources)),
        "edits": _write(workdir / "edits3.txt", "".join(" ".join(r["correction"]) + "\n" for r in records)),
        "hyp": _write(workdir / "hyp3.txt", "".join(
            (t if i % 3 else s) + "\n" for i, (s, t) in enumerate(zip(sources, targets))
        )),
        "ref": _write(workdir / "ref3.txt", "".join(t + "\n" for t in targets)),
    }


@pytest.mark.parametrize("command", ["apply", "predict", "score"])
def test_worker_invariant_over_three_blocks(workdir, trained_model, capsys, command):
    # three blocks, so --workers 2 starts a pool wherever there are two cores
    files = _three_block_inputs(workdir)
    argv = {
        "apply": ["apply", "--src", files["src"], "--edits", files["edits"]],
        "predict": ["predict", "--model", str(trained_model), "--in", files["src"],
                    "--keep-bias", "0.2", "--iters", "3"],
        "score": ["score", "--src", files["src"], "--hyp", files["hyp"], "--ref", files["ref"],
                  "--metric", "both"],
    }[command]
    capsys.readouterr()
    results = []
    for workers in ("1", "2"):
        out = workdir / f"out.w{workers}"
        tail = [] if command == "score" else ["--out", str(out)]
        assert main([*argv, *tail, "--workers", workers]) == 0
        results.append((out.read_bytes() if tail else b"", capsys.readouterr().out))
    assert results[0] == results[1]
    if command == "score":
        assert json.loads(results[0][1])["sentence_count"] == 360


@pytest.mark.parametrize(
    "fault, lineno, kept",
    [("no-tab", 200, 128), ("not-utf8", 200, 128), ("not-utf8", 300, 256)],
    ids=["line-fault-in-block-2", "input-fault-in-block-2", "input-fault-past-read-ahead"],
)
def test_partial_output_on_a_fault_is_worker_invariant(workdir, capsys, fault, lineno, kept):
    """A fault in a block writes none of that block's lines, in a pool or in
    this process: the lines of the blocks before it, and the same error."""
    pairs = workdir / "pairs.tsv"
    assert main(["noise", "--in", str(workdir / "clean.txt"), "--out", str(pairs),
                 "--profile", str(workdir / "profile.txt"), "--workers", "1"]) == 0
    lines = pairs.read_bytes().splitlines(keepends=True) * 3
    assert 2 * cli._CHUNK < len(lines) <= 3 * cli._CHUNK
    good = workdir / "good.jsonl"
    argv = ["tag", "--src-tgt", str(pairs), "--tagset", str(workdir / "small.tagset")]
    pairs.write_bytes(b"".join(lines))
    assert main([*argv, "--out", str(good), "--workers", "1"]) == 0
    lines[lineno - 1] = lines[lineno - 1].replace(b"\t", b" ") if fault == "no-tab" else b"\xff\n"
    pairs.write_bytes(b"".join(lines))
    capsys.readouterr()
    results = []
    for workers in ("1", "2"):
        out = workdir / f"out.w{workers}"
        assert main([*argv, "--out", str(out), "--workers", workers]) == 2
        results.append((out.read_bytes(), capsys.readouterr()))
    assert results[0] == results[1]
    written, (stdout, stderr) = results[0]
    assert written == b"".join(good.read_bytes().splitlines(keepends=True)[:kept])
    assert stdout == "" and stderr.startswith(f"gecedit: error: {pairs}:{lineno}: ")


def test_predict_memo_stays_within_its_bound(workdir, trained_model, monkeypatch):
    """Over a predict of three blocks the encoder's memo never holds more than
    ``_MEMO_TOKENS`` tokens, and emptying it changes no output: in blocks of
    ``_CHUNK`` lines, where it empties inside an encode call, and in blocks of
    one line, where it is sampled after every sentence's pass as well."""
    # a token of its own on each line, so the input's vocabulary outgrows the bound
    labels = (workdir / "labels.jsonl").read_text().splitlines()
    sources = [" ".join(json.loads(line)["tokens"]) for line in labels] * 3
    src = _write(workdir / "src3.txt", "".join(f"{s} line{n}\n" for n, s in enumerate(sources)))
    argv = ["predict", "--model", str(trained_model), "--in", src, "--workers", "1"]
    assert main([*argv, "--out", str(workdir / "unbounded.txt")]) == 0
    sizes = []  # the memo's size after each encode call
    real_encode = tagger.FeatureEncoder.encode

    def encode(encoder, sentences):
        enc = real_encode(encoder, sentences)
        sizes.append(len(encoder._memo))
        return enc

    monkeypatch.setattr(tagger, "_MEMO_TOKENS", 50)
    monkeypatch.setattr(tagger.FeatureEncoder, "encode", encode)
    for chunk in (cli._CHUNK, 1):
        sizes.clear()
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        bounded = workdir / f"bounded{chunk}.txt"
        assert main([*argv, "--out", str(bounded)]) == 0
        assert sizes and max(sizes) <= 50
        assert bounded.read_bytes() == (workdir / "unbounded.txt").read_bytes()
    assert len(sizes) >= len(sources) and max(sizes) == 50
    assert sum(b < a for a, b in zip(sizes, sizes[1:])) > 3  # emptied again and again


# -- one parser for every call in a process -------------------------------------

def _pipeline(d, run, refs):
    """The argvs of noise -> tag -> apply -> train-toy -> predict -> score over
    ``d``'s inputs, each writing ``run``-named files, and those files in order;
    ``apply`` puts each verb lemma of ``clean.txt`` in the past tense, and
    ``score`` runs with every reference in ``refs``, then with the first."""
    pairs, labels, applied, model, hyp = (
        d / f"{run}.{ext}" for ext in ("tsv", "jsonl", "applied", "bin", "txt")
    )
    tagset, clean = str(d / "small.tagset"), str(d / "clean.txt")
    lexicon = _fresh_lexicon()
    past = ("$KEEP", "$TRANSFORM_VERB_VB_VBD")
    edits = _write(d / "past.edits", "".join(
        " ".join(past[bool(lexicon.form(t, "VBD"))] for t in line.split()) + "\n"
        for line in Path(clean).read_text().splitlines()
    ))
    argvs = [
        ["noise", "--in", clean, "--profile", str(d / "profile.txt"), "--out", str(pairs),
         "--seed", "5", "--workers", "1"],
        ["tag", "--src-tgt", str(pairs), "--tagset", tagset, "--out", str(labels), "--workers", "1"],
        ["apply", "--src", clean, "--edits", edits, "--out", str(applied), "--workers", "1"],
        ["train-toy", "--data", str(labels), "--tagset", tagset, "--out", str(model),
         "--epochs", "2", "--dim", "256"],
        ["predict", "--model", str(model), "--in", clean, "--out", str(hyp), "--workers", "1"],
        ["score", "--src", clean, "--hyp", str(hyp), *(a for r in refs for a in ("--ref", r)),
         "--workers", "1"],
        ["score", "--src", clean, "--hyp", str(hyp), "--ref", refs[0], "--workers", "1"],
    ]
    return argvs, [pairs, labels, applied, model, hyp]


def _fresh_lexicon():
    """The bundled lexicon parsed anew, not the one this process shares."""
    paths = (default_verbs_path(), default_plurals_path())
    return _parse_lexicon(*(DataFile(path, path.read_bytes()) for path in paths))


def test_main_reuses_its_parser_and_carries_nothing_between_calls(workdir, capsys):
    """The pipeline run twice through ``main`` in one process, with a usage
    error and a data error between, writes and prints what one run of fresh
    ``gecedit`` processes does; a one-reference ``score`` after a
    three-reference one prints the fresh one-reference line.  The lexicon
    and tagset the commands shared still equal a fresh parse."""
    assert cli.build_parser() is cli.build_parser()
    lines = (workdir / "clean.txt").read_text().splitlines()
    ref = str(workdir / "clean.txt")
    refs = [ref, _write(workdir / "ref2.txt", "".join(line[::-1] + "\n" for line in lines)),
            _write(workdir / "ref3.txt", "".join(line.upper() + "\n" for line in lines))]

    def in_process(run):
        argvs, files = _pipeline(workdir, run, refs)
        printed = []
        for argv in argvs:
            assert main(argv) == 0, argv
            printed.append(capsys.readouterr().out)
        return printed, [path.read_bytes() for path in files]

    first = in_process("a")
    assert main(["tag", "--src-tgt", ref, "--out", str(workdir / "x.jsonl"), "--workers", "0"]) == 1
    assert main(["score", "--src", ref, "--hyp", ref, "--ref", ref,
                 "--ref", _write(workdir / "short.txt", "a\n")]) == 2
    capsys.readouterr()
    second = in_process("b")
    assert second == first

    argvs, files = _pipeline(workdir, "fresh", refs)
    fresh = [run_cli(*argv) for argv in argvs]
    assert [proc.returncode for proc in fresh] == [0] * len(argvs)
    assert ([proc.stdout for proc in fresh], [path.read_bytes() for path in files]) == first
    assert first[0][-1] != first[0][-2]  # the three references did move GLEU
    assert first[1][2] != (workdir / "clean.txt").read_bytes()  # apply did rewrite verbs
    # the commands shared one Lexicon and one TagSet, and none of them changed it
    assert load_lexicon() is load_lexicon() and load_lexicon() == _fresh_lexicon()
    small = workdir / "small.tagset"
    assert load_tagset(small).names == TagSet(small.read_text().splitlines()).names
    assert load_tagset(small).names == tuple(SMALL_TAGS)



# -- data files parsed once per content ------------------------------------------

def _rewrite(path, data):
    """Give ``path`` the bytes ``data``, of its size, keeping its modification time."""
    st = path.stat()
    assert len(data) == st.st_size
    path.write_bytes(data)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


@pytest.mark.parametrize("flag", ["--lexicon", "--tagset"])
def test_a_data_file_rewritten_between_calls_is_parsed_again(workdir, capsys, flag):
    """A ``--lexicon`` or ``--tagset`` file rewritten between ``main`` calls in
    one process, at once and at its size and modification time, gives what a
    fresh process gives for its new bytes.  In turn: good bytes, other good
    bytes, malformed bytes (exit 2 with ``file:line``), the same malformed
    bytes at another path (whose error names that path), the first bytes."""
    d = workdir
    if flag == "--lexicon":
        command = ["apply", "--src", _write(d / "src.txt", "go\n"),
                   "--edits", _write(d / "e.txt", "$TRANSFORM_VERB_VB_VBD\n")]
        good, other, bad = (f"{lemma}\t{past}\tgoing\tgone\tgoes\n".encode()
                            for lemma, past in (("go", "went"), ("go", "want"), ("Go", "went")))
        error = ":1: lemma must be non-empty lowercase"
    else:
        command = ["tag", "--src-tgt", _write(d / "p.tsv", "in\tat\n")]
        good, other, bad = (f"$KEEP\n$DELETE\n$UNKNOWN\n${tag}\n".encode()
                            for tag in ("REPLACE_at", "REPLACE_on", "BOGUSXX_at"))
        error = ":4: unknown tag family in '$BOGUSXX_at'"
    out = d / "out"

    def run(path):
        argv = [*command, flag, str(path), "--out", str(out), "--workers", "1"]
        out.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        mine = (code, captured.out, captured.err, out.read_bytes() if out.exists() else None)
        out.unlink(missing_ok=True)
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr,
                out.read_bytes() if out.exists() else None) == mine
        return mine

    target, copy = d / "data.txt", d / "copy.txt"
    target.write_bytes(good)
    copy.write_bytes(bad)
    results = [run(target)]
    for data, path in ((other, target), (bad, target), (bad, copy), (good, target)):
        if path == target:
            _rewrite(target, data)
        results.append(run(path))
    assert [r[0] for r in results] == [0, 0, 2, 2, 0]
    assert results[1][3] != results[0][3] and results[4] == results[0]
    assert results[2][2] == f"gecedit: error: {target}{error}\n"
    assert results[3][2] == f"gecedit: error: {copy}{error}\n"


# -- one command shape -----------------------------------------------------------

@pytest.mark.parametrize("command", ["tag", "apply", "noise", "train-toy", "predict", "score"])
def test_main_prints_the_summary_a_command_returns(workdir, trained_model, capsys, command):
    """``tag``, ``noise``, ``train-toy`` and ``score`` print one sorted-keys
    JSON line, ``apply`` and ``predict`` print nothing, and a command that
    fails on line 2 of an input prints nothing on standard output."""
    d = workdir
    src = _write(d / "src.txt", "a b\nc\n")
    (d / "not-utf8.txt").write_bytes(b"a b\n\xff\n")
    first_label = (d / "labels.jsonl").read_text().splitlines()[0]
    tagset, model = str(d / "small.tagset"), str(trained_model)
    good, bad = {
        "tag": (["--src-tgt", str(d / "pairs.tsv"), "--tagset", tagset],
                ["--src-tgt", _write(d / "bad.tsv", "a b\ta c\nno tab\n"), "--tagset", tagset]),
        "apply": (["--src", src, "--edits", _write(d / "e.txt", "$KEEP $KEEP\n$KEEP\n")],
                  ["--src", src, "--edits", _write(d / "bad-edits.txt", "$KEEP $KEEP\n$BOGUS\n")]),
        "noise": (["--in", str(d / "clean.txt"), "--profile", str(d / "profile.txt")],
                  ["--in", str(d / "not-utf8.txt"), "--profile", str(d / "profile.txt")]),
        "train-toy": (["--data", str(d / "labels.jsonl"), "--tagset", tagset, "--dim", "64"],
                      ["--data", _write(d / "bad.jsonl", f"{first_label}\nnot json\n"),
                       "--tagset", tagset, "--dim", "64"]),
        "predict": (["--model", model, "--in", src],
                    ["--model", model, "--in", str(d / "not-utf8.txt")]),
        "score": (["--src", src, "--hyp", src, "--ref", src],
                  ["--src", _write(d / "bad-src.txt", "a b\n\n"), "--hyp", src, "--ref", src]),
    }[command]
    out = [] if command == "score" else ["--out", str(d / "out")]
    tail = ["--epochs", "1"] if command == "train-toy" else ["--workers", "1"]
    capsys.readouterr()
    assert main([command, *good, *out, *tail]) == 0
    printed = capsys.readouterr().out
    if command in ("apply", "predict"):
        assert printed == ""
    else:
        line, = printed.splitlines()
        assert printed == json.dumps(json.loads(line), sort_keys=True) + "\n"
    assert main([command, *bad, *out, *tail]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and ":2: " in stderr
