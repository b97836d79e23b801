import io
import json
import subprocess
import sys

import pytest

from gecedit.cli import _pool_size, _start_method, main
from gecedit.lexicon import load_lexicon
from gecedit.noiser import Noiser, generate_corpus, load_profile
from gecedit.tagger import FeatureEncoder, MultiHeadModel, save_model
from gecedit.tags import TagSet

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


@pytest.mark.parametrize(
    "command", ["tag", "apply", "noise", "train-toy", "predict", "score", "coverage"]
)
def test_subcommand_help(command):
    assert main([command, "--help"]) == 0


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
    assert _pool_size(1, 8) == 1
    assert _pool_size(3, 8) == 3
    assert _pool_size(64, 8) == 8
    assert _pool_size(4, 1) == 1
    assert _pool_size(4, None) == 1  # core count unknown: sequential


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


def test_noise_deterministic_and_worker_invariant(workdir):
    outs = []
    for name, workers in (("a.tsv", 1), ("b.tsv", 1), ("c.tsv", 3)):
        out = workdir / name
        assert main([
            "noise", "--in", str(workdir / "clean.txt"), "--profile", str(workdir / "profile.txt"),
            "--out", str(out), "--seed", "9", "--workers", str(workers),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_tag_worker_invariant(workdir):
    pairs = workdir / "pairs.tsv"
    main([
        "noise", "--in", str(workdir / "clean.txt"), "--profile", str(workdir / "profile.txt"),
        "--out", str(pairs), "--workers", "1",
    ])
    results = []
    for name, workers in (("l1.jsonl", 1), ("l2.jsonl", 2)):
        out = workdir / name
        assert main([
            "tag", "--src-tgt", str(pairs), "--tagset", str(workdir / "small.tagset"),
            "--out", str(out), "--workers", str(workers),
        ]) == 0
        results.append(out.read_bytes())
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
    ],
    ids=["dim-str", "dim-bool", "heads-float", "lambda-str", "lambda-bool", "tags-int",
         "tags-item-int", "templates-int", "dim-huge", "dim-huge-arrays", "header-list"],
)
def test_predict_rejects_malformed_model_header(workdir, capsys, edit, message):
    model_path = workdir / "model.bin"
    save_model(MultiHeadModel(TagSet(SMALL_TAGS), FeatureEncoder(dim=16)), model_path)
    head, _, body = model_path.read_bytes().partition(b"\n")
    header = edit(json.loads(head))
    model_path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    src = workdir / "in.txt"
    src.write_text("He lives in the city .\n")
    assert main([
        "predict", "--model", str(model_path), "--in", str(src),
        "--out", str(workdir / "out.txt"), "--workers", "1",
    ]) == 2
    assert message in capsys.readouterr().err


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
    pairs = workdir / "pairs.tsv"
    pairs.write_text("He go to school\tHe went to school\nthe cat\tthe cat\n")
    full = workdir / "full.tagset"
    full.write_text("".join(t + "\n" for t in SMALL_TAGS))
    assert main([
        "coverage", "--src-tgt", str(pairs), "--tagset", str(full), "--workers", "1",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pairs"] == 2
    assert report["tokens"] == 6
    assert report["edited"] == 1
    assert report["families"]["TRANSFORM"] == 1
    assert report["unknown_rate"] == 0.0


def test_stats_file(workdir):
    stats_path = workdir / "stats.json"
    assert main([
        "noise", "--in", str(workdir / "clean.txt"), "--profile", str(workdir / "profile.txt"),
        "--out", str(workdir / "x.tsv"), "--stats", str(stats_path), "--workers", "1",
    ]) == 0
    stats = json.loads(stats_path.read_text())
    assert stats["sentences"] == 120
    assert set(stats["operations"]) >= {"type_preposition", "type_determiner"}
    assert stats["errors_total"] == sum(stats["operations"].values())


def test_noise_stats_equal_generate_corpus(workdir):
    clean = workdir / "with_blanks.txt"
    lines = (workdir / "clean.txt").read_text().splitlines(keepends=True)
    clean.write_text("".join(lines[:40]) + "\n  \n" + "".join(lines[40:80]) + "\n")
    stats_path = workdir / "stats.json"
    assert main([
        "noise", "--in", str(clean), "--profile", str(workdir / "profile.txt"),
        "--out", str(workdir / "x.tsv"), "--seed", "5", "--stats", str(stats_path),
        "--workers", "1",
    ]) == 0
    profile = load_profile(workdir / "profile.txt")
    profile.rng_seed = 5
    pairs = io.StringIO()
    with open(clean, encoding="utf-8") as fp:
        expected = generate_corpus(fp, Noiser(profile, lexicon=load_lexicon()), pairs)
    assert expected["skipped_blank"] == 3 and expected["sentences"] == 80
    assert stats_path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert (workdir / "x.tsv").read_text() == pairs.getvalue()
