import io
import json
import pickle
import subprocess
import sys
from types import MappingProxyType

import numpy as np
import pytest

from gecedit import cli
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


# -- the exit-code contract ---------------------------------------------------
# Each case writes its inputs into the work directory and returns the argv;
# every command runs in this process, the line-parallel ones with one worker.

def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


_LABEL = json.dumps({
    "tokens": ["a"], "correction": ["$DELETE"], "deletion": [1], "insertion": [0],
    "substitution": [0], "merge": [0], "transformation": [0], "detection": [1],
})


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


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (_tag("a b\ta b\na b\tc\td\n"), 2, "pairs.tsv:2: expected source<TAB>target, found 2 tabs"),
        (_tag("a b\n"), 2, "pairs.tsv:1: expected source<TAB>target"),
        (_tag(tagset="$KEEP\n$DELETE\n$UNKNOWN\n$BOGUS\n"), 2, "x.tagset:4: "),
        (_tag(tagset="$KEEP\n$DELETE\n"), 2, "x.tagset: tagset must contain $UNKNOWN"),
        (_tag(lexicon="go\twent\n"), 2, "lexicon.tsv:1: expected 5 columns"),
        (lambda d: ["coverage", "--src-tgt", _write(d / "pairs.tsv", "\tb\n")], 2,
         "pairs.tsv:1: empty source sentence"),
        (lambda d: ["apply", "--src", _write(d / "s.txt", "a b\n"),
                    "--edits", _write(d / "e.txt", "$KEEP $NOPE\n"), "--out", str(d / "o.txt")],
         2, "e.txt:1: "),
        (_noise("expected_errors = x\n"), 2, "p.profile:1: could not convert"),
        (_noise("rng_seed = 2\nexpected_errors = inf\n"), 2, "p.profile:2: expected_errors"),
        (_noise("type_preposition = -1\n"), 2, "p.profile:1: weight for type_preposition"),
        (_train("[1, 2]\n"), 2, "labels.jsonl:1: expected a JSON object"),
        (_train(_LABEL + "\n" + _LABEL.replace('"deletion"', '"del"') + "\n"), 2,
         "labels.jsonl:2: key 'deletion' must hold a list"),
        (_train(_LABEL.replace("$DELETE", "$APPEND_zzz") + "\n"), 2,
         "labels.jsonl:1: tag $APPEND_zzz not in tagset"),
        pytest.param(_train(_LABEL + "\n", "--lr", "1e308", "--optimizer", "sgd"), 2,
                     "loss became NaN at update step 1",
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        (_train(_LABEL + "\n", "--epochs", "0"), 1, "argument --epochs: must be at least 1"),
        (_train(_LABEL + "\n", "--lr", "nan"), 1, "argument --lr: must be a finite number"),
        (_train(_LABEL + "\n", "--lambda", "inf"), 1, "argument --lambda: must be a finite"),
        (_predict(), 2, "model.bin:1: not a model file"),
        (_predict("\xff\n"), 2, "model.bin:1: not a model file"),
        (_predict("x", "--iters", "0"), 1, "argument --iters: must be at least 1"),
        (_predict("x", "--keep-bias", "nan"), 1, "argument --keep-bias: must be a finite"),
        (_predict("x", "--min-error-prob", "inf"), 1, "argument --min-error-prob: must be a"),
        (lambda d: ["score", "--src", _write(d / "src.txt", "a\n\n"),
                    "--hyp", _write(d / "hyp.txt", "a\nb\n"),
                    "--ref", _write(d / "ref.txt", "a\nb\n")], 2, "src.txt:2: empty source"),
    ],
    ids=["tag-two-tabs", "tag-no-tab", "tag-bad-tag", "tag-no-unknown", "tag-lexicon",
         "coverage-empty-source", "apply-bad-tag", "noise-expected-x", "noise-expected-inf",
         "noise-negative-weight", "train-not-object", "train-missing-stream",
         "train-tag-not-in-tagset", "train-diverges", "train-epochs-0", "train-lr-nan",
         "train-lambda-inf", "predict-not-model", "predict-not-utf8", "predict-iters-0",
         "predict-keep-bias-nan", "predict-min-error-prob-inf", "score-empty-source"],
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


# -- shared inputs are loaded before any worker starts -------------------------

@pytest.mark.parametrize(
    "argv, message",
    [
        (_tag(tagset="$KEEP\n$DELETE\n"), "x.tagset: tagset must contain $UNKNOWN"),
        (_tag(tagset="$KEEP\n$KEEP\n"), "x.tagset: duplicate tag $KEEP"),
        (lambda d: ["coverage", "--src-tgt", _write(d / "pairs.tsv", "a\tb\n"),
                    "--plurals", _write(d / "plurals.tsv", "child\n")],
         "plurals.tsv:1: expected singular<TAB>plural"),
        (lambda d: ["apply", "--src", _write(d / "s.txt", "a\n"),
                    "--edits", _write(d / "e.txt", "$KEEP\n"), "--out", str(d / "o.txt"),
                    "--lexicon", _write(d / "verbs.tsv", "Go\twent\tgoing\tgone\tgoes\n")],
         "verbs.tsv:1: lemma must be non-empty lowercase"),
        (_noise("expected_errors = x\n"), "p.profile:1: could not convert"),
        (_noise("expected_errors = nan\n"), "p.profile:1: expected_errors"),
        (_predict(), "model.bin:1: not a model file"),
        (lambda d: ["score", "--src", _write(d / "src.txt", "a\n"),
                    "--hyp", _write(d / "hyp.txt", "a\nb\n"),
                    "--ref", _write(d / "ref.txt", "a\n")], "hyp stream has 2 lines"),
    ],
    ids=["tag-tagset", "tag-duplicate-tag", "coverage-plurals", "apply-lexicon",
         "noise-profile", "noise-profile-nan", "predict-model", "score-line-count"],
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
    src.write_text("".join(line.split("\t")[0] + "\n" for line in open(pairs)))
    edits = workdir / "edits.txt"
    edits.write_text("".join(" ".join(["$KEEP"] * len(line.split())) + "\n" for line in open(src)))
    tail = ["--workers", "2"]
    for argv in (
        ["tag", "--src-tgt", pairs, "--tagset", str(workdir / "small.tagset"),
         "--out", str(workdir / "o.jsonl")],
        ["coverage", "--src-tgt", pairs, "--tagset", str(workdir / "small.tagset")],
        ["apply", "--src", str(src), "--edits", str(edits), "--out", str(workdir / "o.txt")],
        ["noise", "--in", str(workdir / "clean.txt"), "--profile", str(workdir / "profile.txt"),
         "--out", str(workdir / "o.tsv"), "--seed", "4"],
        ["predict", "--model", str(trained_model), "--in", str(src),
         "--out", str(workdir / "o.txt"), "--keep-bias", "0.2"],
        ["score", "--src", str(src), "--hyp", str(src), "--ref", pairs, "--metric", "f05"],
    ):
        assert main([*argv, *tail]) == 0, argv
    capsys.readouterr()
    assert [func.__name__ for func, _, _ in calls] == [
        "_tag_line", "_coverage_line", "_apply_line", "_noise_line", "_predict_line",
        "_score_line",
    ]

    for func, items, state in calls:
        assert items, func.__name__
        cli._set_state(state)
        expected = [func(item) for item in items]
        cli._set_state(pickle.loads(pickle.dumps(state)))
        assert [func(item) for item in items] == expected, func.__name__

    model = calls[4][2]["model"]
    assert np.abs(model.weights).sum() > 0  # trained, not the zero initialisation
    restored = pickle.loads(pickle.dumps(model))
    assert np.array_equal(restored.weights, model.weights)
    assert restored.weights.flags.f_contiguous
    assert isinstance(restored.W, MappingProxyType)
    assert list(restored.W) == list(model.W)
    for name, rows in restored.W.items():
        assert np.shares_memory(rows, restored.weights), name
        assert np.array_equal(rows, model.W[name]), name
