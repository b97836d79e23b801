"""Every trace point the benchmark wraps must name a function that exists."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced(module_name, dotted):
    owner = importlib.import_module(module_name)
    for name in dotted.split("."):
        owner = getattr(owner, name)
    return owner


def test_tracer_installs_and_uninstalls_every_trace_point(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import WRAPS, Tracer

    tracer = Tracer()
    try:
        tracer.install()  # raises RuntimeError naming a trace point that no longer resolves
        for module_name, dotted, _span, _hook in WRAPS:
            assert hasattr(_traced(module_name, dotted), "__wrapped__"), dotted
    finally:
        tracer.uninstall()
    for module_name, dotted, _span, _hook in WRAPS:
        assert not hasattr(_traced(module_name, dotted), "__wrapped__"), dotted
    assert not tracer.spans


def test_traced_pipeline_records_every_span(tmp_path, monkeypatch):
    """A tiny noise -> tag -> train-toy -> predict -> score pipeline run under
    the tracer: every command exits 0 and every span the tracer wraps is
    recorded, so each trace point is still on the path the commands take."""
    monkeypatch.syspath_prepend(str(ROOT))
    from corpus_util import make_corpus
    from gecedit.cli import main
    from perfbench.tracing import WRAPS, Tracer

    tags = ["$KEEP", "$DELETE", "$UNKNOWN", "$TRANSFORM_VERB_VB_VBZ", "$TRANSFORM_VERB_VBZ_VB"]
    for word in ("in", "at", "on", "to", "the", "a", "an"):
        tags += [f"$REPLACE_{word}", f"$APPEND_{word}"]
    (tmp_path / "t.tagset").write_text("".join(t + "\n" for t in tags))
    (tmp_path / "p.profile").write_text(
        "type_preposition = 1.0\ntype_determiner = 1.0\ntype_verbform = 1.0\n"
        "expected_errors = 1.5\nrng_seed = 5\n"
    )
    (tmp_path / "clean.txt").write_text("".join(" ".join(s) + "\n" for s in make_corpus(60, seed=7)))
    pairs = (tmp_path / "pairs.tsv").as_posix()
    src, ref = tmp_path / "src.txt", tmp_path / "ref.txt"
    flags = {"tagset": ["--tagset", str(tmp_path / "t.tagset")], "one": ["--workers", "1"]}
    tracer = Tracer()
    tracer.install()
    try:
        def run(*argv):
            assert tracer.run(argv[0], main, list(argv)) == 0, argv

        run("noise", "--in", str(tmp_path / "clean.txt"), "--profile", str(tmp_path / "p.profile"),
            "--out", pairs, *flags["one"])
        lines = [line.split("\t") for line in Path(pairs).read_text(encoding="utf-8").splitlines()]
        src.write_text("".join(s + "\n" for s, _ in lines))
        ref.write_text("".join(t + "\n" for _, t in lines))
        run("tag", "--src-tgt", pairs, "--out", str(tmp_path / "labels.jsonl"), *flags["tagset"],
            *flags["one"])
        run("train-toy", "--data", str(tmp_path / "labels.jsonl"), *flags["tagset"],
            "--out", str(tmp_path / "m.bin"), "--epochs", "2", "--dim", "256")
        run("predict", "--model", str(tmp_path / "m.bin"), "--in", str(src),
            "--out", str(tmp_path / "hyp.txt"), *flags["one"])
        run("score", "--src", str(src), "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(ref),
            *flags["one"])
    finally:
        tracer.uninstall()
    recorded = {name for name, *_ in tracer.spans}
    missing = {span for _module, _name, span, _hook in WRAPS if span} - recorded
    assert not missing, missing
    assert {"noise", "tag", "train-toy", "predict", "score"} <= recorded
