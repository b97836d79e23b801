"""The benchmark's other entry points: its set-up probe and its output checks
must accept what the commands write, so a change that breaks them fails here
and not only in a benchmark run."""

import subprocess
import sys

from gecedit import load_lexicon, load_tagset

from test_trace_points import ROOT
from test_trace_points import test_traced_pipeline_records_every_span as run_traced_pipeline


def test_setup_probe_and_output_checks_accept_the_traced_pipeline(tmp_path, monkeypatch, capsys):
    run_traced_pipeline(tmp_path, monkeypatch)
    _noise, _tag, train_stdout, score_stdout = capsys.readouterr().out.splitlines(keepends=True)
    from perfbench import checks
    from perfbench.run import SETUP_SNIPPET

    probe = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src"), str(tmp_path / "m.bin")],
        capture_output=True, text=True, timeout=120, stdin=subprocess.DEVNULL,
    )
    assert probe.returncode == 0, probe.stderr

    tagset = tmp_path / "t.tagset"
    pairs, src = tmp_path / "pairs.tsv", tmp_path / "src.txt"
    problems, _unknown, edited = checks.tag(
        pairs, tmp_path / "labels.jsonl", load_lexicon(), load_tagset(tagset)
    )
    assert edited > 0
    assert checks.noise(tmp_path / "clean.txt", pairs) == []
    assert problems == []
    n_tags = len(tagset.read_text().splitlines())
    assert checks.train(train_stdout, tmp_path / "m.bin", n_tags) == []
    assert checks.predict(src, tmp_path / "hyp.txt") == []
    n_lines = len(src.read_text().splitlines())
    assert checks.score(score_stdout, n_lines)[0] == []
