#!/usr/bin/env python3
"""The benchmark's workloads and metrics, and the BENCHMARK.json made from them.

    python3 perfbench/manifest.py          # exit 1 if BENCHMARK.json is stale
    python3 perfbench/manifest.py --write  # regenerate BENCHMARK.json

Each per-layer metric names the end-to-end metric, and the workload, that a
change to its layer should move.  BENCHMARK.json has no field for that
mapping, so it lives here and in the traced run's report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUN_SECONDS = 40

WORKLOADS = {
    "corpus-build": "error-dense mixed-length text (6-40 tokens) through noise, then tag with "
    "the bundled 5,019-tag tagset: alignment, classification, labels and the noiser do the work",
    "train-predict": "train-toy with a ~100-tag tagset, predict with refinement, single-reference "
    "score: the tagger and edit2seq.refine do the work and tag classification is nearly idle",
    "score-multiref": "score --metric both with 3 references per sentence: the 500-sample "
    "multi-reference GLEU takes over half the time; the multi-reference side of train-predict",
}

# (name, unit, better, bound).  Timing bounds are wide because the shared
# machines this runs on have slow spells of up to 2x; run.py scales every
# timing by reference work timed beside it, which cancels most but not all
# of a spell.
END_TO_END = (
    ("noise_lines_per_s", "lines/s", "higher", 0.25),
    ("tag_lines_per_s", "lines/s", "higher", 0.25),
    ("train_tokens_per_s", "tokens/s", "higher", 0.25),
    ("predict_lines_per_s", "lines/s", "higher", 0.25),
    ("score_lines_per_s", "lines/s", "higher", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("unknown_rate", "ratio", "lower", 0.2),
    ("f05", "ratio", "higher", 0.25),
    ("gleu", "ratio", "higher", 0.15),
)

_TAG = "tag_lines_per_s on corpus-build"
_TRAIN = "train_tokens_per_s on train-predict"
_PREDICT = "predict_lines_per_s on train-predict"
_SCORE = "score_lines_per_s on train-predict and score-multiref"

# (name, unit, better, the end-to-end metric it should move).
PER_LAYER = (
    ("alignment.calls", "count", "lower", f"{_TAG}; score_lines_per_s on train-predict"),
    ("alignment.cells", "count", "lower", f"{_TAG}; score_lines_per_s on train-predict"),
    ("alignment.busy_s", "s", "lower", f"{_TAG}; score_lines_per_s on train-predict"),
    ("alignment.pairs_per_s", "pairs/s", "higher", f"{_TAG}; score_lines_per_s on train-predict"),
    ("alignment.pairs_per_s.python", "pairs/s", "higher", f"{_TAG} when python is the backend"),
    ("seq2edit.self_s", "s", "lower", _TAG),
    ("seq2edit.tokens", "count", "lower", _TAG),
    ("seq2edit.rule_trials", "count", "lower", _TAG),
    ("seq2edit.rule_hit_ratio", "ratio", "higher", _TAG),
    ("labels.busy_s", "s", "lower", _TAG),
    ("labels.bytes_out", "bytes", "lower", _TAG),
    ("noiser.busy_s", "s", "lower", "noise_lines_per_s on corpus-build"),
    ("noiser.errors_per_line", "count", "higher", "noise_lines_per_s on corpus-build"),
    ("tagger.encode_calls", "count", "lower", f"{_TRAIN}; {_PREDICT}"),
    ("tagger.encode_busy_s", "s", "lower", f"{_TRAIN}; {_PREDICT}"),
    ("tagger.train_busy_s", "s", "lower", _TRAIN),
    ("tagger.epoch_loss_busy_s", "s", "lower", _TRAIN),
    ("tagger.steps_per_s", "1/s", "higher", _TRAIN),
    ("tagger.predict_tags_busy_s", "s", "lower", _PREDICT),
    ("tagger.load_model_s", "s", "lower", f"{_PREDICT}; setup_s"),
    ("edit2seq.refine_passes_mean", "count", "lower", _PREDICT),
    ("edit2seq.unchanged_pass_ratio", "ratio", "lower", _PREDICT),
    ("edit2seq.inapplicable_tags", "count", "lower", _PREDICT),
    ("edit2seq.apply_busy_s", "s", "lower", _PREDICT),
    ("metrics.extract_spans_busy_s", "s", "lower", _SCORE),
    ("metrics.gleu_busy_s", "s", "lower", _SCORE),
    ("lexicon.load_s", "s", "lower", "setup_s"),
    ("tags.load_s", "s", "lower", "setup_s"),
    ("cli.self_s", "s", "lower", "none: command wall minus the layer spans (I/O, parsing)"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall over untraced wall"),
)

ROOT = Path(__file__).resolve().parent.parent
PATH = ROOT / "BENCHMARK.json"


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _moves in PER_LAYER],
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        PATH.write_text(render(), encoding="utf-8")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    if not PATH.exists() or PATH.read_text(encoding="utf-8") != render():
        print(f"{PATH.name} is stale; run: python3 perfbench/manifest.py --write", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
