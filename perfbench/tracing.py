"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces module attributes with timing wrappers, at the
names callers look up (``gecedit.seq2edit.align``, ``gecedit.cli.seq2edit``,
...), so nothing under ``src/`` changes.  Spans are kept in memory as
(name, start, end, parent) records and written out once, when the benchmark
ends.  A span's self time is its duration minus its children's; the spans
nest strictly because the commands run on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import time
from collections import Counter
from pathlib import Path

_RULE_FAMILIES = {"TRANSFORM", "SUFFIXTRANSFORM"}


def _cells(tracer, args, kwargs, result):
    tracer.counts["alignment.cells"] += len(args[0]) * len(args[1])


def _seq2edit_tokens(tracer, args, kwargs, result):
    tracer.counts["seq2edit.tokens"] += len(args[0])


def _rule_hit(tracer, args, kwargs, result):
    if result.family.value in _RULE_FAMILIES:
        tracer.counts["seq2edit.rule_hits"] += 1


def _json_bytes(tracer, args, kwargs, result):
    tracer.counts["labels.bytes_out"] += len(result.encode("utf-8")) + 1


def _noise_errors(tracer, args, kwargs, result):
    tracer.counts["noiser.lines"] += 1
    tracer.counts["noiser.errors"] += sum(result[1].values())


def _train_steps(tracer, args, kwargs, result):
    tracer.counts["tagger.steps"] += len(args[1]) * kwargs["epochs"]


def _refine_passes(tracer, args, kwargs, result):
    tracer.counts["edit2seq.passes"] += result[1]


def _unchanged_pass(tracer, args, kwargs, result):
    if result == list(args[0]):
        tracer.counts["edit2seq.unchanged_passes"] += 1


# (module, attribute, span name or None for a count-only wrapper, hook).
# Each span name starts with its layer, and its calls are counted under
# "<span>.calls".  A count-only wrapper, for functions called per token,
# records no span and counts under "<attribute>.calls".
WRAPS = (
    ("gecedit.seq2edit", "align", "alignment", _cells),
    ("gecedit.metrics", "align_ops", "alignment", _cells),
    ("gecedit.cli", "seq2edit", "seq2edit", _seq2edit_tokens),
    ("gecedit.seq2edit", "apply_transform", None, None),
    ("gecedit.seq2edit", "apply_suffix", None, None),
    ("gecedit.seq2edit", "classify_edit", None, _rule_hit),
    ("gecedit.cli", "derive_labels", "labels.derive", None),
    ("gecedit.cli", "to_json_line", "labels.json", _json_bytes),
    ("gecedit.noiser", "Noiser.corrupt", "noiser", _noise_errors),
    ("gecedit.tagger", "FeatureEncoder.encode", "tagger.encode", None),
    ("gecedit.cli", "train", "tagger.train", _train_steps),
    ("gecedit.tagger", "total_loss", "tagger.epoch_loss", None),
    ("gecedit.cli", "predict_tags", "tagger.predict_tags", None),
    ("gecedit.cli", "load_model", "tagger.load_model", None),
    ("gecedit.cli", "save_model", "tagger.save_model", None),
    ("gecedit.cli", "refine", "edit2seq.refine", _refine_passes),
    ("gecedit.edit2seq", "edit2seq", "edit2seq.apply", _unchanged_pass),
    ("gecedit.cli", "extract_spans", "metrics.extract_spans", None),
    ("gecedit.cli", "gleu", "metrics.gleu", None),
    ("gecedit.cli", "load_lexicon", "lexicon.load", None),
    ("gecedit.noiser", "load_patterns", "lexicon.load", None),
    ("gecedit.cli", "load_tagset", "tags.load", None),
)


class _CountingHandler(logging.Handler):
    def __init__(self, counts: Counter, key: str):
        super().__init__(logging.WARNING)
        self.counts = counts
        self.key = key

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[self.key] += 1


def _resolve(module_name: str, dotted: str):
    """The object holding the wrapped name, the name, and its current value."""
    owner = importlib.import_module(module_name)
    *parents, attr = dotted.split(".")
    try:
        for name in parents:
            owner = getattr(owner, name)
        return owner, attr, owner.__dict__[attr]
    except (AttributeError, KeyError):
        raise RuntimeError(
            f"trace point {module_name}.{dotted} no longer exists; update WRAPS in tracing.py"
        ) from None


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._handler = _CountingHandler(self.counts, "edit2seq.inapplicable_tags")

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _end, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)

    def run(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a root span (one CLI command)."""
        index = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, fn, span: str | None, hook, count_key: str):
        tracer = self

        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.counts[count_key] += 1
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.counts[count_key] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return timed

    def install(self) -> None:
        for module_name, dotted, span, hook in WRAPS:
            owner, attr, original = _resolve(module_name, dotted)
            count_key = f"{span or attr}.calls"
            setattr(owner, attr, self._wrap(original, span, hook, count_key))
            self._saved.append((owner, attr, original))
        logging.getLogger("gecedit.edit2seq").addHandler(self._handler)

    def uninstall(self) -> None:
        logging.getLogger("gecedit.edit2seq").removeHandler(self._handler)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis -------------------------------------------------------------

    def busy_and_self(self) -> tuple[Counter, Counter]:
        """Seconds per span name: inclusive (busy) and exclusive (self)."""
        busy: Counter = Counter()
        self_s: Counter = Counter()
        for name, start, end, parent in self.spans:
            duration = end - start
            busy[name] += duration
            self_s[name] += duration
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        return busy, self_s

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end (seconds) and parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            for name, start, end, parent in self.spans:
                fp.write(json.dumps([name, round(start, 7), round(end, 7), parent]) + "\n")
