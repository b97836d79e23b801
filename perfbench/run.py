#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the gecedit command pipeline.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload corpus-build --seed 1 --seconds 40 --trace 0

A workload writes seeded inputs as a few chunks, then runs the five commands
``noise -> tag -> train-toy -> predict -> score`` through
``gecedit.cli.main`` in this process with ``--workers 1``, one chunk per
iteration, over and over (a closed loop with one client) until
``--seconds`` are used up.  The workloads differ in which command gets the
bulk of the input (see manifest.py).  Outputs are checked after the loop.

``--trace 0`` reports the end-to-end metrics: each command's rate, the
iteration wall time and the set-up time of a fresh interpreter, all scaled to
a fixed machine speed (see ``at_reference_speed``), and peak RSS and three
quality guards.  ``--trace 1`` spends half the time untraced and half with
the layer wrappers of ``tracing.py`` installed, and reports per-layer
metrics plus the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record stamped with the backend and versions
goes to ``perfbench/results/``, and the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import manifest  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """Per-chunk input sizes; why each workload exists is in manifest.py."""

    noise_text: str  # "mixed" (6-40 tokens, open vocabulary) or "template"
    tagset: str  # "default" (bundled, 5,019 tags) or "compact" (~100 tags)
    chunks: int  # input sets, taken in turn by successive iterations
    noise_lines: int  # per chunk, and so on below
    train_lines: int
    epochs: int
    heldout_lines: int
    multiref_lines: int  # 0: score predict's output against one reference


WORKLOADS = {
    "corpus-build": Workload(
        noise_text="mixed", tagset="default", chunks=24,
        noise_lines=100, train_lines=100, epochs=2, heldout_lines=60, multiref_lines=0,
    ),
    "train-predict": Workload(
        noise_text="template", tagset="compact", chunks=8,
        noise_lines=250, train_lines=150, epochs=2, heldout_lines=150, multiref_lines=0,
    ),
    "score-multiref": Workload(
        noise_text="template", tagset="compact", chunks=16,
        noise_lines=250, train_lines=100, epochs=2, heldout_lines=100, multiref_lines=12,
    ),
}

SETUP_REPEATS = 7
KERNEL_PAIRS = 400
OUTPUTS = ("pairs.tsv", "labels.jsonl", "model.bin", "hyp.txt")

SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import gecedit.cli as cli
cli.load_tagset(cli.default_tagset_path())
cli.load_lexicon()
cli.load_model(sys.argv[2])
"""


@dataclass
class Stage:
    """One command of the pipeline and the units its rate counts."""

    name: str
    argv: list[str]
    units: int


@dataclass
class Chunk:
    """One input set, the commands that read it and their latest output."""

    files: dict
    work: Path
    stages: list[Stage]
    stdout: dict = field(default_factory=dict)
    digest: str = ""


def make_chunk(wl: Workload, files: dict, work: Path, seed: int) -> Chunk:
    work.mkdir(parents=True, exist_ok=True)
    tagset = ["--tagset", str(files["compact_tagset"])] if wl.tagset == "compact" else []
    train_tokens = sum(
        len(json.loads(line)["tokens"]) for line in files["train"].read_text().splitlines()
    )
    if wl.multiref_lines:
        refs = [
            arg
            for k in range(inputs.MULTIREF_REFS)
            for arg in ("--ref", str(files[f"multiref_ref{k}"]))
        ]
        score = ["--src", str(files["multiref_src"]), "--hyp", str(files["multiref_hyp"]), *refs]
    else:
        score = ["--src", str(files["heldout_src"]), "--hyp", str(work / "hyp.txt"),
                 "--ref", str(files["heldout_ref"])]
    one = ["--workers", "1"]
    stages = [
        Stage("noise", ["noise", "--in", str(files["clean"]), "--profile", str(files["profile"]),
                        "--seed", str(seed), "--out", str(work / "pairs.tsv"), *one],
              wl.noise_lines),
        Stage("tag", ["tag", "--src-tgt", str(work / "pairs.tsv"),
                      "--out", str(work / "labels.jsonl"), *tagset, *one],
              wl.noise_lines),
        Stage("train-toy", ["train-toy", "--data", str(files["train"]),
                            "--tagset", str(files["compact_tagset"]),
                            "--out", str(work / "model.bin"),
                            "--epochs", str(wl.epochs), "--dim", "2048", "--seed", str(seed)],
              train_tokens * wl.epochs),
        Stage("predict", ["predict", "--model", str(work / "model.bin"),
                          "--in", str(files["heldout_src"]), "--out", str(work / "hyp.txt"),
                          "--iters", "4", "--keep-bias", "0.2", "--min-error-prob", "0.3", *one],
              wl.heldout_lines),
        Stage("score", ["score", *score, "--metric", "both", "--seed", str(seed), *one],
              wl.multiref_lines or wl.heldout_lines),
    ]
    return Chunk(files, work, stages)


def at_reference_speed(seconds, reference_seconds) -> float:
    """Seconds the timed work takes on a machine of the nominal speed.

    Each timing is paired with the reference work timed just before it (see
    reference.py): ``seconds / reference_seconds * NOMINAL_SECONDS``.  The
    shared machines this runs on change speed by up to 2x, in spells from
    seconds to minutes, and a run can fall wholly in a slow spell; the pairing
    cancels what slows both.  The faster half of the paired values is
    averaged: on eight seeds of 20 s runs of two workloads (2-vCPU x86-64
    VM) it spread less from run to run than the median or a percentile did.
    """
    paired = sorted(s / r for s, r in zip(seconds, reference_seconds, strict=True))
    return statistics.fmean(paired[: max(1, len(paired) // 2)]) * reference.NOMINAL_SECONDS


def run_command(cli, argv: list[str], tracer: Tracer | None) -> tuple[int, str, float]:
    """Run one command in-process; returns (exit code, stdout, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.run(f"cli.{argv[0]}", cli.main, argv)
        wall = time.perf_counter() - start
    if code != 0:
        print(f"{argv[0]} exited {code}: {err.getvalue()[-2000:]}", file=sys.stderr)
    return code, out.getvalue(), wall


class Tally:
    """Attempted and failed commands and checks, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def outputs_digest(chunk: Chunk) -> str:
    h = hashlib.sha256()
    for name in OUTPUTS:
        h.update((chunk.work / name).read_bytes())
    for name in ("train-toy", "score"):
        h.update(chunk.stdout[name].encode("utf-8"))
    return h.hexdigest()


def measure(cli, chunks: list[Chunk], seconds: float, tally: Tally, tracer=None,
            after_iteration=None) -> list[dict]:
    """Run the pipeline on chunk after chunk until ``seconds`` would be exceeded.

    Every chunk runs at least once.  Returns one dict per iteration with the
    wall time of each stage, and under ``<stage>.ref`` the reference work
    timed just before it.  A chunk that runs again must write the same bytes
    as before.
    ``after_iteration(elapsed)`` is called between iterations, untimed.
    """
    iterations: list[dict] = []
    start = time.perf_counter()
    while True:
        index = len(iterations) % len(chunks)
        chunk = chunks[index]
        walls = {"chunk": index}
        gc.collect()
        for stage in chunk.stages:
            walls[f"{stage.name}.ref"] = reference.seconds()
            code, chunk.stdout[stage.name], walls[stage.name] = run_command(cli, stage.argv, tracer)
            tally.add([f"{stage.name} exited {code}"] if code else [])
            if code:
                return iterations
        walls["wall"] = sum(walls[stage.name] for stage in chunk.stages)
        walls["ref"] = statistics.fmean(walls[f"{stage.name}.ref"] for stage in chunk.stages)
        iterations.append(walls)
        digest = outputs_digest(chunk)
        if chunk.digest:
            tally.add([] if digest == chunk.digest else ["outputs changed between iterations"])
        chunk.digest = digest
        if after_iteration is not None:
            after_iteration(time.perf_counter() - start)
        n = len(iterations)
        if n >= len(chunks) and (time.perf_counter() - start) * (n + 1) / n > seconds:
            return iterations


def check_outputs(gecedit, wl: Workload, shared: dict, chunks: list[Chunk], tally: Tally) -> dict:
    """Run every output check on every chunk; returns the quality guards."""
    from gecedit import load_lexicon, load_tagset
    from gecedit.lexicon import default_tagset_path

    lexicon = load_lexicon()
    compact = wl.tagset == "compact"
    tagset = load_tagset(shared["compact_tagset"] if compact else default_tagset_path())
    n_tags = len(shared["compact_tagset"].read_text().splitlines())
    unknown = edited = 0
    scores = []
    for k, chunk in enumerate(chunks):
        files, work = chunk.files, chunk.work
        try:
            tally.add(checks.noise(files["clean"], work / "pairs.tsv"))
            problems, chunk_unknown, chunk_edited = checks.tag(
                work / "pairs.tsv", work / "labels.jsonl", lexicon, tagset
            )
            tally.add(problems)
            unknown += chunk_unknown
            edited += chunk_edited
            tally.add(checks.train(chunk.stdout["train-toy"], work / "model.bin", n_tags))
            tally.add(checks.predict(files["heldout_src"], work / "hyp.txt"))
            problems, report = checks.score(chunk.stdout["score"], chunk.stages[-1].units)
            tally.add(problems)
            scores.append(report)
        except Exception as exc:  # malformed output: a failed check, not a crash
            tally.add([f"chunk {k}: a check raised {exc!r}"])

    # The parallel path must give the same bytes as the sequential one.
    chunk = chunks[0]
    argv = list(chunk.stages[1].argv)
    argv[argv.index("--out") + 1] = str(chunk.work / "labels.workers2.jsonl")
    argv[argv.index("--workers") + 1] = "2"
    code, _, _ = run_command(gecedit.cli, argv, None)
    tally.add(
        [f"tag --workers 2 exited {code}"]
        if code
        else checks.same_bytes(chunk.work / "labels.jsonl", chunk.work / "labels.workers2.jsonl",
                               "tag --workers 2 vs 1")
    )
    return {
        "unknown_rate": unknown / edited if edited else 0.0,
        "f05": statistics.fmean(r.get("F0.5", 0.0) for r in scores) if scores else 0.0,
        "gleu": statistics.fmean(r.get("GLEU", 0.0) for r in scores) if scores else 0.0,
    }


def kernel_pairs(seed: int) -> list[tuple[list[str], list[str]]]:
    """Sentence pairs for the alignment kernels on their own."""
    rng = random.Random(seed)
    return [
        inputs.edit_pair(rng, inputs.mixed_sentence(rng, rng.randint(5, 25)))
        for _ in range(KERNEL_PAIRS)
    ]


def kernel_rates(gecedit, pairs) -> dict[str, float]:
    """Pairs per second of each available alignment kernel on its own."""
    rates = {}
    for name, kernel in sorted(gecedit.available_backends().items()):
        start = time.perf_counter()
        for src, tgt in pairs:
            kernel(src, tgt)
        rates[f"alignment.pairs_per_s.{name}"] = len(pairs) / (time.perf_counter() - start)
    return rates


class SetupProbe:
    """Times fresh interpreters that import gecedit and load its data.

    Called between iterations, it spreads ``SETUP_REPEATS`` probes evenly
    over the run, so that they see the same machine as the stages.
    """

    def __init__(self, model: Path, seconds: float, tally: Tally):
        self.model = model
        self.seconds = seconds
        self.tally = tally
        self.times: list[float] = []
        self.refs: list[float] = []

    def __call__(self, elapsed: float) -> None:
        due = len(self.times) * self.seconds / SETUP_REPEATS
        if len(self.times) < SETUP_REPEATS and elapsed >= due:
            self.probe()

    def probe(self) -> None:
        self.refs.append(reference.seconds())
        start = time.perf_counter()
        code = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(self.model)],
            timeout=120, stdin=subprocess.DEVNULL,
        ).returncode
        self.times.append(time.perf_counter() - start)
        self.tally.add([f"set-up interpreter exited {code}"] if code else [])

    def seconds_at_reference(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return at_reference_speed(self.times, self.refs)


RATES = ("noise_lines_per_s", "tag_lines_per_s", "train_tokens_per_s",
         "predict_lines_per_s", "score_lines_per_s")  # one per stage, in order


def end_to_end(chunks, iterations, quality, setup_s) -> dict[str, float]:
    """The declared metrics, and beside them the unscaled medians."""
    values = {}
    for index, metric in enumerate(RATES):
        name = chunks[0].stages[index].name
        per_unit = [it[name] / chunks[it["chunk"]].stages[index].units for it in iterations]
        refs = [it[f"{name}.ref"] for it in iterations]
        values[metric] = 1.0 / at_reference_speed(per_unit, refs)
        values[f"{metric}.unscaled_median"] = 1.0 / statistics.median(per_unit)
    return values | {
        "wall_s": iteration_wall(iterations),
        "wall_s.unscaled_median": statistics.median(it["wall"] for it in iterations),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_ms.median": 1e3 * statistics.median(it["ref"] for it in iterations),
        **quality,
    }


def iteration_wall(iterations) -> float:
    return at_reference_speed([it["wall"] for it in iterations], [it["ref"] for it in iterations])


def per_layer(tracer: Tracer, n: int, overhead: float) -> dict[str, float]:
    """Per-iteration means of busy time and counts, and ratios of totals."""
    busy, self_s = tracer.busy_and_self()
    c = tracer.counts
    trials = c["apply_transform.calls"] + c["apply_suffix.calls"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "alignment.calls": c["alignment.calls"] / n,
        "alignment.cells": c["alignment.cells"] / n,
        "alignment.busy_s": busy["alignment"] / n,
        "alignment.pairs_per_s": ratio(c["alignment.calls"], busy["alignment"]),
        "seq2edit.self_s": self_s["seq2edit"] / n,
        "seq2edit.tokens": c["seq2edit.tokens"] / n,
        "seq2edit.rule_trials": trials / n,
        "seq2edit.rule_hit_ratio": ratio(c["seq2edit.rule_hits"], trials),
        "labels.busy_s": (busy["labels.derive"] + busy["labels.json"]) / n,
        "labels.bytes_out": c["labels.bytes_out"] / n,
        "noiser.busy_s": busy["noiser"] / n,
        "noiser.errors_per_line": ratio(c["noiser.errors"], c["noiser.lines"]),
        "tagger.encode_calls": c["tagger.encode.calls"] / n,
        "tagger.encode_busy_s": busy["tagger.encode"] / n,
        "tagger.train_busy_s": busy["tagger.train"] / n,
        "tagger.epoch_loss_busy_s": busy["tagger.epoch_loss"] / n,
        "tagger.steps_per_s": ratio(c["tagger.steps"], busy["tagger.train"]),
        "tagger.predict_tags_busy_s": busy["tagger.predict_tags"] / n,
        "tagger.load_model_s": ratio(busy["tagger.load_model"], c["tagger.load_model.calls"]),
        "edit2seq.refine_passes_mean": ratio(c["edit2seq.passes"], c["edit2seq.refine.calls"]),
        "edit2seq.unchanged_pass_ratio": ratio(
            c["edit2seq.unchanged_passes"], c["edit2seq.passes"]
        ),
        "edit2seq.inapplicable_tags": c["edit2seq.inapplicable_tags"] / n,
        "edit2seq.apply_busy_s": busy["edit2seq.apply"] / n,
        "metrics.extract_spans_busy_s": busy["metrics.extract_spans"] / n,
        "metrics.gleu_busy_s": busy["metrics.gleu"] / n,
        "lexicon.load_s": busy["lexicon.load"] / n,
        "tags.load_s": busy["tags.load"] / n,
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")) / n,
        "trace.overhead_ratio": overhead,
    }


def command_breakdown(tracer: Tracer, n: int) -> dict[str, dict[str, float]]:
    """Self seconds per span name within each command, per iteration."""
    roots: list[int] = []
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        root = i if parent < 0 else roots[parent]
        roots.append(root)
        command = tracer.spans[root][0]
        table = out.setdefault(command, {})
        table[name] = table.get(name, 0.0) + (end - start) / n
        if parent >= 0:
            parent_name = tracer.spans[parent][0]
            table[parent_name] = table.get(parent_name, 0.0) - (end - start) / n
    return out


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(gecedit, args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": gecedit.BACKEND,
        "gecedit": gecedit.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }


def import_gecedit():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "gecedit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gecedit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import gecedit
    import gecedit.cli

    if Path(gecedit.__file__).resolve().parent != (SRC / "gecedit").resolve():
        sys.exit(f"perfbench: imported gecedit from {gecedit.__file__}, not from {SRC}")
    return gecedit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gecedit = import_gecedit()
    wl = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "work" / f"{run_id}-{os.getpid()}"
    results = HERE / "results"
    declared = manifest.PER_LAYER if args.trace else manifest.END_TO_END
    units = {name: unit for name, unit, *_ in declared}
    targets = {name: moves for name, _unit, _better, moves in manifest.PER_LAYER}
    tally = Tally()
    try:
        shared = inputs.write_shared(work / "in", wl.noise_text)
        chunks = []
        for k in range(wl.chunks):
            # Each chunk has its own seed, also for the commands: the noiser
            # seeds each line from (seed, line number), so a shared seed
            # would repeat the same error draws in every chunk.
            chunk_seed = args.seed * 1000 + k
            files = inputs.write_chunk(work / "in" / f"c{k}", wl, random.Random(chunk_seed))
            chunks.append(make_chunk(wl, shared | files, work / f"c{k}", chunk_seed))
        pairs = kernel_pairs(args.seed)
        tally.add(checks.backends_agree(pairs))

        tracer = Tracer()
        if args.trace:
            plain = measure(gecedit.cli, chunks, args.seconds / 2, tally)
            tracer.install()
            try:
                iterations = measure(gecedit.cli, chunks, args.seconds / 2, tally, tracer)
            finally:
                tracer.uninstall()
        else:
            setup = SetupProbe(chunks[0].work / "model.bin", args.seconds, tally)
            iterations = measure(gecedit.cli, chunks, args.seconds, tally, after_iteration=setup)
        complete = len(iterations) >= len(chunks)
        if complete:
            quality = check_outputs(gecedit, wl, shared, chunks, tally)
        values: dict[str, float] = {}
        if complete and not tally.failed:
            if args.trace:
                overhead = iteration_wall(iterations) / iteration_wall(plain)
                values = per_layer(tracer, len(iterations), overhead) | kernel_rates(gecedit, pairs)
            else:
                values = end_to_end(chunks, iterations, quality, setup.seconds_at_reference())
            missing = [name for name in units if name not in values]
            tally.add([f"metric {name} was not measured" for name in missing])
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        }

        record = {
            "stamp": stamp(gecedit, args),
            "iterations": iterations,
            "metrics": metrics,
            "other_metrics": {k: v for k, v in values.items() if k not in units},
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems,
        }
        if args.trace and tracer.spans:
            record["self_s_by_command"] = command_breakdown(tracer, len(iterations))
            tracer.write(results / f"{run_id}.spans.jsonl")
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(record, targets)
    print(json.dumps({
        "correct": complete and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


def report(record: dict, targets: dict[str, str]) -> None:
    """Human-readable summary: stamp, each metric with its unit, failures.

    A per-layer metric is followed by the end-to-end metric it should move.
    """
    s = record["stamp"]
    n = len(record["iterations"])
    print(f"# {s['workload']} seed={s['seed']} backend={s['backend']} python={s['python']} "
          f"numpy={s['numpy']} git={s['git_sha'][:12]} nproc={s['nproc']} iterations={n}")
    for name, m in record["metrics"].items():
        moves = f"  -> {targets[name]}" if name in targets else ""
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}{moves}")
    for name, value in record["other_metrics"].items():
        print(f"{name:32s} {value:14.6g}  (not in BENCHMARK.json)")
    traced = record["iterations"]
    for command, table in record.get("self_s_by_command", {}).items():
        wall = statistics.fmean(it[command.removeprefix("cli.")] for it in traced)
        parts = ", ".join(f"{k} {v:.3f}" for k, v in sorted(table.items(), key=lambda kv: -kv[1]))
        total = sum(table.values())
        print(f"# {command}: {wall:.3f} s/iteration, of which self time {total:.3f} s is {parts}")
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"{'failed_ratio':32s} {ratio:14.6g} ratio "
          f"({record['failed']} of {record['attempted']} commands and checks)")
    for problem in record["problems"]:
        print(f"# FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
