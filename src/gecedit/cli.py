"""Batch command-line front end.

Every subcommand streams line-by-line and is deterministic given its flags
and seeds.  Line-parallel commands take ``--workers`` (order-preserving; the
output is byte-identical for any worker count).  Exit codes: 0 success, 1
usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from collections import Counter
from pathlib import Path

from gecedit.core import (
    CorpusFormatError,
    detokenize,
    format_pair_line,
    parse_pair_line,
    tokenize,
)
from gecedit.edit2seq import TagApplicationError, edit2seq, refine
from gecedit.labels import derive_labels, to_json_line
from gecedit.lexicon import (
    LexiconError,
    PatternDataError,
    default_profile_path,
    default_tagset_path,
    load_lexicon,
)
from gecedit.metrics import F05Accumulator, extract_spans, gleu
from gecedit.noiser import Noiser, ProfileError, corpus_stats, load_profile
from gecedit.seq2edit import seq2edit
from gecedit.tags import EditTag, TagError, TagFamily, load_tagset
from gecedit.tagger import MultiHeadModel, load_model, predict_tags, save_model, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_CHUNK = 128


class DataError(ValueError):
    """Input data problem; message carries file:line where known."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# Per-process state for worker pools, filled by the _init_* functions.
_G: dict = {}


def _pool_size(workers: int, cpus: int | None) -> int:
    """Worker processes to start: the requested count, capped at the cores."""
    return max(1, min(workers, cpus or 1))


def _start_method(available: list[str]) -> str | None:
    """Pool start method: ``fork`` where offered, else the platform default."""
    return "fork" if "fork" in available else None


def _map_ordered(func, items, workers, initializer=None, initargs=()):
    workers = _pool_size(workers, os.cpu_count())
    if workers > 1:
        ctx = multiprocessing.get_context(_start_method(multiprocessing.get_all_start_methods()))
        with ctx.Pool(workers, initializer=initializer, initargs=initargs) as pool:
            yield from pool.imap(func, items, chunksize=_CHUNK)
    else:
        if initializer is not None:
            initializer(*initargs)
        yield from map(func, items)


def _numbered_lines(path):
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            yield lineno, line.rstrip("\n")


# -- tag ---------------------------------------------------------------------

def _init_tag(path, tagset_path, verbs, plurals):
    _G["path"] = path
    _G["tagset"] = load_tagset(tagset_path)
    _G["lexicon"] = load_lexicon(verbs, plurals)


def _classified_pair(item):
    """Source tokens and edit tags of one numbered pair line; errors carry file:line."""
    lineno, line = item
    try:
        src, tgt = parse_pair_line(line)
        if not src:
            raise CorpusFormatError("empty source sentence")
        return src, seq2edit(src, tgt, _G["lexicon"], _G["tagset"])
    except (CorpusFormatError, ValueError) as exc:
        raise DataError(f"{_G['path']}:{lineno}: {exc}") from None


def _tag_line(item):
    src, edits = _classified_pair(item)
    return to_json_line(src, derive_labels(src, edits))


def _cmd_tag(args) -> int:
    items = _numbered_lines(args.src_tgt)
    with open(args.out, "w", encoding="utf-8") as out:
        for line in _map_ordered(
            _tag_line,
            items,
            args.workers,
            _init_tag,
            (str(args.src_tgt), str(args.tagset), args.lexicon, args.plurals),
        ):
            out.write(line + "\n")
    return EXIT_OK


# -- apply -------------------------------------------------------------------

def _init_apply(src_path, edits_path, verbs, plurals):
    _G["src_path"] = src_path
    _G["edits_path"] = edits_path
    _G["lexicon"] = load_lexicon(verbs, plurals)


def _apply_line(item):
    lineno, src_line, edits_line = item
    tokens = tokenize(src_line)
    try:
        edits = [EditTag.parse(t) for t in edits_line.split()]
    except TagError as exc:
        raise DataError(f"{_G['edits_path']}:{lineno}: {exc}") from None
    try:
        return detokenize(edit2seq(tokens, edits, _G["lexicon"]))
    except (TagApplicationError, ValueError) as exc:
        raise DataError(f"{_G['src_path']}:{lineno}: {exc}") from None


def _paired_lines(src_path, edits_path):
    with open(src_path, encoding="utf-8") as fs, open(edits_path, encoding="utf-8") as fe:
        lineno = 0
        while True:
            s = fs.readline()
            e = fe.readline()
            if not s and not e:
                return
            lineno += 1
            if not s or not e:
                short = src_path if not s else edits_path
                raise DataError(f"{short}:{lineno}: file ended early")
            yield lineno, s.rstrip("\n"), e.rstrip("\n")


def _cmd_apply(args) -> int:
    items = _paired_lines(str(args.src), str(args.edits))
    with open(args.out, "w", encoding="utf-8") as out:
        for line in _map_ordered(
            _apply_line,
            items,
            args.workers,
            _init_apply,
            (str(args.src), str(args.edits), args.lexicon, args.plurals),
        ):
            out.write(line + "\n")
    return EXIT_OK


# -- noise -------------------------------------------------------------------

def _init_noise(profile_path, seed, verbs, plurals):
    profile = load_profile(profile_path)
    if seed is not None:
        profile.rng_seed = seed
    _G["noiser"] = Noiser(profile, lexicon=load_lexicon(verbs, plurals))


def _noise_line(item):
    idx, tokens = item
    corrupted, counts = _G["noiser"].corrupt(tokens, idx)
    return format_pair_line(corrupted, tokens), dict(counts)


def _cmd_noise(args) -> int:
    blank = [0]

    def items():
        with open(args.inp, encoding="utf-8") as fp:
            for idx, line in enumerate(fp):
                tokens = tokenize(line)
                if tokens:
                    yield idx, tokens
                else:
                    blank[0] += 1

    realized: Counter = Counter()
    sentences = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for pair_line, counts in _map_ordered(
            _noise_line,
            items(),
            args.workers,
            _init_noise,
            (str(args.profile), args.seed, args.lexicon, args.plurals),
        ):
            out.write(pair_line + "\n")
            realized.update(counts)
            sentences += 1
    if args.stats:
        stats = corpus_stats(sentences, blank[0], realized)
        Path(args.stats).write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return EXIT_OK


# -- train-toy ---------------------------------------------------------------

def _cmd_train_toy(args) -> int:
    tagset = load_tagset(args.tagset)
    from gecedit.labels import read_labeled
    from gecedit.tagger import FeatureEncoder

    with open(args.data, encoding="utf-8") as fp:
        dataset = list(read_labeled(fp))
    if not dataset:
        raise DataError(f"{args.data}: no training examples")
    model = MultiHeadModel(
        tagset,
        FeatureEncoder(dim=args.dim),
        lam=getattr(args, "lambda"),
        heads=args.heads,
    )
    history = train(
        model,
        dataset,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
        optimizer=args.optimizer,
    )
    save_model(model, args.out)
    print(
        json.dumps(
            {"examples": len(dataset), "epochs": args.epochs, "final_loss": history[-1]},
            sort_keys=True,
        )
    )
    return EXIT_OK


# -- predict -----------------------------------------------------------------

def _init_predict(model_path, verbs, plurals, iters, keep_bias, min_error_prob):
    _G["model"] = load_model(model_path)
    _G["lexicon"] = load_lexicon(verbs, plurals)
    _G["iters"] = iters
    _G["keep_bias"] = keep_bias
    _G["min_error_prob"] = min_error_prob


def _predict_line(item):
    _lineno, line = item
    tokens = tokenize(line)
    if not tokens:
        return ""
    model = _G["model"]

    def predictor(toks):
        return predict_tags(model, toks, _G["keep_bias"], _G["min_error_prob"])

    out, _iters = refine(tokens, predictor, _G["iters"], _G["lexicon"])
    return detokenize(out)


def _cmd_predict(args) -> int:
    items = _numbered_lines(args.inp)
    with open(args.out, "w", encoding="utf-8") as out:
        for line in _map_ordered(
            _predict_line,
            items,
            args.workers,
            _init_predict,
            (
                str(args.model),
                args.lexicon,
                args.plurals,
                args.iters,
                args.keep_bias,
                args.min_error_prob,
            ),
        ):
            out.write(line + "\n")
    return EXIT_OK


# -- score -------------------------------------------------------------------

def _score_line(item):
    lineno, src_line, hyp_line, ref_line = item
    src = tokenize(src_line)
    if not src:
        raise DataError(f"{_G['src_path']}:{lineno}: empty source sentence")
    hyp_edits = extract_spans(src, tokenize(hyp_line))
    ref_edits = extract_spans(src, tokenize(ref_line))
    return hyp_edits, ref_edits


def _init_score(src_path):
    _G["src_path"] = src_path


def _read_lines(path):
    with open(path, encoding="utf-8") as fp:
        return [line.rstrip("\n") for line in fp]


def _cmd_score(args) -> int:
    src_lines = _read_lines(args.src)
    hyp_lines = _read_lines(args.hyp)
    ref_files = [_read_lines(r) for r in args.ref]
    for name, lines in (("hyp", hyp_lines), *(("ref", r) for r in ref_files)):
        if len(lines) != len(src_lines):
            raise DataError(
                f"{name} stream has {len(lines)} lines, source has {len(src_lines)}"
            )
    report: dict = {"sentence_count": len(src_lines)}
    if args.metric in ("f05", "both"):
        acc = F05Accumulator()
        items = (
            (i + 1, s, h, r)
            for i, (s, h, r) in enumerate(zip(src_lines, hyp_lines, ref_files[0]))
        )
        for hyp_edits, ref_edits in _map_ordered(
            _score_line, items, args.workers, _init_score, (str(args.src),)
        ):
            acc.add(hyp_edits, ref_edits)
        report.update(acc.result())
    if args.metric in ("gleu", "both"):
        sources = [tokenize(s) for s in src_lines]
        hyps = [tokenize(h) for h in hyp_lines]
        refs = [[tokenize(r[i]) for r in ref_files] for i in range(len(src_lines))]
        report["GLEU"] = gleu(sources, hyps, refs, seed=args.seed)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


# -- coverage ----------------------------------------------------------------

def _coverage_line(item):
    _src, edits = _classified_pair(item)
    return dict(Counter(tag.family.value for tag in edits))


def _cmd_coverage(args) -> int:
    items = _numbered_lines(args.src_tgt)
    families: Counter = Counter()
    pairs = 0
    for counts in _map_ordered(
        _coverage_line,
        items,
        args.workers,
        _init_tag,
        (str(args.src_tgt), str(args.tagset), args.lexicon, args.plurals),
    ):
        families.update(counts)
        pairs += 1
    tokens = sum(families.values())
    edited = tokens - families.get("KEEP", 0)
    unknown = families.get("UNKNOWN", 0)
    report = {
        "pairs": pairs,
        "tokens": tokens,
        "edited": edited,
        "unknown": unknown,
        "unknown_rate": (unknown / edited) if edited else 0.0,
        "families": {fam.value: families.get(fam.value, 0) for fam in TagFamily},
    }
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


# -- parser ------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sub, lexicon_flag=True):
    sub.add_argument(
        "--workers",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="worker processes, capped at the number of cores; 1 forces sequential "
        "(default: all cores)",
    )
    if lexicon_flag:
        sub.add_argument("--lexicon", default=None, help="verb lexicon TSV (default: bundled)")
        sub.add_argument(
            "--plurals", default=None, help="irregular plural TSV (default: bundled)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gecedit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("tag", help="convert source<TAB>target pairs to labeled JSON lines")
    p.add_argument("--src-tgt", required=True, help="parallel corpus, source<TAB>target per line")
    p.add_argument("--tagset", default=str(default_tagset_path()), help="tagset file")
    p.add_argument("--out", required=True, help="output JSON-lines file")
    _add_common(p)
    p.set_defaults(func=_cmd_tag)

    p = subs.add_parser("apply", help="apply edit-tag sequences to sentences")
    p.add_argument("--src", required=True, help="source sentences, one per line")
    p.add_argument("--edits", required=True, help="space-separated tags, one line per sentence")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_apply)

    p = subs.add_parser("noise", help="corrupt clean sentences into corrupted<TAB>clean pairs")
    p.add_argument("--in", dest="inp", required=True, help="clean sentences, one per line")
    p.add_argument("--profile", default=str(default_profile_path()), help="noise profile file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the profile rng seed")
    p.add_argument("--stats", default=None, help="write realized operation counts (JSON)")
    _add_common(p)
    p.set_defaults(func=_cmd_noise)

    p = subs.add_parser("train-toy", help="train the desk-scale multi-head tagger")
    p.add_argument("--data", required=True, help="labeled JSON-lines file from `tag`")
    p.add_argument("--tagset", default=str(default_tagset_path()))
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--lambda", type=float, default=0.5, help="auxiliary loss weight")
    p.add_argument("--heads", type=int, choices=(5, 7), default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=4096, help="hashed feature dimension")
    p.add_argument("--optimizer", choices=("sgd", "adagrad"), default="adagrad")
    p.set_defaults(func=_cmd_train_toy)

    p = subs.add_parser("predict", help="tag and iteratively correct sentences with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iters", type=int, default=4, help="max refinement passes")
    p.add_argument("--keep-bias", type=float, default=0.0)
    p.add_argument("--min-error-prob", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=_cmd_predict)

    p = subs.add_parser("score", help="score hypotheses against references")
    p.add_argument("--src", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument(
        "--ref",
        required=True,
        action="append",
        help="reference file; repeat for multiple references: F0.5 uses only the "
        "first, GLEU samples among all of them",
    )
    p.add_argument("--metric", choices=("f05", "gleu", "both"), default="both")
    p.add_argument("--seed", type=int, default=0, help="GLEU reference-sampling seed")
    _add_common(p, lexicon_flag=False)
    p.set_defaults(func=_cmd_score)

    p = subs.add_parser("coverage", help="tag-family histogram and UNKNOWN rate of a corpus")
    p.add_argument("--src-tgt", required=True)
    p.add_argument("--tagset", default=str(default_tagset_path()))
    _add_common(p)
    p.set_defaults(func=_cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        DataError,
        CorpusFormatError,
        TagError,
        TagApplicationError,
        LexiconError,
        PatternDataError,
        ProfileError,
        ValueError,
        OSError,
    ) as exc:
        print(f"gecedit: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"gecedit: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
