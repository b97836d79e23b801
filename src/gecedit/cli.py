"""Batch command-line front end.

Every subcommand but ``train-toy`` and ``score``, which hold their whole
input, streams line-by-line, and each is deterministic given its flags and
seeds.  Line-parallel commands take ``--workers`` (order-preserving; the
output is byte-identical for any worker count).  Each command loads and
checks its shared inputs (tagset, lexicon, profile, model) before any worker
starts, so a bad file fails the command once instead of inside every worker.

A line command's workers return ``(line, counts)`` per input line, and
``_write_out`` writes the lines to ``--out`` in order and sums the counts.  A
command returns its summary, which ``main`` prints as one sorted-keys JSON line
on standard output (``tag`` its tag-family histogram and UNKNOWN rate,
``noise`` its realized operation counts); ``apply`` and ``predict`` have none.

Exit codes: 0 success; 1 usage error (a bad flag or flag value); 2 data
error, with ``file:line`` in the message where the fault has a line; 3
internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from collections import Counter
from functools import cache, partial
from itertools import chain, islice, zip_longest

from gecedit.core import (
    CorpusFormatError,
    detokenize,
    format_pair_line,
    parse_pair_line,
    read_lines,
    text_lines,
    tokenize,
)
from gecedit.edit2seq import edit2seq, refine
from gecedit.labels import derive_labels, from_json_line, to_json_line
from gecedit.lexicon import (
    default_plurals_path,
    default_profile_path,
    default_tagset_path,
    default_verbs_path,
    load_lexicon,
)
from gecedit.metrics import F05Accumulator, extract_spans, gleu
from gecedit.noiser import OPERATIONS, Noiser, ProfileError, load_profile
from gecedit.seq2edit import seq2edit
from gecedit.tags import EditTag, TagFamily, load_tagset
from gecedit.tagger import (
    FeatureEncoder,
    MultiHeadModel,
    load_model,
    predict_tags,
    save_model,
    train,
    weight_rows,
)

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


# The running command's shared inputs, read by the line functions; set only by
# _set_state, in this process and in each pool worker.
_G: dict = {}


def _set_state(state: dict) -> None:
    """Make ``state`` the shared inputs of the line functions; the pool initializer."""
    _G.clear()
    _G.update(state)


def _pool_size(workers: int, cpus: int | None, chunks: int) -> int:
    """Worker processes to start: the requested count, capped at the cores and
    at the number of ``_CHUNK``-line chunks in the input."""
    return max(1, min(workers, cpus or 1, chunks))


def _start_method(available: list[str]) -> str | None:
    """Pool start method: ``fork`` where offered, else the platform default."""
    return "fork" if "fork" in available else None


def _raise_after(items, exc):
    """``items``, then ``exc`` raised."""
    yield from items
    raise exc


def _map_ordered(func, items, workers, state):
    """The results of ``func`` over ``items``, in order, with ``state`` loaded
    and checked by the caller.  ``func`` maps a block of up to ``_CHUNK``
    items to the list of their results, in a pool or in this process alike.
    Forked workers inherit ``state``; other start methods pickle it once per
    worker.  A block yields its results only when all of them are made: a
    fault in a block, of its input or of ``func``, yields none of the block,
    whatever the worker count.  ``state`` is dropped when the map ends, on
    success or on error."""
    cpus = os.cpu_count()
    workers = _pool_size(workers, cpus, workers)  # the cores' cap alone, for now
    items = iter(items)
    if workers > 1:
        # Read ahead just far enough to tell how many workers the input keeps busy.
        head = []
        try:
            for item in islice(items, workers * _CHUNK):
                head.append(item)
        except ValueError as exc:  # a fault of the input itself
            # Raised again after the items before it, as a run without read-ahead does.
            workers, items = 1, _raise_after(head, exc)
        else:
            workers = _pool_size(workers, cpus, math.ceil(len(head) / _CHUNK))
            items = chain(head, items)
    blocks = iter(lambda: list(islice(items, _CHUNK)), [])
    _set_state(state)
    try:
        if workers > 1:
            ctx = multiprocessing.get_context(_start_method(multiprocessing.get_all_start_methods()))
            with ctx.Pool(workers, initializer=_set_state, initargs=(state,)) as pool:
                for results in pool.imap(func, blocks):
                    yield from results
        else:
            for block in blocks:
                yield from func(block)
    finally:
        _G.clear()


def _each(func, block):
    """``func`` over each item of a block: the block function of a line command."""
    return [func(item) for item in block]


def _write_out(path, results) -> tuple[int, Counter]:
    """Write the line of each ``(line, counts)`` result to ``path``, in order;
    the number of lines and the sum of their counts."""
    lines, counts = 0, Counter()
    with open(path, "w", encoding="utf-8") as out:
        for line, line_counts in results:
            out.write(line + "\n")
            counts.update(line_counts)
            lines += 1
    return lines, counts


def _numbered_lines(path):
    for lineno, line in enumerate(text_lines(path), start=1):
        yield lineno, line.rstrip("\n")


# -- tag ---------------------------------------------------------------------

def _tag_line(item):
    """The labeled JSON line of one numbered pair line and the family of each
    of its tags; errors carry file:line."""
    lineno, line = item
    try:
        src, tgt = parse_pair_line(line)
        if not src:
            raise CorpusFormatError("empty source sentence")
        edits = seq2edit(src, tgt, _G["lexicon"], _G["tagset"])
    except ValueError as exc:
        raise DataError(f"{_G['path']}:{lineno}: {exc}") from None
    return to_json_line(src, derive_labels(src, edits)), [tag.family.value for tag in edits]


def _cmd_tag(args) -> dict:
    state = {
        "path": str(args.src_tgt),
        "tagset": load_tagset(args.tagset),
        "lexicon": load_lexicon(args.lexicon, args.plurals),
    }
    items = _numbered_lines(args.src_tgt)
    lines = _map_ordered(partial(_each, _tag_line), items, args.workers, state)
    pairs, families = _write_out(args.out, lines)
    tokens = sum(families.values())
    edited = tokens - families["KEEP"]
    return {
        "pairs": pairs,
        "tokens": tokens,
        "edited": edited,
        "unknown": families["UNKNOWN"],
        "unknown_rate": (families["UNKNOWN"] / edited) if edited else 0.0,
        "families": {fam.value: families[fam.value] for fam in TagFamily},
    }


# -- apply -------------------------------------------------------------------

def _apply_line(item):
    lineno, src_line, edits_line = item
    # the source line is only tokenized, so a fault is the edits line's
    try:
        edits = [EditTag.parse(t) for t in edits_line.split()]
        out = edit2seq(tokenize(src_line), edits, _G["lexicon"])
    except ValueError as exc:
        raise DataError(f"{_G['edits_path']}:{lineno}: {exc}") from None
    return detokenize(out), ()


def _paired_lines(src_path, edits_path):
    pairs = zip_longest(text_lines(src_path), text_lines(edits_path))
    for lineno, (s, e) in enumerate(pairs, start=1):
        if s is None or e is None:
            short = src_path if s is None else edits_path
            raise DataError(f"{short}:{lineno}: file ended early")
        yield lineno, s.rstrip("\n"), e.rstrip("\n")


def _cmd_apply(args) -> None:
    state = {"edits_path": str(args.edits), "lexicon": load_lexicon(args.lexicon, args.plurals)}
    items = _paired_lines(args.src, args.edits)
    _write_out(args.out, _map_ordered(partial(_each, _apply_line), items, args.workers, state))


# -- noise -------------------------------------------------------------------

def _noise_line(item):
    idx, tokens = item
    corrupted, counts = _G["noiser"].corrupt(tokens, idx)
    return format_pair_line(corrupted, tokens), dict(counts)


def _cmd_noise(args) -> dict:
    profile = load_profile(args.profile)
    _check_out(args.out, profile.edit_dict_path,
               f"the edit_dict {profile.edit_dict_path} named by --profile {args.profile}")
    if args.seed is not None:
        profile.rng_seed = args.seed
    lexicon = load_lexicon(args.lexicon, args.plurals)
    try:
        state = {"noiser": Noiser(profile, lexicon=lexicon)}
    except ProfileError as exc:  # operations the profile turns on that cannot run
        raise DataError(f"{args.profile}: {exc}") from None
    blank = [0]

    def items():
        for idx, line in enumerate(text_lines(args.inp)):
            tokens = tokenize(line)
            if tokens:
                yield idx, tokens
            else:
                blank[0] += 1

    pairs = _map_ordered(partial(_each, _noise_line), items(), args.workers, state)
    sentences, realized = _write_out(args.out, pairs)
    return {
        "sentences": sentences,
        "skipped_blank": blank[0],
        "errors_total": sum(realized.values()),
        "operations": {name: realized[name] for name in OPERATIONS},
    }


# -- train-toy ---------------------------------------------------------------

def _memory_bytes() -> int | None:
    """The machine's physical memory in bytes, or None where the platform
    does not report it."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None
    return pages * size if pages > 0 and size > 0 else None


def _cmd_train_toy(args) -> dict:
    tagset = load_tagset(args.tagset)
    dataset = []
    for lineno, line in _numbered_lines(args.data):
        if line.strip():
            try:
                tokens, tags = from_json_line(line)
                if not tokens:
                    raise ValueError("a training example needs at least one token")
                for tag in tags:
                    tagset.id_of(tag)
            except ValueError as exc:
                raise DataError(f"{args.data}:{lineno}: {exc}") from None
            dataset.append((tokens, tags))
    if not dataset:
        raise DataError(f"{args.data}: no training examples")
    # Under memory overcommit the allocation may be granted; save_model would then
    # write every byte of it.
    rows = weight_rows(len(tagset), args.heads)
    size, memory = rows * args.dim * 8, _memory_bytes()
    if memory is not None and size > memory:
        raise DataError(
            f"--dim {args.dim}: cannot allocate the {rows} x {args.dim} weight matrix: "
            f"{size} bytes, more than the machine's {memory} bytes of memory"
        )
    try:
        model = MultiHeadModel(
            tagset,
            FeatureEncoder(dim=args.dim),
            lam=getattr(args, "lambda"),
            heads=args.heads,
        )
    except MemoryError as exc:
        raise DataError(f"--dim {args.dim}: {exc}") from None
    history = train(
        model,
        dataset,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
    )
    save_model(model, args.out)
    return {"examples": len(dataset), "epochs": args.epochs, "final_loss": history[-1]}


# -- predict -----------------------------------------------------------------

def _predict_block(lines):
    """The corrected text of a block of lines, refined in lockstep, each with no counts."""
    model = _G["model"]

    def predictor(sentences):
        return predict_tags(model, sentences, _G["keep_bias"], _G["min_error_prob"])

    outs, _passes = refine(list(map(tokenize, lines)), predictor, _G["iters"], _G["lexicon"])
    return [(detokenize(out), ()) for out in outs]


def _cmd_predict(args) -> None:
    state = {
        "model": load_model(args.model),
        "lexicon": load_lexicon(args.lexicon, args.plurals),
        "iters": args.iters,
        "keep_bias": args.keep_bias,
        "min_error_prob": args.min_error_prob,
    }
    _write_out(args.out, _map_ordered(_predict_block, text_lines(args.inp), args.workers, state))


# -- score -------------------------------------------------------------------

def _score_line(item):
    src, hyp_line, ref_line = item
    return extract_spans(src, tokenize(hyp_line)), extract_spans(src, tokenize(ref_line))


def _cmd_score(args) -> dict:
    src_lines = read_lines(args.src)
    hyp_lines = read_lines(args.hyp)
    ref_files = [read_lines(r) for r in args.ref]
    streams = (("hyp", args.hyp, hyp_lines), *(("ref", p, r) for p, r in zip(args.ref, ref_files)))
    for name, path, lines in streams:
        if len(lines) != len(src_lines):
            raise DataError(
                f"{path}: {name} stream has {len(lines)} lines, "
                f"source has {len(src_lines)} (--src {args.src})"
            )
    if not src_lines:
        raise DataError(f"{args.src}: no sentences")
    sources = [tokenize(s) for s in src_lines]
    for lineno, src in enumerate(sources, start=1):
        if not src:
            raise DataError(f"{args.src}:{lineno}: empty source sentence")
    report: dict = {"sentence_count": len(src_lines)}
    if args.metric in ("f05", "both"):
        acc = F05Accumulator()
        items = zip(sources, hyp_lines, ref_files[0])
        edits = _map_ordered(partial(_each, _score_line), items, args.workers, {})
        for hyp_edits, ref_edits in edits:
            acc.add(hyp_edits, ref_edits)
        report.update(acc.result())
    if args.metric in ("gleu", "both"):
        hyps = [tokenize(h) for h in hyp_lines]
        refs = [[tokenize(r[i]) for r in ref_files] for i in range(len(src_lines))]
        report["GLEU"] = gleu(sources, hyps, refs, seed=args.seed)
    return report


# -- parser ------------------------------------------------------------------

def _checked(convert, ok, rule: str):
    """An argparse type: ``convert`` the text, then require ``ok(value)``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_finite_float = _checked(float, math.isfinite, "a finite number")
_positive_float = _checked(_finite_float, lambda v: v > 0.0, "greater than 0")
_unit_float = _checked(_finite_float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _input(sub, flag, **kwargs):
    """Add an input file's flag to ``sub``, and list it among the inputs that
    ``--out`` may not name.  The list is a tuple, since every parse of the
    cached parser gets the same default object."""
    action = sub.add_argument(flag, **kwargs)
    sub.set_defaults(inputs=(*(sub.get_default("inputs") or ()), (flag, action.dest)))


class _OutIsInput(Exception):
    """``--out`` names an input of the command: a usage error."""


def _check_out(out, path, what: str) -> None:
    """Refuse an ``--out`` that is the input ``path``, described by ``what``:
    the same file, by device and inode, which opening ``--out`` would empty."""
    try:
        same = path is not None and os.path.samestat(os.stat(out), os.stat(path))
    except OSError:  # --out is not there yet, or the command reports an unreadable input
        return
    if same:
        raise _OutIsInput(f"--out {out} is the same file as {what}")


def _add_common(sub, lexicon_flag=True):
    sub.add_argument(
        "--workers",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="worker processes, capped at the number of cores; 1 forces sequential "
        "(default: all cores)",
    )
    if lexicon_flag:
        _input(sub, "--lexicon", default=str(default_verbs_path()),
               help="verb lexicon TSV (default: bundled)")
        _input(sub, "--plurals", default=str(default_plurals_path()),
               help="irregular plural TSV (default: bundled)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``gecedit`` parser, built on the first call and shared by every later
    one: ``main`` parses each call's argv with it.  Its defaults, the
    ``--workers`` core count and the bundled data paths, are fixed when it is
    built, once per process, as a one-shot ``gecedit`` process fixes them."""
    parser = _Parser(prog="gecedit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("tag", help="convert source<TAB>target pairs to labeled JSON lines")
    _input(p, "--src-tgt", required=True, help="parallel corpus, source<TAB>target per line")
    _input(p, "--tagset", default=str(default_tagset_path()), help="tagset file")
    p.add_argument("--out", required=True, help="output JSON-lines file")
    _add_common(p)
    p.set_defaults(func=_cmd_tag)

    p = subs.add_parser("apply", help="apply edit-tag sequences to sentences")
    _input(p, "--src", required=True, help="source sentences, one per line")
    _input(p, "--edits", required=True, help="space-separated tags, one line per sentence")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_apply)

    p = subs.add_parser("noise", help="corrupt clean sentences into corrupted<TAB>clean pairs")
    _input(p, "--in", dest="inp", required=True, help="clean sentences, one per line")
    _input(p, "--profile", default=str(default_profile_path()), help="noise profile file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the profile rng seed")
    _add_common(p)
    p.set_defaults(func=_cmd_noise)

    p = subs.add_parser(
        "train-toy",
        help="train the desk-scale multi-head tagger",
        description="Train the desk-scale multi-head tagger with Adagrad, its one update rule: "
        "one update per sentence, with a per-element accumulator of squared gradients. "
        "The model file holds no Adagrad state, so every run starts it afresh.",
    )
    _input(p, "--data", required=True, help="labeled JSON-lines file from `tag`")
    _input(p, "--tagset", default=str(default_tagset_path()))
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument(
        "--lambda",
        type=_unit_float,
        default=0.5,
        help="auxiliary loss weight; it shapes only the auxiliary rows, so it reaches "
        "predictions only through predict --min-error-prob",
    )
    p.add_argument(
        "--heads",
        type=int,
        choices=(5, 7),
        default=7,
        help="head count; like --lambda it reaches predictions only through "
        "predict --min-error-prob",
    )
    p.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "at least 0"), default=0)
    p.add_argument("--epochs", type=_positive_int, default=10)
    p.add_argument("--lr", type=_positive_float, default=0.5)
    p.add_argument(
        "--dim",
        type=_checked(int, lambda v: v >= 2, "at least 2"),
        default=4096,
        help="hashed feature dimension",
    )
    p.set_defaults(func=_cmd_train_toy)

    p = subs.add_parser("predict", help="tag and iteratively correct sentences with a model")
    _input(p, "--model", required=True)
    _input(p, "--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iters", type=_positive_int, default=4, help="max refinement passes")
    p.add_argument(
        "--keep-bias", type=_checked(_finite_float, lambda v: v > -1.0, "greater than -1"), default=0.0
    )
    p.add_argument(
        "--min-error-prob",
        type=_unit_float,
        default=0.0,
        help="in [0, 1]: a refinement pass keeps every token of a sentence whose highest "
        "detection-head error probability is below this; 0 (the default) never gates, "
        "1 gates almost every sentence",
    )
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "out"):  # score writes to standard output
            for flag, dest in args.inputs:
                path = getattr(args, dest)
                _check_out(args.out, path, f"{flag} {path}")
        summary = args.func(args)  # printed only when the whole command succeeds
        if summary is not None:
            print(json.dumps(summary, sort_keys=True))
    except _OutIsInput as exc:
        print(f"gecedit {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # every data error is a ValueError
        print(f"gecedit: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"gecedit: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
