"""Seeded input generation for the pipeline benchmark.

Everything here is a pure function of the workload seed and uses only the
standard library, so the inputs a version of gecedit receives do not depend
on that version: clean text is drawn from fixed word lists, and the labelled
training corpus and the held-out sources are corrupted and labelled by this
module's own rules, not by the program's noiser or tagger.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

PREPOSITIONS = (
    "of with at from into during including until against among throughout "
    "despite towards upon concerning to in for on by about like through over "
    "before between after since without under within along following across "
    "behind beyond plus except but up out around down off above near"
).split()
DETERMINERS = ("the", "a", "an", "that", "this")

# -- compact template task (train-toy / predict / score) ----------------------

SUBJECTS = (
    ("He", True), ("She", True), ("John", True), ("Mary", True),
    ("They", False), ("We", False), ("You", False), ("I", False),
)
# (verb lemma, 3rd-person form, preposition, determiner, noun): the
# preposition and determiner are fixed per pattern, so a model can learn them.
PATTERNS = (
    ("live", "lives", "in", "the", "city"),
    ("work", "works", "at", "the", "office"),
    ("go", "goes", "to", "the", "school"),
    ("stay", "stays", "at", "a", "hotel"),
    ("play", "plays", "with", "the", "team"),
    ("arrive", "arrives", "at", "the", "station"),
    ("walk", "walks", "through", "the", "park"),
    ("travel", "travels", "across", "the", "country"),
    ("look", "looks", "at", "this", "picture"),
    ("wait", "waits", "for", "the", "train"),
    ("sit", "sits", "under", "a", "tree"),
    ("meet", "meets", "with", "that", "group"),
    ("run", "runs", "along", "the", "river"),
    ("read", "reads", "about", "the", "war"),
)
TEMPLATE_ADJECTIVES = ("quiet", "small", "busy", "modern", "lovely", "famous")
MULTIREF_REFS = 3

VERB_TO_VBZ = "$TRANSFORM_VERB_VB_VBZ"
VERB_TO_VB = "$TRANSFORM_VERB_VBZ_VB"


def compact_tagset() -> list[str]:
    """About 100 tags: replace/append for every preposition and determiner."""
    tags = ["$KEEP", "$DELETE", "$UNKNOWN", VERB_TO_VBZ, VERB_TO_VB]
    for word in PREPOSITIONS + list(DETERMINERS):
        tags += [f"$REPLACE_{word}", f"$APPEND_{word}"]
    return tags


def _template_clause(rng: random.Random, third: bool) -> list[str]:
    verb, vbz, prep, det, noun = rng.choice(PATTERNS)
    clause = [vbz if third else verb, prep, det]
    if rng.random() < 0.4:
        clause.append(rng.choice(TEMPLATE_ADJECTIVES))
    return clause + [noun]


def template_sentence(rng: random.Random) -> list[str]:
    """'He lives in the quiet city .', sometimes with a second clause."""
    subject, third = rng.choice(SUBJECTS)
    tokens = [subject] + _template_clause(rng, third)
    if rng.random() < 0.35:
        tokens += ["and"] + _template_clause(rng, third)
    return tokens + ["."]


def template_errors(rng: random.Random, clean: list[str]) -> list[tuple[list, list, list]]:
    """Split ``clean`` into (clean tokens, source tokens, gold tags) segments.

    At most one error per clause: a wrong preposition or determiner, a
    dropped or doubled determiner, or a wrong verb agreement.  Applying a
    segment's gold tags to its source tokens gives its clean tokens back.
    """
    by_verb = {p[0]: p for p in PATTERNS} | {p[1]: p for p in PATTERNS}
    segments = []
    i = 0
    while i < len(clean):
        tok = clean[i]
        pattern = by_verb.get(tok)
        if pattern is None or rng.random() < 0.3:
            segments.append(([tok], [tok], ["$KEEP"]))
            i += 1
            continue
        verb, vbz, prep, det = pattern[:4]
        kind = rng.randrange(5)
        if kind == 0:  # agreement
            source = [vbz if tok == verb else verb, prep, det]
            tags = [VERB_TO_VB if tok == verb else VERB_TO_VBZ, "$KEEP", "$KEEP"]
        elif kind == 1:  # wrong preposition
            source = [tok, rng.choice([p for p in PREPOSITIONS if p != prep]), det]
            tags = ["$KEEP", f"$REPLACE_{prep}", "$KEEP"]
        elif kind == 2:  # wrong determiner
            source = [tok, prep, rng.choice([d for d in DETERMINERS if d != det])]
            tags = ["$KEEP", "$KEEP", f"$REPLACE_{det}"]
        elif kind == 3:  # dropped determiner
            source = [tok, prep]
            tags = ["$KEEP", f"$APPEND_{det}"]
        else:  # doubled determiner
            source = [tok, prep, det, det]
            tags = ["$KEEP", "$KEEP", "$KEEP", "$DELETE"]
        segments.append((clean[i:i + 3], source, tags))
        i += 3
    return segments


def corrupt_template(rng: random.Random, clean: list[str]) -> tuple[list[str], list[str]]:
    """An errorful source for ``clean`` and the gold tags that correct it."""
    segments = template_errors(rng, clean)
    return [t for _c, s, _t in segments for t in s], [t for _c, _s, ts in segments for t in ts]


def system_output(rng: random.Random, segments, fixed_share: float = 0.6) -> list[str]:
    """A simulated correction that fixes about ``fixed_share`` of the errors."""
    out: list[str] = []
    for clean, source, _tags in segments:
        out += clean if clean != source and rng.random() < fixed_share else source
    return out


_STREAM_OF_FAMILY = {
    "DELETE": "deletion",
    "APPEND": "insertion",
    "REPLACE": "substitution",
    "MERGE": "merge",
    "TRANSFORM": "transformation",
    "SUFFIXTRANSFORM": "transformation",
}
_STREAMS = ("deletion", "insertion", "substitution", "merge", "transformation", "detection")


def label_line(tokens: list[str], tags: list[str]) -> str:
    """One line of the labelled JSON-lines format that ``train-toy`` reads."""
    obj: dict = {"tokens": tokens, "correction": tags}
    for name in _STREAMS:
        obj[name] = [0] * len(tags)
    for i, tag in enumerate(tags):
        family = tag[1:].split("_", 1)[0]
        if family == "KEEP":
            continue
        obj["detection"][i] = 1
        if family in _STREAM_OF_FAMILY:
            obj[_STREAM_OF_FAMILY[family]][i] = 1
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def reference_variants(rng: random.Random, clean: list[str], n_refs: int) -> list[list[str]]:
    """``clean`` plus n_refs - 1 alternative references (adjective edits)."""
    refs = [clean]
    for _ in range(n_refs - 1):
        alt = list(clean)
        adjectives = [i for i, t in enumerate(alt) if t in TEMPLATE_ADJECTIVES]
        if adjectives and rng.random() < 0.5:
            del alt[rng.choice(adjectives)]
        else:
            nouns = [i for i, t in enumerate(alt) if t in {p[4] for p in PATTERNS}]
            alt.insert(rng.choice(nouns), rng.choice(TEMPLATE_ADJECTIVES))
        refs.append(alt)
    return refs


# -- mixed-length open-vocabulary text (noise / tag) --------------------------

NOUNS = (
    "city house school office team station morning evening book letter "
    "picture friend teacher student child man woman country river road "
    "window garden village market problem question answer idea system "
    "company family story table door week year day analysis crisis"
).split()
PLURALS = {"child": "children", "man": "men", "woman": "women",
           "analysis": "analyses", "crisis": "crises", "family": "families",
           "company": "companies", "story": "stories", "country": "countries",
           "city": "cities", "day": "days", "box": "boxes"}
VERBS = (
    ("live", "lived", "living", "lived", "lives"),
    ("work", "worked", "working", "worked", "works"),
    ("go", "went", "going", "gone", "goes"),
    ("write", "wrote", "writing", "written", "writes"),
    ("meet", "met", "meeting", "met", "meets"),
    ("move", "moved", "moving", "moved", "moves"),
    ("run", "ran", "running", "run", "runs"),
    ("accept", "accepted", "accepting", "accepted", "accepts"),
    ("agree", "agreed", "agreeing", "agreed", "agrees"),
    ("add", "added", "adding", "added", "adds"),
)
ADJECTIVES = (
    "quiet small busy modern lovely famous ancient angry beautiful big bright "
    "careful clean clear cold dark deep early easy fresh great happy hard high "
    "huge kind large late long loud new nice old poor quick rich sad slow soft "
    "strange strong tall warm weak wide young"
).split()
PRONOUNS = ("he", "she", "they", "we", "you", "I", "it")
CONJUNCTIONS = ("and", "but", "because", "when", ",")


def _noun_phrase(rng: random.Random) -> list[str]:
    noun = rng.choice(NOUNS)
    if rng.random() < 0.3:
        noun = PLURALS.get(noun, noun + "s")
    phrase = [rng.choice(DETERMINERS)]
    if rng.random() < 0.5:
        phrase.append(rng.choice(ADJECTIVES))
    return phrase + [noun]


def _mixed_clause(rng: random.Random) -> list[str]:
    subject = [rng.choice(PRONOUNS)] if rng.random() < 0.4 else _noun_phrase(rng)
    clause = subject + [rng.choice(rng.choice(VERBS))]
    if rng.random() < 0.3:
        clause.append(rng.choice(ADJECTIVES) + "ly")
    for _ in range(rng.randrange(3)):
        clause += [rng.choice(PREPOSITIONS[:25])] + _noun_phrase(rng)
    return clause


def mixed_sentence(rng: random.Random, length: int) -> list[str]:
    """Clauses joined by conjunctions, cut to ``length`` tokens."""
    tokens = _mixed_clause(rng)
    while len(tokens) < length - 1:
        tokens += [rng.choice(CONJUNCTIONS)] + _mixed_clause(rng)
    return tokens[: length - 1] + ["."]


def spread_lengths(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    """n lengths spaced evenly over [low, high], shuffled.

    Alignment cost grows with n*m, so drawing lengths at random would make
    the cost of a small corpus depend on the seed more than on the program.
    """
    lengths = [low + (high - low) * i // max(n - 1, 1) for i in range(n)]
    rng.shuffle(lengths)
    return lengths


def edit_pair(rng: random.Random, clean: list[str]) -> tuple[list[str], list[str]]:
    """(corrupted, clean) with a few token drops, duplicates, swaps and typos."""
    out = list(clean)
    for _ in range(1 + rng.randrange(3)):
        k = rng.randrange(len(out))
        op = rng.randrange(4)
        if op == 0 and len(out) > 2:
            del out[k]
        elif op == 1:
            out.insert(k, out[k])
        elif op == 2 and k + 1 < len(out):
            out[k], out[k + 1] = out[k + 1], out[k]
        else:
            word = out[k]
            j = rng.randrange(len(word))
            out[k] = word[:j] + word[j + 1:] + word[j] if len(word) > 1 else word + "s"
    return out, clean


# -- files ----------------------------------------------------------------------


# Every inventory-backed noise operation, at a high error rate.
DENSE_PROFILE = "expected_errors = 3.0\nrng_seed = 0\n" + "".join(
    f"{op} = 1.0\n"
    for op in (
        "type_preposition type_determiner type_verbform type_noun_number type_pos "
        "ngram_swap ngram_insert ngram_delete ngram_replace char_pattern "
        "vowel_swap similar_sound adjective_adverb"
    ).split()
)

# Preposition, determiner and verb-form errors.  The compact tagset has only
# the two agreement rewrites, so most verb-form errors end up as $UNKNOWN.
TEMPLATE_PROFILE = (
    "expected_errors = 1.5\nrng_seed = 0\n"
    "type_preposition = 1.0\ntype_determiner = 1.0\ntype_verbform = 1.0\n"
)


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_shared(workdir: Path, noise_text: str) -> dict[str, Path]:
    """The noise profile and the compact tagset, shared by all chunks."""
    workdir.mkdir(parents=True, exist_ok=True)
    files = {"profile": workdir / "noise.profile", "compact_tagset": workdir / "compact.tagset"}
    profile = DENSE_PROFILE if noise_text == "mixed" else TEMPLATE_PROFILE
    files["profile"].write_text(profile, encoding="utf-8")
    _write_lines(files["compact_tagset"], compact_tagset())
    return files


def write_chunk(workdir: Path, sizes, rng: random.Random) -> dict[str, Path]:
    """Write one chunk of a workload's inputs; returns the files by role.

    ``sizes`` has the attributes ``noise_text`` ("mixed" or "template"),
    ``noise_lines``, ``train_lines``, ``heldout_lines`` and ``multiref_lines``.
    The held-out sources go to ``predict`` and have one reference; the
    multi-reference set pairs sources with simulated corrections and three
    references each.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    files = {
        "clean": workdir / "clean.txt",
        "train": workdir / "train.jsonl",
        "heldout_src": workdir / "heldout.src",
        "heldout_ref": workdir / "heldout.ref",
    }
    if sizes.noise_text == "mixed":
        clean = [mixed_sentence(rng, n) for n in spread_lengths(rng, sizes.noise_lines, 6, 40)]
    else:
        clean = [template_sentence(rng) for _ in range(sizes.noise_lines)]
    _write_lines(files["clean"], (" ".join(tokens) for tokens in clean))

    train = []
    for _ in range(sizes.train_lines):
        source, tags = corrupt_template(rng, template_sentence(rng))
        train.append(label_line(source, tags))
    _write_lines(files["train"], train)

    heldout = []
    for _ in range(sizes.heldout_lines):
        tokens = template_sentence(rng)
        heldout.append((" ".join(corrupt_template(rng, tokens)[0]), " ".join(tokens)))
    _write_lines(files["heldout_src"], (src for src, _ref in heldout))
    _write_lines(files["heldout_ref"], (ref for _src, ref in heldout))

    if sizes.multiref_lines:
        rows = []
        for _ in range(sizes.multiref_lines):
            tokens = template_sentence(rng)
            segments = template_errors(rng, tokens)
            rows.append([
                " ".join(t for _c, src, _t in segments for t in src),
                " ".join(system_output(rng, segments)),
                *(" ".join(r) for r in reference_variants(rng, tokens, MULTIREF_REFS)),
            ])
        names = ["multiref_src", "multiref_hyp"]
        names += [f"multiref_ref{k}" for k in range(MULTIREF_REFS)]
        for column, name in enumerate(names):
            files[name] = workdir / name.replace("_", ".")
            _write_lines(files[name], (row[column] for row in rows))
    return files
