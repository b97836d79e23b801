"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import random
import time
from collections import Counter

import numpy as np
import pytest

from gecedit.cli import main as cli_main
from gecedit.edit2seq import refine
from gecedit.labels import derive_labels, streams
from gecedit.metrics import f_beta, gleu
from gecedit.noiser import NoiseProfile, Noiser
from gecedit.seq2edit import seq2edit
from gecedit.tags import (
    SUFFIX_NAMES,
    TRANSFORM_NAMES,
    EditTag,
    TagFamily,
    TagSet,
)
from gecedit.tagger import (
    FeatureEncoder,
    MultiHeadModel,
    gradient_check,
    head_losses,
    predict_tags,
    total_loss,
    train,
)

from corpus_util import make_compound_corpus, make_corpus, vocabulary
from test_metrics import oracle_gleu_single
from test_tagger import forward

T = EditTag.parse


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} PASS: {message}", flush=True)


# Profile whose reverse edits touch each source token at most once and stay
# inside the default tagset (ngram_delete needs a second pass, so it is out).
SINGLE_EDIT_OPS = {
    "type_preposition": 1.0,
    "type_determiner": 1.0,
    "type_verbform": 1.0,
    "type_noun_number": 1.0,
    "type_pos": 1.0,
    "ngram_swap": 1.0,
    "ngram_insert": 1.0,
    "ngram_replace": 1.0,
    "char_pattern": 1.0,
    "vowel_swap": 1.0,
    "similar_sound": 1.0,
    "adjective_adverb": 1.0,
}


def test_criterion_01_roundtrip_exactness(lexicon, default_tagset, tmp_path):
    for token in sorted(vocabulary()):
        assert f"$REPLACE_{token}" in default_tagset, f"template vocab {token} uncovered"
    n_pairs = 10_000
    noiser = Noiser(
        NoiseProfile(SINGLE_EDIT_OPS, expected_errors=1.5, rng_seed=101), lexicon=lexicon
    )
    corpus = make_corpus(n_pairs, seed=77)
    pairs_path = tmp_path / "pairs.tsv"
    with open(pairs_path, "w") as fp:
        for i, clean in enumerate(corpus):
            corrupted, _ = noiser.corrupt(clean, i)
            fp.write(" ".join(corrupted) + "\t" + " ".join(clean) + "\n")

    # the real `tag` and `apply` commands, single-threaded and timed
    labels = tmp_path / "labels.jsonl"
    src = tmp_path / "src.txt"
    edits = tmp_path / "edits.txt"
    hyp = tmp_path / "hyp.txt"
    start = time.perf_counter()
    assert cli_main(["tag", "--src-tgt", str(pairs_path), "--out", str(labels),
                     "--workers", "1"]) == 0
    with open(labels) as fp, open(src, "w") as fs, open(edits, "w") as fe:
        for line in fp:
            obj = json.loads(line)
            fs.write(" ".join(obj["tokens"]) + "\n")
            fe.write(" ".join(obj["correction"]) + "\n")
    assert cli_main(["apply", "--src", str(src), "--edits", str(edits), "--out", str(hyp),
                     "--workers", "1"]) == 0
    elapsed = time.perf_counter() - start

    targets = [line.split("\t")[1] for line in pairs_path.read_text().splitlines()]
    restored = hyp.read_text().splitlines()
    edit_lines = edits.read_text().splitlines()
    assert len(restored) == len(targets) == n_pairs

    edited = unknown = 0
    exact = clean_pairs = 0
    for i, line in enumerate(edit_lines):
        tags = line.split()
        edited += sum(t != "$KEEP" for t in tags)
        n_unknown = sum(t == "$UNKNOWN" for t in tags)
        unknown += n_unknown
        if n_unknown == 0:
            clean_pairs += 1
            exact += restored[i] == targets[i]

    assert clean_pairs > 0
    assert exact == clean_pairs, f"{clean_pairs - exact} UNKNOWN-free pairs failed roundtrip"
    unknown_rate = unknown / edited if edited else 0.0
    assert unknown_rate <= 0.05, f"UNKNOWN rate {unknown_rate:.4f} > 5%"
    assert elapsed <= 60.0, f"tag->apply took {elapsed:.1f}s"
    report(
        1,
        f"{exact}/{clean_pairs} UNKNOWN-free pairs exact over {n_pairs} pairs, "
        f"UNKNOWN rate {unknown_rate:.4%}, tag+apply {elapsed:.1f}s single-threaded",
    )


def test_criterion_02_length_contract(lexicon, default_tagset):
    rng = random.Random(5)
    vocab = sorted(vocabulary()) + ["over", "all", "overall", "well", "known", "well-known"]
    checked = 0
    for _ in range(1000):
        src = [rng.choice(vocab) for _ in range(rng.randrange(1, 10))]
        tgt = []
        i = 0
        while i < len(src):
            roll = rng.random()
            if roll < 0.15:
                pass  # delete: empty target span
            elif roll < 0.25 and i + 1 < len(src):
                tgt.append(src[i] + src[i + 1])  # merge case
                i += 1
            elif roll < 0.35:
                tgt.append(rng.choice(vocab))
            else:
                tgt.append(src[i])
            if rng.random() < 0.10:
                tgt.append(rng.choice(vocab))
            i += 1
        if rng.random() < 0.05:
            tgt = []
        edits = seq2edit(src, tgt, lexicon, default_tagset)
        assert len(edits) == len(src), (src, tgt)
        checked += 1
    report(2, f"|seq2edit(x,y)| == |x| on all {checked} random pairs")


def test_criterion_03_iterative_convergence(lexicon, default_tagset):
    rng = random.Random(31)
    fillers = ["very", "same", "other", "own", "more", "such"]
    assert all(f"$APPEND_{f}" in default_tagset for f in fillers)
    base = make_corpus(100, seed=55, with_adjective=False)
    converged = 0
    for sentence in base:
        k = rng.randrange(1, 4)  # 1..3 consecutive insertions
        pos = rng.randrange(1, len(sentence))
        target = sentence[:pos] + rng.sample(fillers, k) + sentence[pos:]
        source = list(sentence)

        def predictor(sentences, target=target):
            return [seq2edit(toks, target, lexicon, default_tagset) for toks in sentences]

        [out], iters = refine([source], predictor, 4, lexicon)
        assert out == target, (source, target, out)
        assert iters <= 4
        converged += 1
    report(3, f"{converged}/100 multi-insertion pairs converged within 4 iterations")


def test_criterion_04_tagset_fidelity(default_tagset):
    expected = ["$KEEP", "$DELETE", "$UNKNOWN", "$MERGE_HYPHEN", "$MERGE_SPACE"]
    expected += [f"$TRANSFORM_{name}" for name in TRANSFORM_NAMES]
    expected += [f"$SUFFIXTRANSFORM_{name}" for name in SUFFIX_NAMES]
    spot = [
        "$MERGE_HYPHEN",
        "$TRANSFORM_SPLIT_HYPHEN",
        "$SUFFIXTRANSFORM_Y_TO_ILY",
        "$SUFFIXTRANSFORM_REMOVE_ness",
        "$SUFFIXTRANSFORM_APPEND_wise",
    ]
    verb_pairs = [n for n in TRANSFORM_NAMES if n.startswith("VERB_")]
    assert len(verb_pairs) == 20
    spot += [f"$TRANSFORM_{name}" for name in verb_pairs]
    missing = [tag for tag in expected + spot if tag not in default_tagset]
    assert not missing, f"missing tags: {missing}"
    report(4, f"all {len(set(expected))} named tags present (incl. 20 verb-form pairs)")


def test_criterion_05_label_stream_consistency():
    rng = random.Random(17)
    type_streams = ("deletion", "insertion", "substitution", "merge", "transformation")

    def random_tag():
        roll = rng.random()
        if roll < 0.40:
            return T("$KEEP")
        if roll < 0.50:
            return T("$DELETE")
        if roll < 0.60:
            return EditTag(TagFamily.APPEND, rng.choice(["a", "the", "x"]))
        if roll < 0.70:
            return EditTag(TagFamily.REPLACE, rng.choice(["b", "of", "y"]))
        if roll < 0.78:
            return EditTag(TagFamily.MERGE, rng.choice(["SPACE", "HYPHEN"]))
        if roll < 0.88:
            return EditTag(TagFamily.TRANSFORM, rng.choice(TRANSFORM_NAMES))
        if roll < 0.95:
            return EditTag(TagFamily.SUFFIXTRANSFORM, rng.choice(SUFFIX_NAMES))
        return T("$UNKNOWN")

    violations = 0
    for _ in range(10_000):
        n = rng.randrange(1, 9)
        tags = [random_tag() for _ in range(n)]
        labels = streams(derive_labels(["w"] * n, tags))
        detection = labels["detection"]
        types = [labels[s] for s in type_streams]
        for i, tag in enumerate(tags):
            active = sum(s[i] for s in types)
            if active > 1:
                violations += 1
            if tag.family is TagFamily.UNKNOWN:
                if detection[i] != 1 or active != 0:
                    violations += 1
            elif detection[i] != min(active, 1):
                violations += 1
    assert violations == 0
    report(5, "10,000 derived label sets: detection==OR of type streams, <=1 active")


def test_criterion_06_noiser_distribution(lexicon, patterns, default_tagset):
    # (a) prepositions-only profile: every realized edit is a preposition swap
    noiser = Noiser(
        NoiseProfile({"type_preposition": 1.0}, expected_errors=1.5, rng_seed=3),
        lexicon=lexicon,
    )
    preps = set(patterns.prepositions)
    corpus = make_corpus(3000, seed=13)
    checked_edits = 0
    for i, clean in enumerate(corpus):
        corrupted, _ = noiser.corrupt(clean, i)
        for tag in seq2edit(corrupted, clean, lexicon, default_tagset):
            if tag.family is TagFamily.KEEP:
                continue
            checked_edits += 1
            assert tag.family in (TagFamily.REPLACE, TagFamily.APPEND), tag.render()
            assert tag.payload in preps, tag.render()
    assert checked_edits > 1000

    # (b) uniform 5-operation profile over 1e5 sentences: +-10% relative
    ops = ["type_preposition", "type_determiner", "type_verbform", "ngram_swap", "similar_sound"]
    uniform = Noiser(
        NoiseProfile({op: 1.0 for op in ops}, expected_errors=1.0, rng_seed=29),
        lexicon=lexicon,
    )
    realized: Counter = Counter()
    for i, clean in enumerate(make_compound_corpus(100_000, seed=4)):
        _, counts = uniform.corrupt(clean, i)
        realized.update(counts)
    total = sum(realized.values())
    worst = 0.0
    for op in ops:
        share = realized[op] / total
        rel = abs(share - 0.2) / 0.2
        worst = max(worst, rel)
        assert rel < 0.10, (op, share)
    report(
        6,
        f"prepositions-only: {checked_edits} edits all preposition swaps; "
        f"uniform 5-op over 1e5 sentences within +-10% (worst {worst:.1%})",
    )


def _random_model(tagset, dim, lam, seed):
    model = MultiHeadModel(tagset, FeatureEncoder(dim=dim), lam=lam)
    rng = np.random.default_rng(seed)
    for name in model.head_names:
        model.W[name][...] = rng.normal(0.0, 0.5, size=model.W[name].shape)
    return model


def test_criterion_07_loss_correctness():
    tagset = TagSet(
        ["$KEEP", "$DELETE", "$UNKNOWN", "$REPLACE_a", "$REPLACE_b", "$APPEND_c", "$MERGE_SPACE"]
    )
    tokens1 = ["u", "v", "w", "u"]
    edits1 = [T("$KEEP"), T("$REPLACE_a"), T("$DELETE"), T("$APPEND_c")]
    tokens2 = ["p", "q"]
    edits2 = [T("$MERGE_SPACE"), T("$KEEP")]
    batch = [
        (tokens1, derive_labels(tokens1, edits1)),
        (tokens2, derive_labels(tokens2, edits2)),
    ]
    worst = 0.0
    for seed in range(20):
        model = _random_model(tagset, dim=40, lam=0.5, seed=seed)
        worst = max(worst, gradient_check(model, batch))
    assert worst < 1e-4, worst

    model = _random_model(tagset, dim=40, lam=0.5, seed=99)
    losses = head_losses(model, batch)
    aux_sum = sum(losses[name] for name in model.aux_heads)
    max_dev = 0.0
    for lam in (0.0, 0.25, 0.3, 0.5, 1.0):
        model.lam = lam
        dev = abs(total_loss(model, batch) - (losses["correction"] + lam * aux_sum))
        max_dev = max(max_dev, dev)
    assert max_dev < 1e-9
    report(
        7,
        f"gradient check worst rel. error {worst:.2e} over 20 models; "
        f"lambda affinity holds to {max_dev:.1e}",
    )


def _toy_task(lexicon, tagset, n, corpus_seed):
    profile = NoiseProfile(
        {"type_preposition": 1.0, "type_determiner": 1.0},
        expected_errors=1.0,
        rng_seed=corpus_seed,
    )
    noiser = Noiser(profile, lexicon=lexicon)
    data = []
    for i, clean in enumerate(make_corpus(n, seed=corpus_seed, with_adjective=False)):
        corrupted, _ = noiser.corrupt(clean, i)
        edits = seq2edit(corrupted, clean, lexicon, tagset)
        data.append((corrupted, derive_labels(corrupted, edits)))
    return data


def test_criterion_08_toy_training(lexicon, patterns):
    tags = ["$KEEP", "$DELETE", "$UNKNOWN"]
    for w in [p for p in patterns.prepositions if p] + [d for d in patterns.determiners if d]:
        tags.append(f"$REPLACE_{w}")
        tags.append(f"$APPEND_{w}")
    tagset = TagSet(tags)

    start = time.perf_counter()
    train_data = _toy_task(lexicon, tagset, 2000, corpus_seed=8)
    held_out = _toy_task(lexicon, tagset, 400, corpus_seed=9)

    model = MultiHeadModel(tagset, FeatureEncoder(dim=2048), lam=0.5, heads=7)
    train(model, train_data, epochs=8, lr=0.5, seed=12)

    correct = total = 0
    predictions = predict_tags(model, [tokens for tokens, _ in held_out])
    for predicted, (_, tags) in zip(predictions, held_out):
        for tag, gold in zip(predicted, tags):
            total += 1
            correct += tag == gold
    elapsed = time.perf_counter() - start
    accuracy = correct / total
    assert accuracy >= 0.95, accuracy
    assert elapsed <= 60.0, elapsed

    model2 = MultiHeadModel(tagset, FeatureEncoder(dim=2048), lam=0.5, heads=7)
    train(model2, train_data, epochs=8, lr=0.5, seed=12)
    for name in model.head_names:
        assert np.array_equal(model.W[name], model2.W[name])
    report(
        8,
        f"7-head toy model: {accuracy:.2%} held-out token accuracy in {elapsed:.1f}s; "
        "retrain with same seed is bit-identical",
    )


def test_criterion_09_inference_tweaks(lexicon, patterns):
    tagset = TagSet(
        ["$KEEP", "$DELETE", "$UNKNOWN", "$REPLACE_in", "$REPLACE_at", "$APPEND_the"]
    )
    model = _random_model(tagset, dim=64, lam=0.5, seed=1)
    sample = make_corpus(100, seed=21)
    keep = tagset.tag_of(tagset.keep_id)
    plain_differs = 0
    for tokens in sample:
        assert predict_tags(model, [tokens], min_error_prob=1.0) == [[keep] * len(tokens)]
        assert predict_tags(model, [tokens], keep_bias=1.0) == [[keep] * len(tokens)]
        assert predict_tags(model, [tokens], keep_bias=5.0) == [[keep] * len(tokens)]
        probs = forward(model, tokens)["correction"]
        plain = [tagset.tag_of(int(i)) for i in probs.argmax(axis=1)]
        assert predict_tags(model, [tokens], 0.0, 0.0) == [plain]
        plain_differs += plain != [keep] * len(tokens)
    assert plain_differs > 0  # the tweaks are doing real work in this sample
    report(9, "tweak dominance and plain-argmax equivalence hold on all 100 sentences")


def test_criterion_10_metric_reproduction():
    f05 = f_beta(0.744, 0.523)
    assert abs(f05 - 0.686) <= 0.001

    sent = "the cat sat on the mat .".split()
    assert gleu([sent], [sent], [[sent]]) == pytest.approx(1.0, abs=1e-12)

    sources = ["He go to school every day .".split(), "I am very hapy today .".split()]
    hyps = ["He goes to school every day .".split(), "I am very happy now .".split()]
    refs = ["He goes to school every day .".split(), "I am very happy today .".split()]
    ours = gleu(sources, hyps, [[r] for r in refs])
    oracle = oracle_gleu_single(sources, hyps, refs)
    assert ours == pytest.approx(oracle, abs=1e-9)
    report(
        10,
        f"F0.5(0.744, 0.523)={f05:.4f}; GLEU identity=1.0; "
        f"micro-corpus GLEU matches oracle to 1e-9 ({ours:.6f})",
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    clean = tmp_path / "clean.txt"
    clean.write_text("".join(" ".join(s) + "\n" for s in make_corpus(80, seed=2)))
    profile = tmp_path / "p.profile"
    profile.write_text(
        "type_preposition = 1.0\ntype_determiner = 1.0\nexpected_errors = 1.0\nrng_seed = 6\n"
    )
    tagset_path = tmp_path / "small.tagset"
    tags = ["$KEEP", "$DELETE", "$UNKNOWN", "$MERGE_HYPHEN", "$MERGE_SPACE"]
    for w in ("in", "at", "to", "with", "for", "on", "by", "the", "a", "an", "this", "that"):
        tags.append(f"$REPLACE_{w}")
        tags.append(f"$APPEND_{w}")
    tagset_path.write_text("".join(t + "\n" for t in tags))

    def run(args):
        assert cli_main([str(a) for a in args]) == 0
        return capsys.readouterr().out

    outputs = {}
    for run_id, workers in (("r1", 1), ("r2", 1), ("r3", 2)):
        pairs = tmp_path / f"pairs_{run_id}.tsv"
        labels = tmp_path / f"labels_{run_id}.jsonl"
        model = tmp_path / f"model_{run_id}.bin"
        src = tmp_path / f"src_{run_id}.txt"
        edits = tmp_path / f"edits_{run_id}.txt"
        hyp = tmp_path / f"hyp_{run_id}.txt"
        pred = tmp_path / f"pred_{run_id}.txt"

        noise_out = run(["noise", "--in", clean, "--profile", profile, "--out", pairs,
                         "--seed", 7, "--workers", workers])
        tag_out = run(["tag", "--src-tgt", pairs, "--tagset", tagset_path, "--out", labels,
                       "--workers", workers])
        with open(labels) as fp, open(src, "w") as fs, open(edits, "w") as fe:
            for line in fp:
                obj = json.loads(line)
                fs.write(" ".join(obj["tokens"]) + "\n")
                fe.write(" ".join(obj["correction"]) + "\n")
        run(["apply", "--src", src, "--edits", edits, "--out", hyp, "--workers", workers])
        run(["train-toy", "--data", labels, "--tagset", tagset_path, "--out", model,
             "--epochs", 3, "--dim", 512, "--seed", 4])
        run(["predict", "--model", model, "--in", src, "--out", pred, "--workers", workers])
        ref = tmp_path / "ref.txt"
        ref.write_text("".join(line.split("\t")[1] + "\n" for line in pairs.read_text().splitlines()))
        score_out = run(["score", "--src", src, "--hyp", hyp, "--ref", ref,
                         "--metric", "both", "--seed", 3, "--workers", workers])
        outputs[run_id] = (
            pairs.read_bytes(),
            noise_out,
            labels.read_bytes(),
            tag_out,
            hyp.read_bytes(),
            model.read_bytes(),
            pred.read_bytes(),
            score_out,
        )

    assert outputs["r1"] == outputs["r2"], "rerun with identical flags differs"
    assert outputs["r1"] == outputs["r3"], "worker count changed the output"
    report(11, "noise/tag/apply/train-toy/predict/score outputs and stdout byte-identical across reruns and workers 1 vs 2")
