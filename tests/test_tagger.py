import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gecedit.cli import main
from gecedit.edit2seq import edit2seq, refine
from gecedit.labels import BINARY_STREAMS, derive_labels, streams
from gecedit import tagger
from gecedit.noiser import NoiseProfile, Noiser
from gecedit.seq2edit import seq2edit
from gecedit.tags import EditTag, TagFamily, TagSet
from gecedit.tagger import (
    _CLIP,
    AUX_HEADS_5,
    FEATURE_TEMPLATES_V1,
    EncodedBlock,
    FeatureEncoder,
    MultiHeadModel,
    ScatterPlan,
    TrainingDivergedError,
    _hash_feature,
    gradient_check,
    grad_total_loss,
    head_losses,
    load_model,
    predict_tags,
    save_model,
    total_loss,
    train,
)

from corpus_util import make_compound_corpus, make_corpus

T = EditTag.parse


SMALL_TAGS = [
    "$KEEP",
    "$DELETE",
    "$UNKNOWN",
    "$REPLACE_in",
    "$REPLACE_at",
    "$REPLACE_to",
    "$APPEND_the",
    "$APPEND_in",
    "$TRANSFORM_AGREEMENT_SINGULAR",
    "$MERGE_SPACE",
]


@pytest.fixture()
def small_tagset():
    return TagSet(SMALL_TAGS)


def tiny_batch(small_tagset):
    tokens1 = ["He", "lives", "at", "the", "city"]
    edits1 = [T("$KEEP"), T("$KEEP"), T("$REPLACE_in"), T("$KEEP"), T("$KEEP")]
    tokens2 = ["She", "works", "in"]
    edits2 = [T("$KEEP"), T("$APPEND_the"), T("$REPLACE_at")]
    return [
        (tokens1, derive_labels(tokens1, edits1)),
        (tokens2, derive_labels(tokens2, edits2)),
    ]


def forward(model, tokens):
    """Each head's probabilities for one sentence's tokens, a row per token."""
    probs = model.split(tagger._probs(model, model.encoder.encode([tokens])))
    return {name: p.T for name, p in probs.items()}


def seeded_model(small_tagset, dim=48, lam=0.5, heads=7, seed=0):
    model = MultiHeadModel(small_tagset, FeatureEncoder(dim=dim), lam=lam, heads=heads)
    rng = np.random.default_rng(seed)
    for name in model.head_names:
        model.W[name][...] = rng.normal(0.0, 0.5, size=model.W[name].shape)
    return model


class TestForward:
    def test_zero_weights_give_uniform(self, small_tagset):
        model = MultiHeadModel(small_tagset, FeatureEncoder(dim=64))
        probs = forward(model, ["a", "b"])
        np.testing.assert_allclose(probs["correction"], 1.0 / len(small_tagset))
        np.testing.assert_allclose(probs["detection"], 0.5)

    def test_probabilities_sum_to_one(self, small_tagset):
        model = seeded_model(small_tagset)
        probs = forward(model, ["He", "lives", "at", "the", "city"])
        for name, p in probs.items():
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_hand_set_binary_head(self, small_tagset):
        encoder = FeatureEncoder(dim=32)
        model = MultiHeadModel(small_tagset, encoder)
        enc = encoder.encode([["word"]])
        model.W["detection"][1, enc.idx] = math.log(3.0) / enc.idx.size
        probs = forward(model, ["word"])["detection"]
        np.testing.assert_allclose(probs[0], [0.25, 0.75], atol=1e-12)

    def test_dimension_mismatch_rejected(self, small_tagset):
        model = MultiHeadModel(small_tagset, FeatureEncoder(dim=64))
        model.encoder = FeatureEncoder(dim=4096)  # wider than the weights
        with pytest.raises(ValueError, match="dimension"):
            forward(model, ["a", "b", "c"])

    def test_encoder_deterministic(self):
        enc = FeatureEncoder(dim=512)
        a = enc.encode([["He", "lives", "here"]])
        b = enc.encode([["He", "lives", "here"]])
        assert all(np.array_equal(x.idx, y.idx) for x, y in ((a, b),))
        assert np.array_equal(a.starts, b.starts)


# Tokens for the encoder: arbitrary Unicode, the strings the features use for
# the sentence edges, and few enough distinct ones that sentences repeat them.
_edge_strings = st.sampled_from(["<s>", "</s>", "bos", "eos"])
_vocabularies = st.lists(st.one_of(_edge_strings, st.text(max_size=6)), min_size=1, max_size=8)


def _feature_rows(encoder, tokens):
    """Each position's sorted distinct hashes of its feature strings."""
    return [
        sorted({_hash_feature(f, encoder.dim) for f in encoder.feature_strings(tokens, i)})
        for i in range(len(tokens))
    ]


def _assert_encodes(enc, rows, lengths):
    """``enc`` holds ``rows``, each token's sorted distinct hashes, in turn, for
    sentences of ``lengths`` tokens."""
    sizes = np.asarray([len(r) for r in rows], dtype=np.int64)
    assert enc.n_tokens == len(rows) and enc.lengths.tolist() == lengths
    assert enc.idx.dtype == enc.starts.dtype == enc.tok_of.dtype == enc.lengths.dtype == np.int64
    assert enc.idx.tolist() == [h for r in rows for h in r]
    assert enc.starts.tolist() == (np.cumsum(sizes) - sizes).tolist()
    assert enc.tok_of.tolist() == np.repeat(np.arange(len(rows)), sizes).tolist()


class TestEncoderMemo:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(2, 8),
        vocab=_vocabularies,
        bound=st.integers(1, 5),
        block=st.integers(1, 4),
    )
    def test_memoised_encode_matches_feature_strings(self, data, dim, vocab, bound, block):
        """One encoder over blocks of several sentences, in any order and
        repeated, with its memo bound so low that the memo empties mid-run,
        gives each position the sorted distinct hashes of its feature
        strings, and each sentence's own record the arrays it has alone."""
        encoder = FeatureEncoder(dim=dim)
        sentences = data.draw(st.lists(st.lists(st.sampled_from(vocab), max_size=9), max_size=6))
        order = data.draw(st.permutations(sentences + sentences))
        seen: set = set()
        with mock.patch.object(tagger, "_MEMO_TOKENS", bound):
            for k in range(0, len(order), block):
                group = order[k : k + block]
                enc = encoder.encode(group)
                flat = [tok for tokens in group for tok in tokens]
                seen.update(flat)
                assert len(encoder._memo) <= bound and set(encoder._memo) <= seen
                assert not flat or flat[-1] in encoder._memo
                rows = [_feature_rows(encoder, tokens) for tokens in group]
                _assert_encodes(enc, [r for rs in rows for r in rs], [len(t) for t in group])
                for tokens, one, own in zip(group, enc.sentences(), rows, strict=True):
                    _assert_encodes(one, own, [len(tokens)])

    def test_memo_empties_when_a_new_token_finds_it_full(self):
        encoder = FeatureEncoder(dim=64)
        with mock.patch.object(tagger, "_MEMO_TOKENS", 3):
            encoder.encode([["a", "b", "a"]])
            assert list(encoder._memo) == ["a", "b"]
            encoder.encode([["c"], ["b"]])
            assert list(encoder._memo) == ["a", "b", "c"]  # full, and "b" is no new token
            enc = encoder.encode([["b", "d", "e", "a"]])
            assert list(encoder._memo) == ["d", "e", "a"]  # emptied at "d"
        assert enc.idx.tolist() == [h for r in _feature_rows(encoder, ["b", "d", "e", "a"]) for h in r]

    def test_feature_strings_of_a_sentence_edge(self):
        assert FeatureEncoder(dim=16).feature_strings(["Ab"], 0) == [
            "w0=Ab", "lw0=ab", "ng2=ab", "w-1=<s>", "w+1=</s>", "w-2=<s>", "w+2=</s>", "bos", "eos",
        ]


def reference_scatter_plan(enc):
    """The plan of one sentence, built on its own as ``tagger`` once did."""
    by_col = np.argsort(enc.idx, kind="stable")  # each column's entries in idx order
    sorted_idx = enc.idx[by_col]
    first = np.diff(sorted_idx, prepend=-1) != 0
    pos = np.cumsum(first) - 1
    rank = np.arange(pos.size) - np.flatnonzero(first)[pos]
    by_rank = np.argsort(rank, kind="stable")
    pos, tok, rank = pos[by_rank], enc.tok_of[by_col[by_rank]], rank[by_rank]
    cuts = [0, *(np.flatnonzero(np.diff(rank)) + 1).tolist(), rank.size]
    return ScatterPlan(sorted_idx[first], tuple((pos[a:b], tok[a:b]) for a, b in zip(cuts, cuts[1:])))


@st.composite
def _sentence_features(draw, dim):
    """One sentence whose tokens name a few columns many times."""
    features = draw(st.lists(st.lists(st.integers(0, dim - 1), max_size=12), max_size=10))
    sizes = np.asarray([len(f) for f in features], dtype=np.int64)
    return EncodedBlock(
        idx=np.asarray([c for f in features for c in f], dtype=np.int64),
        starts=np.cumsum(sizes) - sizes,
        tok_of=np.repeat(np.arange(len(features), dtype=np.int64), sizes),
        lengths=np.asarray([len(features)], dtype=np.int64),
    )


@st.composite
def _scatter_cases(draw):
    """A sentence, and gradient rows."""
    enc = draw(_sentence_features(draw(st.integers(1, 6))))
    magnitude = st.floats(1e-300, 1e300)
    value = st.one_of(magnitude, magnitude.map(lambda x: -x), st.sampled_from([0.0, -0.0]))
    rows = draw(st.integers(1, 4))
    delta = draw(st.lists(value, min_size=rows * enc.n_tokens, max_size=rows * enc.n_tokens))
    return enc, np.asarray(delta, dtype=float).reshape(rows, enc.n_tokens)


class TestScatterPlan:
    @settings(max_examples=500, deadline=None)
    @given(case=_scatter_cases())
    def test_layers_add_like_add_at(self, case):
        enc, delta = case
        cols, inv = np.unique(enc.idx, return_inverse=True)
        want = np.zeros((delta.shape[0], cols.size))
        np.add.at(want, (slice(None), inv), delta[:, enc.tok_of])
        [plan] = ScatterPlan.of_sentences([enc])
        got = plan.scatter(delta)
        assert np.array_equal(plan.cols, cols)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6))
    def test_dataset_plans_equal_the_per_sentence_plans(self, data, dim):
        encs = data.draw(st.lists(_sentence_features(dim), max_size=8))
        plans = ScatterPlan.of_sentences(encs)
        assert len(plans) == len(encs)
        for enc, plan in zip(encs, plans):
            want = reference_scatter_plan(enc)
            assert plan.cols.dtype == want.cols.dtype and np.array_equal(plan.cols, want.cols)
            if not enc.idx.size:  # the per-sentence plan had one empty layer here
                assert all(not p.size and not t.size for p, t in (*plan.layers, *want.layers))
                continue
            assert len(plan.layers) == len(want.layers)
            for (pos, tok), (want_pos, want_tok) in zip(plan.layers, want.layers):
                assert pos.dtype == want_pos.dtype and np.array_equal(pos, want_pos)
                assert tok.dtype == want_tok.dtype and np.array_equal(tok, want_tok)


class TestLoss:
    def test_lambda_zero_is_correction_only(self, small_tagset):
        model = seeded_model(small_tagset, lam=0.0)
        batch = tiny_batch(small_tagset)
        losses = head_losses(model, batch)
        assert total_loss(model, batch) == pytest.approx(losses["correction"], abs=1e-12)

    def test_uniform_model_aux_loss_is_ln2(self, small_tagset):
        model = MultiHeadModel(small_tagset, FeatureEncoder(dim=64), lam=0.5)
        losses = head_losses(model, tiny_batch(small_tagset))
        for name in BINARY_STREAMS:
            assert losses[name] == pytest.approx(math.log(2.0), abs=1e-12)
        assert losses["correction"] == pytest.approx(math.log(len(small_tagset)), abs=1e-12)

    def test_affine_in_lambda(self, small_tagset):
        model = seeded_model(small_tagset)
        batch = tiny_batch(small_tagset)
        losses = head_losses(model, batch)
        aux_sum = sum(losses[n] for n in BINARY_STREAMS)
        for lam in (0.0, 0.25, 0.3, 0.5, 1.0):
            model.lam = lam
            expected = losses["correction"] + lam * aux_sum
            assert total_loss(model, batch) == pytest.approx(expected, abs=1e-9)

    def test_empty_batch_rejected(self, small_tagset):
        model = seeded_model(small_tagset)
        with pytest.raises(ValueError):
            total_loss(model, [])

    def test_five_head_variant(self, small_tagset):
        model = seeded_model(small_tagset, heads=5)
        assert model.aux_heads == AUX_HEADS_5
        losses = head_losses(model, tiny_batch(small_tagset))
        assert set(losses) == {"correction", *AUX_HEADS_5}


class TestGradients:
    def test_gradient_check_random_models(self, small_tagset):
        batch = tiny_batch(small_tagset)
        for seed in range(3):
            model = seeded_model(small_tagset, dim=32, seed=seed)
            assert gradient_check(model, batch) < 1e-4

    def test_lambda_zero_zeroes_aux_gradients(self, small_tagset):
        model = seeded_model(small_tagset, lam=0.0)
        grads = model.split(grad_total_loss(model, tiny_batch(small_tagset)))
        for name in BINARY_STREAMS:
            assert np.all(grads[name] == 0.0)
        assert np.any(grads["correction"] != 0.0)

    def test_near_zero_gradient_at_confident_correct_model(self, small_tagset):
        batch = tiny_batch(small_tagset)
        model = MultiHeadModel(small_tagset, FeatureEncoder(dim=64), lam=0.5)
        train(model, batch, epochs=300, lr=1.0, seed=0)
        grads = model.split(grad_total_loss(model, batch))
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert norm < 0.05

    def test_size_preconditions(self, small_tagset):
        model = seeded_model(small_tagset, dim=32)
        batch = tiny_batch(small_tagset)
        with pytest.raises(ValueError):
            gradient_check(model, batch * 3)
        big = seeded_model(small_tagset, dim=256)
        with pytest.raises(ValueError):
            gradient_check(big, batch)


def toy_dataset(lexicon, tagset, n, seed):
    profile = NoiseProfile(
        {"type_preposition": 1.0, "type_determiner": 1.0}, expected_errors=1.0, rng_seed=seed
    )
    noiser = Noiser(profile, lexicon=lexicon)
    out = []
    for i, clean in enumerate(make_corpus(n, seed=seed, with_adjective=False)):
        corrupted, _ = noiser.corrupt(clean, i)
        edits = seq2edit(corrupted, clean, lexicon, tagset)
        out.append((corrupted, derive_labels(corrupted, edits)))
    return out


def training_tagset(lexicon, patterns):
    tags = ["$KEEP", "$DELETE", "$UNKNOWN"]
    for w in [p for p in patterns.prepositions if p] + [d for d in patterns.determiners if d]:
        tags.append(f"$REPLACE_{w}")
        tags.append(f"$APPEND_{w}")
    return TagSet(tags)


class TestTrain:
    def test_loss_decreases_and_is_deterministic(self, lexicon, patterns):
        ts = training_tagset(lexicon, patterns)
        data = toy_dataset(lexicon, ts, 150, seed=4)
        m1 = MultiHeadModel(ts, FeatureEncoder(dim=1024))
        h1 = train(m1, data, epochs=5, lr=0.5, seed=7)
        assert h1[-1] < h1[0]
        assert all(b <= a + 1e-12 for a, b in zip(h1, h1[1:]))
        m2 = MultiHeadModel(ts, FeatureEncoder(dim=1024))
        h2 = train(m2, data, epochs=5, lr=0.5, seed=7)
        assert h1 == h2
        for name in m1.head_names:
            assert np.array_equal(m1.W[name], m2.W[name])

    def test_zero_learning_rate_is_identity(self, lexicon, patterns):
        ts = training_tagset(lexicon, patterns)
        data = toy_dataset(lexicon, ts, 30, seed=4)
        model = MultiHeadModel(ts, FeatureEncoder(dim=256))
        before = {n: w.copy() for n, w in model.W.items()}
        train(model, data, epochs=2, lr=0.0, seed=0)
        for name, w in model.W.items():
            assert np.array_equal(w, before[name])

    def test_correction_rows_ignore_lambda_and_heads(self, lexicon, patterns):
        # Each head owns its rows and every update is per element, so lambda and
        # the head count reach predictions only through the detection gate.
        ts = training_tagset(lexicon, patterns)
        data = toy_dataset(lexicon, ts, 60, seed=4)
        corrections = []
        for lam in (0.0, 0.5):
            for heads in (5, 7):
                model = MultiHeadModel(ts, FeatureEncoder(dim=512), lam=lam, heads=heads)
                train(model, data, epochs=3, lr=0.5, seed=7)
                corrections.append(model.W["correction"])
        assert corrections[0].any()
        assert all(np.array_equal(w, corrections[0]) for w in corrections[1:])

    def test_empty_dataset_rejected(self, small_tagset):
        model = MultiHeadModel(small_tagset, FeatureEncoder(dim=64))
        with pytest.raises(ValueError):
            train(model, [], epochs=1, lr=0.1, seed=0)

    def test_example_without_tokens_rejected(self, small_tagset):
        model = MultiHeadModel(small_tagset, FeatureEncoder(dim=32))
        batch = tiny_batch(small_tagset) + [([], derive_labels([], []))]
        with pytest.raises(ValueError, match="at least one token"):
            train(model, batch, epochs=1, lr=0.1, seed=0)

    def test_nan_loss_reported_with_step(self, small_tagset):
        # NaN weights make the loss NaN from the first epoch on; the check at
        # its end has seen both sentences' updates.
        model = MultiHeadModel(small_tagset, FeatureEncoder(dim=32))
        model.W["correction"][0, :] = np.nan
        with pytest.raises(ValueError) as exc:
            train(model, tiny_batch(small_tagset), epochs=3, lr=0.1, seed=0)
        assert isinstance(exc.value, TrainingDivergedError)
        assert (exc.value.epoch, exc.value.step) == (1, 2)
        assert str(exc.value) == "loss became NaN by the end of epoch 1 (update step 2)"


def reference_probs(W, enc):
    """One head's probabilities from its own matrix, as the per-head tagger computed them."""
    logits = np.add.reduceat(W[:, enc.idx], enc.starts, axis=1).T
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_labels(model, name, tags):
    if name == "correction":
        return np.asarray([model.tagset.id_of(t) for t in tags], dtype=np.int64)
    return np.asarray(streams(tags)[name], dtype=np.int64)


def reference_head_losses(model, weights, batch):
    """Per-head mean cross-entropy from a dict of per-head matrices, head by head."""
    sums = {name: 0.0 for name in model.head_names}
    total = 0
    for tokens, tags in batch:
        enc = model.encoder.encode([tokens])
        total += enc.n_tokens
        for name in model.head_names:
            probs = reference_probs(weights[name], enc)
            y = reference_labels(model, name, tags)
            picked = np.clip(probs[np.arange(enc.n_tokens), y], _CLIP, None)
            sums[name] += float(-np.log(picked).sum())
    return {name: s / total for name, s in sums.items()}


def reference_train(model, weights, dataset, epochs, lr, seed):
    """Train a dict of per-head matrices in place with one Adagrad update per head and sentence."""
    encoded = [model.encoder.encode([tokens]) for tokens, _ in dataset]
    label_ids = [
        {name: reference_labels(model, name, tags) for name in model.head_names}
        for _, tags in dataset
    ]
    accum = {name: np.zeros_like(W) for name, W in weights.items()}
    rng = np.random.default_rng(seed)
    order = np.arange(len(encoded))
    history = []
    for _ in range(epochs):
        rng.shuffle(order)
        for si in order:
            enc = encoded[si]
            cols, inv = np.unique(enc.idx, return_inverse=True)
            for name in model.head_names:
                delta = reference_probs(weights[name], enc)
                delta[np.arange(enc.n_tokens), label_ids[si][name]] -= 1.0
                delta *= (1.0 if name == "correction" else model.lam) / enc.n_tokens
                gsub = np.zeros((weights[name].shape[0], cols.size))
                np.add.at(gsub, (slice(None), inv), delta.T[:, enc.tok_of])
                acc = accum[name]
                acc[:, cols] += gsub * gsub
                weights[name][:, cols] -= lr * gsub / (np.sqrt(acc[:, cols]) + 1e-8)
        losses = reference_head_losses(model, weights, dataset)
        history.append(
            losses["correction"] + model.lam * sum(losses[name] for name in model.aux_heads)
        )
    return history


def reference_dump(model, weights):
    """Model file bytes with one array per head, written head by head."""
    header = {
        "format": "gecedit-model",
        "version": 1,
        "dim": model.encoder.dim,
        "lambda": model.lam,
        "heads": model.heads,
        "templates": list(FEATURE_TEMPLATES_V1),
        "tags": [t.render() for t in model.tagset],
        "arrays": [[name, *weights[name].shape] for name in model.head_names],
    }
    out = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
    for name in model.head_names:
        out += np.ascontiguousarray(weights[name], dtype="<f8").tobytes()
    return out


def reference_predict_tags(model, weights, tokens, keep_bias, min_error_prob):
    keep_id = model.tagset.keep_id
    if not tokens:
        return []
    enc = model.encoder.encode([tokens])
    if min_error_prob > 0.0:
        if float(reference_probs(weights["detection"], enc)[:, 1].max()) < min_error_prob:
            return [model.tagset.tag_of(keep_id)] * len(tokens)
    probs = reference_probs(weights["correction"], enc)
    probs[:, keep_id] += keep_bias
    probs /= probs.sum(axis=1, keepdims=True)
    ids = probs.argmax(axis=1)
    ids[probs[np.arange(len(tokens)), ids] == probs[:, keep_id]] = keep_id
    return [model.tagset.tag_of(int(i)) for i in ids]


def mixed_dataset(lexicon, tagset, seed):
    """Noised toy sentences, plus sentences of 1 to 14 tokens with random tags."""
    data = toy_dataset(lexicon, tagset, 30, seed=seed)
    rng = np.random.default_rng(seed)
    tags = list(tagset)
    for length, clean in zip(range(1, 15), make_compound_corpus(14, seed=seed)):
        tokens = (clean * 2)[:length]
        edits = [tags[int(i)] for i in rng.integers(0, len(tags), size=length)]
        data.append((tokens, derive_labels(tokens, edits)))
    return data


class TestMatchesPerHeadReference:
    """The one stacked weight matrix reproduces the per-head tagger bit for bit."""

    @pytest.mark.parametrize("heads", [5, 7])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_train_and_losses_identical(self, lexicon, patterns, tmp_path, heads, lam):
        ts = training_tagset(lexicon, patterns)
        for seed in (0, 1, 2):
            data = mixed_dataset(lexicon, ts, seed)
            model = MultiHeadModel(ts, FeatureEncoder(dim=256), lam=lam, heads=heads)
            weights = {name: np.zeros_like(W) for name, W in model.W.items()}
            history = train(model, data, epochs=3, lr=0.5, seed=seed)
            expected = reference_train(model, weights, data, 3, 0.5, seed)
            assert history == expected
            for name in model.head_names:
                assert np.array_equal(model.W[name], weights[name]), name
            assert head_losses(model, data) == reference_head_losses(model, weights, data)
            save_model(model, tmp_path / "m.bin")
            assert (tmp_path / "m.bin").read_bytes() == reference_dump(model, weights)

    @pytest.mark.parametrize("heads", [5, 7])
    def test_predict_identical(self, lexicon, patterns, heads):
        ts = training_tagset(lexicon, patterns)
        data = mixed_dataset(lexicon, ts, 5)
        model = MultiHeadModel(ts, FeatureEncoder(dim=256), lam=0.5, heads=heads)
        train(model, data, epochs=3, lr=0.5, seed=5)
        weights = {name: W.copy() for name, W in model.W.items()}
        for tokens, _ in data:
            for keep_bias, min_error_prob in ((0.0, 0.0), (0.2, 0.0), (0.1, 0.5), (0.0, 0.9)):
                assert predict_tags(model, [tokens], keep_bias, min_error_prob) == [
                    reference_predict_tags(model, weights, tokens, keep_bias, min_error_prob)
                ]

    def test_heads_are_views_of_one_matrix(self, small_tagset):
        model = MultiHeadModel(small_tagset, FeatureEncoder(dim=16), heads=5)
        assert model.weights.shape == (len(small_tagset) + 2 * 4, 16)
        model.W["detection"][1, 3] = 2.5
        assert model.weights[-1, 3] == 2.5
        with pytest.raises(TypeError):
            model.W["detection"] = np.zeros((2, 16))


class TestPredict:
    def test_min_error_prob_one_gives_all_keep(self, small_tagset):
        model = seeded_model(small_tagset)
        [tags] = predict_tags(model, [["a", "b", "c"]], min_error_prob=1.0)
        assert all(t.render() == "$KEEP" for t in tags)

    def test_large_keep_bias_gives_all_keep(self, small_tagset):
        model = seeded_model(small_tagset)
        [tags] = predict_tags(model, [["a", "b", "c"]], keep_bias=1.0)
        assert all(t.render() == "$KEEP" for t in tags)

    @pytest.mark.parametrize("keep_bias", [-1.0, -2.0])
    def test_keep_bias_at_or_below_minus_one_rejected(self, small_tagset, keep_bias):
        # the KEEP-biased probabilities would sum to 1 + keep_bias <= 0
        model = seeded_model(small_tagset)
        with pytest.raises(ValueError, match="keep_bias must be greater than -1"):
            predict_tags(model, [["a", "b"]], keep_bias=keep_bias)

    def test_no_tweaks_equals_plain_argmax(self, small_tagset):
        model = seeded_model(small_tagset, seed=3)
        tokens = ["He", "lives", "at", "the", "city"]
        probs = forward(model, tokens)["correction"]
        expected = [small_tagset.tag_of(int(i)) for i in probs.argmax(axis=1)]
        assert predict_tags(model, [tokens], 0.0, 0.0) == [expected]

    def test_argmax_invariant_to_constant_logit_shift(self, small_tagset):
        model = seeded_model(small_tagset, seed=5)
        tokens = ["She", "works", "in"]
        before = predict_tags(model, [tokens])
        model.W["correction"][:, :] += 3.7  # same shift for every class
        assert predict_tags(model, [tokens]) == before

    def test_min_error_prob_clamped(self, small_tagset):
        model = seeded_model(small_tagset)
        assert predict_tags(model, [["a"]], min_error_prob=2.0) == [[T("$KEEP")]]

    def test_published_operating_point_accepted(self, small_tagset):
        # keep_bias 0.35 with error threshold 0.66 is a valid configuration
        model = seeded_model(small_tagset, seed=8)
        [tags] = predict_tags(model, [["He", "lives", "here"]], 0.35, 0.66)
        assert len(tags) == 3
        assert all(t in small_tagset for t in tags)

    def test_default_lambda_is_half(self, small_tagset):
        assert MultiHeadModel(small_tagset).lam == 0.5

    def test_empty_sentence(self, small_tagset):
        model = seeded_model(small_tagset)
        assert predict_tags(model, [[]]) == [[]]
        assert predict_tags(model, []) == []

    # Most random models end on max_iters, not on an all-KEEP pass, so most
    # inputs are filtered out; with some seeds the first few draws are all
    # filtered, which the health check reports as an error.
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        tokens=st.lists(
            st.sampled_from(["He", "She", "lives", "works", "at", "in", "the", "city", "a"]),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 50),
        keep_bias=st.floats(0.0, 0.5),
        max_iters=st.integers(1, 5),
    )
    def test_refine_is_idempotent_at_its_fixpoint(self, lexicon, tokens, seed, keep_bias, max_iters):
        """A model-driven refine that ended on an all-KEEP pass returns its
        output unchanged, after one pass, when run on that output."""
        model = seeded_model(TagSet(SMALL_TAGS), seed=seed)
        passes = []

        def predictor(sentences):
            passes.append(predict_tags(model, sentences, keep_bias))
            return passes[-1]

        [out], _ = refine([tokens], predictor, max_iters, lexicon)
        assume(all(t.family is TagFamily.KEEP for t in passes[-1][0]))
        assert refine([out], predictor, max_iters, lexicon) == ([out], 1)


def reference_refine(model, weights, tokens, iters, keep_bias, min_error_prob, lexicon):
    """One sentence refined on its own, pass after pass, by the per-sentence oracle."""
    for _ in range(iters):
        tags = reference_predict_tags(model, weights, tokens, keep_bias, min_error_prob)
        if all(t.family is TagFamily.KEEP for t in tags):
            break
        tokens = edit2seq(tokens, tags, lexicon, on_error="copy")
        if not tokens:
            break
    return tokens


def block_model():
    """A random model that deletes "zap" and keeps "stay", and whose detection
    head flags "zap" and "err"; other tokens get random tags and error
    probabilities."""
    model = seeded_model(TagSet(SMALL_TAGS), dim=1024, seed=4)
    for tag, word in (("$DELETE", "zap"), ("$KEEP", "stay")):
        for text in (f"w0={word}", f"lw0={word}"):
            model.W["correction"][model.tagset.id_of(tag), _hash_feature(text, 1024)] += 20.0
    for word in ("zap", "err"):
        model.W["detection"][1, _hash_feature(f"w0={word}", 1024)] += 20.0
    return model


def block_lines():
    """129 lines: sentences of 1 to 14 tokens, one-token sentences among
    longer ones, blank lines, also at the end of each 128-line block, and
    lines that refinement deletes ("zap zap") or shrinks to one token
    ("stay zap")."""
    words = ["He", "lives", "at", "the", "city", "She", "works", "in", "a", "err"]
    rng = np.random.default_rng(9)
    lines = ["", ""]
    for k in range(127):
        kind = k % 6
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(str(rng.choice(words)))
        elif kind == 2:
            lines.append(" ".join(["zap"] * (1 + k % 3)))
        elif kind == 3:
            lines.append(" ".join(["stay"] + ["zap"] * (1 + k % 4)))
        else:
            lines.append(" ".join(rng.choice(words, size=1 + k % 14).tolist()))
    return lines[2:] + lines[:2]


class TestBlockPath:
    """Predicting a block of sentences at once gives each sentence the bits
    and tags it has alone."""

    KEEP_BIAS, MIN_ERROR_PROB = 0.1, 0.9

    @pytest.mark.parametrize("cut", [1, 3, 40, None, 10**9])
    def test_block_probs_and_tags_equal_each_sentence_alone(self, monkeypatch, cut):
        """``cut`` is the gathered columns per run and the tokens per decode run
        (None: the module's bound)."""
        model = block_model()
        weights = {name: W.copy() for name, W in model.W.items()}
        sentences = [line.split() for line in block_lines()]
        if cut is not None:
            monkeypatch.setattr(tagger, "_ARRAY_ELEMENTS", cut * model.weights.shape[0])
        block = tagger._probs(model, model.encoder.encode(sentences))
        alone = [tagger._probs(model, model.encoder.encode([s])) for s in sentences if s]
        assert block.tobytes() == np.hstack(alone).tobytes()
        for keep_bias, min_error_prob in ((0.0, 0.0), (self.KEEP_BIAS, self.MIN_ERROR_PROB)):
            assert predict_tags(model, sentences, keep_bias, min_error_prob) == [
                reference_predict_tags(model, weights, s, keep_bias, min_error_prob)
                for s in sentences
            ]

    def test_block_gates_some_sentences_and_not_others(self):
        model = block_model()
        probs = [forward(model, line.split())["detection"][:, 1] for line in block_lines() if line]
        gated = [p.max() < self.MIN_ERROR_PROB for p in probs]
        assert any(gated) and not all(gated)

    @pytest.mark.parametrize("rows", [1, 119, 5031])
    def test_runs_bound_the_gathered_elements(self, rows):
        """The runs cover the block's tokens in order, across sentence bounds;
        each gathers at most ``_ARRAY_ELEMENTS`` elements of ``rows`` weight rows,
        or one token, and would not with the next token too."""
        enc = block_model().encoder.encode([line.split() for line in block_lines()])
        ends = np.append(enc.starts[1:], enc.idx.size)
        runs = tagger._runs(ends, max(1, tagger._ARRAY_ELEMENTS // rows))
        assert [a for a, _ in runs] == [0, *(b for _, b in runs[:-1])]
        assert runs[-1][1] == enc.n_tokens
        for a, b in runs:
            assert (ends[b - 1] - enc.starts[a]) * rows <= tagger._ARRAY_ELEMENTS or b - a == 1
            if b < enc.n_tokens:
                assert (ends[b] - enc.starts[a]) * rows > tagger._ARRAY_ELEMENTS
        if rows == 1:
            assert runs == [(0, enc.n_tokens)]
        else:  # some run ends inside a sentence
            assert {b for _, b in runs} - set(np.cumsum(enc.lengths).tolist())

    @pytest.mark.parametrize("cut", [1, 3, 40])
    def test_one_long_sentence_is_gathered_in_runs(self, monkeypatch, cut):
        """``cut`` is the gathered columns per run."""
        model = block_model()
        words = ["He", "lives", "at", "the", "city", "She", "works", "in", "a", "err", "zap"]
        tokens = np.random.default_rng(3).choice(words, size=90).tolist()
        enc = model.encoder.encode([tokens])
        monkeypatch.setattr(tagger, "_ARRAY_ELEMENTS", 10**9)
        whole = tagger._probs(model, enc)
        monkeypatch.setattr(tagger, "_ARRAY_ELEMENTS", cut * model.weights.shape[0])
        assert tagger._probs(model, enc).tobytes() == whole.tobytes()

    def test_long_sentence_peak_memory_is_bounded(self):
        """A long sentence's forward pass holds its probabilities and at most
        one run's gather and sums beside them."""
        tags = ["$KEEP", "$DELETE", "$UNKNOWN", *(f"$APPEND_w{k}" for k in range(985))]
        model = seeded_model(TagSet(tags), dim=64)
        assert model.weights.shape[0] == 1000
        enc = model.encoder.encode([[f"w{k % 50}" for k in range(300)]])
        tracemalloc.start()
        try:
            probs = tagger._probs(model, enc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < probs.nbytes + 2 * tagger._ARRAY_ELEMENTS * 8

    @pytest.mark.parametrize("tokens", [1, 5, 40, None])
    def test_decode_runs_bound_the_probabilities(self, monkeypatch, tokens):
        """``predict_tags`` decodes runs of whole sentences of at most
        ``_ARRAY_ELEMENTS`` probabilities, or one longer sentence, and each
        sentence gets the tags it has alone."""
        model = block_model()
        weights = {name: W.copy() for name, W in model.W.items()}
        sentences = [line.split() for line in block_lines()]
        rows = model.weights.shape[0]
        if tokens is not None:
            monkeypatch.setattr(tagger, "_ARRAY_ELEMENTS", tokens * rows)
        expected = [
            reference_predict_tags(model, weights, s, self.KEEP_BIAS, self.MIN_ERROR_PROB)
            for s in sentences
        ]
        runs = []
        encode = model.encoder.encode
        monkeypatch.setattr(model.encoder, "encode", lambda run: runs.append(run) or encode(run))
        assert predict_tags(model, sentences, self.KEEP_BIAS, self.MIN_ERROR_PROB) == expected
        assert [s for run in runs for s in run] == sentences
        for run in runs:
            assert sum(map(len, run)) * rows <= tagger._ARRAY_ELEMENTS or sum(map(bool, run)) == 1
        if tokens is None:  # the default bound decodes a 128-line block of this model at once
            assert len(runs) == 1
        elif tokens == 1:
            assert all(sum(map(bool, run)) <= 1 for run in runs)

    @pytest.mark.parametrize("cut", [1, 3, None])
    @pytest.mark.parametrize("iters", [1, 4])
    def test_predict_equals_a_per_sentence_refine(self, lexicon, tmp_path, monkeypatch, cut, iters):
        model = block_model()
        weights = {name: W.copy() for name, W in model.W.items()}
        save_model(model, tmp_path / "m.bin")
        lines = block_lines()
        (tmp_path / "in.txt").write_text("".join(line + "\n" for line in lines))
        expected = [
            " ".join(reference_refine(
                model, weights, line.split(), iters, self.KEEP_BIAS, self.MIN_ERROR_PROB, lexicon
            ))
            for line in lines
        ]
        assert sum(len(e.split()) == 1 for e, line in zip(expected, lines) if "zap" in line) > 3
        assert sum(not e for e, line in zip(expected, lines) if line) > 3  # deleted lines
        if cut is not None:
            monkeypatch.setattr(tagger, "_ARRAY_ELEMENTS", cut * model.weights.shape[0])
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}.txt"
            assert main([
                "predict", "--model", str(tmp_path / "m.bin"), "--in", str(tmp_path / "in.txt"),
                "--out", str(out), "--iters", str(iters), "--keep-bias", str(self.KEEP_BIAS),
                "--min-error-prob", str(self.MIN_ERROR_PROB), "--workers", workers,
            ]) == 0
            assert out.read_text().splitlines() == expected


class TestSerialization:
    def test_save_load_save_byte_stable(self, small_tagset, tmp_path):
        model = seeded_model(small_tagset, dim=32)
        p1 = tmp_path / "m1.bin"
        p2 = tmp_path / "m2.bin"
        save_model(model, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_preserves_behavior(self, small_tagset, tmp_path):
        model = seeded_model(small_tagset, dim=32, lam=0.25, heads=5)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.lam == model.lam and loaded.heads == model.heads
        tokens = ["He", "lives", "at", "the", "city"]
        assert predict_tags(loaded, [tokens]) == predict_tags(model, [tokens])

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"format":"something-else"}\n')
        with pytest.raises(ValueError):
            load_model(path)


def rewrite_model(path, edit_header=None, tail=b""):
    """Rewrite a saved model's header line through ``edit_header`` and append ``tail``."""
    head, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    if edit_header is not None:
        edit_header(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body + tail)


class TestLoadModelValidation:
    @pytest.fixture
    def saved(self, small_tagset, tmp_path):
        path = tmp_path / "m.bin"
        save_model(seeded_model(small_tagset, dim=16), path)
        return path

    def test_head_names_out_of_order_rejected(self, saved):
        def swap(header):
            arrays = header["arrays"]
            arrays[1][0], arrays[2][0] = arrays[2][0], arrays[1][0]

        rewrite_model(saved, swap)
        with pytest.raises(ValueError, match="weight arrays"):
            load_model(saved)

    def test_unknown_head_name_rejected(self, saved):
        def rename(header):
            header["arrays"][-1][0] = "bogus"

        rewrite_model(saved, rename)
        with pytest.raises(ValueError, match="weight arrays"):
            load_model(saved)

    @pytest.mark.parametrize(
        "index, shape",
        [
            (0, [3, 16]),  # correction rows differ from the tag count
            (0, [10, 8]),  # correction columns differ from dim
            (1, [3, 16]),  # an auxiliary head is not binary
            (2, [2, 32]),  # auxiliary columns differ from dim
        ],
    )
    def test_wrong_shape_rejected(self, saved, index, shape):
        def reshape(header):
            header["arrays"][index][1:] = shape

        rewrite_model(saved, reshape)
        with pytest.raises(ValueError, match="weight arrays"):
            load_model(saved)

    def test_trailing_bytes_rejected(self, saved):
        rewrite_model(saved, tail=b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing bytes"):
            load_model(saved)

    @pytest.mark.parametrize("head, row, col", [("correction", None, None), ("detection", 1, 5)])
    def test_non_finite_weight_rejected(self, small_tagset, tmp_path, head, row, col):
        """All weights NaN, or one ``inf``: the error names the file and the array."""
        model = seeded_model(small_tagset, dim=16)
        if row is None:
            model.weights[...] = np.nan
        else:
            model.W[head][row, col] = np.inf
        path = tmp_path / "m.bin"
        save_model(model, path)
        with pytest.raises(ValueError, match=f"m.bin: weight array '{head}' holds a non-finite"):
            load_model(path)

    def test_truncated_weights_rejected(self, saved):
        saved.write_bytes(saved.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_model(saved)

    @pytest.mark.parametrize(
        "cut, dim, message",
        [
            (0, 16, None),
            (-8, 16, "truncated"),
            (None, 16, "trailing bytes"),
            # the weights are allocated before any is read, and this fails at once
            (0, 10**13, rf"^/dev/fd/\d+: cannot allocate the \d+ x {10**13} weight matrix$"),
        ],
        ids=["whole", "truncated", "trailing", "dim-unallocatable"],
    )
    def test_read_from_a_pipe(self, small_tagset, tmp_path, cut, dim, message):
        # a pipe has no size to check up front, so its end is found by reading
        model = seeded_model(small_tagset, dim=16)
        saved = tmp_path / "m.bin"
        save_model(model, saved)

        def set_dim(header):
            header["dim"] = dim
            for array in header["arrays"]:
                array[2] = dim

        rewrite_model(saved, set_dim)
        data = saved.read_bytes()
        data = data + b"\0" if cut is None else data[: len(data) + cut]
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            if message is None:
                loaded = load_model(f"/dev/fd/{r}")
                assert np.array_equal(loaded.weights, model.weights)
            else:
                with pytest.raises(ValueError, match=message):
                    load_model(f"/dev/fd/{r}")
        finally:
            os.close(r)
