import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecedit import metrics
from gecedit.metrics import F05Accumulator, extract_spans, f_beta, gleu


def apply_span_edits(source, edits):
    """Independent check: replaying span edits must rebuild the other side."""
    out = list(source)
    for start, end, repl in sorted(edits, reverse=True):
        out[start:end] = repl.split() if repl else []
    return out


class TestExtractSpans:
    def test_identical_sentences(self):
        assert extract_spans("a b".split(), "a b".split()) == set()

    def test_single_substitution(self):
        assert extract_spans("a b c".split(), "a x c".split()) == {(1, 2, "x")}

    def test_insertion(self):
        assert extract_spans("a c".split(), "a b c".split()) == {(1, 1, "b")}

    def test_deletion(self):
        assert extract_spans("a b c".split(), "a c".split()) == {(1, 2, "")}

    def test_adjacent_edits_merge_maximally(self):
        spans = extract_spans("a b c d".split(), "a x y d".split())
        assert spans == {(1, 3, "x y")}

    def test_replay_and_minimality_on_random_pairs(self):
        rng = random.Random(13)
        vocab = ["a", "b", "c", "ab", "xy", "cd"]
        for _ in range(200):
            src = [rng.choice(vocab) for _ in range(rng.randrange(1, 7))]
            other = [rng.choice(vocab) for _ in range(rng.randrange(0, 7))]
            edits = extract_spans(src, other)
            assert apply_span_edits(src, edits) == other
            # maximally merged: regions are disjoint with a gap between them
            regions = sorted((s, e) for s, e, _ in edits)
            for (_s1, e1), (s2, _e2) in zip(regions, regions[1:]):
                assert e1 < s2
            assert all(0 <= s <= e <= len(src) for s, e, _ in edits)

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            extract_spans([], ["a"])


def f_half(hyp_edits, ref_edits):
    """P, R and F0.5 of one sentence's edits."""
    acc = F05Accumulator()
    acc.add(hyp_edits, ref_edits)
    return acc.result()


class TestFHalf:
    def test_perfect_match(self):
        edits = {(0, 1, "x"), (2, 2, "y")}
        result = f_half(edits, set(edits))
        assert result == {"P": 1.0, "R": 1.0, "F0.5": 1.0}

    def test_half_precision_half_recall(self):
        hyp = {(0, 1, "x"), (1, 2, "y")}
        ref = {(0, 1, "x"), (3, 4, "z")}
        result = f_half(hyp, ref)
        assert result["P"] == 0.5 and result["R"] == 0.5
        assert result["F0.5"] == pytest.approx(0.5)

    def test_paper_operating_point(self):
        assert f_beta(0.744, 0.523) == pytest.approx(0.686, abs=1e-3)

    def test_empty_conventions(self):
        assert f_half(set(), set()) == {"P": 1.0, "R": 1.0, "F0.5": 1.0}
        assert f_half(set(), {(0, 1, "x")})["P"] == 0.0
        assert f_half({(0, 1, "x")}, set())["R"] == 0.0
        assert f_half(set(), {(0, 1, "x")})["F0.5"] == 0.0

    def test_f05_bounded_and_precision_weighted(self):
        for p, r in [(0.9, 0.3), (0.6, 0.2), (0.8, 0.5)]:
            f05 = f_beta(p, r, 0.5)
            f1 = f_beta(p, r, 1.0)
            assert f05 <= max(p, r) + 1e-12
            assert f05 > f1  # precision exceeds recall in all cases above

    def test_corpus_pooling(self):
        acc = F05Accumulator()
        acc.add({(0, 1, "x")}, {(0, 1, "x")})
        acc.add({(2, 3, "y")}, set())
        result = acc.result()
        assert result["P"] == 0.5 and result["R"] == 1.0


def oracle_gleu_single(sources, hyps, refs, n_max=4):
    """Brute-force recount of the GLEU formula, written independently."""
    num = [0] * n_max
    den = [0] * n_max
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    for src, hyp, ref in zip(sources, hyps, refs):
        for n in range(1, n_max + 1):
            def grams(seq):
                return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))

            h, r, s = grams(hyp), grams(ref), grams(src)
            match = 0
            for g, c in h.items():
                match += min(c, r.get(g, 0))
            penalty = 0
            for g, c in h.items():
                extra_src = max(s.get(g, 0) - r.get(g, 0), 0)
                penalty += min(c, extra_src)
            num[n - 1] += max(match - penalty, 0)
            den[n - 1] += max(len(hyp) + 1 - n, 0)
    if hyp_len == 0:
        return 0.0
    logs = []
    for n in range(n_max):
        if den[n] == 0:
            continue
        if num[n] == 0:
            return 0.0
        logs.append(math.log(num[n] / den[n]))
    bp = min(0.0, 1.0 - ref_len / hyp_len)
    return math.exp(bp + sum(logs) / len(logs))


class TestGleu:
    def test_perfect_hypothesis(self):
        sent = "the cat sat on the mat".split()
        assert gleu([sent], [sent], [[sent]]) == pytest.approx(1.0)

    def test_empty_hypothesis_scores_zero(self):
        src = "a b c d".split()
        assert gleu([src], [[]], [[src]]) == 0.0

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            gleu([], [], [])

    def test_micro_corpus_matches_oracle(self):
        sources = ["He go to school every day .".split(), "I am very hapy today .".split()]
        hyps = ["He goes to school every day .".split(), "I am very happy now .".split()]
        refs = ["He goes to school every day .".split(), "I am very happy today .".split()]
        ours = gleu(sources, hyps, [[r] for r in refs])
        oracle = oracle_gleu_single(sources, hyps, refs)
        assert ours == pytest.approx(oracle, abs=1e-9)
        assert 0.0 < ours < 1.0

    def test_penalizes_unchanged_source_ngrams(self):
        src = "he go to school .".split()
        ref = "he goes to school .".split()
        lazy = src  # keeps the n-grams the reference changed
        fixed = ref
        s_lazy = gleu([src], [lazy], [[ref]])
        s_fixed = gleu([src], [fixed], [[ref]])
        assert s_fixed > s_lazy

    def test_corpus_reordering_invariance(self):
        sources = ["a b c d".split(), "e f g h".split()]
        hyps = ["a b x d".split(), "e f g h".split()]
        refs = [["a b c d".split()], ["e f g h".split()]]
        fwd = gleu(sources, hyps, refs)
        rev = gleu(sources[::-1], hyps[::-1], refs[::-1])
        assert fwd == pytest.approx(rev, abs=1e-12)

    def test_monotone_as_hypothesis_diverges(self):
        src = "one two three four five six seven eight".split()
        ref = src
        scores = []
        hyp = list(src)
        for k in range(4):
            scores.append(gleu([src], [hyp], [[ref]]))
            hyp = hyp[:-1] + ["wrong%d" % k]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_multi_reference_sampling_deterministic(self):
        src = "a b c d e".split()
        hyp = "a b x d e".split()
        refs = [["a b x d e".split(), "a b y d e".split(), "a q x d e".split()]]
        s1 = gleu([src], [hyp], refs, seed=5)
        s2 = gleu([src], [hyp], refs, seed=5)
        s3 = gleu([src], [hyp], refs, seed=6)
        assert s1 == s2
        # only the first reference matches the hypothesis at every order
        singles = [gleu([src], [hyp], [[ref]]) for ref in refs[0]]
        assert singles == [1.0, 0.0, 0.0]
        assert 0.0 < s1 < 1.0
        # so the score is the share of the seed's draws that pick it
        rng = random.Random(5)
        picks = [rng.randrange(3) for _ in range(500)]
        assert s1 == pytest.approx(picks.count(0) / 500, abs=1e-12)
        # another seed draws another mix of the three references
        assert s1 != s3

    @pytest.mark.parametrize("seed", range(5))
    def test_picks_follow_randrange(self, seed):
        # Each pick repeats CPython's randrange(k) on this interpreter, and
        # leaves the generator where randrange leaves it.
        n_refs = [3, 1, 9, 2, 1, 7, 4, 8, 5, 6, 2, 9, 1]
        rng, expected_rng = random.Random(seed), random.Random(seed)
        for draws in (1, 40):
            expected = [expected_rng.randrange(k) for _ in range(draws) for k in n_refs]
            assert metrics._picks(rng, n_refs, draws) == expected
        assert rng.getstate() == expected_rng.getstate()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gleu([["a"]], [["a"], ["b"]], [[["a"]], [["b"]]])

    def test_missing_reference_rejected(self):
        with pytest.raises(ValueError):
            gleu([["a"]], [["a"]], [[]])

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_below_one_rejected(self, samples):
        refs = [["a b".split(), "a c".split()]]
        with pytest.raises(ValueError, match="samples"):
            gleu([["a", "b"]], [["a", "b"]], refs, samples=samples)

    @pytest.mark.parametrize("n_max", [0, -2])
    def test_n_max_below_one_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            gleu([["a", "b"]], [["a", "b"]], [[["a", "b"]]], n_max=n_max)


def _ngrams(tokens, n):
    return Counter(tuple(tokens[k : k + n]) for k in range(len(tokens) - n + 1))


def reference_gleu_once(sources, hypotheses, refs, n_max):
    """The per-draw GLEU that recounts every n-gram of every sentence."""
    hyp_len = 0
    ref_len = 0
    num = [0] * n_max
    den = [0] * n_max
    for src, hyp, ref in zip(sources, hypotheses, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, n_max + 1):
            h = _ngrams(hyp, n)
            r = _ngrams(ref, n)
            s = _ngrams(src, n)
            matches = sum((h & r).values())
            penalty = sum((h & (s - r)).values())
            num[n - 1] += max(matches - penalty, 0)
            den[n - 1] += max(len(hyp) + 1 - n, 0)
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    orders = 0
    for n in range(n_max):
        if den[n] == 0:
            continue
        if num[n] == 0:
            return 0.0
        log_sum += math.log(num[n] / den[n])
        orders += 1
    if orders == 0:
        return 0.0
    bp = min(0.0, 1.0 - ref_len / hyp_len)
    return math.exp(bp + log_sum / orders)


def reference_gleu(sources, hypotheses, references, n_max=4, seed=0, samples=500):
    """Multi-reference GLEU that runs the whole per-draw recount per sample."""
    if max(len(refs) for refs in references) == 1:
        return reference_gleu_once(sources, hypotheses, [refs[0] for refs in references], n_max)
    rng = random.Random(seed)
    total = 0.0
    for _ in range(samples):
        chosen = [refs[rng.randrange(len(refs))] for refs in references]
        total += reference_gleu_once(sources, hypotheses, chosen, n_max)
    return total / samples


# A small vocabulary so that hypotheses, sources and references share n-grams.
_sentence = st.lists(st.sampled_from("a b c d e".split()), min_size=0, max_size=7)


@st.composite
def _corpora(draw):
    size = draw(st.integers(1, 6))
    sources = [draw(_sentence) for _ in range(size)]
    hyps = [draw(_sentence) for _ in range(size)]
    refs = [draw(st.lists(_sentence, min_size=1, max_size=4)) for _ in range(size)]
    return sources, hyps, refs


def _varied_corpus():
    """8 sentences with 1-3 references each; a sentence's source, hypothesis
    and references are variants of one base."""
    rng = random.Random(41)
    vocab = "the a cat sat on mat dog ran".split()

    def variant(base):
        # a few substitutions, so that sentences share n-grams of every order
        out = list(base)
        for _ in range(rng.randrange(0, 3)):
            out[rng.randrange(len(out))] = rng.choice(vocab)
        return out

    bases = [[rng.choice(vocab) for _ in range(rng.randrange(5, 12))] for _ in range(8)]
    sources = [variant(b) for b in bases]
    hyps = [variant(b) for b in bases]
    # uneven reference counts, sentences with a single reference among them
    refs = [[variant(b) for _ in range(1 + k % 3)] for k, b in enumerate(bases)]
    return sources, hyps, refs


class TestGleuMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        corpus=_corpora(),
        n_max=st.integers(1, 4),
        seed=st.integers(0, 2**32),
        samples=st.integers(1, 40),
    )
    def test_bit_identical(self, corpus, n_max, seed, samples):
        sources, hyps, refs = corpus
        ours = gleu(sources, hyps, refs, n_max=n_max, seed=seed, samples=samples)
        assert ours == reference_gleu(sources, hyps, refs, n_max=n_max, seed=seed, samples=samples)

    def test_default_samples_bit_identical(self):
        sources, hyps, refs = _varied_corpus()
        score = gleu(sources, hyps, refs, seed=9)
        assert 0.0 < score < 1.0
        assert score == reference_gleu(sources, hyps, refs, seed=9)

    def test_draws_gathered_in_blocks_bit_identical(self, monkeypatch):
        # 24 rows gather the 500 draws of the 8 sentences three at a time,
        # the last two in a shorter block
        monkeypatch.setattr(metrics, "_GATHER_ROWS", 24)
        sources, hyps, refs = _varied_corpus()
        assert gleu(sources, hyps, refs, seed=9) == reference_gleu(sources, hyps, refs, seed=9)

    def test_repeated_ngrams_the_reference_drops_bit_identical(self):
        # The source repeats "a" and "a a", the hypothesis keeps every repeat,
        # and the references drop some or all of them: the penalty
        # min(h, s - r) is partial at "a a b a c e f" and outweighs the matches at
        # "b c d", where the order's count is floored at 0.
        sources = ["a a a b a a c".split(), "x y x y z".split()]
        hyps = ["a a a b a a c e f".split(), "x y x y w".split()]
        refs = [
            ["a a b a c e f".split(), "b c d".split(), "a a a b a a c".split()],
            ["x y z".split(), "x y x y w".split()],
        ]
        h, s = _ngrams(hyps[0], 1), _ngrams(sources[0], 1)
        partial, floored = _ngrams(refs[0][0], 1), _ngrams(refs[0][1], 1)
        assert 0 < (s - partial)[("a",)] < h[("a",)]
        assert sum((h & floored).values()) < sum((h & (s - floored)).values())
        for seed in (0, 1, 2):
            assert gleu(sources, hyps, refs, seed=seed) == reference_gleu(sources, hyps, refs, seed=seed)
        for pick in ((0, 0), (1, 0), (1, 1), (2, 1)):
            chosen = [[r[k]] for r, k in zip(refs, pick)]
            assert gleu(sources, hyps, chosen) == reference_gleu(sources, hyps, chosen)
