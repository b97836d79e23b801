"""Alignment kernel tests: frozen examples, a brute-force cost oracle, the
per-cell full-table reference kernel, and the C kernel against the pure one.

The pure kernel fills a band of the DP table and the reference kernel the
whole table, so the GEC-like pairs below (a few edits to a sentence with
repeated tokens) check the band, its acceptance test and its rerun.  The C
kernel is built from this checkout by the ``c_align_ops`` fixture."""

import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_util import make_corpus
from gecedit import _align_py, alignment, metrics
from gecedit._align_py import OP_DEL, OP_INS, OP_KEEP, OP_SUB
from gecedit.alignment import align, align_ops, available_backends
from gecedit.cli import main

# -- independent cost oracle -------------------------------------------------
# Recursive minimum over all monotone alignments; no tie-breaking, no DP
# tables shared with the implementation under test.


def _oracle_lcs(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def _oracle_sub_cost(a: str, b: str) -> float:
    if a == b:
        return 0.0
    sim = 2.0 * _oracle_lcs(a, b) / (len(a) + len(b))
    return 1.0 - sim / 2.0 if sim >= 0.5 else 1.0


def oracle_min_cost(src, tgt) -> float:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> float:
        if i == len(src) and j == len(tgt):
            return 0.0
        best = float("inf")
        if i < len(src):
            best = min(best, rec(i + 1, j) + 1.0)
        if j < len(tgt):
            best = min(best, rec(i, j + 1) + 1.0)
        if i < len(src) and j < len(tgt):
            best = min(best, rec(i + 1, j + 1) + _oracle_sub_cost(src[i], tgt[j]))
        return best

    return rec(0, 0)


def ops_cost(ops, src, tgt) -> float:
    total = 0.0
    for op, i, j in ops:
        if op in (OP_DEL, OP_INS):
            total += 1.0
        elif op == OP_SUB:
            total += _oracle_sub_cost(src[i], tgt[j])
    return total


def ops_reconstruct(ops, src, tgt):
    """Validity check: the op path must consume both sequences in order."""
    i = j = 0
    for op, oi, oj in ops:
        if op in (OP_KEEP, OP_SUB):
            assert (oi, oj) == (i, j)
            i += 1
            j += 1
        elif op == OP_DEL:
            assert oi == i
            i += 1
        else:
            assert oj == j
            j += 1
    assert (i, j) == (len(src), len(tgt))


def _random_tokens(rng, n, vocab):
    return [rng.choice(vocab) for _ in range(n)]


VOCAB = ["a", "ab", "abc", "go", "went", "he", "the", "cat", "cats", "x", "overall"]


@pytest.fixture(params=["python", "c"])
def kernel(request):
    """Each alignment kernel on its own, without the suffix trim."""
    if request.param == "python":
        return _align_py.align_ops
    return request.getfixturevalue("c_align_ops")


def test_matches_oracle_cost_on_random_pairs(kernel):
    rng = random.Random(7)
    for _ in range(200):
        src = _random_tokens(rng, rng.randrange(0, 7), VOCAB)
        tgt = _random_tokens(rng, rng.randrange(0, 7), VOCAB)
        ops = kernel(src, tgt)
        ops_reconstruct(ops, src, tgt)
        assert ops_cost(ops, src, tgt) == pytest.approx(oracle_min_cost(tuple(src), tuple(tgt)), abs=1e-12)


def test_substitution_forced_by_equal_lengths():
    pair = align(["He", "go"], ["He", "went"])
    assert pair.span_tokens(0) == ["He"]
    assert pair.span_tokens(1) == ["went"]


def test_identity_alignment():
    pair = align(["He", "go"], ["He", "go"])
    assert pair.spans == ((0, 1), (1, 2))


def test_insertion_attaches_left():
    pair = align(["a", "c"], ["a", "b", "c"])
    assert pair.span_tokens(0) == ["a", "b"]
    assert pair.span_tokens(1) == ["c"]


def test_leading_insertion_attaches_to_first_token():
    pair = align(["b"], ["a", "b"])
    assert pair.span_tokens(0) == ["a", "b"]


def test_empty_source_rejected():
    with pytest.raises(ValueError):
        align([], ["a"])


def test_empty_target_gives_empty_spans():
    pair = align(["a", "b"], [])
    assert pair.spans == ((0, 0), (0, 0))


def test_spans_partition_target():
    rng = random.Random(3)
    for _ in range(200):
        src = _random_tokens(rng, rng.randrange(1, 8), VOCAB)
        tgt = _random_tokens(rng, rng.randrange(0, 8), VOCAB)
        pair = align(src, tgt)
        pos = 0
        for start, end in pair.spans:
            assert start == pos and end >= start
            pos = end
        assert pos == len(tgt)


def test_similar_token_pairs_up_instead_of_delete_insert():
    ops = align_ops(["over", "all", "fine"], ["overall", "fine"])
    kinds = [op for op, _, _ in ops]
    assert kinds.count(OP_SUB) == 1 and kinds.count(OP_DEL) == 1


# -- per-cell reference kernel -----------------------------------------------
# The pure kernel before its cost memo and its band: a full character LCS in
# every cell of the whole DP table.  Neither may change anything, so outputs
# are compared with ==.


def reference_lcs_len(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    prev = [0] * (lb + 1)
    cur = [0] * (lb + 1)
    for i in range(1, la + 1):
        ai = a[i - 1]
        cur[0] = 0
        for j in range(1, lb + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                up = prev[j]
                left = cur[j - 1]
                cur[j] = up if up >= left else left
        prev, cur = cur, prev
    return prev[lb]


def reference_sub_cost(a: str, b: str) -> float:
    if a == b:
        return 0.0
    sim = 2.0 * reference_lcs_len(a, b) / (len(a) + len(b))
    if sim >= 0.5:
        return 1.0 - sim / 2.0
    return 1.0


def reference_align_ops(src, tgt):
    n, m = len(src), len(tgt)
    width = m + 1
    opmat = bytearray((n + 1) * width)
    for j in range(1, width):
        opmat[j] = OP_INS
    prev = [float(j) for j in range(width)]
    cur = [0.0] * width
    for i in range(1, n + 1):
        si = src[i - 1]
        cur[0] = float(i)
        base = i * width
        opmat[base] = OP_DEL
        for j in range(1, width):
            c = reference_sub_cost(si, tgt[j - 1])
            best = prev[j - 1] + c
            op = OP_KEEP if c == 0.0 else OP_SUB
            t = prev[j] + 1.0
            if t < best:
                best = t
                op = OP_DEL
            t = cur[j - 1] + 1.0
            if t < best:
                best = t
                op = OP_INS
            cur[j] = best
            opmat[base + j] = op
        prev, cur = cur, prev

    out = []
    i, j = n, m
    while i > 0 or j > 0:
        op = opmat[i * width + j]
        if op == OP_INS:
            j -= 1
            out.append((OP_INS, -1, j))
        elif op == OP_DEL:
            i -= 1
            out.append((OP_DEL, i, -1))
        else:
            i -= 1
            j -= 1
            out.append((op, i, j))
    out.reverse()
    return out


# A few characters, so that tokens often share enough of them to reach the
# similarity threshold: an astral letter and emoji, a combining acute accent,
# and case traps ('ß'.upper() == 'SS', 'İ'.lower() == 'i̇').
_CHARS = "abs\u00dfS\u0130i\u0301\U00010348\U0001f600"
_token = st.one_of(st.text(_CHARS, max_size=7), st.text(max_size=5))


@st.composite
def _pairs(draw, token=_token):
    src = draw(st.lists(token, max_size=7))
    # target tokens repeat source tokens as well as drawing new ones
    tgt_token = st.one_of(token, st.sampled_from(src)) if src else token
    tgt = draw(st.lists(tgt_token, max_size=7))
    return src, tgt


@st.composite
def _suffix_pairs(draw):
    """Pairs that often end in the same tokens, also where the rest is empty."""
    src, tgt = draw(_pairs())
    tail = draw(st.lists(st.one_of(_token, st.sampled_from(src)) if src else _token, max_size=5))
    return src + tail, tgt + tail


# Words that repeat within a sentence, so that equal-cost alignments tie, and
# that pair up under the similarity discount ("cat"/"cats", "over"/"overall").
_GEC_WORDS = ["the", "a", "cat", "cats", "went", "go", "goes", "he", "in", "on", ".", ",",
              "over", "all", "overall"]


@st.composite
def _gec_pairs(draw):
    """A 0-40 token sentence and a correction of it by 0-8 inserts, deletes
    and substitutions, the shape of the pairs the tagger aligns."""
    word = st.sampled_from(_GEC_WORDS)
    n = draw(st.integers(0, 40))  # spread evenly, where st.lists favours short lists
    src = draw(st.lists(word, min_size=n, max_size=n))
    tgt = list(src)
    edits = draw(st.lists(st.tuples(st.sampled_from("ids"), st.integers(0, 48), word), max_size=8))
    for kind, pos, w in edits:
        if kind == "i":
            tgt.insert(pos % (len(tgt) + 1), w)
        elif tgt and kind == "d":
            del tgt[pos % len(tgt)]
        elif tgt:
            tgt[pos % len(tgt)] = w
    return src, tgt


class TestCostTableMatchesReference:
    @settings(max_examples=1500, deadline=None)
    @given(pair=_pairs())
    def test_identical_to_reference_kernel(self, pair):
        src, tgt = pair
        assert align_ops(src, tgt) == reference_align_ops(src, tgt)

    @settings(max_examples=300, deadline=None)
    @given(pair=_gec_pairs())
    def test_band_identical_to_reference_on_gec_pairs(self, pair):
        src, tgt = pair
        assert _align_py.align_ops(src, tgt) == reference_align_ops(src, tgt)

    @pytest.mark.parametrize(
        "src, tgt, bounds",
        [
            # a leading insertion runs the optimal path three diagonals off the
            # main one, outside the first band, whose best path costs 7.0
            ("b c d e f g", "x y z b c d e", [3, 7]),
            # the first band costs 5.0, exactly the indels of the nearest
            # diagonal outside it, and its ops are not the full table's
            ("c d a c b d", "b c x d a", [3, 5]),
            # the first band costs 5.0, and so would the band one diagonal wider
            ("b b a a b c", "b d x b a a", [2, 5]),
        ],
    )
    def test_rejected_band_reruns_once(self, monkeypatch, src, tgt, bounds):
        src, tgt = src.split(), tgt.split()
        seen = []
        band_dp = _align_py._band_dp

        def spy(src, tgt, bound, *memo):
            seen.append(bound)
            return band_dp(src, tgt, bound, *memo)

        monkeypatch.setattr(_align_py, "_band_dp", spy)
        assert _align_py.align_ops(src, tgt) == reference_align_ops(src, tgt)
        assert seen == bounds

    def test_leading_insertion_ops(self):
        src, tgt = "b c d e f g".split(), "x y z b c d e".split()
        assert _align_py.align_ops(src, tgt) == [(OP_INS, -1, 0), (OP_INS, -1, 1), (OP_INS, -1, 2)] + [
            (OP_KEEP, i, i + 3) for i in range(4)
        ] + [(OP_DEL, 4, -1), (OP_DEL, 5, -1)]

    @pytest.mark.parametrize(
        "src, tgt",
        [
            # sim == 0.5 exactly, where the length bound is tight
            (["a", "x"], ["abb"]),
            # sim == 0.5 exactly, where the bag bound is tight and the length bound is not
            (["ab", "x"], ["ac"]),
        ],
    )
    def test_similarity_exactly_at_threshold(self, src, tgt):
        ops = align_ops(src, tgt)
        assert ops == reference_align_ops(src, tgt)
        assert ops == [(OP_SUB, 0, 0), (OP_DEL, 1, -1)]

    @settings(max_examples=1000, deadline=None)
    @given(pair=_suffix_pairs())
    def test_suffix_trim_matches_every_raw_kernel(self, pair):
        src, tgt = pair
        for name, kernel in sorted(available_backends().items()):
            assert alignment._suffix_trimmed(kernel)(src, tgt) == kernel(src, tgt), name

    def test_prefix_is_not_trimmed(self):
        # the kernel's tie-breaking deletes the first of two equal tokens
        assert align_ops(["a", "a"], ["a"]) == [(OP_DEL, 0, -1), (OP_KEEP, 1, 0)]

    @settings(max_examples=500, deadline=None)
    @given(a=_token, b=_token)
    def test_bit_parallel_lcs_equals_dp_lcs(self, a, b):
        lcs = _align_py._lcs_bits(_align_py._char_masks(a), len(a), b)
        assert lcs == reference_lcs_len(a, b)

    @settings(max_examples=500, deadline=None)
    @given(a=_token, b=_token)
    def test_bag_overlap_bounds_lcs(self, a, b):
        index: dict = {}
        overlap = (_align_py._bag_bits(a, index) & _align_py._bag_bits(b, index)).bit_count()
        assert overlap == sum((Counter(a) & Counter(b)).values())
        assert overlap >= reference_lcs_len(a, b)


# -- the C kernel against the pure one ----------------------------------------

# Tokens past 64 characters, from the small alphabet so that long tokens still
# reach the similarity threshold, and from all of Unicode.
_any_token = st.one_of(_token, st.text(_CHARS, min_size=60, max_size=90), st.text(min_size=65, max_size=70))


@settings(max_examples=1000, deadline=None)
@given(pair=_pairs(_any_token), as_tuples=st.booleans())
def test_pure_and_compiled_agree_exactly(c_align_ops, pair, as_tuples):
    src, tgt = pair
    expected = _align_py.align_ops(src, tgt)
    if as_tuples:
        src, tgt = tuple(src), tuple(tgt)
    assert c_align_ops(src, tgt) == expected


@settings(max_examples=300, deadline=None)
@given(pair=_gec_pairs())
def test_compiled_full_table_equals_pure_band_on_gec_pairs(c_align_ops, pair):
    src, tgt = pair
    assert c_align_ops(src, tgt) == _align_py.align_ops(src, tgt)


@pytest.mark.parametrize("src, tgt", [(["a", 1], ["a"]), (["a"], [b"a"]), (["a"], [None]), (1, ["a"])])
def test_compiled_kernel_rejects_non_str_tokens(c_align_ops, src, tgt):
    with pytest.raises(TypeError):
        c_align_ops(src, tgt)


def test_tag_and_score_identical_under_both_kernels(c_align_ops, tmp_path, monkeypatch, capsys):
    clean = tmp_path / "clean.txt"
    clean.write_text("".join(" ".join(s) + "\n" for s in make_corpus(300, seed=8)))
    for seed in (1, 2):  # s1.txt and s2.txt are the source sides of two noised corpora
        assert main(["noise", "--in", str(clean), "--out", str(tmp_path / f"n{seed}.tsv"),
                     "--seed", str(seed), "--workers", "1"]) == 0
        lines = (tmp_path / f"n{seed}.tsv").read_text().splitlines()
        (tmp_path / f"s{seed}.txt").write_text("".join(line.split("\t")[0] + "\n" for line in lines))
    capsys.readouterr()  # noise's stats lines
    labels = tmp_path / "labels.jsonl"

    def run(kernel):
        trimmed = alignment._suffix_trimmed(kernel)
        monkeypatch.setattr(alignment, "align_ops", trimmed)
        monkeypatch.setattr(metrics, "align_ops", trimmed)
        assert main(["tag", "--src-tgt", str(tmp_path / "n1.tsv"), "--out", str(labels), "--workers", "1"]) == 0
        assert main(["score", "--src", str(tmp_path / "s1.txt"), "--hyp", str(tmp_path / "s2.txt"),
                     "--ref", str(clean), "--workers", "1"]) == 0
        return labels.read_bytes(), capsys.readouterr().out

    calls = []

    def counted(src, tgt):
        calls.append(1)
        return c_align_ops(src, tgt)

    assert run(_align_py.align_ops) == run(counted)
    assert calls
