"""Alignment kernel tests: frozen examples, a brute-force cost oracle, the
per-cell reference kernel, pure/compiled parity and the compiled sources' pin."""

import hashlib
import random
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gecedit
from gecedit import _align_py, alignment
from gecedit._align_py import OP_DEL, OP_INS, OP_KEEP, OP_SUB
from gecedit.alignment import align, align_ops, available_backends

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


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_matches_oracle_cost_on_random_pairs(backend):
    kernel = available_backends()[backend]
    rng = random.Random(7)
    for _ in range(200):
        src = _random_tokens(rng, rng.randrange(0, 7), VOCAB)
        tgt = _random_tokens(rng, rng.randrange(0, 7), VOCAB)
        ops = kernel(src, tgt)
        ops_reconstruct(ops, src, tgt)
        assert ops_cost(ops, src, tgt) == pytest.approx(oracle_min_cost(tuple(src), tuple(tgt)), abs=1e-12)


def test_pure_and_compiled_agree_exactly():
    backends = available_backends()
    if len(backends) < 2:
        pytest.skip("compiled kernel not built")
    rng = random.Random(99)
    for _ in range(500):
        src = _random_tokens(rng, rng.randrange(0, 9), VOCAB)
        tgt = _random_tokens(rng, rng.randrange(0, 9), VOCAB)
        assert backends["python"](src, tgt) == backends["cython"](src, tgt)


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
# The pure kernel before its per-call cost table: a full character LCS in every
# DP cell.  The table must change nothing, so outputs are compared with ==.


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
def _pairs(draw):
    src = draw(st.lists(_token, max_size=7))
    # target tokens repeat source tokens as well as drawing new ones
    tgt_token = st.one_of(_token, st.sampled_from(src)) if src else _token
    tgt = draw(st.lists(tgt_token, max_size=7))
    return src, tgt


@st.composite
def _suffix_pairs(draw):
    """Pairs that often end in the same tokens, also where the rest is empty."""
    src, tgt = draw(_pairs())
    tail = draw(st.lists(st.one_of(_token, st.sampled_from(src)) if src else _token, max_size=5))
    return src + tail, tgt + tail


class TestCostTableMatchesReference:
    @settings(max_examples=1500, deadline=None)
    @given(pair=_pairs())
    def test_identical_to_reference_kernel(self, pair):
        src, tgt = pair
        assert align_ops(src, tgt) == reference_align_ops(src, tgt)

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


# -- compiled kernel sources -------------------------------------------------
# Cython is not a test dependency, so the generated C cannot be rebuilt and
# compared here; pinning both files catches a .pyx edited without its .c.

_PINNED_SOURCES = {
    "_align_fast.pyx": "16cf5e923df6f8e33e7dc94e5ebc88722397fce9a427043320cf9b9d52f679eb",
    "_align_fast.c": "8c7a7f39cbe2355922591775e4ed01c6e12a140556c1279a98e2642053be5dd3",
}


@pytest.mark.parametrize("name", sorted(_PINNED_SOURCES))
def test_compiled_kernel_sources_pinned(name):
    path = Path(gecedit.__file__).with_name(name)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _PINNED_SOURCES[name], (
        f"{name} changed: regenerate _align_fast.c from _align_fast.pyx with Cython "
        "and update both sha256 values in _PINNED_SOURCES"
    )
