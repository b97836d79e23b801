"""Conversion of a (source, target) sentence pair into per-token edit tags.

The tag sequence always has one tag per source token.  Classification is
"inverse application": a transform or suffix tag is emitted only when applying
it to the source token reproduces the aligned target exactly, which makes the
apply side a strict inverse by construction.
"""

from __future__ import annotations

import weakref
from typing import Sequence

from gecedit.alignment import align
from gecedit.lexicon import Lexicon
from gecedit.tags import (
    DELETE_TAG,
    KEEP_TAG,
    UNKNOWN_TAG,
    EditTag,
    TagFamily,
    TagSet,
)
from gecedit.transforms import MERGE_JOINERS, SUFFIX_RULES, VERB_RULES, apply_suffix, apply_transform


class _Rules:
    """The merge, transform and suffix rules of one tagset, indexed for ``seq2edit``.

    Only the rules the tagset contains are kept, in priority order.  Merge
    rules carry their joiner.  Verb rules carry their source form, so a token
    is tried only against the rules its lexicon readings can satisfy.  Suffix
    rules are indexed by the ``(old ending, new ending)`` pair they rewrite,
    so a (token, target) pair looks up the few ways to split both after a
    shared stem instead of trying every rule.  A rule found either way is
    still accepted only when applying it reproduces the target.  The rules
    depend on the tagset alone; the lexicon is read at classification time.
    """

    def __init__(self, tagset: TagSet):
        def present(family, names):
            tags = ((name, EditTag(family, name)) for name in names)
            return tuple((name, tag) for name, tag in tags if tag in tagset)

        merge = present(TagFamily.MERGE, MERGE_JOINERS)
        self.merge = tuple((MERGE_JOINERS[name], tag) for name, tag in merge)
        transform = TagFamily.TRANSFORM
        self.case = present(transform, ("CASE_CAPITAL", "CASE_LOWER", "CASE_UPPER"))
        self.split = present(transform, ("SPLIT_HYPHEN",))
        self.agreement = present(transform, ("AGREEMENT_PLURAL", "AGREEMENT_SINGULAR"))
        self.verb = tuple(
            (VERB_RULES[name][0], name, tag) for name, tag in present(transform, VERB_RULES)
        )
        self.suffix: dict[tuple[str, str], list[tuple[int, str, EditTag]]] = {}
        suffix_rules = present(TagFamily.SUFFIXTRANSFORM, SUFFIX_RULES)
        for priority, (name, tag) in enumerate(suffix_rules):
            self.suffix.setdefault(SUFFIX_RULES[name], []).append((priority, name, tag))
        self.longest_old = max((len(old) for old, _new in self.suffix), default=0)
        self.longest_new = max((len(new) for _old, new in self.suffix), default=0)

    def suffix_candidates(self, token: str, target: str) -> list[tuple[int, str, EditTag]]:
        """Suffix rules that may rewrite ``token`` to ``target``, in priority order.

        A rule ``(old, new)`` can only fit when ``token = stem + old`` and
        ``target = stem + new``, so the stem is a common prefix of both, and
        ``old`` and ``new`` are no longer than the longest in the tagset.
        """
        found = []
        p = max(0, len(token) - self.longest_old, len(target) - self.longest_new)
        end = min(len(token), len(target))
        if p <= end and token[:p] == target[:p]:
            suffix = self.suffix
            while True:
                found.extend(suffix.get((token[p:], target[p:]), ()))
                if p == end or token[p] != target[p]:
                    break
                p += 1
            found.sort()
        return found


# The rules of each tagset, built on its first classification.
_RULES: "weakref.WeakKeyDictionary[TagSet, _Rules]" = weakref.WeakKeyDictionary()


def _rules_of(tagset: TagSet) -> _Rules:
    rules = _RULES.get(tagset)
    if rules is None:
        rules = _RULES[tagset] = _Rules(tagset)
    return rules


def classify_edit(
    src_token: str,
    tgt_span: Sequence[str],
    lexicon: Lexicon,
    tagset: TagSet,
) -> EditTag:
    """Pick the first applicable tag for one aligned (token, span) pair.

    Priority: KEEP, DELETE, case transforms, hyphen split, agreement, verb
    form, literal suffix edit, replace, append, UNKNOWN.  Merge tags are
    assigned by ``seq2edit`` before per-token classification.
    """
    span = list(tgt_span)
    if span == [src_token]:
        return KEEP_TAG
    if not span:
        return DELETE_TAG

    rules = _rules_of(tagset)
    if len(span) == 1:
        target = span[0]
        for name, tag in rules.case:
            if apply_transform(name, src_token, lexicon) == span:
                return tag
        for name, tag in rules.agreement:
            if apply_transform(name, src_token, lexicon) == span:
                return tag
        readings = lexicon.forms_of(src_token)
        if readings and rules.verb:
            forms = {form for _lemma, form in readings}
            for form, name, tag in rules.verb:
                if form in forms and apply_transform(name, src_token, lexicon) == span:
                    return tag
        for _priority, name, tag in rules.suffix_candidates(src_token, target):
            if apply_suffix(name, src_token) == target:
                return tag
        if "$REPLACE_" + target in tagset:
            return EditTag(TagFamily.REPLACE, target)
        return UNKNOWN_TAG
    if len(span) == 2:
        for name, tag in rules.split:
            if apply_transform(name, src_token, lexicon) == span:
                return tag
    if span[0] == src_token and "$APPEND_" + span[1] in tagset:
        # Only the first inserted token is encoded; iterative refinement
        # recovers the rest.
        return EditTag(TagFamily.APPEND, span[1])
    return UNKNOWN_TAG


def seq2edit(
    source: Sequence[str],
    target: Sequence[str],
    lexicon: Lexicon,
    tagset: TagSet,
) -> list[EditTag]:
    """Derive the edit-tag sequence turning ``source`` into ``target``.

    Output length always equals ``len(source)``.  Adjacent source tokens whose
    concatenation (direct or hyphenated) equals one target token get a merge
    tag on the first token; the second, which the merge consumes, is KEEP when
    the merged word is the whole combined span and UNKNOWN otherwise.
    """
    if len(source) == 0:
        raise ValueError("seq2edit requires a non-empty source sentence")
    pair = align(source, target)
    n = len(source)
    tags: list[EditTag | None] = [None] * n

    merges = _rules_of(tagset).merge
    if merges:
        spans, target = pair.spans, pair.target
        i = 0
        while i < n - 1:
            # the spans of tokens i and i + 1 are adjacent: together target[start:end]
            start, end = spans[i][0], spans[i + 1][1]
            step = 1
            if start < end:
                head = target[start]
                for joiner, tag in merges:
                    if head == source[i] + joiner + source[i + 1]:
                        # The consumed token's tag is never applied, so a rest of
                        # the span after the merged word cannot be encoded.
                        tags[i] = tag
                        tags[i + 1] = KEEP_TAG if start + 1 == end else UNKNOWN_TAG
                        step = 2
                        break
            i += step

    for i in range(n):
        if tags[i] is None:
            tags[i] = classify_edit(source[i], pair.span_tokens(i), lexicon, tagset)
    return tags  # type: ignore[return-value]
