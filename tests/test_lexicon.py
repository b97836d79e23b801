import importlib.util
import json
import os
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecedit.core import is_token
from gecedit.lexicon import (
    PATTERN_FILES,
    Lexicon,
    LexiconError,
    PatternDataError,
    data_dir,
    default_tagset_path,
    load_lexicon,
    load_patterns,
)
from gecedit.noiser import VERB_TYPE_FORMS
from gecedit.tags import load_tagset
from gecedit.transforms import apply_suffix, apply_transform, pluralize, singularize


class TestLexicon:
    def test_bundled_verbs(self, lexicon):
        assert lexicon.form("go", "VBD") == "went"
        assert lexicon.form("go", "VB") == "go"
        assert lexicon.form("stop", "VBG") == "stopping"
        assert lexicon.form("study", "VBZ") == "studies"

    def test_every_lemma_has_vb(self, lexicon):
        for lemma, forms in lexicon.verb_forms.items():
            assert forms["VB"] == lemma

    def test_surface_lookup(self, lexicon):
        readings = lexicon.forms_of("went")
        assert ("go", "VBD") in readings
        assert lexicon.forms_of("Went") == []  # lookups are case-sensitive

    def test_irregular_plurals(self, lexicon):
        assert lexicon.plural_of["child"] == "children"
        assert lexicon.singular_of["people"] == "person"

    def test_singular_of_inverts_plural_of(self, lexicon):
        assert lexicon.singular_of == {p: s for s, p in lexicon.plural_of.items()}
        assert Lexicon({}, {"child": "children"}).singular_of == {"children": "child"}

    def test_malformed_rows_rejected(self, tmp_path):
        bad = tmp_path / "verbs.tsv"
        bad.write_text("go\twent\tgoing\tgone\n")  # only 4 columns
        with pytest.raises(LexiconError, match="5 columns"):
            load_lexicon(bad, None)

    def test_uppercase_lemma_rejected(self, tmp_path):
        bad = tmp_path / "verbs.tsv"
        bad.write_text("Go\twent\tgoing\tgone\tgoes\n")
        with pytest.raises(LexiconError, match="lowercase"):
            load_lexicon(bad, None)


# whitespace that str.split splits at but a text-mode read does not end a line at
_INLINE_SPACES = " \xa0\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u3000"


def reference_bad_column(cols):
    """The per-column token check the loader once made: the first non-empty
    column that is not a token, or None."""
    for col in cols:
        if col and not is_token(col):
            return col
    return None


@settings(max_examples=400, deadline=None)
@given(
    plurals=st.booleans(),
    cols=st.lists(st.text(alphabet="ab" + _INLINE_SPACES, max_size=3), min_size=5, max_size=5),
)
def test_row_rule_matches_the_per_column_token_check(tmp_path_factory, plurals, cols):
    """One whitespace search per line rejects exactly the lines the per-column
    check rejects, in both lexicon files, and names the same first bad column."""
    cols = cols[:2] if plurals else cols
    path = tmp_path_factory.getbasetemp() / "rows.tsv"
    path.write_text("\t".join(cols) + "\n", encoding="utf-8")
    paths = (None, path) if plurals else (path, None)
    bad = reference_bad_column(cols)
    if bad is not None:
        with pytest.raises(LexiconError) as info:
            load_lexicon(*paths)
        assert str(info.value) == f"{path}:1: {bad!r} is not a token"
    else:
        try:
            load_lexicon(*paths)
        except LexiconError as exc:  # an empty column where a word is needed
            assert "not a token" not in str(exc)


class TestPluralRules:
    @pytest.mark.parametrize(
        "singular,plural",
        [
            ("book", "books"),
            ("box", "boxes"),
            ("bus", "buses"),
            ("church", "churches"),
            ("city", "cities"),
            ("day", "days"),
            ("child", "children"),
            ("leaf", "leaves"),
        ],
    )
    def test_pluralize(self, lexicon, singular, plural):
        assert pluralize(singular, lexicon) == plural
        assert singularize(plural, lexicon) == singular

    def test_singularize_non_plural_is_none(self, lexicon):
        assert singularize("go", lexicon) is None
        assert singularize("glass", lexicon) is None


class TestTransformRules:
    def test_case(self, lexicon):
        assert apply_transform("CASE_CAPITAL", "he", lexicon) == ["He"]
        assert apply_transform("CASE_LOWER", "HE", lexicon) == ["he"]
        assert apply_transform("CASE_UPPER", "he", lexicon) == ["HE"]

    def test_split_hyphen_on_first_hyphen(self, lexicon):
        assert apply_transform("SPLIT_HYPHEN", "a-b-c", lexicon) == ["a", "b-c"]
        assert apply_transform("SPLIT_HYPHEN", "-x", lexicon) is None

    def test_verb(self, lexicon):
        assert apply_transform("VERB_VBZ_VB", "goes", lexicon) == ["go"]
        assert apply_transform("VERB_VBZ_VB", "table", lexicon) is None

    def test_suffix_rules(self):
        assert apply_suffix("APPEND_ing", "walk") == "walking"
        assert apply_suffix("REMOVE_ing", "walking") == "walk"
        assert apply_suffix("REMOVE_ing", "walk") is None
        assert apply_suffix("ED_TO_ING", "played") == "playing"
        assert apply_suffix("Y_TO_IES", "study") == "studies"
        assert apply_suffix("Y_TO_IES", "studio") is None
        # every rule needs a non-empty result, whatever stem it leaves
        assert apply_suffix("ING_TO_E", "ing") == "e"
        assert apply_suffix("REMOVE_ing", "ing") is None


class TestPatterns:
    def test_prepositions_contain_empty_and_listed(self, patterns):
        assert "" in patterns.prepositions
        for p in ("of", "with", "at", "near"):
            assert p in patterns.prepositions
        assert len(patterns.prepositions) == 47

    def test_determiners_exact(self, patterns):
        assert tuple(patterns.determiners) == ("the", "a", "an", "that", "this", "")

    def test_letter_patterns(self, patterns):
        mapping = dict(patterns.letter_patterns)
        assert mapping["kn"] == "n"
        assert mapping["tion"] == "sion"
        assert mapping["sion"] == "tion"
        assert len(patterns.letter_patterns) == 39

    def test_vowel_combinations(self, patterns):
        assert set(patterns.vowel_combinations) == {
            "ea", "ou", "ei", "ie", "ai", "uo", "io", "oi", "au", "ua", "ow", "wo"
        }

    def test_similar_sound(self, patterns):
        mapping = dict(patterns.similar_sound)
        assert mapping["a"] == ("u",)
        assert mapping["i"] == ("e", "a", "y")

    def test_verb_and_pos_types(self):
        # the one list of verb types, in the order type_verbform draws them
        assert tuple(VERB_TYPE_FORMS) == (
            "inf", "1sg", "2sg", "3sg", "pl", "part", "p", "1sgp", "2sgp",
            "3sgp", "ppl", "ppart",
        )

    def test_checksums_verified(self, tmp_path):
        work = tmp_path / "data"
        shutil.copytree(data_dir(), work)
        (work / "prepositions.txt").write_text("tampered\n")
        with pytest.raises(PatternDataError, match="checksum"):
            load_patterns(work)

    def test_missing_file_rejected(self, tmp_path):
        work = tmp_path / "data"
        shutil.copytree(data_dir(), work)
        (work / "vowel_combinations.txt").unlink()
        with pytest.raises(PatternDataError, match="missing"):
            load_patterns(work)

    def test_manifest_covers_all_pattern_files(self):
        manifest = json.loads((data_dir() / "manifest.json").read_text())
        assert set(manifest["files"]) == set(PATTERN_FILES)

    def test_loader_stable_across_runs(self):
        assert load_patterns() == load_patterns()

    def test_a_changed_pattern_file_fails_its_checksum_after_a_good_load(self, tmp_path):
        # the same size and modification time: only the bytes tell the change
        work = tmp_path / "data"
        shutil.copytree(data_dir(), work)
        assert load_patterns(work) == load_patterns()
        path = work / "prepositions.txt"
        st, data = path.stat(), path.read_bytes()
        path.write_bytes(data[1:2] + data[:1] + data[2:])
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert path.read_bytes() != data and path.stat().st_mtime_ns == st.st_mtime_ns
        with pytest.raises(PatternDataError, match="checksum mismatch for prepositions.txt"):
            load_patterns(work)

    def test_only_none_selects_the_bundled_directory(self, tmp_path, monkeypatch):
        # not even a pattern directory in the working directory makes '' a directory
        shutil.copytree(data_dir(), tmp_path, dirs_exist_ok=True)
        monkeypatch.chdir(tmp_path)
        assert load_patterns(".") == load_patterns(None)
        with pytest.raises(PatternDataError, match="missing pattern directory: ''"):
            load_patterns("")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "expected"),
            ('"files"', "expected"),
            ('{"files": ["prepositions.txt"]}', "expected"),
            ('{"files": ', "Expecting value"),
        ],
    )
    def test_a_bad_manifest_is_a_pattern_error_naming_it(self, tmp_path, text, message):
        work = tmp_path / "data"
        shutil.copytree(data_dir(), work)
        manifest = work / "manifest.json"
        manifest.write_text(text)
        with pytest.raises(PatternDataError, match=f"^{re.escape(str(manifest))}: {message}"):
            load_patterns(work)

def test_one_parse_serves_a_pipelines_data_at_once(tmp_path):
    """The bundled lexicon, the pattern inventories, the bundled tagset and a
    compact one, loaded in turn, are each parsed once: every later load gives
    the first load's object, and equal bytes at another path do too."""
    compact = tmp_path / "compact.tagset"
    compact.write_text("$KEEP\n$DELETE\n$UNKNOWN\n$APPEND_the\n")
    loads = [load_lexicon, load_patterns, lambda: load_tagset(default_tagset_path()),
             lambda: load_tagset(compact)]
    first = [load() for load in loads]
    for _ in range(3):
        assert all(load() is obj for load, obj in zip(loads, first))
    shutil.copyfile(compact, tmp_path / "copy.tagset")
    assert load_tagset(tmp_path / "copy.tagset") is first[3]


def test_build_data_reproduces_the_bundled_files(tmp_path, monkeypatch):
    tool = Path(__file__).resolve().parents[1] / "tools" / "build_data.py"
    spec = importlib.util.spec_from_file_location("build_data", tool)
    build_data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_data)
    monkeypatch.setattr(build_data, "DATA", tmp_path)
    build_data.main()
    bundled = sorted(p.name for p in data_dir().iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == bundled and len(bundled) == 11
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (data_dir() / name).read_bytes(), name
