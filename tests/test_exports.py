from pathlib import Path

import pytest

import gecedit

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in gecedit.__all__ if not hasattr(gecedit, name)]
    assert missing == []
    assert len(set(gecedit.__all__)) == len(gecedit.__all__)


def test_version_is_the_project_version():
    with open(ROOT / "pyproject.toml", "rb") as fp:
        project = tomllib.load(fp)["project"]
    assert gecedit.__version__ == project["version"]
