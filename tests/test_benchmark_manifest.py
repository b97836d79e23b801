"""BENCHMARK.json must be what perfbench/manifest.py generates from its tables."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_json_is_up_to_date(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import manifest

    assert manifest.main([]) == 0  # reads BENCHMARK.json; writes nothing
