"""Golden digests: every table ``scan`` writes, in CSV and JSON, on seeds 1 and 2 of the
benchmark's scan_mixed and compare_fk corpora, must keep the SHA-256 in ``golden.json``.

The corpora come from ``bench/corpus.py``, imported read-only, and each corpus's manifest
digest is pinned too, so a change in the generator (a numpy RNG stream, say) fails as
"corpus changed" and not as changed tables.  compare, dupes and stats write scan's tables
of the same names, which other tests and ``ci/checks.py`` pin.  A change that means to
alter cells updates ``golden.json`` with the output of ``golden()`` (README shows how)."""

import functools
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

from urdf_inspect.cli import run_cli

GOLDEN = Path(__file__).with_name("golden.json")
CORPORA = ("scan_mixed_1", "scan_mixed_2", "compare_fk_1", "compare_fk_2")


@functools.cache
def _bench_corpus():
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up by name
    return module


def digests(name: str, work: Path) -> dict:
    """The manifest digest and every scan table's digest of one corpus, written under ``work``."""
    workload, seed = name.rsplit("_", 1)
    manifest = _bench_corpus().make_corpus(workload, int(seed), work / "corpus")
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"  # as bench/corpus.py writes it
    tables = {}
    for fmt in ("csv", "json"):
        assert run_cli(["--format", fmt, "--out", str(work / fmt), "scan", str(work / "corpus")]) == 0
        tables.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                      for p in sorted((work / fmt).iterdir()))
    return {"manifest": hashlib.sha256(text.encode()).hexdigest(), "tables": tables}


def golden() -> dict:
    """What ``golden.json`` holds, computed afresh."""
    with tempfile.TemporaryDirectory() as work:
        return {name: digests(name, Path(work, name)) for name in CORPORA}


@pytest.mark.parametrize("name", CORPORA)
def test_scan_tables_match_golden_digests(name, tmp_path):
    want, got = json.loads(GOLDEN.read_text())[name], digests(name, tmp_path)
    if got["manifest"] != want["manifest"]:
        pytest.fail(f"corpus changed: the {name} manifest no longer has its golden digest")
    changed = sorted(t for t in want["tables"].keys() | got["tables"].keys()
                     if want["tables"].get(t) != got["tables"].get(t))
    assert not changed, f"tables changed on {name}: {', '.join(changed)}"
